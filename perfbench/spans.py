"""Span recorder for the traced benchmark run, attached from outside ``src/``.

The traced run replaces carle's public names with thin wrappers that open a
span around each call, then restores the originals. Each name is patched
where callers look it up: ``carle.features.transform`` rather than
``carle.cwt.transform``, because ``features`` imported the function into its
own namespace. A name a later refactor removes is reported as absent; the
run goes on without it.

Which end-to-end metric each layer metric should move, and where:

- dataio.read_signal_s, signal.gaussian_filter_s, features.*: windows_per_s
  on extract-long.
- cwt.*: windows_per_s on extract-long, latency_p50_ms on monitor-pronostia.
- nn.layers.*, nn.model.*, nn.train.*: time_to_model_s on train-pronostia;
  the nn.layers forward times also latency_p50_ms on monitor-pronostia.
- forest.fit_s, forest.split_scan_*, forest.nodes: time_to_model_s on
  train-pronostia; forest.predict_s: latency_p50_ms and latency_p95_ms on
  monitor-pronostia.
- checkpoint.save_s: time_to_model_s on train-pronostia; checkpoint.load_s:
  setup_s and peak_rss_mb on monitor-pronostia.
- pipeline.predict_s: latency_p50_ms on monitor-pronostia.
"""

import functools
import importlib
import math
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Envelope exp(-tau^2/2) of the Morlet wavelet drops below 1e-8 beyond this
# |tau|; a direct convolution at scale a therefore has 2*ceil(TRUNC_TAU*a)+1
# taps. Kept here so the MAC count does not depend on how the program
# computes the transform.
TRUNC_TAU = math.sqrt(2.0 * math.log(1e8))


class Recorder:
    """In-memory spans (id, parent id, name, start, end, op) plus counters.

    ``op`` is the identifier of the benchmark operation (one extraction, one
    training, one monitor request) that caused the span.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.broken = set()  # spans whose counter hook no longer fits the call
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.op)

    def inside(self):
        """True within one of the benchmark's own ``bench.*`` spans."""
        return bool(self._stack) and self._stack[0][1].startswith("bench.")

    def totals(self, roots=("bench.op", "bench.setup")):
        """Per span name: (calls, inclusive seconds, self seconds).

        Only spans under a top-level span named in ``roots`` count, so work
        the benchmark does around the measured ops (output checks) is left
        out. Self time is a span's duration minus the durations of its
        direct children; spans never overlap their siblings, so this is
        exact.
        """
        child = defaultdict(float)
        top = {}
        for sid, parent, name, start, end, _ in self.spans:
            top[sid] = name if parent < 0 else top[parent]
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            if top[sid] not in roots:
                continue
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[sid]
        return calls, incl, self_s

    def to_json(self):
        return {
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


# -- counters taken at the span boundaries ----------------------------------


def _count_macs(rec, args, result):
    samples, grid = args[0], args[1]
    taps = 2 * np.ceil(TRUNC_TAU * np.asarray(grid.scales, dtype=np.float64)) + 1
    rec.counts["cwt.direct_macs"] += int(len(samples) * taps.sum())


def _count_windows(rec, args, result):
    rec.counts["features.windows_in"] += len(result)


def _count_vectors(rec, args, result):
    rec.counts["features.windows_out"] += len(result)


def _count_nodes(rec, args, result):
    rec.counts["forest.nodes"] += sum(len(tree.feature) for tree in result.trees)


def _count_bytes(rec, args, result):
    rec.counts["checkpoint.bytes"] += os.path.getsize(args[0])


LAYER_CLASSES = ("Conv1d", "Lstm", "MultiHeadAttention", "Dense")

# (module, attribute path in it, span name, counter hook or None)
WRAPS = (
    ("carle.dataio", "read_signal_csv", "dataio.read_signal", None),
    ("carle.features", "gaussian_filter", "signal.gaussian_filter", None),
    ("carle.features", "extract_windows", "signal.extract_windows", _count_windows),
    ("carle.features", "transform", "cwt.transform", _count_macs),
    ("carle.features", "moments", "features.moments", None),
    ("carle.features", "energy", "features.energy", None),
    ("carle.features", "entropy", "features.entropy", None),
    ("carle.features", "dominant_frequency", "features.dominant_frequency", None),
    ("carle.features", "extract_features", "features.extract", _count_vectors),
    ("carle.pipeline", "extract_features", "features.extract", _count_vectors),
    *(
        ("carle.nn.layers", f"{cls}.{fn}", f"nn.layers.{cls}.{fn}", None)
        for cls in LAYER_CLASSES
        for fn in ("forward", "backward")
    ),
    ("carle.nn.model", "CarleNet.forward", "nn.model.forward", None),
    ("carle.nn.model", "CarleNet.backward", "nn.model.backward", None),
    ("carle.nn.model", "CarleNet.get_weights", "nn.train.snapshot", None),
    ("carle.nn.train", "RmsProp.step", "nn.train.rmsprop", None),
    ("carle.pipeline", "train", "nn.train.train", None),
    ("carle.forest", "fit", "forest.fit", _count_nodes),
    ("carle.forest", "split_scan", "forest.split_scan", None),
    ("carle.forest", "Forest.predict", "forest.predict", None),
    ("carle.pipeline", "save_checkpoint", "checkpoint.save", _count_bytes),
    ("carle.pipeline", "load_checkpoint", "checkpoint.load", None),
    ("carle.pipeline", "extract_matrix", "pipeline.extract_matrix", None),
    ("carle.pipeline", "train_model", "pipeline.train_model", None),
    ("carle.pipeline", "save_model", "pipeline.save_model", None),
    ("carle.pipeline", "load_model", "pipeline.load_model", None),
    ("carle.pipeline", "TrainedModel.predict", "pipeline.predict", None),
)


def _wrap(rec, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if hook is not None and rec.inside():
            try:
                hook(rec, args, result)
            except (TypeError, AttributeError, IndexError, OSError):
                rec.broken.add(name)
        return result

    return wrapper


@contextmanager
def traced(rec):
    """Install span wrappers on carle's public names; yields absent span names.

    Modules are reached through importlib, because some package namespaces
    rebind a submodule's name (``carle.nn.train`` is the function ``train``
    re-exported by ``carle/nn/__init__.py``).
    """
    undo, absent, present = [], set(), set()
    try:
        for module, path, name, hook in WRAPS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.add(name)
                continue
            own = not isinstance(owner, type) or attr in vars(owner)
            setattr(owner, attr, _wrap(rec, name, fn, hook))
            undo.append((owner, attr, fn, own))
            present.add(name)
        yield sorted(absent - present)
    finally:
        for owner, attr, fn, own in reversed(undo):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


# -- per-layer metrics --------------------------------------------------------

_REDUCE = ("features.moments", "features.energy", "features.entropy", "features.dominant_frequency")


def layer_metrics(rec):
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    Times are totals in seconds over the traced work; ``features.reduce_s``
    and ``nn.model.*`` are self times, the rest inclusive.
    """
    calls, incl, self_s = rec.totals()
    c = rec.counts
    out = {
        "dataio.read_signal_s": (incl["dataio.read_signal"], "s"),
        "signal.gaussian_filter_s": (incl["signal.gaussian_filter"], "s"),
        "cwt.transform_s": (incl["cwt.transform"], "s"),
        "cwt.transform_calls": (calls["cwt.transform"], "count"),
        "cwt.direct_macs": (c["cwt.direct_macs"], "count"),
        "features.reduce_s": (sum(self_s[n] for n in _REDUCE), "s"),
        "features.windows_skipped": (c["features.windows_in"] - c["features.windows_out"], "count"),
    }
    for cls in LAYER_CLASSES:
        for fn in ("forward", "backward"):
            out[f"nn.layers.{cls}.{fn}_s"] = (self_s[f"nn.layers.{cls}.{fn}"], "s")
    out.update(
        {
            "nn.model.forward_s": (self_s["nn.model.forward"], "s"),
            "nn.model.backward_s": (self_s["nn.model.backward"], "s"),
            "nn.train.rmsprop_s": (incl["nn.train.rmsprop"], "s"),
            "nn.train.snapshot_s": (incl["nn.train.snapshot"], "s"),
            "nn.train.steps": (calls["nn.train.rmsprop"], "count"),
            "forest.fit_s": (incl["forest.fit"], "s"),
            "forest.split_scan_calls": (calls["forest.split_scan"], "count"),
            "forest.split_scan_s": (incl["forest.split_scan"], "s"),
            "forest.nodes": (c["forest.nodes"], "count"),
            "forest.predict_s": (incl["forest.predict"], "s"),
            "checkpoint.save_s": (incl["checkpoint.save"], "s"),
            "checkpoint.load_s": (incl["checkpoint.load"], "s"),
            "checkpoint.bytes": (c["checkpoint.bytes"], "count"),
            "pipeline.predict_s": (incl["pipeline.predict"], "s"),
        }
    )
    return out


# Counts computed from shapes and call sites; for one seed they repeat exactly.
COMPUTED_COUNTS = (
    "cwt.transform_calls",
    "cwt.direct_macs",
    "features.windows_skipped",
    "nn.train.steps",
    "forest.split_scan_calls",
    "forest.nodes",
    "checkpoint.bytes",
)


def module_shares(rec, root="bench.op"):
    """Self time per carle module as a percentage of the ``root`` spans' time.

    The module is the span name up to its last dot, so ``nn.layers.Conv1d``
    spans fold into ``nn.layers``; ``bench`` is the benchmark's own code.
    """
    _, incl, self_s = rec.totals((root,))
    total_s = incl[root]
    shares = defaultdict(float)
    for name, seconds in self_s.items():
        module = "bench" if name.startswith("bench.") else name.rsplit(".", 1)[0]
        if module.startswith("nn.layers"):
            module = "nn.layers"
        shares[module] += 100.0 * seconds / total_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
