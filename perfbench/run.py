"""carle benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload extract-long --seed 1 --seconds 20 --trace 0

The benchmark imports carle from ``src/`` next to this directory. It pins
the BLAS thread count, makes the workload's inputs from ``--seed``, repeats
passes of the workload's operations until ``--seconds`` of them have run,
checks every output, and prints the metrics as one JSON object on the last
line of standard output.

With ``--trace 0`` it reports the end-to-end metrics. Every workload reports
every metric; an op is one extraction, one train-and-save, or one monitor
request:

- setup_s: median import time of carle in a fresh interpreter, plus on
  monitor-pronostia the median time of ``pipeline.load_model``.
- windows_per_s: windows of one op over the median op time. The median,
  not the mean, so that a burst of load from other processes on the host,
  which slows a few ops, does not set it.
- time_to_model_s: median seconds per op; on train-pronostia the time from
  feature matrix to saved checkpoint.
- latency_p50_ms, latency_p95_ms: percentiles of op latency over every op
  of the run. A run is whole passes until ``--seconds`` of ops have run; on
  monitor-pronostia at least two passes of 240 requests, so p95 has at
  least 24 beyond it.
- peak_rss_mb: peak resident memory of the process before output checks.

``error_rate`` (failed over attempted ops) is printed and carried by the
``failed`` and ``attempted`` fields; it is 0 when nothing fails, so it is
not one of the timed metrics.

With ``--trace 1`` it runs one untraced pass, then one pass (and, on
monitor-pronostia, one checkpoint load) with spans wrapped around carle's
public functions, and reports the per-layer metrics of ``spans.py`` as totals
over the traced work, plus ``trace.overhead_pct``. The spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``, the op latencies of an
end-to-end run to ``.perfbench/ops-<workload>-seed<seed>.json``, and the
monitor checkpoint is kept under ``.perfbench/cache/<digest of src/>/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# One process, one client and small matrices: a single BLAS thread keeps
# the figures steady when other processes share the cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_SAMPLES = 7
SETUP_LOADS = 3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import carle; print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_carle():
    """Import carle from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "carle" / "__init__.py").is_file():
        raise SetupError(f"no carle sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import carle

    if Path(carle.__file__).resolve().parent != src / "carle":
        raise SetupError(f"imported carle from {carle.__file__}, not from {src}")
    return carle


def import_times(samples):
    """Seconds to import carle, measured in ``samples`` fresh interpreters
    after one unmeasured import that writes the bytecode caches."""
    times = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(carle, workload, seed):
    """Where and on what a result was measured; compare only equal blocks."""
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": carle.backend(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
    }


class Tally:
    """Times each op, keeps its output, counts failures."""

    def __init__(self, workload, rec=None):
        self.workload = workload
        self.rec = rec
        self.latencies, self.outputs, self.errors = [], [], []
        self.attempted = 0
        self.passes = 0

    def run_pass(self):
        for op in self.workload.ops():
            self.attempted += 1
            t0 = perf_counter()
            try:
                if self.rec is None:
                    out = op()
                else:
                    self.rec.op = self.attempted
                    with self.rec.span("bench.op"):
                        out = op()
            except Exception as exc:  # one failed op must not end the run
                traceback.print_exc()
                self.errors.append(f"op {self.attempted}: {type(exc).__name__}: {exc}")
                continue
            self.latencies.append(perf_counter() - t0)
            self.outputs.append(self.workload.keep(out))
        self.passes += 1

    def run_for(self, seconds, min_passes=1):
        """Whole passes until ``seconds`` of them ran and at least ``min_passes``."""
        start = perf_counter()
        while self.passes < min_passes or perf_counter() - start < seconds:
            self.run_pass()

    def check(self):
        """Check every output; returns the number of failed ops."""
        for out in self.outputs:
            try:
                problem = self.workload.check(out)
            except Exception as exc:  # a check that cannot run fails its op
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.errors.append(problem)
        return len(self.errors)


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(workload, seconds, setup_loads, import_samples):
    imports = import_times(import_samples)
    workload.prepare()
    loads = workload.setup(setup_loads)
    tally = Tally(workload)
    tally.run_for(seconds, workload.min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = tally.check()
    lat = tally.latencies or [float("nan")]
    setup_s = statistics.median(imports) + (statistics.median(loads) if loads else 0.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "windows_per_s": (workload.windows_per_op / statistics.median(lat), "1/s"),
        "time_to_model_s": (statistics.median(lat), "s"),
        "latency_p50_ms": (1e3 * _percentile(lat, 50), "ms"),
        "latency_p95_ms": (1e3 * _percentile(lat, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup: import {statistics.median(imports):.4f} s (median of {len(imports)})"
        + (f", load_model {statistics.median(loads):.4f} s (median of {len(loads)})" if loads else ""),
        f"ops: {len(tally.latencies)} timed over {sum(tally.latencies):.2f} s",
    ]
    return tally, failed, metrics, notes


def traced_run(workload, spans, out_file):
    rec = spans.Recorder()
    workload.prepare()
    with spans.traced(rec) as absent:
        with rec.span("bench.setup"):
            workload.setup(1)
    plain = Tally(workload)
    plain.run_pass()
    tally = Tally(workload, rec)
    with spans.traced(rec):
        tally.run_pass()
    t_plain, t_traced = sum(plain.latencies), sum(tally.latencies)
    tally.attempted += plain.attempted
    tally.outputs += plain.outputs
    tally.errors += plain.errors
    failed = tally.check()

    metrics = spans.layer_metrics(rec)
    metrics["trace.overhead_pct"] = (100.0 * (t_traced - t_plain) / t_plain, "%")
    shares = spans.module_shares(rec)
    notes = [
        f"traced pass {t_traced:.3f} s, untraced pass {t_plain:.3f} s",
        "self time by module, % of traced op time: "
        + ", ".join(f"{m} {p:.1f}" for m, p in shares.items()),
        "computed counts (repeat exactly for one seed): "
        + ", ".join(f"{n}={metrics[n][0]}" for n in spans.COMPUTED_COUNTS),
        f"absent spans: {', '.join(absent) or 'none'}",
    ]
    if rec.broken:
        notes.append(f"counter hooks that no longer fit their call: {', '.join(sorted(rec.broken))}")
    out_file.parent.mkdir(parents=True, exist_ok=True)
    with open(out_file, "w") as fh:
        json.dump({"metrics": {k: v[0] for k, v in metrics.items()}, **rec.to_json()}, fh)
    return tally, failed, metrics, notes


def run_workload(name, seed, seconds, trace, sizes=None, out_dir=OUT_DIR,
                 setup_loads=SETUP_LOADS, import_samples=IMPORT_SAMPLES):
    """Run one workload; returns (result dict for the last line, note lines)."""
    carle = load_carle()
    import spans
    import workloads

    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    sizes = sizes or workloads.FULL
    env = environment(carle, name, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as workdir:
        cache_dir = out_dir / "cache" / env["src_sha256"]
        workload = workloads.WORKLOADS[name](seed, sizes, workdir, cache_dir)
        if trace:
            out_file = out_dir / f"trace-{name}-seed{seed}.json"
            tally, failed, metrics, notes = traced_run(workload, spans, out_file)
        else:
            tally, failed, metrics, notes = end_to_end(workload, seconds, setup_loads, import_samples)
            with open(out_dir / f"ops-{name}-seed{seed}.json", "w") as fh:
                json.dump({"latencies_s": tally.latencies}, fh)
        values = workload.check_values(tally.outputs) if tally.outputs else {}
    notes = [f"env {json.dumps(env, sort_keys=True)}", *notes]
    for metric, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if unit == "count" else f"{value:>16.6g}"
        notes.append(f"  {metric:<40} {shown} {unit}")
    notes.append(
        f"  {'error_rate':<40} {failed / tally.attempted:>16.6g} ({failed} of {tally.attempted} ops)"
    )
    notes += [f"check failed: {e}" for e in tally.errors]
    notes += [f"check value (not gated): {k} = {v:.6g}" for k, v in values.items()]
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy is first imported, here and in the import-time probes
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        result, notes = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
