"""The three benchmark workloads, driven through carle's public API.

Each workload makes its inputs from the seed in an untimed ``prepare``,
optionally loads a model in ``setup`` (timed as set-up), and then yields
passes of operations that the harness times one by one. Right after each
op, untimed, ``keep`` reduces its output to what ``check`` needs, so that
outputs held for checking do not inflate peak memory. ``check`` runs after
the timed passes; a failed check counts the operation as failed.

- extract-long: one op is ``dataio.read_signal_csv`` plus
  ``pipeline.extract_matrix`` on a 30 s, 2-channel, 1024 Hz recording
  (120 windows x 14 features), as ``carle extract`` runs it. A run repeats
  the op about a dozen times, so a burst of load from other processes
  touches few of them. Chosen because the wavelet transform and CSV parsing
  do the work, with no network or forest.
- train-pronostia: one op is ``pipeline.train_model`` plus
  ``pipeline.save_model`` on the 480 x 14 feature matrix of a 120 s
  recording at the ``pronostia`` profile, with a fixed epoch count (early
  stopping off) and a forest sized so the network and forest phases take
  about equal time. Chosen because the network layers, the optimiser and the
  forest fit do the work while the wavelet transform sits idle.
- monitor-pronostia: a closed loop with one client watching eight bearings
  round-robin, 240 requests in a pass and at least two passes in a run.
  Each bearing is its own held-out 7.5 s run-to-failure recording. Each
  request featurises the next 256-sample window of one bearing and predicts
  its RUL from that bearing's last ``seq_len`` feature rows; the client
  waits for each RUL before sending the next window. The 800-tree checkpoint is trained on a 20 s recording and
  saved in ``prepare``; it is kept in the cache directory under a name that
  holds the digest of ``src/`` and the sizes, so it is rebuilt whenever the
  program changes and never reused across commits. Chosen because it uses
  the shared layers differently: per-call forest prediction, one-window
  transforms and a forward-only network, with checkpoint loading as set-up.
"""

import functools
import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from carle import cwt, dataio, features, pipeline, signal

N_CHANNELS = 2
BEARINGS = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    extract_duration_s: float = 30.0
    train_duration_s: float = 120.0
    train_epochs: int = 4
    train_trees: int = 40
    monitor_train_duration_s: float = 20.0
    monitor_train_epochs: int = 10
    monitor_trees: int = 800
    monitor_eval_duration_s: float = 7.5  # per bearing
    check_rows: int = 4


FULL = Sizes()
# A few windows per workload, for the smoke test.
TINY = Sizes(
    extract_duration_s=2.0,
    train_duration_s=2.0,
    train_epochs=2,
    train_trees=3,
    monitor_train_duration_s=2.0,
    monitor_train_epochs=1,
    monitor_trees=5,
    monitor_eval_duration_s=1.0,
    check_rows=2,
)


def _config(seed, overrides):
    overrides = {"synth.channel_count": N_CHANNELS, **overrides}
    return pipeline.ExperimentConfig(seed=seed).with_overrides(overrides)


class Workload:
    """Defaults for a workload with nothing to load, outputs kept whole and
    no check values."""

    min_passes = 1

    def setup(self, loads):
        return []

    def keep(self, out):
        return out

    def check_values(self, outputs):
        return {}


def _pronostia(epochs, trees):
    return {
        "model.profile": "pronostia",
        "training.epochs": epochs,
        "training.early_stop_patience": epochs,
        "forest.n_trees": trees,
    }


class ExtractLong(Workload):
    name = "extract-long"

    def __init__(self, seed, sizes, workdir, cache_dir):
        self.seed = seed
        self.sizes = sizes
        self.cfg = _config(seed, {"synth.duration_s": sizes.extract_duration_s})
        self.csv = os.path.join(workdir, "signal.csv")

    def prepare(self):
        self.signal, _ = pipeline.synth_signal(self.cfg)
        dataio.write_signal_csv(self.csv, self.signal, self.cfg.config_hash())
        self.windows_per_op = self.signal.length // self.cfg.extraction.window_len

    def ops(self):
        return [self._extract]

    def _extract(self):
        sig = dataio.read_signal_csv(self.csv, self.cfg.sample_rate_hz)
        X, _, idx = pipeline.extract_matrix(sig, self.cfg)
        return X, idx

    def check(self, out):
        X, idx = out
        shape = (self.windows_per_op, 7 * N_CHANNELS)
        if X.shape != shape:
            return f"feature matrix is {X.shape}, expected {shape}"
        if not np.all(np.isfinite(X)):
            return "feature matrix has non-finite values"
        e = self.cfg.extraction
        fs = self.cfg.sample_rate_hz
        grid = cwt.build_scale_grid(e.f_o, fs, e.n_scales, e.center_freq)
        windows = signal.extract_windows(
            signal.gaussian_filter(self.signal, e.sigma_g), e.window_len, e.stride
        )
        rng = np.random.default_rng(self.seed)
        for row in rng.choice(len(X), size=min(self.sizes.check_rows, len(X)), replace=False):
            w = windows[idx[row]]
            ref = np.concatenate(
                [
                    features.window_channel_features(w.samples[c], grid, fs, e.two_pi_phase).as_array()
                    for c in range(N_CHANNELS)
                ]
            )
            if not np.allclose(X[row], ref, rtol=1e-9, atol=0.0):
                return f"row {row} differs from window_channel_features by more than 1e-9 relative"
        return None


class TrainPronostia(Workload):
    name = "train-pronostia"

    def __init__(self, seed, sizes, workdir, cache_dir):
        self.sizes = sizes
        self.cfg = _config(
            seed,
            {
                "synth.duration_s": sizes.train_duration_s,
                **_pronostia(sizes.train_epochs, sizes.train_trees),
            },
        )
        self.workdir = workdir
        self.n_ops = 0

    def prepare(self):
        sig, _ = pipeline.synth_signal(self.cfg)
        self.X, _, _ = pipeline.extract_matrix(sig, self.cfg)
        self.y = pipeline.labels_for(self.cfg, len(self.X))
        self.windows_per_op = len(self.X)

    def ops(self):
        return [self._train]

    def _train(self):
        path = os.path.join(self.workdir, f"train-{self.n_ops}.npz")
        self.n_ops += 1
        model = pipeline.train_model(self.X, self.y, self.cfg, "carle")
        pipeline.save_model(path, model, self.cfg)
        return model, path

    def keep(self, out):
        model, path = out
        return model.report.history["loss"], model.report.epochs_run, model.predict(self.X), path

    def check(self, out):
        losses, epochs_run, pred, path = out
        if not np.all(np.isfinite(losses)):
            return "loss history has non-finite values"
        if epochs_run != self.sizes.train_epochs:
            return f"ran {epochs_run} epochs, configured {self.sizes.train_epochs}"
        if not np.all((pred >= 0.0) & (pred <= 1.0)):
            return "predictions are not all finite values in [0, 1]"
        if not np.array_equal(pipeline.load_model(path).predict(self.X), pred):
            return "reloaded checkpoint predicts differently from the in-memory model"
        return None

    def check_values(self, outputs):
        pred = outputs[-1][2]
        return {"train_mae": float(np.mean(np.abs(pred - self.y)))}


class MonitorPronostia(Workload):
    """Eight short recordings rather than one long one, because a request's
    forest cost varies between recordings (median tree nodes visited per
    request differed by 20% between single 60 s recordings) and late-wear
    windows cost up to 3x more than early ones. Averaging over eight
    recordings, with their late-wear windows spread over the pass, keeps one
    recording or one burst of load from other processes on the machine from
    setting the figures."""

    name = "monitor-pronostia"
    windows_per_op = 1
    min_passes = 2
    # The deployed model is the same on every run and only the monitored
    # streams follow the seed: median tree nodes visited per request differed
    # by 1.5x between models trained from different seeds.
    model_seed = 0

    def __init__(self, seed, sizes, workdir, cache_dir):
        self.seed = seed
        self.cfg = _config(
            self.model_seed,
            {
                "synth.duration_s": sizes.monitor_train_duration_s,
                **_pronostia(sizes.monitor_train_epochs, sizes.monitor_trees),
            },
        )
        self.eval_cfg = _config(seed, {"synth.duration_s": sizes.monitor_eval_duration_s})
        key = hashlib.sha256(repr((self.model_seed, sizes)).encode()).hexdigest()[:16]
        self.ckpt = os.path.join(cache_dir, f"monitor-{key}.npz")
        self.workdir = workdir

    def prepare(self):
        if not os.path.isfile(self.ckpt):
            sig, _ = pipeline.synth_signal(self.cfg)
            X, _, _ = pipeline.extract_matrix(sig, self.cfg)
            model = pipeline.train_model(X, pipeline.labels_for(self.cfg, len(X)), self.cfg, "carle")
            part = os.path.join(self.workdir, "monitor.npz")
            pipeline.save_model(part, model, self.cfg)
            os.makedirs(os.path.dirname(self.ckpt), exist_ok=True)
            os.replace(part, self.ckpt)
        n = self.eval_cfg.extraction.window_len
        self.windows = []  # per bearing, its consecutive windows
        for b in range(BEARINGS):
            seed = int(np.random.SeedSequence((self.seed, b)).generate_state(1)[0])
            rec, _ = signal.synth_run_to_failure(self.eval_cfg.synth_config(), seed)
            self.windows.append([rec.channels[:, i:i + n] for i in range(0, rec.length - n + 1, n)])
        self.labels = pipeline.labels_for(self.eval_cfg, len(self.windows[0]))
        self.extraction = self.cfg.extraction_config()

    def setup(self, loads):
        """Load the checkpoint ``loads`` times; keep the last model."""
        times = []
        for _ in range(loads):
            self.model = None  # free the previous copy before timing the next load
            start = perf_counter()
            self.model = pipeline.load_model(self.ckpt)
            times.append(perf_counter() - start)
        self.seq_len = self.model.net.profile.seq_len
        return times

    def ops(self):
        histories = [[] for _ in range(BEARINGS)]
        return [
            functools.partial(self._request, histories[b], b, k)
            for k in range(len(self.labels))
            for b in range(BEARINGS)
        ]

    def _request(self, history, b, k):
        snapshot = signal.MultiChannelSignal(self.windows[b][k], self.cfg.sample_rate_hz)
        vectors = features.extract_features(snapshot, self.extraction)
        if not vectors:
            raise RuntimeError(f"bearing {b} window {k} was skipped as degenerate")
        history.append(vectors[0].values)
        del history[:-self.seq_len]
        return k, float(self.model.predict(np.stack(history))[-1])

    def check(self, out):
        k, rul = out
        if not 0.0 <= rul <= 1.0:
            return f"window {k}: RUL {rul} is not a finite value in [0, 1]"
        return None

    def check_values(self, outputs):
        err = [abs(rul - self.labels[k]) for k, rul in outputs]
        return {"held_out_mae": float(np.mean(err))}


WORKLOADS = {w.name: w for w in (ExtractLong, TrainPronostia, MonitorPronostia)}
