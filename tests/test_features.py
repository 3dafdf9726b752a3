import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from carle import features, forest
from carle.cwt import _wavelet_spectra, build_scale_grid, transform
from carle.errors import DegenerateWindowError, InputError
from carle.features import (
    BLOCK_ROWS,
    CONSTANT_WINDOW,
    ExtractionConfig,
    FEATURE_NAMES,
    channel_feature_names,
    dominant_frequency,
    energy,
    entropy,
    extract_features,
    moments,
    window_channel_features,
)
from carle.signal import (
    MultiChannelSignal,
    SynthConfig,
    extract_windows,
    gaussian_filter,
    synth_run_to_failure,
)
from test_forest import _record_grower_pids, _use_cpus

FS = 2000.0


def _matrix(vectors):
    """The (n_windows, 7 * n_channels) matrix of extract_features' vectors."""
    return np.stack([v.values for v in vectors])


def _grid(n=16, f_o=100.0):
    return build_scale_grid(f_o, FS, n)


class TestEnergy:
    def test_zero_scalogram(self):
        scal = transform(np.zeros(32), _grid(), FS)
        scale_e, total = energy(scal)
        assert total == 0.0
        assert np.all(scale_e == 0.0)

    def test_quadratic_scaling(self, rng):
        grid = _grid()
        x = rng.normal(size=64)
        _, e1 = energy(transform(x, grid, FS))
        _, e2 = energy(transform(2.0 * x, grid, FS))
        assert abs(e2 / e1 - 4.0) < 1e-9

    def test_degrading_signal_energy_rises(self):
        sig, _ = synth_run_to_failure(
            SynthConfig(duration_s=10.0, onset_fraction=0.3, channel_count=1), seed=21
        )
        vectors = extract_features(sig, ExtractionConfig(window_len=256, f_o=35.0, n_scales=24))
        loge = np.array([v.values[0] for v in vectors])
        decile = max(1, len(loge) // 10)
        assert loge[-decile:].mean() > loge[:decile].mean()


class TestDominantFrequency:
    def test_sinusoid_recovery(self, rng):
        # brute-force argmax over per-scale energies is the oracle
        grid = _grid(48)
        t = np.arange(512) / FS
        f_true = 120.0
        x = np.sin(2 * np.pi * f_true * t)
        scal = transform(x, grid, FS)
        scale_e, _ = energy(scal)
        f_hat = dominant_frequency(scale_e, grid, FS)
        i_hat = int(np.argmin(np.abs(grid.freqs_hz - f_hat)))
        i_true = int(np.argmin(np.abs(np.log(grid.freqs_hz) - math.log(f_true))))
        assert abs(i_hat - i_true) <= 1

    def test_boundary_scale_returns_f_max(self):
        grid = _grid(8)
        e = np.zeros(8)
        e[0] = 5.0  # smallest scale carries everything
        assert dominant_frequency(e, grid, FS) == grid.f_max_hz

    def test_tie_breaks_toward_smaller_scale(self):
        grid = _grid(8)
        e = np.zeros(8)
        e[2] = e[5] = 1.0
        assert dominant_frequency(e, grid, FS) == grid.freqs_hz[2]

    def test_all_zero_is_degenerate(self):
        # a zero-energy row has no dominant scale: the reducer falls to the
        # first (smallest) scale, and the window itself is refused
        grid = _grid(8)
        assert dominant_frequency(np.zeros(8), grid, FS) == grid.f_max_hz
        with pytest.raises(DegenerateWindowError, match="^zero-energy window$"):
            window_channel_features(np.zeros(32), grid, FS)


class TestEntropy:
    def test_single_scale_zero(self):
        e = np.zeros(16)
        e[3] = 2.0
        assert entropy(e) == 0.0

    def test_uniform_is_log_n(self):
        assert abs(entropy(np.ones(64)) - 4.1588830833596715) < 1e-12

    def test_hand_computed_two_scale(self):
        # -(0.75 ln 0.75 + 0.25 ln 0.25)
        assert abs(entropy([0.75, 0.25]) - 0.5623351446188083) < 1e-12

    def test_bounds_on_random_energies(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 64))
            e = rng.uniform(0, 1, n)
            e[int(rng.integers(n))] += 1e-6
            h = entropy(e)
            assert 0.0 <= h <= math.log(n) + 1e-12

    def test_zero_total_degenerate(self):
        # entropy reads 0 for a zero-total row without warnings; the window
        # itself is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entropy(np.zeros(4)) == 0.0
            assert np.array_equal(entropy(np.zeros((3, 4))), np.zeros(3))
        with pytest.raises(DegenerateWindowError, match="^zero-energy window$"):
            window_channel_features(np.zeros(32), _grid(8), FS)


class TestWindowChannelFeatures:
    """window_channel_features is the one raiser for a degenerate window,
    with the reason extract_features logs when it skips one."""

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateWindowError, match="^zero-energy window$"):
            window_channel_features(np.zeros(32), _grid(8), FS)

    def test_constant_window_degenerate(self):
        with pytest.raises(DegenerateWindowError, match=f"^{re.escape(CONSTANT_WINDOW)}$"):
            window_channel_features([1.0, 1.0, 1.0, 1.0], _grid(8), FS)


class TestMoments:
    def test_two_point_symmetric(self):
        mu, std, skew, kurt = moments([-1.0, 1.0, -1.0, 1.0])
        assert mu == 0.0
        assert std == 1.0
        assert skew == 0.0
        assert kurt == 1.0

    def test_gaussian_sample_moments(self):
        x = np.random.default_rng(123).normal(size=100_000)
        mu, std, skew, kurt = moments(x)
        assert abs(kurt - 3.0) < 0.3
        assert abs(skew) < 0.05

    def test_translation_consistency(self, rng):
        x = rng.normal(size=500)
        c = 3.7
        m0 = moments(x)
        m1 = moments(x + c)
        assert abs(m1[0] - (m0[0] + c)) < 1e-9 * max(1, abs(m0[0] + c))
        for a, b in zip(m0[1:], m1[1:]):
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_scale_equivariance(self, rng):
        x = rng.normal(size=500)
        for c in (2.5, -1.3):
            m0 = moments(x)
            m1 = moments(c * x)
            assert abs(m1[1] - abs(c) * m0[1]) < 1e-9 * abs(c) * m0[1]
            assert abs(m1[2] - math.copysign(1, c) * m0[2]) < 1e-9
            assert abs(m1[3] - m0[3]) < 1e-9

    def test_too_short(self):
        with pytest.raises(InputError):
            moments([1.0, 2.0, 3.0])


class TestExtractFeatures:
    def _signal(self, channels=2, seed=3):
        sig, _ = synth_run_to_failure(
            SynthConfig(duration_s=6.0, channel_count=channels, rotation_hz=35.0),
            seed=seed,
        )
        return sig

    def test_vector_width_is_seven_per_channel(self):
        vectors = extract_features(self._signal(2), ExtractionConfig(window_len=256, f_o=35.0, n_scales=16))
        assert all(len(v.values) == 14 for v in vectors)
        assert vectors[0].feature_names == channel_feature_names(2)
        assert len(FEATURE_NAMES) == 7

    def test_identical_channels_identical_halves(self, rng):
        x = rng.normal(size=2048) + np.sin(2 * np.pi * 35 * np.arange(2048) / 1024.0)
        sig = MultiChannelSignal(np.stack([x, x]), 1024.0)
        vectors = extract_features(sig, ExtractionConfig(window_len=256, f_o=35.0, n_scales=16))
        for v in vectors:
            assert np.array_equal(v.values[:7], v.values[7:])

    def test_log_energy_trend_positive_slope(self):
        sig, _ = synth_run_to_failure(
            SynthConfig(duration_s=10.0, onset_fraction=0.2, channel_count=1), seed=11
        )
        vectors = extract_features(sig, ExtractionConfig(window_len=256, f_o=35.0, n_scales=16))
        loge = np.array([v.values[0] for v in vectors])
        slope = np.polyfit(np.arange(len(loge)), loge, 1)[0]
        assert slope > 0

    def test_deterministic(self):
        sig = self._signal(1)
        cfg = ExtractionConfig(window_len=256, f_o=35.0, n_scales=12)
        a = _matrix(extract_features(sig, cfg))
        b = _matrix(extract_features(sig, cfg))
        assert np.array_equal(a, b)

    def test_degenerate_window_skipped_with_warning(self, caplog):
        channels = np.ones((1, 1024))
        channels[0, 512:] += np.sin(np.arange(512))  # second half is fine
        sig = MultiChannelSignal(channels, 1024.0)
        cfg = ExtractionConfig(window_len=256, f_o=35.0, n_scales=8, sigma_g=0.5)
        with caplog.at_level("WARNING"):
            vectors = extract_features(sig, cfg)
        assert any("degenerate" in rec.message for rec in caplog.records)
        # the all-constant first window is dropped; survivors keep their indices
        assert [v.window_index for v in vectors] == [1, 2, 3]


class TestBatchedExtraction:
    """extract_features transforms its window channels BLOCK_ROWS rows at a
    time and reduces all rows at once; each window must come out as the
    one-row case gives it, window by window."""

    N = 64
    CFG = ExtractionConfig(window_len=64, f_o=35.0, n_scales=16, sigma_g=0.5)
    FS = 1024.0

    def _reference(self, sig):
        """Window indices, rows and warnings of a per-window featurisation."""
        cfg = self.CFG
        grid = build_scale_grid(cfg.f_o, self.FS, cfg.n_scales, cfg.center_freq)
        windows = extract_windows(gaussian_filter(sig, cfg.sigma_g), cfg.window_len)
        kept, rows, messages = [], [], []
        for w_idx, window in enumerate(windows):
            try:
                row = np.concatenate(
                    [window_channel_features(ch, grid, self.FS).as_array() for ch in window.samples]
                )
            except DegenerateWindowError as exc:
                messages.append(f"skipping degenerate window {w_idx}: {exc}")
                continue
            kept.append(w_idx)
            rows.append(row)
        return kept, rows, messages

    def _signal(self, rng, channels, n_windows):
        """Random channels. With three or more windows, window 0 gets a
        constant channel (before a zero one when there are three channels)
        and the last window a zero channel (before a constant one). Each
        planted run reaches past its window by more than the smoothing
        radius, so the smoothed window channel is exactly constant."""
        n = self.N
        x = rng.normal(size=(channels, n_windows * n))
        if n_windows < 3:
            return MultiChannelSignal(x, self.FS), []
        first, last = slice(0, n + 4), slice((n_windows - 1) * n - 4, None)
        if channels == 1:
            x[0, first], x[0, last] = 1.0, 0.0
        else:
            x[1, first], x[2, first] = 1.0, 0.0
            x[0, last], x[1, last] = 0.0, 1.0
        return MultiChannelSignal(x, self.FS), [(0, "constant window"), (n_windows - 1, "zero-energy window")]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n_windows", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_rows_and_skips_match_per_window_reference(self, rng, caplog, channels, n_windows):
        # with one channel the window-channel count is 1, one block, one
        # block plus one and two blocks plus one; with three channels the
        # blocks also cut through windows
        sig, planted = self._signal(rng, channels, n_windows)
        kept, rows, messages = self._reference(sig)
        with caplog.at_level("WARNING", logger="carle.features"):
            vectors = extract_features(sig, self.CFG)
        assert [v.window_index for v in vectors] == kept
        for v, row in zip(vectors, rows):
            np.testing.assert_allclose(v.values, row, rtol=1e-12, atol=0.0)
        assert [r.getMessage() for r in caplog.records if r.name == "carle.features"] == messages
        assert len(messages) == len(planted)
        for (w_idx, reason), message in zip(planted, messages):
            assert message.startswith(f"skipping degenerate window {w_idx}: {reason}")

    def test_one_row_case_matches_scalar_formulas(self, rng):
        # the per-window arithmetic the batched reductions replaced
        grid = _grid(16)
        for x in rng.normal(size=(6, 128)) * rng.uniform(0.1, 10.0, size=(6, 1)):
            c = transform(x, grid, FS)
            e = np.array([np.sum(np.abs(row) ** 2) for row in c])
            p = e / e.sum()
            d = x - x.mean()
            var = np.mean(d**2)
            want = [
                math.log(e.sum()),
                grid.freqs_hz[int(np.argmax(e))],
                -np.sum(p[p > 0] * np.log(p[p > 0])),
                np.mean(d**4) / var**2,
                np.mean(d**3) / math.sqrt(var) ** 3,
                x.mean(),
                math.sqrt(var),
            ]
            got = window_channel_features(x, grid, FS).as_array()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_block_transform_rows_equal_single_row_transforms(self, rng):
        grid = _grid(12)
        x = rng.normal(size=(5, 100))
        block = transform(x, grid, FS)
        assert block.shape == (5, 12, 100)
        for row, coefficients in zip(x, block):
            single = transform(row, grid, FS)
            np.testing.assert_allclose(coefficients, single, rtol=1e-12, atol=0.0)

    def test_reducers_over_rows_equal_single_rows(self, rng):
        grid = _grid(12)
        x = rng.normal(size=(3, 80))
        scale_e, totals = energy(transform(x, grid, FS))
        block_moments = moments(x)
        for i, row in enumerate(x):
            e, total = energy(transform(row, grid, FS))
            np.testing.assert_allclose(scale_e[i], e, rtol=1e-12)
            assert totals[i] == pytest.approx(total, rel=1e-12)
            assert dominant_frequency(scale_e, grid, FS)[i] == dominant_frequency(e, grid, FS)
            assert entropy(scale_e)[i] == pytest.approx(entropy(e), rel=1e-12)
            np.testing.assert_allclose([m[i] for m in block_moments], moments(row), rtol=1e-12)

    def test_degenerate_rows_do_not_raise_over_rows(self):
        x = np.array([[1.0, -1.0, 1.0, -1.0], [2.0, 2.0, 2.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, std, _, _ = moments(x)
            h = entropy(np.zeros((2, 8)))
        assert std.tolist() == [1.0, 0.0] and mu.tolist() == [0.0, 2.0]
        assert h.tolist() == [0.0, 0.0]

    def test_column_major_signal_gives_the_same_bits(self, rng):
        # a CSV-read signal is a transpose; the signal stores it in C order
        x = rng.normal(size=(2, 4 * self.N))
        rows = _matrix(extract_features(MultiChannelSignal(x, self.FS), self.CFG))
        x_f = np.asfortranarray(x)
        assert MultiChannelSignal(x_f, self.FS).channels.flags.c_contiguous
        rows_f = _matrix(extract_features(MultiChannelSignal(x_f, self.FS), self.CFG))
        assert rows_f.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("scale", [1e80, 1e160, 1e307])
    def test_overflowing_features_refused_without_warnings(self, rng, monkeypatch, scale):
        sig = MultiChannelSignal(scale * rng.normal(size=(2, 4 * self.N)), self.FS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="window 0: features are not finite"):
                extract_features(sig, self.CFG)
            _use_cpus(monkeypatch, 3)  # again, with worker threads transforming blocks
            with pytest.raises(InputError, match="window 0: features are not finite"):
                extract_features(sig, self.CFG)


def _thread_starts(monkeypatch):
    """The threads started from now on, in a list that grows as they start."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def _transform_calls(monkeypatch, worker_delay_s=0.0):
    """Transform calls per thread id from now on, in a Counter that grows as
    they happen; a thread other than this one first sleeps ``worker_delay_s``."""
    calls = Counter()
    caller = threading.get_ident()
    transform = features.transform

    def spy(*args):
        calls[threading.get_ident()] += 1
        if threading.get_ident() != caller:
            time.sleep(worker_delay_s)
        return transform(*args)

    monkeypatch.setattr(features, "transform", spy)
    return calls


class TestBlocksOnEveryCpu:
    """extract_features transforms its blocks on every usable CPU, worker
    threads and the caller claiming them one at a time:
    the same bits at any CPU count, each block transformed once, and no
    thread outliving the call."""

    N = TestBatchedExtraction.N
    CFG = TestBatchedExtraction.CFG
    FS = TestBatchedExtraction.FS

    def _signal(self, rng, channels, n_windows):
        return MultiChannelSignal(rng.normal(size=(channels, n_windows * self.N)), self.FS)

    def _bytes(self, monkeypatch, sig, cpus):
        _use_cpus(monkeypatch, cpus)
        return _matrix(extract_features(sig, self.CFG)).tobytes()

    # 3 channels of 5 windows are 15 rows, so the last block holds one row
    @pytest.mark.parametrize("channels, n_windows", [(2, 1), (2, 2), (2, 3), (2, 40), (3, 5)])
    def test_same_bits_at_any_cpu_count(self, rng, monkeypatch, channels, n_windows):
        sig = self._signal(rng, channels, n_windows)
        want = self._bytes(monkeypatch, sig, 1)
        for cpus in (2, 3):
            assert self._bytes(monkeypatch, sig, cpus) == want, cpus

    def test_same_bits_from_a_cold_spectra_cache(self, rng, monkeypatch):
        sig = self._signal(rng, 2, 40)
        want = self._bytes(monkeypatch, sig, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
        try:
            for cpus in (1, 2, 3, 8):
                _wavelet_spectra.cache_clear()
                assert self._bytes(monkeypatch, sig, cpus) == want, cpus
                # built once, before any worker started
                assert _wavelet_spectra.cache_info().misses == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_threads_end_with_the_call(self, rng, monkeypatch, tmp_path, cpus):
        sig = self._signal(rng, 2, 40)
        _use_cpus(monkeypatch, cpus)
        calls = _transform_calls(monkeypatch)
        before = threading.active_count()
        started = _thread_starts(monkeypatch)
        extract_features(sig, self.CFG)
        assert 1 <= len(started) <= cpus - 1
        assert threading.active_count() == before
        assert sum(calls.values()) == 40  # 80 window channels in blocks of 2
        pids = _record_grower_pids(monkeypatch, tmp_path / "pids")
        _use_cpus(monkeypatch, 2)
        forest.fit(rng.normal(size=(30, 4)), rng.uniform(0, 1, 30), forest.ForestConfig(n_trees=4), seed=1)
        assert set(pids()) - {str(os.getpid())}  # a later forest fit still forks

    def test_a_slow_thread_takes_fewer_blocks(self, rng, monkeypatch):
        calls = _transform_calls(monkeypatch, worker_delay_s=0.005)
        _use_cpus(monkeypatch, 2)
        extract_features(self._signal(rng, 2, 40), self.CFG)
        here = calls.pop(threading.get_ident())
        assert here + sum(calls.values()) == 40
        assert here > 3 * sum(calls.values())  # a fixed half split would give 21 and 19

    def test_workers_run_under_the_callers_error_state(self, rng, monkeypatch):
        seen = []
        energies = features._energies

        def spy(*args):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return energies(*args)

        monkeypatch.setattr(features, "_energies", spy)
        _use_cpus(monkeypatch, 3)
        with np.errstate(divide="raise"):
            extract_features(self._signal(rng, 2, 40), self.CFG)
        assert len({ident for ident, _ in seen}) >= 2  # one pool thread may serve both workers
        assert {state for _, state in seen} == {"raise"}

    def test_threads_leave_multiprocessing_unimported(self):
        # the thread kind keeps the pool module, and its memory, out of the process
        snippet = (
            "import os, sys, numpy as np; "
            "os.sched_getaffinity = lambda pid: {0, 1, 2}; "
            "from carle.features import extract_features; from carle.signal import MultiChannelSignal; "
            f"samples = np.random.default_rng(0).normal(size=(2, 40 * {self.N})); "
            f"extract_features(MultiChannelSignal(samples, {self.FS})); "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        env = {"PYTHONPATH": str(Path(features.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['concurrent.futures']"

    def test_one_window_starts_no_thread(self, rng, monkeypatch):
        sig = self._signal(rng, 2, 1)
        _use_cpus(monkeypatch, 3)
        started = _thread_starts(monkeypatch)
        extract_features(sig, self.CFG)
        grid = build_scale_grid(self.CFG.f_o, self.FS, self.CFG.n_scales)
        window_channel_features(sig.channels[0, :self.N], grid, self.FS)
        assert started == []


def test_scale_grid_is_memoised_read_only():
    grid = build_scale_grid(35.0, 1024.0, 16)
    assert build_scale_grid(35.0, 1024.0, 16) is grid
    assert build_scale_grid(35.0, 1024.0, 17) is not grid
    for array in (grid.scales, grid.freqs_hz):
        with pytest.raises(ValueError):
            array[0] = 1.0
