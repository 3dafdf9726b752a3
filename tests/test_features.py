import math

import numpy as np
import pytest

from carle.cwt import build_scale_grid, transform
from carle.errors import DegenerateWindowError, InputError
from carle.features import (
    ExtractionConfig,
    FEATURE_NAMES,
    channel_feature_names,
    dominant_frequency,
    energy,
    entropy,
    extract_features,
    feature_matrix,
    moments,
)
from carle.signal import MultiChannelSignal, SynthConfig, synth_run_to_failure

FS = 2000.0


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
        with pytest.raises(DegenerateWindowError):
            dominant_frequency(np.zeros(8), _grid(8), FS)


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
        with pytest.raises(DegenerateWindowError):
            entropy(np.zeros(4))


class TestMoments:
    def test_constant_window_degenerate(self):
        with pytest.raises(DegenerateWindowError):
            moments([1.0, 1.0, 1.0, 1.0])

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
        a = feature_matrix(extract_features(sig, cfg))
        b = feature_matrix(extract_features(sig, cfg))
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
