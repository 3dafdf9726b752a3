import numpy as np
import pytest

from carle.errors import InputError, ParameterError
from carle.signal import (
    GaussianKernel,
    MultiChannelSignal,
    NoiseConfig,
    SynthConfig,
    extract_windows,
    gaussian_filter,
    inject_noise,
    snr_sweep,
    synth_run_to_failure,
)


def _sig(arr, fs=1000.0):
    return MultiChannelSignal(np.asarray(arr, dtype=float), fs)


class TestGaussianKernel:
    def test_kernel_sums_to_one_across_sigmas(self):
        for sigma in np.linspace(0.1, 10.0, 25):
            k = GaussianKernel(float(sigma))
            assert abs(k.taps.sum() - 1.0) < 1e-9

    def test_kernel_symmetric(self):
        for sigma in (0.3, 1.0, 4.2):
            k = GaussianKernel(sigma)
            assert np.allclose(k.taps, k.taps[::-1], rtol=0, atol=0)

    def test_kernel_odd_length(self):
        assert len(GaussianKernel(0.1).taps) % 2 == 1
        assert len(GaussianKernel(3.7).taps) % 2 == 1

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            GaussianKernel(0.0)
        with pytest.raises(ParameterError):
            GaussianKernel(-1.0)
        with pytest.raises(ParameterError, match="sigma"):
            GaussianKernel(np.inf)
        with pytest.raises(ParameterError, match="sigma"):
            GaussianKernel(np.nan)


class TestGaussianFilter:
    def test_constant_signal_unchanged(self):
        for sigma in (0.5, 1.0, 3.0):
            out = gaussian_filter(_sig([[2.5] * 50]), sigma)
            assert np.allclose(out.channels, 2.5, rtol=0, atol=1e-12)

    def test_impulse_response_center_weight(self):
        # analytic G(0) for sigma=1 is 1/sqrt(2*pi)
        x = np.zeros(41)
        x[20] = 1.0
        out = gaussian_filter(_sig([x]), 1.0)
        assert abs(out.channels[0, 20] - 0.3989422804014327) < 1e-4
        kernel = GaussianKernel(1.0)
        r = kernel.radius
        assert np.allclose(out.channels[0, 20 - r:20 + r + 1], kernel.taps, atol=1e-12)

    def test_white_noise_variance_reduced(self, rng):
        x = rng.normal(size=4096)
        out = gaussian_filter(_sig([x]), 2.0)
        assert out.channels[0].var() < x.var()

    def test_output_length_preserved(self, rng):
        x = rng.normal(size=173)
        out = gaussian_filter(_sig([x]), 5.0)
        assert out.channels.shape == (1, 173)

    def test_linearity(self, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        a, b = 1.7, -0.4
        lhs = gaussian_filter(_sig([a * x + b * y]), 1.3).channels
        rhs = a * gaussian_filter(_sig([x]), 1.3).channels + b * gaussian_filter(_sig([y]), 1.3).channels
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_never_increases_power_zero_mean(self, rng):
        for _ in range(100):
            x = rng.normal(size=rng.integers(32, 256))
            x -= x.mean()
            out = gaussian_filter(_sig([x]), float(rng.uniform(0.3, 4.0)))
            assert np.sum(out.channels**2) <= np.sum(x**2) + 1e-9

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            gaussian_filter(_sig([[1.0, 2.0]]), -0.5)
        with pytest.raises(ParameterError, match="sigma"):
            gaussian_filter(_sig([[1.0] * 8]), 2.5)  # radius 10 > 8 samples
        with pytest.raises(InputError):
            MultiChannelSignal(np.empty((1, 0)), 100.0)


class TestSnrSweep:
    def test_constant_signal_hits_cap(self):
        res = snr_sweep(_sig([[3.0] * 64]), [0.5, 1.0, 2.0])
        assert [snr for _, snr in res] == [120.0, 120.0, 120.0]

    def test_sigma_zero_entry_returns_cap(self):
        res = snr_sweep(_sig([[1.0, 2.0, 3.0, 2.0] * 16]), [0.0, 1.0], cap_db=90.0)
        assert res[0] == (0.0, 90.0)
        assert res[1][1] < 90.0

    def test_noisy_sine_non_increasing_after_knee(self, rng):
        t = np.arange(2048) / 1000.0
        x = np.sin(2 * np.pi * 40 * t) + 0.3 * rng.normal(size=2048)
        res = snr_sweep(_sig([x]), list(np.linspace(0.25, 3.0, 12)))
        snrs = np.array([s for _, s in res])
        knee = int(np.argmax(snrs))
        assert np.all(np.diff(snrs[knee:]) <= 1e-9)

    def test_decline_then_plateau_shape(self, rng):
        sig, _ = synth_run_to_failure(SynthConfig(duration_s=4.0, channel_count=1), seed=5)
        res = snr_sweep(sig, list(np.arange(0.25, 2.01, 0.25)))
        snrs = np.array([s for _, s in res])
        assert snrs[0] > snrs[-1]  # overall decline
        assert abs(snrs[-1] - snrs[-2]) < abs(snrs[1] - snrs[0])  # flattens out

    def test_validation(self):
        sig = _sig([[1.0, 2.0, 3.0]])
        with pytest.raises(ParameterError):
            snr_sweep(sig, [])
        with pytest.raises(ParameterError):
            snr_sweep(sig, [1.0, 1.0])
        with pytest.raises(ParameterError):
            snr_sweep(sig, [2.0, 1.0])


class TestExtractWindows:
    def test_non_overlapping_counts(self):
        sig = _sig([np.arange(100.0)])
        assert len(extract_windows(sig, 25, 25)) == 4
        assert len(extract_windows(sig, 30, 30)) == 3
        assert len(extract_windows(sig, 25, 10)) == 8

    def test_count_formula(self, rng):
        for _ in range(50):
            length = int(rng.integers(10, 300))
            t_w = int(rng.integers(2, length + 1))
            stride = int(rng.integers(1, length + 1))
            sig = _sig([np.zeros(length)])
            expect = (length - t_w) // stride + 1
            assert len(extract_windows(sig, t_w, stride)) == expect

    def test_default_stride_is_window_len(self):
        sig = _sig([np.arange(100.0)])
        assert len(extract_windows(sig, 25)) == 4

    def test_window_contents_and_indices(self):
        sig = _sig([np.arange(10.0), np.arange(10.0) * 2])
        wins = extract_windows(sig, 4, 3)
        assert [w.start_index for w in wins] == [0, 3, 6]
        assert np.array_equal(wins[1].samples[0], [3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(wins[1].samples[1], [6.0, 8.0, 10.0, 12.0])
        assert all(np.shares_memory(w.samples, sig.channels) for w in wins)  # views, no copies

    def test_window_too_long(self):
        with pytest.raises(InputError):
            extract_windows(_sig([np.zeros(10)]), 11)


class TestInjectNoise:
    def test_gaussian_zero_std_identity(self):
        sig = _sig([[1.0, -2.0, 3.0, 0.5]])
        out = inject_noise(sig, "gaussian", NoiseConfig(gaussian_mean=0.0, gaussian_std=0.0), seed=3)
        assert np.array_equal(out.channels, sig.channels)

    def test_gaussian_variance_additivity(self):
        # var(x + n) = var(x) + std^2 for independent noise
        n = 100_000
        rng = np.random.default_rng(9)
        x = rng.normal(size=n)
        x /= x.std()
        sig = _sig([x])
        out = inject_noise(sig, "gaussian", NoiseConfig(gaussian_mean=0.0, gaussian_std=0.1), seed=77)
        assert abs(out.channels[0].var() - 1.01) < 0.005

    def test_salt_pepper_exact_count(self):
        n = 10_000
        rng = np.random.default_rng(1)
        sig = _sig([rng.normal(size=n)])
        out = inject_noise(
            sig, "salt_pepper", NoiseConfig(salt_pepper_fraction=0.1, salt_pepper_amplitude=0.5), seed=5
        )
        changed = np.sum(out.channels[0] != sig.channels[0])
        assert changed == 1000

    def test_salt_pepper_values_outside_range(self, rng):
        sig = _sig([rng.normal(size=500)])
        out = inject_noise(
            sig, "salt_pepper", NoiseConfig(salt_pepper_fraction=0.2, salt_pepper_amplitude=0.5), seed=2
        )
        lo, hi = sig.channels[0].min(), sig.channels[0].max()
        spread = hi - lo
        replaced = out.channels[0][out.channels[0] != sig.channels[0]]
        assert np.all((replaced == lo - 0.5 * spread) | (replaced == hi + 0.5 * spread))

    def test_seed_reproducible(self, rng):
        sig = _sig([rng.normal(size=256)])
        a = inject_noise(sig, "salt_pepper", NoiseConfig(salt_pepper_fraction=0.1), seed=11)
        b = inject_noise(sig, "salt_pepper", NoiseConfig(salt_pepper_fraction=0.1), seed=11)
        assert np.array_equal(a.channels, b.channels)
        g1 = inject_noise(sig, "gaussian", NoiseConfig(gaussian_std=0.1), seed=4)
        g2 = inject_noise(sig, "gaussian", NoiseConfig(gaussian_std=0.1), seed=4)
        assert np.array_equal(g1.channels, g2.channels)

    def test_bad_params(self):
        sig = _sig([[1.0, 2.0]])
        with pytest.raises(ParameterError):
            inject_noise(sig, "salt_pepper", NoiseConfig(salt_pepper_fraction=1.5), seed=0)
        with pytest.raises(ParameterError):
            inject_noise(sig, "gaussian", NoiseConfig(gaussian_std=-0.1), seed=0)
        with pytest.raises(ParameterError):
            inject_noise(sig, "sparkle", NoiseConfig(), seed=0)


class TestSynth:
    def test_zero_growth_is_stationary(self):
        from carle.features import moments

        sig, _ = synth_run_to_failure(
            SynthConfig(duration_s=8.0, growth_rate=0.0, channel_count=1), seed=3
        )
        quarter = sig.length // 4
        kurts = [
            moments(sig.channels[0, i * quarter:(i + 1) * quarter])[3] for i in range(4)
        ]
        assert max(kurts) - min(kurts) < 1.0  # no degradation trend in tails

    def test_energy_grows_after_onset(self):
        sig, meta = synth_run_to_failure(
            SynthConfig(duration_s=10.0, onset_fraction=0.5, channel_count=1), seed=7
        )
        x = sig.channels[0]
        decile = sig.length // 10
        first = np.sum(x[:decile] ** 2)
        last = np.sum(x[-decile:] ** 2)
        assert last > first

    def test_condition_mirroring_high_rate(self):
        cfg = SynthConfig(rotation_hz=35.0, sample_rate_hz=25_000.0, duration_s=0.5)
        sig, meta = synth_run_to_failure(cfg, seed=0)
        assert sig.sample_rate_hz == 25_000.0
        assert meta["rotation_hz"] == 35.0
        assert sig.length == 12_500

    def test_metadata(self):
        sig, meta = synth_run_to_failure(SynthConfig(duration_s=5.0, onset_fraction=0.2), seed=1)
        assert meta["failure_time_s"] == 5.0
        assert abs(meta["onset_time_s"] - 1.0) < 1e-12
        assert meta["n_samples"] == sig.length

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rotation_hz", 0.0), ("rotation_hz", float("nan")), ("rotation_hz", float("inf")),
            ("sample_rate_hz", 0.0), ("duration_s", -1.0), ("burst_rate_hz", 0.0),
            ("burst_decay_s", 0.0), ("noise_std", -0.1), ("burst_amp", -1.0),
            ("growth_rate", -0.5), ("channel_count", 0), ("onset_fraction", 1.0),
            ("onset_fraction", -0.1), ("burst_amp", float("inf")), ("rotation_hz", None),
        ],
    )
    def test_every_bound_checked(self, name, value):
        config = SynthConfig(**{"duration_s": 1.0, name: value})
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            synth_run_to_failure(config, seed=0)

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            synth_run_to_failure(SynthConfig(duration_s=0.0), seed=0)
        with pytest.raises(ParameterError):
            synth_run_to_failure(SynthConfig(rotation_hz=-3.0), seed=0)
