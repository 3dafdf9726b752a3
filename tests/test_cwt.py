import math

import numpy as np
import pytest

from carle import cwt
from carle.cwt import TRUNC_TAU, ScaleGrid, build_scale_grid, phase_coefficient, transform
from carle.errors import InputError, ParameterError


def direct_scalogram(x, scales, phase_coeff, dt):
    """Reference: the truncated wavelet sum, one direct convolution per scale."""
    n_samples = x.shape[0]
    out = np.empty((scales.shape[0], n_samples), dtype=np.complex128)
    for i in range(scales.shape[0]):
        a = scales[i]
        half = int(math.ceil(TRUNC_TAU * a))
        tau = np.arange(-half, half + 1, dtype=np.float64) / a
        kernel = np.exp(-0.5 * tau * tau) * np.exp(-1j * phase_coeff * tau)
        full = np.convolve(x, kernel[::-1])
        out[i] = full[half:half + n_samples] * (dt / math.sqrt(a))
    return out


def hand_grid(scales, center_freq, fs):
    """A ScaleGrid built from bare scales, not by build_scale_grid; its
    frequencies follow a = f_c * fs / f."""
    freqs = center_freq * fs / np.asarray(scales, dtype=np.float64)
    return ScaleGrid(scales, freqs, center_freq, freqs.min(), freqs.max())


class TestScaleGrid:
    def test_known_bounds_for_35hz_condition(self):
        # direct evaluation: a = f_c * f_s / f, f in {3*f_o, f_o/3}
        grid = build_scale_grid(35.0, 25_000.0, 64, 0.81)
        assert abs(grid.scales[0] - 192.85714285714286) < 1e-9 * 192.86
        assert abs(grid.scales[-1] - 1735.7142857142858) < 1e-9 * 1735.7

    def test_two_scales_are_exact_endpoints(self):
        grid = build_scale_grid(35.0, 25_000.0, 2, 0.81)
        assert len(grid.scales) == 2
        assert grid.scales[0] == 0.81 * 25_000.0 / 105.0
        assert grid.scales[-1] == 0.81 * 25_000.0 * 3.0 / 35.0

    def test_log_spacing_constant_ratio(self):
        grid = build_scale_grid(100.0, 25_600.0, 64)
        ratios = grid.scales[1:] / grid.scales[:-1]
        assert np.all(np.abs(ratios / ratios[0] - 1.0) < 1e-9)
        assert np.all(np.diff(grid.scales) > 0)

    def test_pronostia_condition_builds(self):
        grid = build_scale_grid(100.0, 25_600.0, 64)
        assert grid.f_min_hz == 100.0 / 3.0
        assert grid.f_max_hz == 300.0

    def test_frequency_round_trip_exact(self):
        grid = build_scale_grid(42.0, 5000.0, 16)
        assert grid.freqs_hz[0] == grid.f_max_hz
        assert grid.freqs_hz[-1] == grid.f_min_hz

    def test_nyquist_violation_names_bound(self):
        with pytest.raises(ParameterError, match="Nyquist"):
            build_scale_grid(100.0, 500.0, 8)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_scale_grid(-1.0, 1000.0, 8)
        with pytest.raises(ParameterError):
            build_scale_grid(10.0, 1000.0, 1)
        with pytest.raises(ParameterError):
            build_scale_grid(10.0, 1000.0, 8, center_freq=0.0)


def test_phase_conventions_differ(rng):
    assert phase_coefficient(0.81, True) == pytest.approx(2 * math.pi * 0.81)
    assert phase_coefficient(0.81, False) == pytest.approx(0.81 / (2 * math.pi))
    grid = build_scale_grid(100.0, 2000.0, 8)
    x = rng.normal(size=64)
    assert not np.allclose(transform(x, grid, 2000.0, True), transform(x, grid, 2000.0, False))


class TestTransform:
    fs = 2000.0

    def grid(self, n=32):
        return build_scale_grid(100.0, self.fs, n)

    def test_zero_window_zero_scalogram(self):
        scal = transform(np.zeros(64), self.grid(), self.fs)
        assert np.all(scal == 0)
        assert scal.shape == (32, 64)

    def test_linearity(self, rng):
        grid = self.grid(8)
        x = rng.normal(size=128)
        y = rng.normal(size=128)
        a, b = 2.3, -0.7
        lhs = transform(a * x + b * y, grid, self.fs)
        rhs = a * transform(x, grid, self.fs) + b * transform(y, grid, self.fs)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_scaling_by_constant(self, rng):
        grid = self.grid(8)
        x = rng.normal(size=64)
        assert np.allclose(
            transform(3.0 * x, grid, self.fs),
            3.0 * transform(x, grid, self.fs),
            rtol=1e-12,
        )

    def test_time_shift_covariance(self, rng):
        # compact-support grid so interior columns exist in a 512 window
        grid = build_scale_grid(250.0, self.fs, 16)
        n = 512
        k = 5
        x = rng.normal(size=n)
        shifted = np.zeros(n)
        shifted[k:] = x[:n - k]
        c_base = transform(x, grid, self.fs)
        c_shift = transform(shifted, grid, self.fs)
        # interior columns: wavelet support fully inside both windows
        half = int(math.ceil(6.0697 * grid.scales[-1]))
        lo, hi = half + k, n - half
        assert hi - lo > 50
        assert np.allclose(c_shift[:, lo:hi], c_base[:, lo - k:hi - k], rtol=1e-6, atol=1e-9)

    def test_sinusoid_peak_scale_matches_frequency(self, rng):
        grid = self.grid(64)
        t = np.arange(512) / self.fs
        for f_true in (40.0, 100.0, 250.0):
            x = np.sin(2 * np.pi * f_true * t)
            scal = transform(x, grid, self.fs)
            energies = np.sum(np.abs(scal) ** 2, axis=1)
            i_peak = int(np.argmax(energies))
            i_true = int(np.argmin(np.abs(np.log(grid.freqs_hz) - math.log(f_true))))
            assert abs(i_peak - i_true) <= 1

    def test_window_too_short(self):
        with pytest.raises(InputError):
            transform(np.zeros(3), self.grid(), self.fs)

    @pytest.mark.parametrize("n", [4, 5, 255, 256, 257, 512])
    @pytest.mark.parametrize("two_pi_phase", [True, False])
    def test_fft_matches_direct_sum(self, rng, n, two_pi_phase):
        # half = ceil(TRUNC_TAU * a) runs from 2 (a = 0.3) to 1821 (a = 300),
        # so it lies below and above n - 1 for every n here
        scales = np.geomspace(0.3, 300.0, 12)
        x = rng.normal(size=n)
        k = phase_coefficient(0.81, two_pi_phase)
        via_fft = transform(x, hand_grid(scales, 0.81, self.fs), self.fs, two_pi_phase)
        direct = direct_scalogram(x, scales, k, 1.0 / self.fs)
        assert np.allclose(via_fft, direct, rtol=1e-10, atol=1e-12)

    def test_memoised_spectra_match_fresh(self, rng):
        # interleaved grids and window lengths must each get their own spectra
        grids = (self.grid(12), build_scale_grid(250.0, self.fs, 16))
        k = phase_coefficient(0.81, True)
        dt = 1.0 / self.fs
        cases = [(grid, rng.normal(size=n)) for n in (256, 300) for grid in grids]
        fresh = []
        for grid, x in cases:
            cwt._wavelet_spectra.cache_clear()
            fresh.append(transform(x, grid, self.fs))
        for _ in range(2):
            for (grid, x), want in zip(cases, fresh):
                assert np.array_equal(transform(x, grid, self.fs), want)
        assert cwt._wavelet_spectra.cache_info().currsize == len(cases)
        for grid, x in cases:
            spectra = cwt._wavelet_spectra(len(x), grid.scales.tobytes(), k, dt)
            with pytest.raises(ValueError):
                spectra[0, 0] = 0.0

    def test_hand_built_grid_scales_become_float64(self, rng):
        # the memo key is the scales' float64 bytes, whatever the grid holds
        x = rng.normal(size=128)
        scales = np.geomspace(0.5, 40.0, 6)
        want = transform(x, hand_grid(scales, 0.81, self.fs), self.fs)
        assert np.array_equal(transform(x, hand_grid(scales.tolist(), 0.81, self.fs), self.fs), want)
        narrow = scales.astype(np.float32)
        want = transform(x, hand_grid(narrow.astype(np.float64), 0.81, self.fs), self.fs)
        assert np.array_equal(transform(x, hand_grid(narrow, 0.81, self.fs), self.fs), want)


def test_cwt_kernel_truncation_harmless(rng):
    # widening the envelope cutoff must not change coefficients measurably
    x = rng.normal(size=128)
    scales = np.array([2.0, 5.0])
    center_freq = 5.09 / (2 * math.pi)
    k = phase_coefficient(center_freq)
    base = transform(x, hand_grid(scales, center_freq, 1000.0), 1000.0)
    # reference with an explicitly huge support via the numpy path
    out = np.empty_like(base)
    for i, a in enumerate(scales):
        half = 4 * 128  # effectively untruncated
        tau = np.arange(-half, half + 1) / a
        kernel = np.exp(-0.5 * tau * tau) * np.exp(-1j * k * tau)
        full = np.convolve(x, kernel[::-1])
        out[i] = full[half:half + 128] * (1e-3 / np.sqrt(a))
    assert np.allclose(base, out, rtol=1e-7, atol=1e-12)
