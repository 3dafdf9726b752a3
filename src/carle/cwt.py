"""Morlet continuous wavelet transform over a rotation-speed-aware scale grid.

The analysed band spans one third of the rotation frequency up to its third
harmonic. Scales are logarithmically spaced between the scales matching the
band edges, a = f_c / (f * T_sampling).

The wavelet phase is exp(1j*2*pi*f_c*tau) by default, which is the form
consistent with that scale-to-frequency map. The variant placing 2*pi in
the denominator of the phase (exp(1j*f_c*tau/(2*pi))) is available with
``two_pi_phase=False``; note its passband does not line up with the grid's
nominal frequencies.

The wavelet is defined once, by the taps ``_wavelet_spectra`` builds.
``transform`` computes coefficients by FFT convolution, one numpy path that
takes a window channel or an (m, n) block of them, so a whole extraction
runs as a few batched FFT calls. Each scale grid and each window
length's wavelet spectra are memoised.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

DEFAULT_CENTER_FREQ = 0.81
# envelope exp(-tau^2/2) drops below 1e-8 beyond this |tau|
TRUNC_TAU = math.sqrt(2.0 * math.log(1e8))


def phase_coefficient(center_freq: float, two_pi_phase: bool = True) -> float:
    """Coefficient k in the wavelet phase exp(1j * k * tau)."""
    if two_pi_phase:
        return 2.0 * math.pi * center_freq
    return center_freq / (2.0 * math.pi)


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmically spaced wavelet scales with their nominal frequencies."""

    scales: np.ndarray
    freqs_hz: np.ndarray
    center_freq: float
    f_min_hz: float
    f_max_hz: float

    @property
    def count(self) -> int:
        return len(self.scales)


@functools.lru_cache(maxsize=8)
def build_scale_grid(
    f_o: float,
    sample_rate_hz: float,
    n_scales: int = 64,
    center_freq: float = DEFAULT_CENTER_FREQ,
) -> ScaleGrid:
    """Scale grid covering [f_o/3, 3*f_o] with n_scales log-spaced scales.

    Memoised: equal arguments return the same grid, with read-only arrays.
    """
    if f_o <= 0:
        raise ParameterError(f"f_o must be positive, got {f_o}")
    if n_scales < 2:
        raise ParameterError(f"n_scales must be >= 2, got {n_scales}")
    if center_freq <= 0:
        raise ParameterError(f"center_freq must be positive, got {center_freq}")
    f_min = f_o / 3.0
    f_max = 3.0 * f_o
    nyquist = sample_rate_hz / 2.0
    if f_max >= nyquist:
        raise ParameterError(
            f"f_max = 3*f_o = {f_max} Hz must stay below the Nyquist frequency "
            f"{nyquist} Hz (sample_rate_hz/2)"
        )
    # descending frequencies give ascending scales; endpoints are exact
    freqs = np.geomspace(f_max, f_min, n_scales)
    scales = center_freq * sample_rate_hz / freqs
    freqs.flags.writeable = scales.flags.writeable = False
    return ScaleGrid(scales, freqs, center_freq, f_min, f_max)


# ---------------------------------------------------------------------------
# Wavelet scalogram
#
# out[i, b] = (dt / sqrt(a_i)) * sum_t x[t] * conj(psi)((t - b) / a_i)
# with psi(tau) = exp(1j * phase_coeff * tau) * exp(-tau^2 / 2), the signal
# treated as zero outside the window, and the sum truncated where the
# envelope falls below 1e-8.
#
# Computed as a circular convolution by FFT (Torrence & Compo, 1998): only
# lags |t - b| <= n - 1 reach an output sample, so with nfft >= 2n - 1 the
# circular sum has no wrap-around and equals the direct one.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _wavelet_spectra(n_samples, scales_bytes, phase_coeff, dt):
    """FFT of every scale's truncated, normalised taps, (n_scales, nfft), read-only."""
    scales = np.frombuffer(scales_bytes, dtype=np.float64)
    nfft = 1 << (2 * n_samples - 2).bit_length()
    spectra = np.zeros((len(scales), nfft), dtype=np.complex128)
    for row, a in zip(spectra, scales):
        # lags past n - 1 reach no output sample
        half = min(math.ceil(TRUNC_TAU * a), n_samples - 1)
        lag = np.arange(-half, half + 1)
        tau = lag / a
        # slot j holds the tap at lag t - b = -j (mod nfft)
        row[-lag] = np.exp(-0.5 * tau * tau) * np.exp(-1j * phase_coeff * tau) * (dt / math.sqrt(a))
    np.fft.fft(spectra, axis=1, out=spectra)
    spectra.flags.writeable = False
    return spectra


def transform(
    window_samples,
    grid: ScaleGrid,
    sample_rate_hz: float,
    two_pi_phase: bool = True,
) -> np.ndarray:
    """Complex wavelet coefficients of one window channel, shape
    (n_scales, n), or of each row of an (m, n) block of window channels,
    shape (m, n_scales, n), over the whole scale grid.

    Coefficients carry 1/sqrt(scale) amplitude normalisation so per-scale
    energies are comparable; the signal is treated as zero outside the
    window. They are not checked here: a non-finite one makes its scale's
    energy non-finite, and ``features.extract_features`` refuses a window
    whose features are not finite.
    """
    x = np.asarray(window_samples, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise InputError(f"expected a window channel or an (m, n) block of them, got shape {x.shape}")
    if x.shape[-1] < 4:
        raise InputError(f"window too short for transform: {x.shape[-1]} < 4 samples")
    if grid.count < 2:
        raise ParameterError("scale grid is degenerate (fewer than 2 scales)")
    k = phase_coefficient(grid.center_freq, two_pi_phase)
    x = np.ascontiguousarray(x)
    # a hand-built grid may hold a list or float32 scales: the memo key is their float64 bytes
    scales = np.ascontiguousarray(grid.scales, dtype=np.float64)
    n = x.shape[-1]
    spectra = _wavelet_spectra(n, scales.tobytes(), float(k), float(1.0 / sample_rate_hz))
    product = np.fft.fft(x, spectra.shape[1])[..., None, :] * spectra
    # in place: a second (..., n_scales, nfft) buffer costs more than the transform
    return np.fft.ifft(product, axis=-1, out=product)[..., :n]
