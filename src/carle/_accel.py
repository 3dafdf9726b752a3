"""Hot numeric kernels: the wavelet scalogram, and the CART split scan with a
numba fast path and a pure-numpy fallback.

The scalogram has one numpy implementation, an FFT convolution. numba is
optional: without it, or with ``CARLE_DISABLE_NUMBA=1``, the numpy split scan
runs and ``backend()`` reports ``'numpy'``. Both split scans compute the same
sums; the tests check their agreement only where numba imports (elsewhere
they compare numpy with numpy), and ``benchmarks/bench_kernels.py`` compares
their speed.
"""

import functools
import math
import os

import numpy as np

# envelope exp(-tau^2/2) drops below 1e-8 beyond this |tau|
TRUNC_TAU = math.sqrt(2.0 * math.log(1e8))


def _numba_disabled() -> bool:
    return os.environ.get("CARLE_DISABLE_NUMBA", "").strip().lower() in {"1", "true", "yes"}


_HAVE_NUMBA = False
if not _numba_disabled():
    # workqueue is always available; avoids the broken-TBB probe warning
    os.environ.setdefault("NUMBA_THREADING_LAYER", "workqueue")
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # numba is optional; fall back to numpy
        _HAVE_NUMBA = False


def backend() -> str:
    """Name of the active kernel backend ('numba' or 'numpy')."""
    return "numba" if _HAVE_NUMBA else "numpy"


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


def cwt_scalogram(x, scales, phase_coeff, dt):
    """Complex wavelet coefficients of one window, shape (n_scales, len(x))."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    n = x.shape[0]
    spectra = _wavelet_spectra(n, scales.tobytes(), float(phase_coeff), float(dt))
    product = np.fft.fft(x, spectra.shape[1]) * spectra
    # in place: a second (n_scales, nfft) buffer costs more than the transform
    return np.fft.ifft(product, axis=1, out=product)[:, :n]


# ---------------------------------------------------------------------------
# CART split scan
#
# Given one feature column sorted ascending (with targets aligned), find the
# split position minimising SSE_left + SSE_right. Candidate thresholds are
# midpoints between distinct adjacent values; the lowest-threshold minimum
# wins. Returns (sse, threshold, left_count); left_count < 0 means no split.
# ---------------------------------------------------------------------------


def _split_scan_numpy(values, targets, min_leaf):
    n = targets.shape[0]
    if n < 2 * min_leaf:
        return math.inf, 0.0, -1
    c1 = np.cumsum(targets)
    c2 = np.cumsum(targets * targets)
    tot1 = c1[-1]
    tot2 = c2[-1]
    i = np.arange(1, n)  # left-side count at each candidate position
    valid = (i >= min_leaf) & (n - i >= min_leaf) & (values[:-1] < values[1:])
    if not valid.any():
        return math.inf, 0.0, -1
    s1 = c1[:-1]
    s2 = c2[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        sse = (s2 - s1 * s1 / i) + ((tot2 - s2) - (tot1 - s1) * (tot1 - s1) / (n - i))
    sse = np.where(valid, sse, math.inf)
    j = int(np.argmin(sse))  # first minimum = lowest threshold wins
    return float(sse[j]), 0.5 * (values[j] + values[j + 1]), j + 1


if _HAVE_NUMBA:

    @njit(cache=True)
    def _split_scan_numba(values, targets, min_leaf):  # pragma: no cover - compiled
        n = targets.shape[0]
        best_sse = math.inf
        best_thr = 0.0
        best_pos = -1
        s1 = 0.0
        s2 = 0.0
        tot1 = 0.0
        tot2 = 0.0
        for i in range(n):
            t = targets[i]
            tot1 += t
            tot2 += t * t
        for i in range(1, n):
            y = targets[i - 1]
            s1 += y
            s2 += y * y
            if i < min_leaf or n - i < min_leaf:
                continue
            if values[i - 1] >= values[i]:
                continue
            sse = (s2 - s1 * s1 / i) + ((tot2 - s2) - (tot1 - s1) * (tot1 - s1) / (n - i))
            if sse < best_sse:
                best_sse = sse
                best_thr = 0.5 * (values[i - 1] + values[i])
                best_pos = i
        return best_sse, best_thr, best_pos


def split_scan(values, targets, min_leaf):
    """Best variance-reduction split of one sorted feature column."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if _HAVE_NUMBA:
        return _split_scan_numba(values, targets, int(min_leaf))
    return _split_scan_numpy(values, targets, int(min_leaf))
