"""Per-window time-frequency features and the full extraction pipeline.

Each window of each sensor channel yields seven descriptors:
log-energy, dominant frequency, spectral entropy over scales, kurtosis,
skewness, mean, and standard deviation. Per-channel records are
concatenated (channels outer, features inner) into one vector per window.

An extraction stacks all its window channels into one block, transforms it
BLOCK_ROWS rows at a time, and computes each descriptor for every row at
once; ``window_channel_features`` is the one-row case of the same code.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cwt import DEFAULT_CENTER_FREQ, build_scale_grid, transform
from .errors import DegenerateWindowError, InputError, ParameterError
from .signal import MultiChannelSignal, extract_windows, gaussian_filter

log = logging.getLogger(__name__)

# Window channels per transform call. Blocks of 1 to 8 rows ran within a
# few percent of each other, 2 the fastest; the complex product buffer
# grows with the block, 1 MB per 2 rows at 64 scales of a 256-sample window.
BLOCK_ROWS = 2

CONSTANT_WINDOW = "constant window: skewness/kurtosis undefined"

FEATURE_NAMES = (
    "log_energy",
    "dominant_freq_hz",
    "entropy",
    "kurtosis",
    "skewness",
    "mean",
    "std",
)


@dataclass
class TfrFeatures:
    """The seven descriptors of one window on one channel."""

    log_energy: float
    dominant_freq_hz: float
    entropy: float
    kurtosis: float
    skewness: float
    mean: float
    std: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])


@dataclass
class FeatureVector:
    """Concatenated per-channel features for one window (length 7 * n_channels)."""

    values: np.ndarray
    window_index: int
    feature_names: tuple


def channel_feature_names(n_channels: int) -> tuple:
    return tuple(
        f"ch{c + 1}.{name}" for c in range(n_channels) for name in FEATURE_NAMES
    )


def energy(coefficients):
    """Per-scale energies of ``transform``'s coefficients and their totals:
    e[..., a] = sum_b |coef(..., a, b)|^2."""
    parts = coefficients.view(np.float64)  # real and imaginary parts interleaved
    scale_energies = np.einsum("...i,...i->...", parts, parts)
    return scale_energies, scale_energies.sum(axis=-1)


def dominant_frequency(scale_energies, grid, sample_rate_hz: float):
    """Frequency of the scale with maximal energy, in Hz, per row of energies.

    Ties break toward the smaller scale, i.e. the higher frequency.
    """
    scale_energies = np.asarray(scale_energies, dtype=np.float64)
    return grid.freqs_hz[np.argmax(scale_energies, axis=-1)]


def entropy(scale_energies):
    """Shannon entropy (natural log) of the normalised per-scale energies,
    per row; 0 for a row of zero total energy."""
    e = np.asarray(scale_energies, dtype=np.float64)
    total = e.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = e / total
        return -np.sum(np.where(p > 0.0, p * np.log(p), 0.0), axis=-1)


def moments(window_samples):
    """Population mean, std, skewness, and kurtosis of one window channel,
    or of each row of an (m, n) block of them.

    Kurtosis is the raw fourth-moment ratio (Gaussian -> 3). A constant
    window gets std 0, and its skewness and kurtosis are undefined (NaN).
    """
    x = np.asarray(window_samples, dtype=np.float64)
    m = x.shape[-1]
    if m < 4:
        raise InputError(f"need at least 4 samples for moments, got {m}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = x.mean(axis=-1)
        centered = x - mu[..., None]
        sq = centered * centered
        var = sq.mean(axis=-1)
        std = np.sqrt(var)
        skew = (sq * centered).mean(axis=-1) / std**3
        kurt = (sq * sq).mean(axis=-1) / var**2
    return mu, std, skew, kurt


def _featurise(rows, grid, sample_rate_hz, two_pi_phase):
    """The seven descriptors of each row of an (m, n) block of window
    channels, shape (m, 7) in FEATURE_NAMES order, and per row why it is
    degenerate, or "" (zero energy is checked before zero variance)."""
    blocks = [
        energy(transform(rows[i:i + BLOCK_ROWS], grid, sample_rate_hz, two_pi_phase))
        for i in range(0, len(rows), BLOCK_ROWS)
    ]
    scale_energies = np.concatenate([e for e, _ in blocks])
    total = np.concatenate([t for _, t in blocks])
    mu, std, skew, kurt = moments(rows)
    with np.errstate(divide="ignore"):
        log_energy = np.log(total)
    dominant = dominant_frequency(scale_energies, grid, sample_rate_hz)
    values = np.stack([log_energy, dominant, entropy(scale_energies), kurt, skew, mu, std], axis=-1)
    reasons = np.where(total <= 0.0, "zero-energy window", np.where(std <= 0.0, CONSTANT_WINDOW, ""))
    return values, reasons


def window_channel_features(samples, grid, sample_rate_hz, two_pi_phase=True) -> TfrFeatures:
    """All seven descriptors for one window channel: the one-row case of
    ``extract_features``. A zero-energy or constant window raises
    DegenerateWindowError with the reason ``extract_features`` logs."""
    rows = np.asarray(samples, dtype=np.float64)[None]
    values, reasons = _featurise(rows, grid, sample_rate_hz, two_pi_phase)
    if reasons[0]:
        raise DegenerateWindowError(reasons[0])
    return TfrFeatures(*values[0])


@dataclass
class ExtractionConfig:
    """Parameters of the feature extraction pipeline."""

    sigma_g: float = 1.0
    window_len: int = 256
    stride: int | None = None
    f_o: float = 35.0
    n_scales: int = 64
    center_freq: float = DEFAULT_CENTER_FREQ
    two_pi_phase: bool = True

    def validate(self):
        if self.sigma_g <= 0:
            raise ParameterError(f"extraction.sigma_g must be positive, got {self.sigma_g}")
        if self.window_len < 4:
            raise ParameterError(f"extraction.window_len must be >= 4, got {self.window_len}")
        if self.stride is not None and self.stride < 1:
            raise ParameterError(f"extraction.stride must be >= 1, got {self.stride}")
        if self.f_o <= 0:
            raise ParameterError(f"extraction.f_o must be positive, got {self.f_o}")
        if self.n_scales < 2:
            raise ParameterError(f"extraction.n_scales must be >= 2, got {self.n_scales}")
        if self.center_freq <= 0:
            raise ParameterError(f"extraction.center_freq must be positive, got {self.center_freq}")


def extract_features(signal: MultiChannelSignal, config: ExtractionConfig = None):
    """Smooth, window, transform, and featurise a multichannel signal.

    Returns a list of FeatureVector, one per non-degenerate window;
    degenerate windows are skipped with a logged warning. A window whose
    features are not all finite (an amplitude that overflows the moments or
    the energies) raises InputError.
    """
    if config is None:
        config = ExtractionConfig()

    grid = build_scale_grid(
        config.f_o, signal.sample_rate_hz, config.n_scales, config.center_freq
    )
    n_channels = signal.channel_count
    names = channel_feature_names(n_channels)
    windows = extract_windows(gaussian_filter(signal, config.sigma_g), config.window_len, config.stride)
    rows = np.concatenate([w.samples for w in windows])  # one row per window channel
    del windows  # the windows are views: free the smoothed signal before the transform
    values, reasons = _featurise(rows, grid, signal.sample_rate_hz, config.two_pi_phase)
    values = values.reshape(-1, len(FEATURE_NAMES) * n_channels)
    reasons = reasons.reshape(-1, n_channels).tolist()
    finite = np.isfinite(values).all(axis=1).tolist()

    vectors = []
    for w_idx, (row, why, ok) in enumerate(zip(values, reasons, finite)):
        why = next(filter(None, why), "")  # the first degenerate channel's reason
        if why:
            log.warning("skipping degenerate window %d: %s", w_idx, why)
        elif not ok:
            raise InputError(
                f"window {w_idx}: features are not finite; the signal's amplitude is out of range"
            )
        else:
            vectors.append(FeatureVector(row, w_idx, names))
    return vectors


def feature_matrix(vectors) -> np.ndarray:
    """Stack feature vectors into a (n_windows, 7*n_channels) matrix."""
    if not vectors:
        raise InputError("no feature vectors to stack")
    return np.stack([v.values for v in vectors])
