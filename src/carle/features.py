"""Per-window time-frequency features and the full extraction pipeline.

Each window of each sensor channel yields seven descriptors:
log-energy, dominant frequency, spectral entropy over scales, kurtosis,
skewness, mean, and standard deviation. Per-channel records are
concatenated (channels outer, features inner) into one vector per window.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cwt import DEFAULT_CENTER_FREQ, Scalogram, build_scale_grid, transform
from .errors import DegenerateWindowError, InputError, ParameterError
from .signal import MultiChannelSignal, extract_windows, gaussian_filter

log = logging.getLogger(__name__)

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
        return np.array(
            [
                self.log_energy,
                self.dominant_freq_hz,
                self.entropy,
                self.kurtosis,
                self.skewness,
                self.mean,
                self.std,
            ]
        )


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


def energy(scalogram: Scalogram):
    """Per-scale energies and their total: e[a] = sum_b |coef(a,b)|^2."""
    mag2 = np.abs(scalogram.coefficients) ** 2
    scale_energies = mag2.sum(axis=1)
    return scale_energies, float(scale_energies.sum())


def dominant_frequency(scale_energies, grid, sample_rate_hz: float) -> float:
    """Frequency of the scale with maximal energy, in Hz.

    Ties break toward the smaller scale, i.e. the higher frequency.
    """
    scale_energies = np.asarray(scale_energies, dtype=np.float64)
    total = scale_energies.sum()
    if total <= 0.0:
        raise DegenerateWindowError("all scale energies are zero")
    idx = int(np.argmax(scale_energies))
    return float(grid.freqs_hz[idx])


def entropy(scale_energies) -> float:
    """Shannon entropy (natural log) of the normalised per-scale energies."""
    e = np.asarray(scale_energies, dtype=np.float64)
    total = e.sum()
    if total <= 0.0:
        raise DegenerateWindowError("zero total energy, entropy undefined")
    p = e / total
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def moments(window_samples):
    """Population mean, std, skewness, and kurtosis of one window channel.

    Kurtosis is the raw fourth-moment ratio (Gaussian -> 3). A constant
    window has zero std, leaving skewness and kurtosis undefined.
    """
    x = np.asarray(window_samples, dtype=np.float64)
    m = len(x)
    if m < 4:
        raise InputError(f"need at least 4 samples for moments, got {m}")
    mu = float(x.mean())
    centered = x - mu
    var = float(np.mean(centered**2))
    if var <= 0.0:
        raise DegenerateWindowError("constant window: skewness/kurtosis undefined")
    std = math.sqrt(var)
    skew = float(np.mean(centered**3)) / std**3
    kurt = float(np.mean(centered**4)) / var**2
    return mu, std, skew, kurt


def window_channel_features(samples, grid, sample_rate_hz, two_pi_phase=True) -> TfrFeatures:
    """All seven descriptors for one window channel."""
    scal = transform(samples, grid, sample_rate_hz, two_pi_phase=two_pi_phase)
    scale_energies, total = energy(scal)
    if total <= 0.0:
        raise DegenerateWindowError("zero-energy window")
    mu, std, skew, kurt = moments(samples)
    return TfrFeatures(
        log_energy=math.log(total),
        dominant_freq_hz=dominant_frequency(scale_energies, grid, sample_rate_hz),
        entropy=entropy(scale_energies),
        kurtosis=kurt,
        skewness=skew,
        mean=mu,
        std=std,
    )


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
    degenerate windows are skipped with a logged warning.
    """
    if config is None:
        config = ExtractionConfig()

    grid = build_scale_grid(
        config.f_o, signal.sample_rate_hz, config.n_scales, config.center_freq
    )
    filtered = gaussian_filter(signal, config.sigma_g)
    windows = extract_windows(filtered, config.window_len, config.stride)
    names = channel_feature_names(signal.channel_count)

    vectors = []
    for w_idx, window in enumerate(windows):
        try:
            per_channel = [
                window_channel_features(
                    window.samples[c], grid, signal.sample_rate_hz, config.two_pi_phase
                ).as_array()
                for c in range(signal.channel_count)
            ]
        except DegenerateWindowError as exc:
            log.warning("skipping degenerate window %d: %s", w_idx, exc)
            continue
        vectors.append(FeatureVector(np.concatenate(per_channel), w_idx, names))
    return vectors


def feature_matrix(vectors) -> np.ndarray:
    """Stack feature vectors into a (n_windows, 7*n_channels) matrix."""
    if not vectors:
        raise InputError("no feature vectors to stack")
    return np.stack([v.values for v in vectors])
