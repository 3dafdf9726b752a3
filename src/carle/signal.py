"""Multichannel vibration signals: smoothing, windowing, corruption, synthesis."""

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import InputError, ParameterError


@dataclass
class MultiChannelSignal:
    """Raw or filtered vibration series, one row per channel.

    channels has shape (channel_count, length) and holds finite float64
    samples in C order, so a signal read from a CSV rounds like one made in
    memory; all channels share the sampling rate.
    """

    channels: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.channels = np.ascontiguousarray(np.atleast_2d(self.channels), dtype=np.float64)
        if self.channels.size == 0 or self.channels.shape[1] < 1:
            raise InputError("signal must contain at least one sample per channel")
        if not np.isfinite(self.channels).all():
            raise InputError("signal has a non-finite sample (NaN or inf)")
        if not self.sample_rate_hz > 0:
            raise ParameterError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def length(self) -> int:
        return self.channels.shape[1]

    @property
    def channel_count(self) -> int:
        return self.channels.shape[0]


@dataclass
class Window:
    """One segment of a signal; samples has shape (channel_count, length)."""

    start_index: int
    length: int
    samples: np.ndarray


def gaussian_filter(signal: MultiChannelSignal, sigma: float) -> MultiChannelSignal:
    """Smooth every channel by convolution with a normalised Gaussian kernel.

    Boundaries use reflect padding, so constant signals pass through
    unchanged and output length equals input length. The kernel radius
    ceil(4*sigma) may not exceed the signal length.
    """
    if 4.0 * sigma > signal.length:
        raise ParameterError(
            f"sigma {sigma} is too wide for a {signal.length}-sample signal (4*sigma > length)"
        )
    if not 0 < sigma < math.inf:
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    r = max(1, int(math.ceil(4.0 * sigma)))
    x = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-0.5 * (x / sigma) ** 2)
    taps /= taps.sum()
    out = np.empty_like(signal.channels)
    for c in range(signal.channel_count):
        ch = signal.channels[c]
        if len(ch) > 1:
            padded = np.pad(ch, r, mode="reflect")
        else:
            padded = np.pad(ch, r, mode="edge")
        out[c] = np.convolve(padded, taps, mode="valid")
    return MultiChannelSignal(out, signal.sample_rate_hz)


# snr_sweep's SNR ceiling, in dB, for a residual of zero power
SNR_CAP_DB = 120.0


def snr_sweep(signal: MultiChannelSignal, sigmas):
    """Signal-to-noise ratio of the smoothed signal for each kernel width.

    SNR_dB = 10*log10(P_filtered / P_residual) with residual = raw - filtered
    and P the mean squared amplitude over all channels, at most SNR_CAP_DB.
    A zero-power residual (including sigma = 0, where filtering is the
    identity) yields SNR_CAP_DB.
    Returns a list of (sigma, snr_db) pairs.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ParameterError("sigmas must be nonempty")
    if any(s < 0 for s in sigmas):
        raise ParameterError("sigmas must be non-negative")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ParameterError("sigmas must be strictly increasing")

    results = []
    for s in sigmas:
        if s == 0.0:
            results.append((s, SNR_CAP_DB))
            continue
        filtered = gaussian_filter(signal, s)
        residual = signal.channels - filtered.channels
        p_filt = float(np.mean(filtered.channels**2))
        p_res = float(np.mean(residual**2))
        if p_res <= 0.0 or p_filt <= 0.0:
            results.append((s, SNR_CAP_DB))
        else:
            results.append((s, min(SNR_CAP_DB, 10.0 * math.log10(p_filt / p_res))))
    return results


def extract_windows(signal: MultiChannelSignal, window_len: int, stride: int | None = None):
    """Cut the signal into windows at start indices 0, stride, 2*stride, ...

    The default stride equals the window length (non-overlapping). Samples
    past the last full window are dropped. Each window's samples are a view
    of the signal's channels.
    """
    if stride is None:
        stride = window_len
    if window_len < 1 or stride < 1:
        raise ParameterError("window_len and stride must be positive")
    if window_len > signal.length:
        raise InputError(
            f"window_len {window_len} exceeds signal length {signal.length}"
        )
    return [
        Window(start, window_len, signal.channels[:, start:start + window_len])
        for start in range(0, signal.length - window_len + 1, stride)
    ]


@dataclass
class NoiseConfig:
    """Parameters of inject_noise, and the ``noise`` section of a config."""

    gaussian_mean: float = 0.0
    gaussian_std: float = 0.1
    salt_pepper_fraction: float = 0.1
    salt_pepper_amplitude: float = 0.5

    BOUNDS = (
        (">= 0", lambda v: v >= 0, ("gaussian_std",)),
        ("in [0,1]", lambda v: 0 <= v <= 1, ("salt_pepper_fraction",)),
        ("positive", lambda v: v > 0, ("salt_pepper_amplitude",)),
    )


def inject_noise(signal: MultiChannelSignal, kind: str, config: NoiseConfig, seed: int) -> MultiChannelSignal:
    """Corrupt a signal with 'gaussian' or 'salt_pepper' noise, reproducibly.

    gaussian: adds i.i.d. N(gaussian_mean, gaussian_std^2) samples.
    salt_pepper: replaces an exact per-channel salt_pepper_fraction of
    points, chosen without replacement, with values salt_pepper_amplitude *
    range beyond the channel min/max (equal probability low/high).
    """
    schema.check(config, "noise.")
    rng = np.random.default_rng(seed)
    out = signal.channels.copy()
    if kind == "gaussian":
        if config.gaussian_std > 0 or config.gaussian_mean != 0.0:
            out = out + rng.normal(config.gaussian_mean, config.gaussian_std, size=out.shape)
    elif kind == "salt_pepper":
        n = signal.length
        n_replace = int(round(config.salt_pepper_fraction * n))
        for c in range(signal.channel_count):
            if n_replace == 0:
                continue
            lo = float(out[c].min())
            hi = float(out[c].max())
            reach = config.salt_pepper_amplitude * (hi - lo)
            idx = rng.choice(n, size=n_replace, replace=False)
            high = rng.random(n_replace) < 0.5
            out[c, idx] = np.where(high, hi + reach, lo - reach)
    else:
        raise ParameterError(f"unknown noise kind {kind!r} (use 'gaussian' or 'salt_pepper')")
    return MultiChannelSignal(out, signal.sample_rate_hz)


# rotation tone and its two harmonics
HARMONIC_AMPS = (1.0, 0.5, 0.25)
# relative rise of the tone amplitude and of the noise floor at full
# severity, per unit growth_rate
TONE_GROWTH = 0.5
NOISE_GROWTH = 3.0
# burst rings sit at this multiple of the rotation frequency, inside the
# analysed band
RESONANCE_RATIO = 2.5


@dataclass
class SynthProfile:
    """Degradation profile for the synthetic run-to-failure generator, and
    the ``synth`` section of a config.

    A rotation tone at rotation_hz plus two harmonics rides on background
    noise. After onset_fraction of the record the fault develops along a
    linear severity ramp scaled by growth_rate: the broadband noise floor
    rises (distributed wear) and impulsive bursts (decaying rings at
    RESONANCE_RATIO times the rotation frequency) appear with growing
    amplitude and rate. In a config, rotation_hz None follows extraction.f_o.
    """

    rotation_hz: float | None = None
    duration_s: float = 20.0
    channel_count: int = 2
    onset_fraction: float = 0.1
    growth_rate: float = 1.0
    noise_std: float = 0.2
    burst_amp: float = 4.0
    burst_rate_hz: float = 12.0
    burst_decay_s: float = 0.01

    BOUNDS = (
        ("positive", lambda v: v > 0, ("rotation_hz", "duration_s", "burst_rate_hz", "burst_decay_s")),
        (">= 0", lambda v: v >= 0, ("noise_std", "burst_amp", "growth_rate")),
        (">= 1", lambda v: v >= 1, ("channel_count",)),
        ("in [0,1)", lambda v: 0 <= v < 1, ("onset_fraction",)),
    )


@dataclass
class SynthConfig(SynthProfile):
    """A profile ready for synth_run_to_failure: the rotation frequency is
    set, and the sample rate travels with it."""

    rotation_hz: float = 35.0
    sample_rate_hz: float = 1024.0

    BOUNDS = SynthProfile.BOUNDS + (("positive", lambda v: v > 0, ("sample_rate_hz",)),)


def synth_run_to_failure(config: SynthConfig, seed: int):
    """Generate a synthetic run-to-failure recording.

    Returns (MultiChannelSignal, metadata) where metadata records the true
    failure time (end of record) and the fault onset time for label
    generation.
    """
    schema.check(config)
    fs = config.sample_rate_hz
    # a burst starts at a sample; past one burst a sample the loop below
    # slows, and stalls once the mean gap is under half an ulp of pos
    if config.burst_rate_hz > fs:
        raise ParameterError(
            f"burst_rate_hz must be at most sample_rate_hz ({fs}), got {config.burst_rate_hz}"
        )
    rng = np.random.default_rng(seed)
    n = int(round(config.duration_s * fs))
    t = np.arange(n) / fs
    onset_t = config.onset_fraction * config.duration_s
    # severity ramps 0 -> 1 from fault onset to failure
    severity = np.clip((t - onset_t) / max(config.duration_s - onset_t, 1e-12), 0.0, 1.0)
    f_res = RESONANCE_RATIO * config.rotation_hz

    tone_scale = 1.0 + TONE_GROWTH * config.growth_rate * severity
    channels = np.empty((config.channel_count, n))
    for c in range(config.channel_count):
        x = np.zeros(n)
        for h, amp in enumerate(HARMONIC_AMPS, start=1):
            phase = rng.uniform(0, 2 * np.pi)
            x += amp * tone_scale * np.sin(2 * np.pi * h * config.rotation_hz * t + phase)
        noise_scale = config.noise_std * (1.0 + NOISE_GROWTH * config.growth_rate * severity)
        x += noise_scale * rng.normal(0.0, 1.0, n)

        if config.growth_rate > 0:
            # burst instants thinned by severity: early faults ring rarely
            mean_gap = fs / config.burst_rate_hz
            pos = 0.0
            ring_len = max(4, int(round(5 * config.burst_decay_s * fs)))
            ring_t = np.arange(ring_len) / fs
            ring = np.exp(-ring_t / config.burst_decay_s) * np.sin(2 * np.pi * f_res * ring_t)
            while True:
                pos += rng.exponential(mean_gap)
                i = int(pos)
                if i >= n:
                    break
                sev = severity[i]
                if sev <= 0.0 or rng.random() > sev:
                    continue
                amp = config.burst_amp * config.growth_rate * sev * (0.7 + 0.6 * rng.random())
                end = min(n, i + ring_len)
                x[i:end] += amp * ring[: end - i]
        channels[c] = x

    meta = {
        "failure_time_s": config.duration_s,
        "onset_time_s": onset_t,
        "rotation_hz": config.rotation_hz,
        "sample_rate_hz": fs,
        "n_samples": n,
        "channel_count": config.channel_count,
        "seed": int(seed),
    }
    return MultiChannelSignal(channels, fs), meta
