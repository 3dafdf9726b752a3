"""Normalised RUL label sequences for run-to-failure recordings."""

from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import ParameterError


@dataclass
class LabelConfig:
    """The labelling scheme, and the ``labels`` section of a config."""

    scheme: str = "linear"
    knee_fraction: float = 0.6

    BOUNDS = (
        ("'linear' or 'piecewise'", lambda v: v in ("linear", "piecewise"), ("scheme",)),
        ("in (0,1)", lambda v: 0 < v < 1, ("knee_fraction",)),
    )


def make_labels(n_windows: int, config: LabelConfig | None = None, window_index=None) -> np.ndarray:
    """Per-window remaining-life fractions for n_windows windows, non-increasing
    from 1 to 0, under a linear or piecewise degradation model; with
    ``window_index``, the labels of those windows alone, in its order.

    linear: y_i = 1 - i/(n-1).
    piecewise: y_i = 1 up to the knee at knee_fraction*(n-1), then linear
    decay to 0 at the last window.
    """
    if config is None:
        config = LabelConfig()
    schema.check(config, "labels.")
    if n_windows < 2:
        raise ParameterError(f"need at least 2 windows for labels, got {n_windows}")
    if window_index is None:
        window_index = np.arange(n_windows)
    i = np.asarray(window_index, dtype=np.float64)
    last = n_windows - 1
    if config.scheme == "linear":
        return 1.0 - i / last
    knee = config.knee_fraction * last
    values = np.where(i <= knee, 1.0, (last - i) / (last - knee))
    values[i == last] = 0.0
    return values
