"""Normalised RUL label sequences for run-to-failure recordings."""

import numpy as np

from .errors import ParameterError


def make_labels(n_windows: int, scheme: str = "linear", knee_fraction: float = 0.6) -> np.ndarray:
    """Per-window remaining-life fractions for n_windows windows, non-increasing
    from 1 to 0, under a linear or piecewise degradation model.

    linear: y_i = 1 - i/(n-1).
    piecewise: y_i = 1 up to the knee at knee_fraction*(n-1), then linear
    decay to 0 at the last window.
    """
    if n_windows < 2:
        raise ParameterError(f"need at least 2 windows for labels, got {n_windows}")
    i = np.arange(n_windows, dtype=np.float64)
    last = n_windows - 1
    if scheme == "linear":
        return 1.0 - i / last
    if scheme == "piecewise":
        if not 0.0 < knee_fraction < 1.0:
            raise ParameterError(f"knee_fraction must be in (0,1), got {knee_fraction}")
        knee = knee_fraction * last
        values = np.where(i <= knee, 1.0, (last - i) / (last - knee))
        values[-1] = 0.0
        return values
    raise ParameterError(f"unknown label scheme {scheme!r} (use 'linear' or 'piecewise')")
