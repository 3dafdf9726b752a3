"""Normalised RUL label sequences for run-to-failure recordings."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass
class LabelConfig:
    """The labelling scheme, and the ``labels`` section of a config."""

    scheme: str = "linear"
    knee_fraction: float = 0.6

    def validate(self):
        if self.scheme not in ("linear", "piecewise"):
            raise ParameterError(f"labels.scheme must be linear or piecewise, got {self.scheme!r}")
        if self.scheme == "piecewise" and not 0.0 < self.knee_fraction < 1.0:
            raise ParameterError(f"labels.knee_fraction must be in (0,1), got {self.knee_fraction}")


def make_labels(n_windows: int, config: LabelConfig | None = None) -> np.ndarray:
    """Per-window remaining-life fractions for n_windows windows, non-increasing
    from 1 to 0, under a linear or piecewise degradation model.

    linear: y_i = 1 - i/(n-1).
    piecewise: y_i = 1 up to the knee at knee_fraction*(n-1), then linear
    decay to 0 at the last window.
    """
    if config is None:
        config = LabelConfig()
    config.validate()
    if n_windows < 2:
        raise ParameterError(f"need at least 2 windows for labels, got {n_windows}")
    i = np.arange(n_windows, dtype=np.float64)
    last = n_windows - 1
    if config.scheme == "linear":
        return 1.0 - i / last
    knee = config.knee_fraction * last
    values = np.where(i <= knee, 1.0, (last - i) / (last - knee))
    values[-1] = 0.0
    return values
