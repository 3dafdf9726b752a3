"""Prediction-quality metrics: MAE, RMSE, and the asymmetric challenge score."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError


def _check(y, y_hat):
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if len(y) != len(y_hat):
        raise InputError(f"length mismatch: {len(y)} true vs {len(y_hat)} predicted")
    if len(y) == 0:
        raise InputError("empty sequences")
    return y, y_hat


def mae(y, y_hat) -> float:
    """Mean absolute error."""
    y, y_hat = _check(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    """Root mean squared error."""
    y, y_hat = _check(y, y_hat)
    return float(math.sqrt(np.mean((y - y_hat) ** 2)))


def phm_score(y, y_hat) -> float:
    """Asymmetric prognostics score: late predictions cost more than early.

    Early (y_hat < y) terms accumulate exp(-(y_hat-y)/13) - 1, late
    (y_hat >= y) terms exp((y_hat-y)/10) - 1. Zero iff every prediction is
    exact.
    """
    y, y_hat = _check(y, y_hat)
    d = y_hat - y
    early = d < 0
    total = float(np.sum(np.exp(-d[early] / 13.0) - 1.0))
    total += float(np.sum(np.exp(d[~early] / 10.0) - 1.0))
    return total


@dataclass
class MetricReport:
    """Bundle of all three metrics over one prediction set."""

    mae: float
    rmse: float
    score: float
    n: int

    @classmethod
    def compute(cls, y, y_hat) -> "MetricReport":
        y, y_hat = _check(y, y_hat)
        return cls(mae=mae(y, y_hat), rmse=rmse(y, y_hat), score=phm_score(y, y_hat), n=len(y))

    def to_dict(self) -> dict:
        return asdict(self)
