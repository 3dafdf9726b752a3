"""Bearing remaining-useful-life estimation toolkit.

Compact time-frequency feature extraction from multichannel vibration
signals, a hybrid deep/forest regression model, evaluation metrics,
noise-robustness tooling, and cross-domain feature alignment.
"""

__version__ = "0.1.0"

from . import adapt, cwt, features, forest, labels, metrics, nn, signal


def backend() -> str:
    """Name of the kernel backend; every kernel is numpy."""
    return "numpy"


__all__ = [
    "adapt",
    "backend",
    "cwt",
    "features",
    "forest",
    "labels",
    "metrics",
    "nn",
    "signal",
    "__version__",
]
