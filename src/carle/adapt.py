"""Cross-domain feature alignment by CORAL covariance matching, and the PCA fit."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError


@dataclass
class PcaModel:
    """Centred projection onto the top-k covariance eigenvectors."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), rows orthonormal
    explained_variance: np.ndarray  # non-increasing


def pca_fit(X, k: int) -> PcaModel:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    if not 1 <= k <= min(n - 1, d):
        raise ParameterError(f"k must be in [1, min(rows-1, cols)] = [1, {min(n - 1, d)}], got {k}")
    mean = X.mean(axis=0)
    cov = np.cov(X - mean, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    components = evecs[:, order].T.copy()
    # sign convention: make the largest-magnitude loading positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean, components, np.maximum(evals[order], 0.0))


@dataclass
class CoralTransform:
    """Affine map recolouring source rows to the target's second-order statistics."""

    source_mean: np.ndarray
    target_mean: np.ndarray
    source_whitener: np.ndarray  # C_s^{-1/2}
    target_colorer: np.ndarray  # C_t^{1/2}


def _sym_power(cov, power: float, floor: float):
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals, floor)
    return (evecs * evals**power) @ evecs.T


def coral_fit(source, target, ridge: float = 1e-8) -> CoralTransform:
    """Fit the alignment (source - mu_s) C_s^{-1/2} C_t^{1/2} + mu_t.

    Covariances are ridge-regularised (C + ridge*I) and their matrix roots
    use a symmetric eigendecomposition with the eigenvalue floor set to the
    ridge.
    """
    Xs = np.atleast_2d(np.asarray(source, dtype=np.float64))
    Xt = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if Xs.shape[1] != Xt.shape[1]:
        raise InputError(f"feature width mismatch: source {Xs.shape[1]} vs target {Xt.shape[1]}")
    d = Xs.shape[1]
    if len(Xs) < d + 1 or len(Xt) < d + 1:
        raise InputError(f"need at least width+1 = {d + 1} rows per domain")
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")

    mu_s = Xs.mean(axis=0)
    mu_t = Xt.mean(axis=0)
    c_s = np.cov(Xs, rowvar=False, ddof=1) + ridge * np.eye(d)
    c_t = np.cov(Xt, rowvar=False, ddof=1) + ridge * np.eye(d)
    if ridge == 0.0:
        tol = 1e-12 * max(np.linalg.eigvalsh(c_s).max(), 1.0)
        if np.linalg.eigvalsh(c_s).min() <= tol or np.linalg.eigvalsh(c_t).min() <= tol:
            raise InputError(
                "singular covariance: pass a positive ridge (e.g. 1e-8) to regularise"
            )
    floor = ridge if ridge > 0 else 1e-300
    return CoralTransform(
        source_mean=mu_s,
        target_mean=mu_t,
        source_whitener=_sym_power(c_s, -0.5, floor),
        target_colorer=_sym_power(c_t, 0.5, floor),
    )


def coral_apply(t: CoralTransform, source) -> np.ndarray:
    X = np.atleast_2d(np.asarray(source, dtype=np.float64))
    if X.shape[1] != len(t.source_mean):
        raise InputError(f"feature width mismatch: transform has {len(t.source_mean)}, got {X.shape[1]}")
    return (X - t.source_mean) @ t.source_whitener @ t.target_colorer + t.target_mean
