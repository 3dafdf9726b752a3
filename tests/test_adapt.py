import numpy as np
import pytest

from carle.adapt import coral_apply, coral_fit, pca_fit
from carle.errors import InputError, ParameterError


class TestPca:
    def test_components_orthonormal(self, rng):
        X = rng.normal(size=(200, 8)) @ rng.normal(size=(8, 8))
        model = pca_fit(X, 5)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_explained_variance_non_increasing(self, rng):
        X = rng.normal(size=(300, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        model = pca_fit(X, 6)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_full_rank_reconstruction_exact(self, rng):
        # at k = d the components are a rotation, so projecting and mapping
        # back returns the rows
        X = rng.normal(size=(50, 4))
        model = pca_fit(X, 4)
        Z = (X - model.mean) @ model.components.T
        assert np.allclose(Z @ model.components + model.mean, X, atol=1e-8)

    def test_transformed_training_data_has_diagonal_covariance(self, rng):
        X = rng.normal(size=(500, 5)) @ rng.normal(size=(5, 5))
        model = pca_fit(X, 5)
        Z = (X - model.mean) @ model.components.T
        cov = np.cov(Z, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6 * max(1.0, np.max(np.abs(cov)))

    def test_isotropic_cloud_equal_variances(self):
        X = np.random.default_rng(31).normal(size=(10_000, 4))
        model = pca_fit(X, 4)
        ev = model.explained_variance
        assert ev[0] / ev[-1] < 1.2

    def test_rank_one_concentrates_variance(self, rng):
        u = rng.normal(size=(300, 1))
        v = rng.normal(size=(1, 6))
        X = u @ v + 1e-6 * rng.normal(size=(300, 6))
        model = pca_fit(X, 6)
        assert model.explained_variance[0] / model.explained_variance.sum() > 0.999

    def test_sign_convention(self, rng):
        X = rng.normal(size=(100, 5))
        model = pca_fit(X, 3)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_validation(self, rng):
        X = rng.normal(size=(10, 4))
        with pytest.raises(ParameterError):
            pca_fit(X, 5)
        with pytest.raises(ParameterError):
            pca_fit(X, 0)


class TestCoral:
    def test_identical_domains_identity(self, rng):
        X = rng.normal(size=(200, 4))
        t = coral_fit(X, X, ridge=1e-8)
        assert np.allclose(coral_apply(t, X), X, atol=1e-6)

    def test_recolors_to_target_variances(self):
        rng = np.random.default_rng(8)
        source = rng.normal(size=(10_000, 2))  # whitened
        target = rng.normal(size=(10_000, 2)) * np.array([2.0, 1.0])  # cov diag(4,1)
        t = coral_fit(source, target, ridge=1e-8)
        aligned = coral_apply(t, source)
        var = aligned.var(axis=0, ddof=1)
        assert abs(var[0] - target.var(axis=0, ddof=1)[0]) / 4.0 < 0.02
        assert abs(var[1] - target.var(axis=0, ddof=1)[1]) < 0.02

    def test_covariance_match_frobenius(self, rng):
        source = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5))
        target = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
        t = coral_fit(source, target, ridge=1e-8)
        aligned = coral_apply(t, source)
        c_a = np.cov(aligned, rowvar=False, ddof=1)
        c_t = np.cov(target, rowvar=False, ddof=1)
        rel = np.linalg.norm(c_a - c_t) / np.linalg.norm(c_t)
        assert rel < 1e-6

    def test_mean_shift_applied(self, rng):
        source = rng.normal(size=(500, 3))
        target = rng.normal(size=(500, 3)) + np.array([5.0, -2.0, 0.5])
        t = coral_fit(source, target, ridge=1e-8)
        aligned = coral_apply(t, source)
        assert np.allclose(aligned.mean(axis=0), target.mean(axis=0), atol=1e-9)

    def test_affine_preserves_collinearity(self, rng):
        source = rng.normal(size=(100, 3))
        target = rng.normal(size=(100, 3)) * 2.0 + 1.0
        t = coral_fit(source, target)
        p0, p1 = rng.normal(size=3), rng.normal(size=3)
        pts = np.stack([p0, 0.5 * (p0 + p1), p1])
        out = coral_apply(t, pts)
        assert np.allclose(out[1], 0.5 * (out[0] + out[2]), atol=1e-9)

    def test_singular_without_ridge_instructs(self, rng):
        base = rng.normal(size=(50, 1))
        X = np.hstack([base, base])  # rank deficient
        with pytest.raises(InputError, match="ridge"):
            coral_fit(X, rng.normal(size=(50, 2)), ridge=0.0)

    def test_width_and_row_validation(self, rng):
        with pytest.raises(InputError):
            coral_fit(rng.normal(size=(50, 3)), rng.normal(size=(50, 4)))
        with pytest.raises(InputError):
            coral_fit(rng.normal(size=(3, 4)), rng.normal(size=(50, 4)))

    def test_commutes_with_an_orthogonal_rotation(self, rng):
        # a full-width PCA is a rotation R, so aligning the rotated rows and
        # rotating back gives what aligning the raw rows gives
        source = rng.normal(size=(300, 6)) @ rng.normal(size=(6, 6))
        target = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6)) + rng.normal(size=6)
        R = pca_fit(source, 6).components
        rotated = coral_apply(coral_fit(target @ R.T, source @ R.T), target @ R.T) @ R
        direct = coral_apply(coral_fit(target, source), target)
        assert np.linalg.norm(rotated - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_whitener_colorer_symmetric_positive(self, rng):
        X = rng.normal(size=(200, 4))
        Y = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
        t = coral_fit(X, Y, ridge=1e-8)
        for mat in (t.source_whitener, t.target_colorer):
            assert np.allclose(mat, mat.T, atol=1e-10)
            assert np.linalg.eigvalsh(mat).min() > 0
