import json

import numpy as np
import pytest

from strokesense.errors import StrokeSenseError
from strokesense.pca import PcaModel, contribution_rates, fit_pca, transform

from oracles import jacobi_eigh


class TestFitPca:
    def test_rank_one_line(self):
        """``[x, 2x]`` standardizes to two equal columns."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=60)
        X = np.column_stack([x, 2.0 * x])
        model = fit_pca(X, retention=0.95)
        assert model.k == 1
        np.testing.assert_allclose(
            model.components[0], np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12
        )
        np.testing.assert_allclose(model.eigenvalues[1], 0.0, atol=1e-10)

    def test_eigenvalues_match_jacobi_oracle(self, small_features):
        X, _ = small_features
        X = X[:, :24]  # keep the Jacobi sweeps cheap
        model = fit_pca(X)
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd[sd < 1e-12] = 1.0
        Z = (X - mu) / sd
        cov = Z.T @ Z / (Z.shape[0] - 1)
        oracle_vals, _ = jacobi_eigh(cov)
        np.testing.assert_allclose(
            model.eigenvalues, np.sort(oracle_vals)[::-1], atol=1e-8
        )

    def test_components_orthonormal(self, small_features):
        X, _ = small_features
        model = fit_pca(X)
        G = model.components @ model.components.T
        np.testing.assert_allclose(G, np.eye(model.k), atol=1e-10)

    def test_retention_threshold(self, small_features):
        X, _ = small_features
        model = fit_pca(X, retention=0.95)
        rates, _ = contribution_rates(model)
        cum = np.cumsum(rates)
        assert cum[model.k - 1] >= 0.95
        assert model.k == 1 or cum[model.k - 2] < 0.95

    def test_retention_one_keeps_all_variance(self, small_features):
        X, _ = small_features
        model = fit_pca(X, retention=1.0)
        assert np.isclose(np.sum(contribution_rates(model)[0][: model.k]), 1.0)

    def test_sign_convention(self, small_features):
        X, _ = small_features
        model = fit_pca(X)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_isotropic_contributions(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5000, 4))
        model = fit_pca(X, retention=1.0)
        np.testing.assert_allclose(contribution_rates(model)[0], 0.25, atol=0.02)

    def test_reconstruction_error_equals_discarded_variance(self):
        """In standardized space, the squared reconstruction error is the
        discarded variance."""
        rng = np.random.default_rng(6)
        base = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 8))
        X = base + 0.1 * rng.normal(size=(300, 8))
        model = fit_pca(X, retention=0.9)
        Z = transform(model, X)
        recon = (Z @ model.components) * model.scale + model.mean
        centered = (X - model.mean) / model.scale
        resid = centered - (Z @ model.components)
        mse = np.sum(resid**2) / (X.shape[0] - 1)
        discarded = np.sum(model.eigenvalues[model.k :])
        np.testing.assert_allclose(mse, discarded, rtol=1e-8)
        assert recon.shape == X.shape

    def test_degenerate_and_nonfinite(self):
        with pytest.raises(StrokeSenseError, match="^need at least 2 rows to fit$"):
            fit_pca(np.zeros((1, 5)))
        bad = np.zeros((4, 5))
        bad[0, 0] = np.nan
        with pytest.raises(StrokeSenseError, match="^feature matrix contains non-finite entries$"):
            fit_pca(bad)


class TestTransform:
    def test_shape_and_determinism(self, small_features):
        X, _ = small_features
        model = fit_pca(X)
        Z1 = transform(model, X)
        Z2 = transform(model, X)
        assert Z1.shape == (X.shape[0], model.k)
        np.testing.assert_array_equal(Z1, Z2)

    def test_dimension_mismatch(self, small_features):
        X, _ = small_features
        model = fit_pca(X)
        with pytest.raises(StrokeSenseError, match=f"^expected {X.shape[1]} features, got 10$"):
            transform(model, X[:, :10])

    def test_projection_past_float_range_raises(self):
        # finite entries that a fit never writes, which overflow the
        # projection to inf, and inf - inf to nan, with no warning
        model = PcaModel(mean=np.zeros(2), scale=np.ones(2),
                         components=np.array([[1e308, 1e308], [1e308, -1e308]]),
                         eigenvalues=np.ones(2), k=2, retention=1.0)
        with pytest.raises(StrokeSenseError, match="^projection is not finite$"):
            transform(model, np.array([[2.0, 2.0], [2.0, -2.0]]))

    def test_transformed_variances_match_eigenvalues(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        model = fit_pca(X, retention=1.0)
        Z = transform(model, X)
        var = np.sum((Z - Z.mean(axis=0)) ** 2, axis=0) / (X.shape[0] - 1)
        np.testing.assert_allclose(var, model.eigenvalues[: model.k], rtol=1e-8)


class TestSerialization:
    def test_round_trip(self, small_features):
        X, _ = small_features
        model = fit_pca(X)
        again = PcaModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(model.components, again.components)
        np.testing.assert_array_equal(model.mean, again.mean)
        np.testing.assert_array_equal(model.scale, again.scale)
        np.testing.assert_array_equal(model.eigenvalues, again.eigenvalues)
        assert model.k == again.k and model.retention == again.retention
        np.testing.assert_array_equal(transform(model, X), transform(again, X))

    @pytest.mark.parametrize("scale", [None, "missing"])
    def test_model_without_scale_rejected(self, small_features, scale):
        body = fit_pca(small_features[0]).to_dict()
        if scale is None:
            body["scale"] = None
        else:
            del body["scale"]
        with pytest.raises(StrokeSenseError, match="scale"):
            PcaModel.from_dict(body)
