"""Tests for the ridge / least-squares baselines."""

import numpy as np
import pytest
import scipy.linalg

from subspace_net.baselines import fit_ridge, predict_baseline
from subspace_net.data import Dataset
from subspace_net.errors import ConditioningError, DimensionError, InvalidArgumentError
from subspace_net.experiments import RIDGE_LAMBDA


class TestFitRidge:
    def test_interpolates_noiseless_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 5))
        w = rng.standard_normal((2, 5))
        y = x @ w.T
        y = y - y.min() + 0.1  # shift positive; the shift lands in the intercept
        model = fit_ridge(Dataset(X=x, Y=y), 0.0)
        np.testing.assert_allclose(model.W, w, atol=1e-8)
        preds = predict_baseline(model, x)
        np.testing.assert_allclose(preds, y, atol=1e-8)

    def test_heavy_shrinkage_predicts_means(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 4))
        y = np.abs(rng.standard_normal((50, 3)))
        model = fit_ridge(Dataset(X=x, Y=y), 1e12)
        assert np.linalg.norm(model.W) < 1e-6
        preds = predict_baseline(model, x)
        np.testing.assert_allclose(preds, np.tile(y.mean(axis=0), (50, 1)), atol=1e-6)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 5))
        y = np.abs(rng.standard_normal((20, 2)))
        lam = 0.37
        model = fit_ridge(Dataset(X=x, Y=y), lam)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        w_oracle = (np.linalg.inv(xc.T @ xc + lam * np.eye(5)) @ xc.T @ yc).T
        np.testing.assert_allclose(model.W, w_oracle, atol=1e-9)

    @pytest.mark.parametrize("lam", ["zero", "config"])
    def test_matches_scipy_cholesky_at_sweep_shape(self, lam):
        # the depth sweep's baseline shape: N=500, D=50, T=20, at the sweep's
        # regularization; the oracle solves the same centered normal
        # equations with SciPy's Cholesky
        lam = 0.0 if lam == "zero" else RIDGE_LAMBDA
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 50))
        y = np.abs(rng.standard_normal((500, 20)))
        model = fit_ridge(Dataset(X=x, Y=y), lam)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        factor = scipy.linalg.cho_factor(xc.T @ xc + lam * np.eye(50))
        w_oracle = scipy.linalg.cho_solve(factor, xc.T @ yc).T
        b_oracle = y.mean(axis=0) - w_oracle @ x.mean(axis=0)
        for got, want in ((model.W, w_oracle), (model.intercept, b_oracle)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_normal_equations_residual_small(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6))
        y = np.abs(rng.standard_normal((40, 3)))
        lam = 0.05
        model = fit_ridge(Dataset(X=x, Y=y), lam)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        lhs = (xc.T @ xc + lam * np.eye(6)) @ model.W.T
        rhs = xc.T @ yc
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert rel < 1e-8

    def test_singular_system_raises_conditioning_error(self):
        x = np.zeros((10, 3))
        x[:, 0] = np.arange(10)  # columns 1,2 identically zero -> singular Gram
        y = np.abs(np.random.default_rng(4).standard_normal((10, 2)))
        with pytest.raises(ConditioningError):
            fit_ridge(Dataset(X=x, Y=y), 0.0)

    def test_negative_lambda_rejected(self):
        data = Dataset(X=np.ones((3, 2)), Y=np.ones((3, 1)))
        with pytest.raises(InvalidArgumentError):
            fit_ridge(data, -1.0)


class TestPredictBaseline:
    def test_censor_flag_clamps(self):
        model_w = np.array([[1.0, 0.0]])
        from subspace_net.baselines import LinearModel
        model = LinearModel(W=model_w, intercept=np.array([0.0]))
        x = np.array([[-2.0, 0.0], [3.0, 0.0]])
        raw = predict_baseline(model, x, censor=False)
        clamped = predict_baseline(model, x, censor=True)
        np.testing.assert_allclose(raw[:, 0], [-2.0, 3.0])
        np.testing.assert_allclose(clamped[:, 0], [0.0, 3.0])

    def test_all_negative_raw_clamps_to_zero(self):
        from subspace_net.baselines import LinearModel
        model = LinearModel(W=np.array([[1.0]]), intercept=np.array([-100.0]))
        x = np.linspace(-3, 3, 7)[:, None]
        assert np.all(predict_baseline(model, x, censor=True) == 0.0)

    def test_shape_mismatch(self):
        from subspace_net.baselines import LinearModel
        model = LinearModel(W=np.ones((2, 3)), intercept=np.zeros(2))
        with pytest.raises(DimensionError):
            predict_baseline(model, np.ones((4, 5)))

    def test_clamping_helps_on_censored_data(self):
        # on planted lower-censored targets, clamping an uncensored fit at
        # zero never hurts and typically helps
        from subspace_net.data import gen_single_layer, split
        from subspace_net.metrics import anmse
        wins = 0
        for seed in range(5):
            data, _ = gen_single_layer(800, 20, 6, 3, 2.0, seed=seed + 40)
            train, valid = split(data, 0.6, seed=seed)
            model = fit_ridge(train, 1.0)
            plain = anmse(valid.Y, predict_baseline(model, valid.X, censor=False))
            clamped = anmse(valid.Y, predict_baseline(model, valid.X, censor=True))
            assert clamped <= plain + 1e-12
            wins += clamped < plain
        assert wins >= 4
