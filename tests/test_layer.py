"""Tests for single-layer training: costs, gradient steps, and the one-pass
contract, checked against finite-difference and scalar-loop oracles."""

import math
import warnings

import numpy as np
import pytest

from subspace_net import layer as layer_module
from subspace_net.censored import CensoredNllTerm, censored_nll, grad_mu_censored_nll
from subspace_net.data import Dataset, gen_single_layer
from subspace_net.errors import (
    DegenerateInputError,
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    StepSizeError,
)
from subspace_net.layer import (
    SubspaceLayer,
    TrainConfig,
    instantaneous_cost,
    predict_batch,
    predict_linear_batch,
    refine_u_row,
    sketch_v,
    train_layer,
)


def random_layer(rng, t=3, d=4, r=2, lam=0.0, sigma=None):
    return SubspaceLayer(
        U=rng.standard_normal((t, r)),
        V=rng.standard_normal((r, d)),
        sigma=np.full(t, 1.0) if sigma is None else np.asarray(sigma, dtype=float),
        lam=lam,
    )


class TestInstantaneousCost:
    def test_zero_residuals_leave_constants(self):
        # an exact fit with all-positive predictors costs T times the
        # Gaussian log-density constant
        rng = np.random.default_rng(0)
        for _ in range(20):
            layer = random_layer(rng, t=4, d=5, r=2, lam=0.0)
            x = rng.standard_normal(5)
            y = layer.U @ (layer.V @ x)
            if np.any(y <= 0):
                continue
            cost = instantaneous_cost(x, y, layer)
            assert cost == pytest.approx(4 * 0.5 * np.log(2 * np.pi), rel=1e-12)

    def test_all_censored_at_zero_map(self):
        layer = SubspaceLayer(U=np.zeros((3, 2)), V=np.zeros((2, 4)),
                              sigma=np.ones(3), lam=1.0)
        cost = instantaneous_cost(np.ones(4), np.zeros(3), layer)
        assert cost == pytest.approx(3 * np.log(2.0), rel=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        layer = random_layer(rng, t=3, d=4, r=2, lam=0.7,
                             sigma=rng.uniform(0.5, 2.0, 3))
        x = rng.standard_normal(4)
        y = np.where(rng.random(3) < 0.5, 0.0, rng.uniform(0.1, 3.0, 3))
        mu_vec = layer.U @ (layer.V @ x)
        expected = sum(
            censored_nll(CensoredNllTerm(float(y[t]), float(mu_vec[t]), float(layer.sigma[t])))
            for t in range(3))
        expected += 0.5 * 0.7 * (np.sum(layer.U ** 2) + np.sum(layer.V ** 2))
        assert instantaneous_cost(x, y, layer) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        layer = random_layer(np.random.default_rng(2))
        with pytest.raises(DimensionError):
            instantaneous_cost(np.ones(7), np.zeros(3), layer)


def numeric_v_gradient(x, y, layer, h=1e-6):
    """Finite differences of instantaneous_cost with respect to V."""
    grad = np.zeros_like(layer.V)
    for i in range(layer.V.shape[0]):
        for j in range(layer.V.shape[1]):
            vp = layer.V.copy(); vp[i, j] += h
            vm = layer.V.copy(); vm[i, j] -= h
            up = SubspaceLayer(U=layer.U, V=vp, sigma=layer.sigma, lam=layer.lam)
            dn = SubspaceLayer(U=layer.U, V=vm, sigma=layer.sigma, lam=layer.lam)
            grad[i, j] = (instantaneous_cost(x, y, up) - instantaneous_cost(x, y, dn)) / (2 * h)
    return grad


class TestSketchV:
    def test_fixed_point_at_zero_gradient(self):
        # an all-censored sample with strongly negative predictors and lam=0
        # has essentially zero gradient, so V stays put
        layer = SubspaceLayer(U=np.array([[1.0], [1.0]]),
                              V=np.array([[-50.0, 0.0, 0.0]]),
                              sigma=np.ones(2), lam=0.0)
        cfg = TrainConfig(eta=0.1, mu=0.1, lam=0.0, rank=1, seed=0)
        v_new = sketch_v(np.array([1.0, 0.0, 0.0]), np.zeros(2), layer, cfg)
        np.testing.assert_allclose(v_new, layer.V, atol=1e-20)

    def test_single_step_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            layer = random_layer(rng, t=2, d=3, r=1, lam=rng.uniform(0, 1),
                                 sigma=rng.uniform(0.5, 2.0, 2))
            x = rng.standard_normal(3)
            y = np.where(rng.random(2) < 0.5, 0.0, rng.uniform(0.1, 3.0, 2))
            cfg = TrainConfig(eta=1e-3, mu=1e-3, lam=layer.lam, rank=1,
                              v_inner_steps=1, seed=0, step_decay=False)
            v_new = sketch_v(x, y, layer, cfg)
            step = (layer.V - v_new) / cfg.eta
            fd = numeric_v_gradient(x, y, layer)
            np.testing.assert_allclose(step, fd, rtol=1e-5, atol=1e-8)

    def test_small_step_descends(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 0.5),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x = rng.standard_normal(4)
            y = np.where(rng.random(3) < 0.4, 0.0, rng.uniform(0.1, 3.0, 3))
            cfg = TrainConfig(eta=1e-4, mu=1e-4, lam=layer.lam, rank=2, seed=0)
            v_new = sketch_v(x, y, layer, cfg)
            after = SubspaceLayer(U=layer.U, V=v_new, sigma=layer.sigma, lam=layer.lam)
            assert instantaneous_cost(x, y, after) <= instantaneous_cost(x, y, layer) + 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 8, 32])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_full_matrix_step_loop(self, steps, lam):
        # oracle: every inner step applied to the whole of V, as written in
        # the paper, against the R-space loop sketch_v runs
        rng = np.random.default_rng(100 + steps)
        for trial in range(10):
            layer = random_layer(rng, t=5, d=7, r=3, lam=lam,
                                 sigma=rng.uniform(0.5, 2.0, 5))
            x = rng.standard_normal(7)
            y = np.where(rng.random(5) < 0.5, 0.0, rng.uniform(0.1, 3.0, 5))
            y[:2] = 0.0, 1.5  # both branches in every trial
            cfg = TrainConfig(eta=2e-2, mu=1e-3, lam=lam, rank=3,
                              v_inner_steps=steps, seed=0)
            v = layer.V.copy()
            for _ in range(steps):
                mu_vec = layer.U @ (v @ x)
                grad = np.array([
                    grad_mu_censored_nll(CensoredNllTerm(
                        float(y[t]), float(mu_vec[t]), float(layer.sigma[t])))
                    for t in range(5)])
                v = v - cfg.eta * (np.outer(layer.U.T @ grad, x) + lam * v)
            np.testing.assert_allclose(sketch_v(x, y, layer, cfg), v,
                                       rtol=1e-12, atol=1e-14)

    def test_huge_step_raises_step_size_error(self):
        rng = np.random.default_rng(17)
        layer = random_layer(rng, t=3, d=4, r=2)
        cfg = TrainConfig(eta=1e100, mu=1e-3, rank=2, v_inner_steps=4, seed=0)
        with pytest.raises(StepSizeError) as excinfo, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow precedes the check
            sketch_v(rng.standard_normal(4), np.array([1.0, 0.0, 2.0]), layer, cfg)
        assert excinfo.value.iteration == 0

    def test_warm_start_not_mutating(self):
        rng = np.random.default_rng(5)
        layer = random_layer(rng)
        before = layer.V.copy()
        sketch_v(rng.standard_normal(4), np.zeros(3), layer,
                 TrainConfig(eta=1e-2, mu=1e-2, rank=2, seed=0))
        np.testing.assert_array_equal(layer.V, before)


class TestRefineURow:
    def test_zero_gradient_keeps_row(self):
        layer = SubspaceLayer(U=np.array([[0.5], [0.25]]),
                              V=np.array([[-80.0, 0.0]]),
                              sigma=np.ones(2), lam=0.0)
        cfg = TrainConfig(eta=0.1, mu=0.1, lam=0.0, rank=1, seed=0)
        row = refine_u_row(0, np.array([1.0, 0.0]), 0.0, layer, cfg)
        np.testing.assert_allclose(row, layer.U[0], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(50):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 1),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x = rng.standard_normal(4)
            t_idx = int(rng.integers(0, 3))
            y_t = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 3.0))
            cfg = TrainConfig(eta=1e-3, mu=1e-3, lam=layer.lam, rank=2, seed=0)
            row = refine_u_row(t_idx, x, y_t, layer, cfg)
            step = (layer.U[t_idx] - row) / cfg.mu

            def g_t(u_row):
                mu_t = float(u_row @ (layer.V @ x))
                nll = censored_nll(CensoredNllTerm(y_t, mu_t, float(layer.sigma[t_idx])))
                return nll + 0.5 * layer.lam * float(u_row @ u_row)

            h = 1e-6
            fd = np.zeros(2)
            for j in range(2):
                up = layer.U[t_idx].copy(); up[j] += h
                dn = layer.U[t_idx].copy(); dn[j] -= h
                fd[j] = (g_t(up) - g_t(dn)) / (2 * h)
            np.testing.assert_allclose(step, fd, rtol=1e-5, atol=1e-8)

    def test_refining_all_rows_descends(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 0.5),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x = rng.standard_normal(4)
            y = np.where(rng.random(3) < 0.4, 0.0, rng.uniform(0.1, 3.0, 3))
            cfg = TrainConfig(eta=1e-4, mu=1e-4, lam=layer.lam, rank=2, seed=0)
            u_new = np.vstack([refine_u_row(t, x, float(y[t]), layer, cfg)
                               for t in range(3)])
            after = SubspaceLayer(U=u_new, V=layer.V, sigma=layer.sigma, lam=layer.lam)
            assert instantaneous_cost(x, y, after) <= instantaneous_cost(x, y, layer) + 1e-12

    def test_huge_step_raises_step_size_error(self):
        layer = SubspaceLayer(U=np.ones((3, 2)), V=np.full((2, 4), 1e6), sigma=np.ones(3))
        cfg = TrainConfig(mu=1e300, rank=2, seed=0)
        with pytest.raises(StepSizeError, match="^basis row update diverged$") as excinfo, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow precedes the check
            refine_u_row(1, np.ones(4), 0.0, layer, cfg)
        assert excinfo.value.iteration == 0

    def test_bad_task_index(self):
        layer = random_layer(np.random.default_rng(8))
        cfg = TrainConfig(rank=2, seed=0)
        with pytest.raises(InvalidArgumentError):
            refine_u_row(5, np.ones(4), 1.0, layer, cfg)


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
class TestTargetValidation:
    """The public ops reject a target that is negative or not finite."""

    def test_instantaneous_cost(self, bad):
        layer = random_layer(np.random.default_rng(18), t=2)
        with pytest.raises(InvalidArgumentError):
            instantaneous_cost(np.ones(4), np.array([1.0, bad]), layer)

    def test_sketch_v(self, bad):
        layer = random_layer(np.random.default_rng(19), t=2)
        with pytest.raises(InvalidArgumentError):
            sketch_v(np.ones(4), np.array([1.0, bad]), layer,
                     TrainConfig(rank=2, seed=0))

    def test_refine_u_row(self, bad):
        layer = random_layer(np.random.default_rng(20), t=2)
        with pytest.raises(InvalidArgumentError):
            refine_u_row(0, np.ones(4), bad, layer, TrainConfig(rank=2, seed=0))


def probe_oracle(data, cfg, probe, n):
    """The probe values of the first ``n`` samples, one sample at a time:
    the basis after sample i is the one a pass over samples 0..i ends with,
    and each value is the written-out least-squares or Frobenius formula."""
    aligned, raw = [], []
    for i in range(n):
        u = train_layer(Dataset(X=data.X[:i + 1], Y=data.Y[:i + 1]), cfg)[0].U
        mix, *_ = np.linalg.lstsq(u, probe, rcond=None)
        aligned.append(np.linalg.norm(probe - u @ mix) / np.linalg.norm(probe))
        raw.append(np.linalg.norm(probe - u) / np.linalg.norm(probe))
    return aligned, raw


class TestTrainLayer:
    def test_single_sample_stream(self):
        data = Dataset(X=np.ones((1, 4)), Y=np.abs(np.ones((1, 2))))
        cfg = TrainConfig(rank=2, seed=0)
        layer, trace = train_layer(data, cfg)
        assert len(trace) == 1

    def test_one_pass_counter(self):
        data, _ = gen_single_layer(57, 6, 4, 2, 1.0, seed=0)
        layer, trace = train_layer(data, TrainConfig(rank=2, seed=1))
        assert len(trace) == data.n
        assert len(trace.du_norms) == data.n

    def test_deterministic(self):
        data, _ = gen_single_layer(40, 6, 4, 2, 1.0, seed=2)
        cfg = TrainConfig(rank=2, seed=3)
        l1, t1 = train_layer(data, cfg)
        l2, t2 = train_layer(data, cfg)
        np.testing.assert_array_equal(l1.U, l2.U)
        np.testing.assert_array_equal(l1.V, l2.V)
        np.testing.assert_array_equal(t1.costs, t2.costs)

    def test_matches_manual_op_loop(self):
        # the vectorized pass equals composing the public sketch/refine ops
        data, _ = gen_single_layer(12, 5, 3, 2, 1.0, seed=4)
        cfg = TrainConfig(eta=1e-3, mu=1e-3, lam=1e-2, rank=2, v_inner_steps=2,
                          seed=5, step_decay=False)
        layer, _ = train_layer(data, cfg)

        rng = np.random.default_rng(cfg.seed)
        u = rng.normal(0.0, cfg.init_scale / np.sqrt(cfg.rank), size=(3, 2))
        v = rng.normal(0.0, cfg.init_scale / np.sqrt(5), size=(2, 5))
        sigma = np.ones(3)
        for i in range(data.n):
            x, y = data.X[i], data.Y[i]
            manual = SubspaceLayer(U=u, V=v, sigma=sigma, lam=cfg.lam)
            v = sketch_v(x, y, manual, cfg)
            manual = SubspaceLayer(U=u, V=v, sigma=sigma, lam=cfg.lam)
            u = np.vstack([refine_u_row(t, x, float(y[t]), manual, cfg)
                           for t in range(3)])
        np.testing.assert_allclose(layer.U, u, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(layer.V, v, rtol=1e-12, atol=1e-14)

    def test_matches_independent_op_loop(self):
        # oracle: the paper's per-sample step written out with the scalar
        # kernels, every sketch step on the whole of V and the refinement as
        # an explicit outer product, against the loop train_layer runs on
        # U V x and the g terms
        n, d, t, r, k = 40, 12, 6, 3, 4
        rng = np.random.default_rng(23)
        x_all = rng.standard_normal((n, d))
        y_all = np.where(rng.random((n, t)) < 0.4, 0.0, rng.uniform(0.1, 3.0, (n, t)))
        y_all[::5] = 0.0  # rows all censored
        y_all[2::5] = rng.uniform(0.1, 3.0, (len(y_all[2::5]), t))  # all observed
        sigma = rng.uniform(0.5, 2.0, t)
        cfg = TrainConfig(eta=5e-3, mu=1e-2, lam=0.2, rank=r, v_inner_steps=k,
                          seed=24, step_decay=True, step_offset=10.0)
        layer, trace = train_layer(Dataset(X=x_all, Y=y_all), cfg, sigma=sigma)

        def terms(y, lin):
            return [CensoredNllTerm(float(y[j]), float(lin[j]), float(sigma[j]))
                    for j in range(t)]

        init = np.random.default_rng(cfg.seed)
        u = init.normal(0.0, cfg.init_scale / math.sqrt(r), size=(t, r))
        v = init.normal(0.0, cfg.init_scale / math.sqrt(d), size=(r, d))
        costs, du_norms = [], []
        for i in range(n):
            x, y = x_all[i], y_all[i]
            scale = cfg.step_offset / (cfg.step_offset + i)
            eta, mu = cfg.eta * scale, cfg.mu * scale
            costs.append(sum(censored_nll(term) for term in terms(y, u @ v @ x))
                         + 0.5 * cfg.lam * (np.sum(u ** 2) + np.sum(v ** 2)))
            for _ in range(k):
                grad = np.array([grad_mu_censored_nll(term)
                                 for term in terms(y, u @ v @ x)])
                v = v - eta * (np.outer(u.T @ grad, x) + cfg.lam * v)
            coeff = np.array([grad_mu_censored_nll(term) for term in terms(y, u @ v @ x)])
            u_new = u - mu * (np.outer(coeff, v @ x) + cfg.lam * u)
            du_norms.append(np.linalg.norm(u_new - u))
            u = u_new
        np.testing.assert_allclose(layer.U, u, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(layer.V, v, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.costs, costs, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.du_norms, du_norms, rtol=1e-12, atol=0.0)

    def test_probe_trace_recorded(self):
        data, truth = gen_single_layer(30, 6, 4, 2, 0.5, seed=6)
        layer, trace = train_layer(data, TrainConfig(rank=2, seed=7),
                                   probe=truth.us[0])
        assert trace.subspace_diffs is not None
        assert trace.subspace_diffs.shape == (30,)
        assert np.isfinite(trace.subspace_diffs).all()
        assert np.isfinite(trace.subspace_diffs_raw).all()

    def test_divergence_raises_step_size_error(self):
        import warnings as _warnings
        data, _ = gen_single_layer(200, 10, 5, 2, 1.0, seed=8)
        big = TrainConfig(eta=50.0, mu=50.0, rank=2, seed=9, step_decay=False)
        with pytest.raises(StepSizeError) as excinfo, _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # saturation precedes the blow-up
            train_layer(data, big)
        assert excinfo.value.iteration is not None
        assert len(excinfo.value.trace) == excinfo.value.iteration
        u_last, v_last = excinfo.value.last_state
        assert np.isfinite(u_last).all() and np.isfinite(v_last).all()

    def test_basis_divergence_keeps_state_and_probe_trace(self):
        # a tiny sketch step keeps V finite while the huge basis step
        # overflows U on sample 1, after one finite basis update
        data, truth = gen_single_layer(80, 6, 4, 2, 1.0, seed=3)
        cfg = TrainConfig(eta=1e-12, mu=1e300, rank=2, step_decay=False)
        with pytest.raises(StepSizeError) as excinfo, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # saturation precedes the blow-up
            train_layer(data, cfg, probe=truth.us[0])
        err = excinfo.value
        assert str(err) == "basis update diverged at sample 1"
        assert err.iteration == 1 and len(err.trace) == err.iteration
        u_last, v_last = err.last_state
        assert np.isfinite(u_last).all() and np.isfinite(v_last).all()
        # the partial probe block was flushed; the raw Frobenius difference of
        # a basis with entries near 1e300 overflows in the plain formula, so
        # its oracle scales both matrices by the largest entry first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aligned, _ = probe_oracle(data, cfg, truth.us[0], 1)
            u0 = train_layer(Dataset(X=data.X[:1], Y=data.Y[:1]), cfg)[0].U
        assert np.isfinite(err.trace.subspace_diffs).all()
        np.testing.assert_allclose(err.trace.subspace_diffs, aligned, rtol=1e-12, atol=0.0)
        scale = np.abs(u0).max()
        raw = (scale * np.linalg.norm(truth.us[0] / scale - u0 / scale)
               / np.linalg.norm(truth.us[0]))
        assert np.isfinite(err.trace.subspace_diffs_raw).all()
        np.testing.assert_allclose(err.trace.subspace_diffs_raw, [raw], rtol=1e-12, atol=0.0)

    def test_probe_validated_before_sample_zero(self, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("a sample was trained")

        monkeypatch.setattr(layer_module, "censored_nll_array", untouched)
        data, truth = gen_single_layer(40, 6, 4, 2, 1.0, seed=30)
        cfg = TrainConfig(rank=2, seed=31)
        bad = truth.us[0].copy()
        bad[1, 0] = math.nan
        with pytest.raises(InvalidArgumentError):
            train_layer(data, cfg, probe=bad)
        bad[1, 0] = math.inf
        with pytest.raises(InvalidArgumentError):
            train_layer(data, cfg, probe=bad)
        with pytest.raises(DegenerateInputError):
            train_layer(data, cfg, probe=np.zeros((4, 2)))

    def test_probe_blocks_match_per_sample_oracle(self):
        # N = 70 is two full probe blocks and a tail; the probe only
        # observes, so training is bit-identical with it on and off
        n = 70
        assert n % layer_module.PROBE_BLOCK
        data, truth = gen_single_layer(n, 8, 5, 2, 1.0, seed=32)
        cfg = TrainConfig(eta=1e-2, mu=1e-2, rank=2, v_inner_steps=3, seed=33,
                          step_offset=20.0)
        probe = truth.us[0]
        on, trace_on = train_layer(data, cfg, probe=probe)
        off, trace_off = train_layer(data, cfg)
        for a, b in ((on.U, off.U), (on.V, off.V), (trace_on.costs, trace_off.costs),
                     (trace_on.du_norms, trace_off.du_norms)):
            np.testing.assert_array_equal(a, b)
        assert trace_off.subspace_diffs is None and trace_off.subspace_diffs_raw is None
        aligned, raw = probe_oracle(data, cfg, probe, n)
        np.testing.assert_allclose(trace_on.subspace_diffs, aligned, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace_on.subspace_diffs_raw, raw, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 64, 70])
    def test_probe_metrics_run_once_per_block(self, monkeypatch, n):
        # looked up in the layer module at call time, where the benchmark's
        # tracer wraps them
        calls = []

        def counting(name, metric):
            def wrapped(probe, stack):
                calls.append((name, len(stack)))
                return metric(probe, stack)
            return wrapped

        for name in ("aligned_subspace_difference", "subspace_difference"):
            monkeypatch.setattr(layer_module, name,
                                counting(name, getattr(layer_module, name)))
        data, truth = gen_single_layer(n, 6, 4, 2, 1.0, seed=36)
        train_layer(data, TrainConfig(rank=2, seed=37), probe=truth.us[0])
        sizes = [size for name, size in calls if name == "subspace_difference"]
        assert sizes == [size for name, size in calls if name != "subspace_difference"]
        assert len(sizes) == math.ceil(n / layer_module.PROBE_BLOCK)
        assert sum(sizes) == n

    def test_divergence_keeps_the_probe_trace(self):
        # sample 45 overflows the sketch: the trace holds the probe values of
        # samples 0..44, one full block and the part of the next before it
        data, truth = gen_single_layer(60, 6, 4, 2, 1.0, seed=34)
        x = data.X.copy()
        x[45] *= 1e200
        data = Dataset(X=x, Y=data.Y)
        cfg = TrainConfig(rank=2, v_inner_steps=2, seed=35)
        with pytest.raises(StepSizeError) as excinfo, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_layer(data, cfg, probe=truth.us[0])
        err = excinfo.value
        assert err.iteration == 45
        assert err.iteration % layer_module.PROBE_BLOCK
        assert len(err.trace.subspace_diffs) == len(err.trace.subspace_diffs_raw) == 45
        aligned, raw = probe_oracle(data, cfg, truth.us[0], 45)
        np.testing.assert_allclose(err.trace.subspace_diffs, aligned, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(err.trace.subspace_diffs_raw, raw, rtol=1e-12, atol=0.0)

    def test_kernel_call_contract(self, monkeypatch):
        # one NLL call per sample (its cost) and one gradient call per inner
        # sketch step plus one for the refinement; the kernels are looked up
        # in the layer module at call time
        calls = {"nll": 0, "grad": 0}

        def counting(name, kernel):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(layer_module, "censored_nll_array",
                            counting("nll", layer_module.censored_nll_array))
        monkeypatch.setattr(layer_module, "grad_mu_censored_nll_array",
                            counting("grad", layer_module.grad_mu_censored_nll_array))
        data, _ = gen_single_layer(9, 5, 3, 2, 1.0, seed=21)
        cfg = TrainConfig(rank=2, v_inner_steps=4, seed=22)
        layer, _ = train_layer(data, cfg)
        assert calls == {"nll": 9, "grad": 9 * (4 + 1)}

        calls.update(nll=0, grad=0)
        sketch_v(data.X[0], data.Y[0], layer, cfg)
        assert calls == {"nll": 0, "grad": 4}

        calls.update(nll=0, grad=0)
        refine_u_row(1, data.X[0], float(data.Y[0, 1]), layer, cfg)
        assert calls == {"nll": 0, "grad": 1}

        calls.update(nll=0, grad=0)
        instantaneous_cost(data.X[0], data.Y[0], layer)
        assert calls == {"nll": 1, "grad": 0}

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInputError):
            train_layer(Dataset(X=np.ones((0, 3)), Y=np.ones((0, 2))),
                        TrainConfig(rank=1, seed=0))

    def test_invalid_rank(self):
        data, _ = gen_single_layer(10, 4, 3, 2, 1.0, seed=10)
        with pytest.raises(InvalidArgumentError):
            train_layer(data, TrainConfig(rank=4, seed=0))

    def test_shapes_and_finiteness(self):
        data, _ = gen_single_layer(60, 8, 5, 3, 1.0, seed=11)
        layer, _ = train_layer(data, TrainConfig(rank=3, seed=12))
        assert layer.U.shape == (5, 3)
        assert layer.V.shape == (3, 8)
        assert np.isfinite(layer.U).all() and np.isfinite(layer.V).all()


class TestPredict:
    def test_zero_factors_give_zero(self):
        layer = SubspaceLayer(U=np.zeros((3, 2)), V=np.zeros((2, 4)),
                              sigma=np.ones(3))
        np.testing.assert_array_equal(predict_linear_batch(layer, np.ones((1, 4))),
                                      np.zeros((1, 3)))
        np.testing.assert_array_equal(predict_batch(layer, np.ones((1, 4))),
                                      np.zeros((1, 3)))

    def test_zero_input_gives_zero(self):
        layer = random_layer(np.random.default_rng(13))
        np.testing.assert_array_equal(predict_linear_batch(layer, np.zeros((1, 4))),
                                      np.zeros((1, 3)))

    def test_matches_dense_product_oracle(self):
        rng = np.random.default_rng(14)
        layer = random_layer(rng, t=3, d=4, r=2)
        xs = rng.standard_normal((10, 4))
        dense = np.array([(layer.U @ layer.V) @ x for x in xs])
        np.testing.assert_allclose(predict_linear_batch(layer, xs), dense, atol=1e-12)

    def test_relu_behaviour(self):
        rng = np.random.default_rng(15)
        layer = random_layer(rng, t=5, d=4, r=2)
        x = rng.standard_normal((1, 4))
        lin = predict_linear_batch(layer, x)[0]
        out = predict_batch(layer, x)[0]
        np.testing.assert_array_equal(out, np.array([max(v, 0.0) for v in lin]))
        assert np.all(out >= 0)


class TestTrainConfigValidation:
    def test_positivity(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(eta=0.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(mu=-1.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(rank=0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(v_inner_steps=0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(lam=-0.1)

    @pytest.mark.parametrize("field", ["eta", "mu", "lam", "init_scale",
                                       "step_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_checked_before_training(self, seed):
        data, _ = gen_single_layer(20, 4, 3, 2, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
            train_layer(data, TrainConfig(rank=2, seed=seed))


class TestSubspaceLayerValidation:
    @pytest.mark.parametrize("u_shape, v_shape, t", [
        ((3, 0), (0, 4), 3),   # rank 0
        ((0, 2), (2, 4), 0),   # no tasks
        ((3, 2), (2, 0), 3),   # no inputs
    ])
    def test_empty_dimensions_rejected(self, u_shape, v_shape, t):
        with pytest.raises(DimensionError):
            SubspaceLayer(U=np.ones(u_shape), V=np.ones(v_shape), sigma=np.ones(t))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(InvalidArgumentError):
            SubspaceLayer(U=np.ones((2, 1)), V=np.ones((1, 3)),
                          sigma=np.ones(2), lam=lam)
