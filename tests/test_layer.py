"""Tests for single-layer training: costs, gradient steps, and the one-pass
contract, checked against finite-difference and reference-formula oracles."""

import math
import warnings

import numpy as np
import pytest

from reference import numeric_gradient, reference_grad, reference_nll

from subspace_net import layer as layer_module
from subspace_net.censored import CensoredSample, NoiseTerms, censored_nll_array
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
    _cost,
    _refine_step,
    _sketch_step,
    predict_batch,
    predict_linear_batch,
    train_layer,
)


def random_layer(rng, t=3, d=4, r=2, lam=0.0, sigma=None):
    return SubspaceLayer(
        U=rng.standard_normal((t, r)),
        V=rng.standard_normal((r, d)),
        sigma=np.full(t, 1.0) if sigma is None else np.asarray(sigma, dtype=float),
        lam=lam,
    )


def random_sample(rng, layer, censored=0.5):
    """An input and targets for ``layer``'s sizes (a share ``censored`` of
    them zero), with the sample the kernels take."""
    x = rng.standard_normal(layer.d_in)
    y = np.where(rng.random(layer.t_out) < censored, 0.0,
                 rng.uniform(0.1, 3.0, layer.t_out))
    return x, y, CensoredSample(y, NoiseTerms(layer.sigma))


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
            cost = _cost(y, CensoredSample(y, NoiseTerms(layer.sigma)),
                         layer.U, layer.V, 0.0)
            assert cost == pytest.approx(4 * 0.5 * np.log(2 * np.pi), rel=1e-12)

    def test_all_censored_at_zero_map(self):
        sample = CensoredSample(np.zeros(3), NoiseTerms(np.ones(3)))
        cost = _cost(np.zeros(3), sample, np.zeros((3, 2)), np.zeros((2, 4)), 1.0)
        assert cost == pytest.approx(3 * np.log(2.0), rel=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        layer = random_layer(rng, t=3, d=4, r=2, lam=0.7,
                             sigma=rng.uniform(0.5, 2.0, 3))
        x, y, sample = random_sample(rng, layer)
        lin = layer.U @ (layer.V @ x)
        expected = reference_nll(y, lin, layer.sigma)[0].sum()
        expected += 0.5 * 0.7 * (np.sum(layer.U ** 2) + np.sum(layer.V ** 2))
        assert _cost(lin, sample, layer.U, layer.V, 0.7) == pytest.approx(expected, rel=1e-12)


class TestSketchV:
    """``_sketch_step`` updates its ``lin`` argument in place, so every call
    gets a fresh ``U V x``."""

    def test_fixed_point_at_zero_gradient(self):
        # an all-censored sample with strongly negative predictors and lam=0
        # has essentially zero gradient, so V stays put
        u, v, x = np.ones((2, 1)), np.array([[-50.0, 0.0, 0.0]]), np.array([1.0, 0.0, 0.0])
        sample = CensoredSample(np.zeros(2), NoiseTerms(np.ones(2)))
        v_new, _, _ = _sketch_step(x, x @ x, u @ (v @ x), sample, u, v, 0.0, 0.1, 1)
        np.testing.assert_allclose(v_new, v, atol=1e-20)

    def test_single_step_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            layer = random_layer(rng, t=2, d=3, r=1, lam=rng.uniform(0, 1),
                                 sigma=rng.uniform(0.5, 2.0, 2))
            x, y, sample = random_sample(rng, layer)
            u, lam = layer.U, layer.lam
            v_new, _, _ = _sketch_step(x, x @ x, u @ (layer.V @ x), sample, u,
                                       layer.V, lam, 1e-3, 1)
            fd = numeric_gradient(lambda v: _cost(u @ (v @ x), sample, u, v, lam),
                                  layer.V, 1e-6)
            np.testing.assert_allclose((layer.V - v_new) / 1e-3, fd, rtol=1e-5, atol=1e-8)

    def test_small_step_descends(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 0.5),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x, y, sample = random_sample(rng, layer, censored=0.4)
            u, v, lam = layer.U, layer.V, layer.lam
            v_new, vx_new, _ = _sketch_step(x, x @ x, u @ (v @ x), sample, u, v, lam, 1e-4, 1)
            before = _cost(u @ (v @ x), sample, u, v, lam)
            assert _cost(u @ vx_new, sample, u, v_new, lam) <= before + 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 8, 32])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_full_matrix_step_loop(self, steps, lam):
        # oracle: every inner step applied to the whole of V, as written in
        # the paper, against the R-space loop _sketch_step runs
        rng = np.random.default_rng(100 + steps)
        eta = 2e-2
        for trial in range(10):
            layer = random_layer(rng, t=5, d=7, r=3, lam=lam,
                                 sigma=rng.uniform(0.5, 2.0, 5))
            x = rng.standard_normal(7)
            y = np.where(rng.random(5) < 0.5, 0.0, rng.uniform(0.1, 3.0, 5))
            y[:2] = 0.0, 1.5  # both branches in every trial
            u, v = layer.U, layer.V.copy()
            for _ in range(steps):
                grad = reference_grad(y, u @ (v @ x), layer.sigma)[0]
                v = v - eta * (np.outer(u.T @ grad, x) + lam * v)
            sample = CensoredSample(y, NoiseTerms(layer.sigma))
            v_new, _, _ = _sketch_step(x, x @ x, u @ (layer.V @ x), sample, u,
                                       layer.V, lam, eta, steps)
            np.testing.assert_allclose(v_new, v, rtol=1e-12, atol=1e-14)

    def test_warm_start_not_mutating(self):
        rng = np.random.default_rng(5)
        layer = random_layer(rng)
        before = layer.U.copy(), layer.V.copy()
        x = rng.standard_normal(4)
        sample = CensoredSample(np.zeros(3), NoiseTerms(layer.sigma))
        _sketch_step(x, x @ x, layer.U @ (layer.V @ x), sample, layer.U, layer.V,
                     0.0, 1e-2, 1)
        np.testing.assert_array_equal(layer.U, before[0])
        np.testing.assert_array_equal(layer.V, before[1])


class TestRefineURow:
    def test_zero_gradient_keeps_row(self):
        u, vx = np.array([[0.5], [0.25]]), np.array([-80.0])
        sample = CensoredSample(np.zeros(2), NoiseTerms(np.ones(2)))
        np.testing.assert_allclose(_refine_step(vx, u @ vx, sample, u, 0.0, 0.1), u,
                                   atol=1e-15)

    def test_matches_finite_differences(self):
        # one row refined on its own against its task's objective
        rng = np.random.default_rng(6)
        for trial in range(50):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 1),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x = rng.standard_normal(4)
            t_idx = int(rng.integers(0, 3))
            y_t = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 3.0))
            sample = CensoredSample(np.array([y_t]), NoiseTerms(layer.sigma[t_idx:t_idx + 1]))
            row, vx, lam = layer.U[t_idx:t_idx + 1], layer.V @ x, layer.lam
            step = (row - _refine_step(vx, row @ vx, sample, row, lam, 1e-3)) / 1e-3

            def g_t(r):
                return censored_nll_array(sample, r @ vx)[0] + 0.5 * lam * np.vdot(r, r)

            np.testing.assert_allclose(step, numeric_gradient(g_t, row, 1e-6),
                                       rtol=1e-5, atol=1e-8)

    def test_refining_all_rows_descends(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            layer = random_layer(rng, t=3, d=4, r=2, lam=rng.uniform(0, 0.5),
                                 sigma=rng.uniform(0.5, 2.0, 3))
            x, y, sample = random_sample(rng, layer, censored=0.4)
            u, v, vx, lam = layer.U, layer.V, layer.V @ x, layer.lam
            u_new = _refine_step(vx, u @ vx, sample, u, lam, 1e-4)
            before = _cost(u @ vx, sample, u, v, lam)
            assert _cost(u_new @ vx, sample, u_new, v, lam) <= before + 1e-12


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
class TestTargetValidation:
    """A target that is negative or not finite is rejected before training
    runs the cost, the sketch step or the refinement on it; each test makes
    its step fail if it is reached."""

    @staticmethod
    def check_rejected_before(monkeypatch, step, bad):
        def reached(*args):
            raise AssertionError(f"{step} ran on a bad target")

        monkeypatch.setattr(layer_module, step, reached)
        with pytest.raises(InvalidArgumentError):
            train_layer(Dataset(X=np.ones((2, 4)), Y=np.array([[1.0, bad], [1.0, 0.0]])),
                        TrainConfig(rank=2, seed=0))

    def test_instantaneous_cost(self, monkeypatch, bad):
        self.check_rejected_before(monkeypatch, "_cost", bad)

    def test_sketch_v(self, monkeypatch, bad):
        self.check_rejected_before(monkeypatch, "_sketch_step", bad)

    def test_refine_u_row(self, monkeypatch, bad):
        self.check_rejected_before(monkeypatch, "_refine_step", bad)


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

    @staticmethod
    def check_against_op_loop(decay, with_sigma):
        # oracle: the paper's per-sample step written out with the reference
        # formulas, every sketch step on the whole of V and the refinement as
        # an explicit outer product, against the loop train_layer runs on
        # U V x and the g terms
        n, d, t, r, k = 40, 12, 6, 3, 4
        rng = np.random.default_rng(23)
        x_all = rng.standard_normal((n, d))
        y_all = np.where(rng.random((n, t)) < 0.4, 0.0, rng.uniform(0.1, 3.0, (n, t)))
        y_all[::5] = 0.0  # rows all censored
        y_all[2::5] = rng.uniform(0.1, 3.0, (len(y_all[2::5]), t))  # all observed
        sigma = rng.uniform(0.5, 2.0, t) if with_sigma else None
        cfg = TrainConfig(eta=5e-3, mu=1e-2, lam=0.2, rank=r, v_inner_steps=k,
                          seed=24, step_decay=decay, step_offset=10.0)
        layer, trace = train_layer(Dataset(X=x_all, Y=y_all), cfg, sigma=sigma)
        sigma = np.ones(t) if sigma is None else sigma

        init = np.random.default_rng(cfg.seed)
        u = init.normal(0.0, cfg.init_scale / math.sqrt(r), size=(t, r))
        v = init.normal(0.0, cfg.init_scale / math.sqrt(d), size=(r, d))
        costs, du_norms = [], []
        for i in range(n):
            x, y = x_all[i], y_all[i]
            scale = cfg.step_offset / (cfg.step_offset + i) if decay else 1.0
            eta, mu = cfg.eta * scale, cfg.mu * scale
            costs.append(reference_nll(y, u @ v @ x, sigma)[0].sum()
                         + 0.5 * cfg.lam * (np.sum(u ** 2) + np.sum(v ** 2)))
            for _ in range(k):
                grad = reference_grad(y, u @ v @ x, sigma)[0]
                v = v - eta * (np.outer(u.T @ grad, x) + cfg.lam * v)
            coeff = reference_grad(y, u @ v @ x, sigma)[0]
            u_new = u - mu * (np.outer(coeff, v @ x) + cfg.lam * u)
            du_norms.append(np.linalg.norm(u_new - u))
            u = u_new
        np.testing.assert_allclose(layer.U, u, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(layer.V, v, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.costs, costs, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.du_norms, du_norms, rtol=1e-12, atol=0.0)

    def test_matches_independent_op_loop(self):
        # decaying steps and per-task noise scales
        self.check_against_op_loop(decay=True, with_sigma=True)

    def test_matches_manual_op_loop(self):
        # constant steps and the default noise scales
        self.check_against_op_loop(decay=False, with_sigma=False)

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
        # sketch step plus one for the refinement, made by the step routines;
        # the kernels are looked up in the layer module at call time
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

        x, u, v = data.X[0], layer.U, layer.V
        sample = CensoredSample(data.Y[0], NoiseTerms(layer.sigma))
        for step, expected in (
                (lambda: _cost(u @ (v @ x), sample, u, v, cfg.lam), {"nll": 1, "grad": 0}),
                (lambda: _sketch_step(x, x @ x, u @ (v @ x), sample, u, v, cfg.lam,
                                      cfg.eta, 4), {"nll": 0, "grad": 4}),
                (lambda: _refine_step(v @ x, u @ (v @ x), sample, u, cfg.lam, cfg.mu),
                 {"nll": 0, "grad": 1})):
            calls.update(nll=0, grad=0)
            step()
            assert calls == expected

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
