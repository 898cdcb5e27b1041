"""Single-layer multi-task censored regression trained in one pass.

A layer holds a task-subspace basis ``U`` (T x R) and a parameter sketch
``V`` (R x D); the prediction for input x is ``ReLU(U V x)``. Training
streams the data once: for each sample, ``V`` takes one or more gradient
steps in the current basis (sketching), then every row of ``U`` takes one
gradient step against the fresh sketch (refinement). Each sketch step
shrinks ``V`` and adds a rank-one term along x, so between steps only the
length-R vector ``V x`` changes: the inner steps run on it, and ``V`` itself
is updated once per sample. Row refinements are independent across tasks
and read the same sketch, so they vectorize into a single rank-one update.

Work a sample fixes is done once for it: one `CensoredSample` (censored
entries and noise-scale terms) serves all of its kernel calls, and the
products ``V x`` and ``U V x`` formed for its cost start the sketch loop,
whose final pair the refinement reads. Each sample makes one NLL call and
``v_inner_steps + 1`` gradient calls; the kernels are looked up as module
globals at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censored import (
    CensoredSample,
    censored_nll_array,
    grad_mu_censored_nll_array,
)
from .data import Dataset, _check_rank
from .errors import (
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    StepSizeError,
)
from .metrics import aligned_subspace_difference, subspace_difference


@dataclass
class TrainConfig:
    """Hyperparameters for one training pass.

    ``eta`` and ``mu`` are the sketch and refinement step sizes. With
    ``step_decay`` on, both are scaled by ``step_offset / (step_offset + i)``
    at sample i, i.e. roughly constant for the first ``step_offset`` samples
    and ~1/i after, which matches the decay of successive-iterate distances
    that one-pass recovery relies on. ``init_scale`` multiplies the default
    initialization spreads ``1/sqrt(r)`` for U and ``1/sqrt(d_in)`` for V.
    """

    eta: float = 2e-4
    mu: float = 2e-3
    lam: float = 1e-3
    rank: int = 5
    v_inner_steps: int = 1
    seed: int = 0
    init_scale: float = 1.0
    step_decay: bool = True
    step_offset: float = 500.0

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not (0 < self.eta < math.inf and 0 < self.mu < math.inf):
            raise InvalidArgumentError("step sizes eta and mu must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise InvalidArgumentError("lam must be nonnegative and finite")
        if not self.rank >= 1:
            raise InvalidArgumentError("rank must be a positive integer")
        if not self.v_inner_steps >= 1:
            raise InvalidArgumentError("v_inner_steps must be >= 1")
        if not 0 < self.init_scale < math.inf:
            raise InvalidArgumentError("init_scale must be positive and finite")
        if not 0 < self.step_offset < math.inf:
            raise InvalidArgumentError("step_offset must be positive and finite")


@dataclass
class SubspaceLayer:
    """Trained layer state: basis U (T x R), sketch V (R x D_in), per-task
    noise scales, and the regularization weight it was trained with."""

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise DimensionError("U and V must be 2-D")
        if self.U.shape[1] != self.V.shape[0]:
            raise DimensionError(
                f"rank mismatch: U is {self.U.shape}, V is {self.V.shape}")
        if 0 in self.U.shape or self.V.shape[1] == 0:
            raise DimensionError(
                "a layer needs at least one task, rank and input, got "
                f"U {self.U.shape}, V {self.V.shape}")
        if self.sigma.shape != (self.U.shape[0],):
            raise DimensionError(
                f"sigma must have one entry per task, got shape {self.sigma.shape}")
        if not (np.isfinite(self.U).all() and np.isfinite(self.V).all()):
            raise InvalidArgumentError("U and V must be finite")
        if np.any(self.sigma <= 0) or not np.isfinite(self.sigma).all():
            raise InvalidArgumentError("sigma entries must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise InvalidArgumentError("lam must be nonnegative and finite")

    @property
    def t_out(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]

    @property
    def d_in(self) -> int:
        return self.V.shape[1]


@dataclass
class TraceLog:
    """Per-sample training diagnostics.

    ``costs[i]`` is the instantaneous cost of sample i under the model state
    *before* its update (the loss the online learner incurred on arrival).
    ``du_norms[i]`` is the Frobenius norm of the basis change made by sample
    i. When a planted basis was given as probe, ``subspace_diffs`` holds the
    coordinate-free recovery error (best-remix residual, see
    `metrics.aligned_subspace_difference`) and ``subspace_diffs_raw`` the raw
    relative Frobenius difference against the probe.
    """

    iterations: np.ndarray
    costs: np.ndarray
    du_norms: np.ndarray
    subspace_diffs: np.ndarray | None = None
    subspace_diffs_raw: np.ndarray | None = None
    samples_seen: int = 0

    def __len__(self) -> int:
        return self.iterations.shape[0]


def _check_vector(v, length, name):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise DimensionError(f"{name} must have shape ({length},), got {v.shape}")
    return v


def _cost(lin, sample, u, v, lam) -> float:
    """Cost of one sample whose linear predictor ``U V x`` is ``lin``."""
    nll = float(np.sum(censored_nll_array(sample, lin)))
    return nll + 0.5 * lam * (float(np.sum(u * u)) + float(np.sum(v * v)))


def _check_target(y, length, name):
    y = _check_vector(y, length, name)
    # written so that NaN fails it
    if not ((y >= 0) & (y < math.inf)).all():
        raise InvalidArgumentError(f"{name} must be nonnegative and finite")
    return y


def instantaneous_cost(x, y, layer: SubspaceLayer) -> float:
    """Negative log-likelihood of one sample plus both Frobenius penalties."""
    x = _check_vector(x, layer.d_in, "x")
    y = _check_target(y, layer.t_out, "y")
    lin = layer.U @ (layer.V @ x)
    return _cost(lin, CensoredSample(y, layer.sigma), layer.U, layer.V, layer.lam)


def _sketch_step(x, vx, lin, sample, u, v, lam, eta, steps):
    """``steps`` gradient steps of size ``eta`` on the sketch V for sample
    ``x``, warm-started from ``v``, where ``vx = V x`` and ``lin = U vx``.

    A step maps V to ``(1 - eta*lam) V - g x^T`` with the length-R vector
    ``g = eta U^T grad``, where ``grad`` depends on V only through ``V x``.
    So the loop carries ``V x`` and the accumulated ``g`` terms, and V is
    formed once: ``shrink**steps * V - acc x^T``. Each step still makes one
    gradient-kernel call. Returns the new V with its ``V x`` and ``U V x``,
    which the refinement reads; ``vx`` is updated in place.
    """
    shrink = 1.0 - eta * lam
    xx = x @ x
    eta_ut = eta * u.T
    acc = np.zeros(v.shape[0])
    for _ in range(steps):
        g = eta_ut @ grad_mu_censored_nll_array(sample, lin)
        vx *= shrink
        vx -= xx * g
        acc *= shrink
        acc += g
        lin = u @ vx
    return shrink ** steps * v - np.outer(acc, x), vx, lin


def _refine_step(vx, lin, sample, u, lam, mu):
    """One gradient step of size ``mu`` on every row of the basis U against
    the sketch V, where ``vx = V x`` and ``lin = U vx``; rows are
    independent, so this is one rank-one update."""
    coeff = grad_mu_censored_nll_array(sample, lin)
    return u - mu * (lam * u + np.outer(coeff, vx))


def sketch_v(x, y, layer: SubspaceLayer, cfg: TrainConfig) -> np.ndarray:
    """Sketch the sample into the current basis: ``cfg.v_inner_steps``
    gradient steps on V at step size ``cfg.eta``, warm-started from the
    layer's current sketch. Returns the updated V; the layer is not mutated.
    """
    x = _check_vector(x, layer.d_in, "x")
    y = _check_target(y, layer.t_out, "y")
    vx = layer.V @ x
    v, _, _ = _sketch_step(x, vx, layer.U @ vx, CensoredSample(y, layer.sigma),
                           layer.U, layer.V, layer.lam, cfg.eta, cfg.v_inner_steps)
    if not np.isfinite(v).all():
        raise StepSizeError("sketch update diverged", iteration=0)
    return v


def refine_u_row(t: int, x, y_t: float, layer: SubspaceLayer,
                 cfg: TrainConfig) -> np.ndarray:
    """One gradient step on basis row t against the layer's current sketch.

    Rows are independent, so refining all tasks may run in parallel as long
    as every row reads the same sketch. Returns the updated row; the layer
    is not mutated.
    """
    if not 0 <= t < layer.t_out:
        raise InvalidArgumentError(f"task index {t} out of range [0, {layer.t_out})")
    x = _check_vector(x, layer.d_in, "x")
    y = _check_target([y_t], 1, "y_t")
    u = layer.U[t:t + 1]
    vx = layer.V @ x
    row = _refine_step(vx, u @ vx, CensoredSample(y, layer.sigma[t:t + 1]), u,
                       layer.lam, cfg.mu)[0]
    if not np.isfinite(row).all():
        raise StepSizeError("basis row update diverged", iteration=0)
    return row


def _step_scale(cfg: TrainConfig, i: int) -> float:
    if not cfg.step_decay:
        return 1.0
    return cfg.step_offset / (cfg.step_offset + i)


def _resolve_sigma(sigma, t: int) -> np.ndarray:
    if sigma is None:
        return np.ones(t)
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if sigma.shape == (1,):
        sigma = np.full(t, sigma[0])
    if sigma.shape != (t,):
        raise DimensionError(f"sigma must be scalar or length {t}, got {sigma.shape}")
    if np.any(sigma <= 0) or not np.isfinite(sigma).all():
        raise InvalidArgumentError("sigma entries must be positive and finite")
    return sigma


def train_layer(data: Dataset, cfg: TrainConfig, probe: np.ndarray | None = None,
                sigma=None) -> tuple[SubspaceLayer, TraceLog]:
    """One pass of per-sample sketching and refinement over ``data``.

    U and V start from i.i.d. Gaussian entries (U first, then V, from the
    generator seeded by ``cfg.seed``), then every sample is consumed exactly
    once in stream order: the sketch V takes ``cfg.v_inner_steps`` gradient
    steps, then all basis rows are refined against the fresh sketch.
    Deterministic given the data order and seed.

    ``sigma`` fixes the per-task noise scales of the likelihood (default 1).
    ``probe`` is an optional planted basis; when given, the trace logs
    per-iteration recovery error against it.

    Raises StepSizeError on divergence, carrying the last finite ``(U, V)``
    and the trace collected so far.
    """
    if data.n < 1:
        raise EmptyInputError("training data is empty")
    n, d = data.X.shape
    t = data.Y.shape[1]
    _check_rank(cfg.rank, t, d)
    sigma_vec = _resolve_sigma(sigma, t)
    if probe is not None:
        probe = np.asarray(probe, dtype=np.float64)
        if probe.shape != (t, cfg.rank):
            raise DimensionError(
                f"probe must have shape ({t}, {cfg.rank}), got {probe.shape}")

    rng = np.random.default_rng(cfg.seed)
    u = rng.normal(0.0, cfg.init_scale / math.sqrt(cfg.rank), size=(t, cfg.rank))
    v = rng.normal(0.0, cfg.init_scale / math.sqrt(d), size=(cfg.rank, d))

    costs = np.empty(n)
    du_norms = np.empty(n)
    sub = np.empty(n) if probe is not None else None
    sub_raw = np.empty(n) if probe is not None else None

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = data.X[i]
            sample = CensoredSample(data.Y[i], sigma_vec)
            vx = v @ x
            lin = u @ vx
            costs[i] = _cost(lin, sample, u, v, cfg.lam)
            scale = _step_scale(cfg, i)
            eta_i = cfg.eta * scale
            mu_i = cfg.mu * scale

            v_new, vx, lin = _sketch_step(x, vx, lin, sample, u, v, cfg.lam,
                                          eta_i, cfg.v_inner_steps)
            if not np.isfinite(v_new).all():
                raise StepSizeError(
                    f"sketch update diverged at sample {i}", iteration=i,
                    last_state=(u, v),
                    trace=_finish(costs, du_norms, sub, sub_raw, i))
            v = v_new

            u_new = _refine_step(vx, lin, sample, u, cfg.lam, mu_i)
            if not np.isfinite(u_new).all():
                raise StepSizeError(
                    f"basis update diverged at sample {i}", iteration=i,
                    last_state=(u, v),
                    trace=_finish(costs, du_norms, sub, sub_raw, i))
            du_norms[i] = np.linalg.norm(u_new - u)
            u = u_new

            if probe is not None:
                sub[i] = aligned_subspace_difference(probe, u)
                sub_raw[i] = subspace_difference(probe, u)

    layer = SubspaceLayer(U=u, V=v, sigma=sigma_vec, lam=cfg.lam)
    return layer, _finish(costs, du_norms, sub, sub_raw, n)


def _finish(costs, du_norms, sub, sub_raw, n) -> TraceLog:
    return TraceLog(
        iterations=np.arange(n),
        costs=costs[:n].copy(),
        du_norms=du_norms[:n].copy(),
        subspace_diffs=None if sub is None else sub[:n].copy(),
        subspace_diffs_raw=None if sub_raw is None else sub_raw[:n].copy(),
        samples_seen=n,
    )


def predict_linear(layer: SubspaceLayer, x) -> np.ndarray:
    """Pre-activation prediction ``U V x``."""
    x = _check_vector(x, layer.d_in, "x")
    return layer.U @ (layer.V @ x)


def predict(layer: SubspaceLayer, x) -> np.ndarray:
    """Point prediction ``ReLU(U V x)``."""
    return np.maximum(predict_linear(layer, x), 0.0)


def predict_linear_batch(layer: SubspaceLayer, x_mat) -> np.ndarray:
    """Pre-activation predictions for a batch of row vectors (N x D_in)."""
    x_mat = np.asarray(x_mat, dtype=np.float64)
    if x_mat.ndim != 2 or x_mat.shape[1] != layer.d_in:
        raise DimensionError(
            f"inputs must have shape (n, {layer.d_in}), got {x_mat.shape}")
    return (x_mat @ layer.V.T) @ layer.U.T


def predict_batch(layer: SubspaceLayer, x_mat) -> np.ndarray:
    """ReLU predictions for a batch of row vectors (N x D_in)."""
    return np.maximum(predict_linear_batch(layer, x_mat), 0.0)
