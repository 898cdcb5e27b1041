"""Single-layer multi-task censored regression trained in one pass.

A layer holds a task-subspace basis ``U`` (T x R) and a parameter sketch
``V`` (R x D); the prediction for input x is ``ReLU(U V x)``. Training
streams the data once: for each sample, ``V`` takes one or more gradient
steps in the current basis (sketching), then every row of ``U`` takes one
gradient step against the fresh sketch (refinement). Each sketch step
shrinks ``V`` and adds a rank-one term along x, so between steps only the
prediction ``U V x`` changes: the inner steps update it in place and keep
each step's length-R coefficient ``g``, and ``V`` and ``V x`` are formed
once per sample from the weighted sum of the ``g``s. Row refinements are
independent across tasks and read the same sketch, so they vectorize into
a single rank-one update.

Work is done once at the level that fixes it. Per layer: the `NoiseTerms`
of the noise scales and ``x.x`` for every input (one ``einsum``). Per
sample: one `CensoredSample` (its censored entries and two gathers of noise
terms) serves all of its kernel calls, and the ``U V x`` formed for its
cost starts the sketch loop. Each sample makes one NLL call and
``v_inner_steps + 1`` gradient calls. Per block of `PROBE_BLOCK` samples,
when a probe is given: one call of each subspace metric on the stack of
the block's bases. Kernels and metrics are looked up as module globals at
call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censored import (
    CensoredSample,
    NoiseTerms,
    censored_nll_array,
    grad_mu_censored_nll_array,
)
from .data import Dataset, _check_rank, _check_seed, _is_int
from .errors import (
    DegenerateInputError,
    DimensionError,
    InvalidArgumentError,
    StepSizeError,
)
from .metrics import aligned_subspace_difference, subspace_difference

# samples whose bases the probe compares with the planted one in one call
PROBE_BLOCK = 32


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
        if not (_is_int(self.rank) and self.rank >= 1):
            raise InvalidArgumentError("rank must be a positive integer")
        if not (_is_int(self.v_inner_steps) and self.v_inner_steps >= 1):
            raise InvalidArgumentError("v_inner_steps must be a positive integer")
        if not 0 < self.init_scale < math.inf:
            raise InvalidArgumentError("init_scale must be positive and finite")
        if not 0 < self.step_offset < math.inf:
            raise InvalidArgumentError("step_offset must be positive and finite")
        _check_seed(self.seed)


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
    relative Frobenius difference against the probe. ``len`` counts samples.
    """

    costs: np.ndarray
    du_norms: np.ndarray
    subspace_diffs: np.ndarray | None = None
    subspace_diffs_raw: np.ndarray | None = None

    def __len__(self) -> int:
        return self.costs.shape[0]


def _cost(lin, sample, u, v, lam) -> float:
    """Cost of one sample whose linear predictor ``U V x`` is ``lin``."""
    nll = float(censored_nll_array(sample, lin).sum())
    return nll + 0.5 * lam * (float(np.vdot(u, u)) + float(np.vdot(v, v)))


def _sketch_step(x, xx, lin, sample, u, v, lam, eta, steps):
    """``steps`` gradient steps of size ``eta`` on the sketch V for sample
    ``x`` (with ``xx = x.x``), warm-started from ``v``, where ``lin = U V x``.

    A step maps V to ``shrink V - g x^T`` with ``shrink = 1 - eta*lam`` and
    the length-R vector ``g = eta U^T grad``, where ``grad`` depends on V
    only through ``U V x``. So the loop carries ``lin``, updated in place as
    ``shrink lin - xx U g``, and keeps the ``g`` of each step; V is formed
    once as ``shrink**steps V - acc x^T`` with
    ``acc = sum_j shrink**(steps-1-j) g_j``. Each step makes one
    gradient-kernel call. Returns the new V with its ``V x`` and
    ``U V x``, which the refinement reads.
    """
    # a float's ** raises OverflowError; numpy's gives inf, caught as divergence
    shrink = np.float64(1.0 - eta * lam)
    eta_ut = eta * u.T
    xx_u = xx * u
    gs = np.empty((steps, u.shape[1]))
    for g in gs:  # np.dot: less per-call work than @ on small operands
        np.dot(eta_ut, grad_mu_censored_nll_array(sample, lin), out=g)
        lin *= shrink
        lin -= np.dot(xx_u, g)
    acc = np.dot(shrink ** np.arange(steps - 1, -1, -1.0), gs)
    v_new = shrink ** steps * v
    v_new -= acc[:, None] * x
    return v_new, v_new @ x, lin


def _refine_step(vx, lin, sample, u, lam, mu):
    """One gradient step of size ``mu`` on every row of the basis U against
    the sketch V, where ``vx = V x`` and ``lin = U vx``; rows are
    independent, so this is one rank-one update."""
    coeff = grad_mu_censored_nll_array(sample, lin)
    u_new = (1.0 - mu * lam) * u
    u_new -= (mu * coeff)[:, None] * vx
    return u_new


def _step_scale(cfg: TrainConfig, i: int) -> float:
    if not cfg.step_decay:
        return 1.0
    return cfg.step_offset / (cfg.step_offset + i)


def _noise_scales(sigma, t: int) -> np.ndarray:
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
    ``probe`` is an optional planted basis (finite, not all zero); when
    given, the trace logs per-iteration recovery error against it.

    Raises StepSizeError on divergence, carrying the last finite ``(U, V)``
    and the trace collected so far.
    """
    n, d = data.X.shape
    t = data.Y.shape[1]
    _check_rank(cfg.rank, t, d)
    sigma_vec = _noise_scales(sigma, t)
    if probe is not None:
        probe = np.asarray(probe, dtype=np.float64)
        if probe.shape != (t, cfg.rank):
            raise DimensionError(
                f"probe must have shape ({t}, {cfg.rank}), got {probe.shape}")
        if not np.isfinite(probe).all():
            raise InvalidArgumentError("probe must be finite")
        if not probe.any():
            raise DegenerateInputError("probe has zero Frobenius norm")
        block = np.empty((PROBE_BLOCK, t, cfg.rank))

    noise = NoiseTerms(sigma_vec)
    xx = np.einsum("ij,ij->i", data.X, data.X)
    rng = np.random.default_rng(cfg.seed)
    u = rng.normal(0.0, cfg.init_scale / math.sqrt(cfg.rank), size=(t, cfg.rank))
    v = rng.normal(0.0, cfg.init_scale / math.sqrt(d), size=(cfg.rank, d))

    costs = np.empty(n)
    du_norms = np.empty(n)
    sub = np.empty(n) if probe is not None else None
    sub_raw = np.empty(n) if probe is not None else None

    def probe_upto(end):
        """Probe the samples before ``end`` whose bases ``block`` holds."""
        k = (end - 1) % PROBE_BLOCK + 1
        sub[end - k:end] = aligned_subspace_difference(probe, block[:k])
        sub_raw[end - k:end] = subspace_difference(probe, block[:k])

    def finish(end) -> TraceLog:
        if probe is not None and end % PROBE_BLOCK:
            probe_upto(end)
        return TraceLog(
            costs=costs[:end].copy(),
            du_norms=du_norms[:end].copy(),
            subspace_diffs=None if sub is None else sub[:end].copy(),
            subspace_diffs_raw=None if sub_raw is None else sub_raw[:end].copy(),
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = data.X[i]
            sample = CensoredSample(data.Y[i], noise)
            lin = u @ (v @ x)
            costs[i] = _cost(lin, sample, u, v, cfg.lam)
            scale = _step_scale(cfg, i)
            eta_i = cfg.eta * scale
            mu_i = cfg.mu * scale

            v_new, vx, lin = _sketch_step(x, xx[i], lin, sample, u, v, cfg.lam,
                                          eta_i, cfg.v_inner_steps)
            if not np.isfinite(v_new).all():
                raise StepSizeError(
                    f"sketch update diverged at sample {i}", iteration=i,
                    last_state=(u, v), trace=finish(i))
            v = v_new

            u_new = _refine_step(vx, lin, sample, u, cfg.lam, mu_i)
            if not np.isfinite(u_new).all():
                raise StepSizeError(
                    f"basis update diverged at sample {i}", iteration=i,
                    last_state=(u, v), trace=finish(i))
            du = u_new - u
            du_norms[i] = math.sqrt(np.vdot(du, du))
            u = u_new

            if probe is not None:
                block[i % PROBE_BLOCK] = u
                if (i + 1) % PROBE_BLOCK == 0:
                    probe_upto(i + 1)

    layer = SubspaceLayer(U=u, V=v, sigma=sigma_vec, lam=cfg.lam)
    return layer, finish(n)


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
