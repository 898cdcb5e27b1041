"""Evaluation metrics: subspace distances, mutual coherence, weight
correlations, and average normalized mean squared error (ANMSE).

All functions are pure and operate on plain ndarrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DimensionError, InvalidArgumentError


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _as_stack(candidate) -> tuple[np.ndarray, bool]:
    """The candidate as a stack of matrices, and whether it was one matrix."""
    candidate = np.asarray(candidate, dtype=np.float64)
    if candidate.ndim not in (2, 3):
        raise DimensionError(
            f"candidate must be 2-D or a stack of 2-D, got shape {candidate.shape}")
    return (candidate[None], True) if candidate.ndim == 2 else (candidate, False)


def subspace_difference(reference: np.ndarray,
                        candidate: np.ndarray) -> float | np.ndarray:
    """Relative Frobenius difference ``||reference - candidate||_F / ||reference||_F``,
    a float for one candidate matrix and an array for a stack of them.

    This compares raw matrix entries, so it is sensitive to the coordinate
    system of the factorization: remixing the candidate's columns changes the
    value even though the spanned subspace is identical. Use
    `aligned_subspace_difference` or `mutual_coherence` for coordinate-free
    comparisons. A value whose sum of squares overflows is recomputed from
    the matrices scaled by their largest entries.
    """
    reference = _as_matrix(reference, "reference")
    stack, single = _as_stack(candidate)
    if reference.shape != stack.shape[1:]:
        raise DimensionError(
            f"shape mismatch: {reference.shape} vs {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise InvalidArgumentError("candidate must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        ref_norm = np.linalg.norm(reference)
        if ref_norm == 0.0:
            raise DegenerateInputError("reference matrix has zero Frobenius norm")
        norms = np.linalg.norm(reference - stack, axis=(1, 2)) / ref_norm
    overflowed = np.isinf(ref_norm) | ~np.isfinite(norms)
    if overflowed.any():
        ref_max = np.abs(reference).max()
        ref_scaled = np.linalg.norm(reference / ref_max)
        for k in np.flatnonzero(overflowed):
            scale = max(ref_max, np.abs(stack[k]).max())
            diff = np.linalg.norm(reference / scale - stack[k] / scale)
            with np.errstate(over="ignore"):
                norms[k] = diff / ref_scaled * (scale / ref_max)
    return float(norms[0]) if single else norms


def aligned_subspace_difference(reference: np.ndarray,
                                candidate: np.ndarray) -> float | np.ndarray:
    """Relative residual of the reference after the best column remix of the
    candidate: ``min_A ||reference - candidate A||_F / ||reference||_F``, a
    float for one candidate matrix and an array for a stack of them.

    Equivalently, the fraction of the reference not captured by the
    candidate's column space. Invariant to invertible remixing of the
    candidate's columns, so it measures recovery of the subspace itself.
    The stack takes one Householder QR and forms ``reference - Q Q^T
    reference``; a candidate whose R has a diagonal entry below 1e-8 times
    its largest is (near) rank deficient and takes ``lstsq``'s cutoff.
    """
    reference = _as_matrix(reference, "reference")
    stack, single = _as_stack(candidate)
    if reference.shape[0] != stack.shape[1]:
        raise DimensionError(
            f"row counts differ: {reference.shape[0]} vs {stack.shape[1]}")
    if not np.isfinite(stack).all():
        raise InvalidArgumentError("candidate must be finite")
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise DegenerateInputError("reference matrix has zero Frobenius norm")
    q, r = np.linalg.qr(stack)
    resid = reference - q @ (q.transpose(0, 2, 1) @ reference)
    norms = np.linalg.norm(resid, axis=(1, 2))
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = diag.min(1, initial=np.inf) <= 1e-8 * diag.max(1, initial=0.0)
    for k in np.flatnonzero(deficient):
        mix, *_ = np.linalg.lstsq(stack[k], reference, rcond=None)
        norms[k] = np.linalg.norm(reference - stack[k] @ mix)
    norms /= ref_norm
    return float(norms[0]) if single else norms


class CoherenceSummary(NamedTuple):
    max_coherence: float
    mean_coherence: float


def mutual_coherence(a: np.ndarray, b: np.ndarray) -> CoherenceSummary:
    """Max and mean absolute cosine similarity over all column pairs of two
    matrices with equal row counts.

    Invariant to orthogonal remixing of either matrix's columns at the level
    of the spanned subspace, which makes it a robust recovery measure where
    `subspace_difference` is fragile. Values lie in [0, 1].
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    a_norms = np.linalg.norm(a, axis=0)
    b_norms = np.linalg.norm(b, axis=0)
    for name, norms in (("a", a_norms), ("b", b_norms)):
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DegenerateInputError(
                f"matrix {name} has zero column(s) at index {zero.tolist()}")
    cos = np.abs((a / a_norms).T @ (b / b_norms))
    cos = np.minimum(cos, 1.0)  # shave rounding overshoot above Cauchy-Schwarz
    return CoherenceSummary(float(cos.max()), float(cos.mean()))


def weight_correlations(w_hat: np.ndarray, w_true: np.ndarray) -> np.ndarray:
    """Per-row Pearson correlation between two equally shaped matrices.

    Row t of each matrix is one task's weight vector; returns a length-T
    array of correlations.
    """
    w_hat = _as_matrix(w_hat, "w_hat")
    w_true = _as_matrix(w_true, "w_true")
    if w_hat.shape != w_true.shape:
        raise DimensionError(f"shape mismatch: {w_hat.shape} vs {w_true.shape}")
    hc = w_hat - w_hat.mean(axis=1, keepdims=True)
    tc = w_true - w_true.mean(axis=1, keepdims=True)
    h_norms = np.linalg.norm(hc, axis=1)
    t_norms = np.linalg.norm(tc, axis=1)
    for name, norms in (("w_hat", h_norms), ("w_true", t_norms)):
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DegenerateInputError(
                f"{name} has zero-variance row(s) at index {zero.tolist()}")
    return np.sum(hc * tc, axis=1) / (h_norms * t_norms)


def anmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Average normalized mean squared error over tasks.

    Per task, the squared error is normalized by the target's centered sum
    of squares, so predicting each task's mean scores exactly 1.0; the
    returned value is the mean over tasks.
    """
    y_true = _as_matrix(y_true, "y_true")
    y_pred = _as_matrix(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise DimensionError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    sse = np.sum((y_true - y_pred) ** 2, axis=0)
    sst = np.sum((y_true - y_true.mean(axis=0)) ** 2, axis=0)
    zero = np.flatnonzero(sst == 0.0)
    if zero.size:
        raise DegenerateInputError(
            f"y_true has zero-variance column(s) at index {zero.tolist()}")
    return float(np.mean(sse / sst))
