"""Evaluation metrics: subspace distances, mutual coherence, weight
correlations, and average normalized mean squared error (ANMSE).

All functions are pure and operate on plain ndarrays. Every norm is taken
of its input scaled by a power of two (`_scaled`), and the norm of a
difference at the common exponent of its two inputs. The scaling is exact,
so a value whose sums of squares fit the float range is unchanged; no sum
of squares overflows, and a nonzero input never has a zero norm.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DimensionError, InvalidArgumentError, check_matrix


def _scaled(*arrays, axis=None):
    """``(*scaled, exp)``: the arrays times ``2**-exp``, with ``exp`` per slice
    along ``axis`` (dimensions kept) the exponent that puts their largest
    absolute entry in [0.5, 1), or 0 where they are all zero."""
    tops = [np.maximum(a.max(axis=axis, keepdims=True, initial=0.0),
                       -a.min(axis=axis, keepdims=True, initial=0.0)) for a in arrays]
    exp = np.frexp(np.max(np.broadcast_arrays(*tops), axis=0))[1]
    return (*(np.ldexp(a, -exp) for a in arrays), exp)


def _nonzero(norms: np.ndarray, what: str) -> np.ndarray:
    """``norms``, after checking that none of them is zero."""
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"{what} at index {zero.tolist()}")
    return norms


def _subspace_inputs(reference, candidate, same_shape: bool):
    """The checked reference, the candidate as a stack, and whether it was one."""
    reference = check_matrix("reference", reference)
    stack = np.asarray(candidate, dtype=np.float64)
    if stack.ndim not in (2, 3):
        raise DimensionError(
            f"candidate must be 2-D or a stack of 2-D, got shape {stack.shape}")
    stack, single = stack.reshape((-1,) + stack.shape[-2:]), stack.ndim == 2
    if same_shape and reference.shape != stack.shape[1:]:
        raise DimensionError(f"shape mismatch: {reference.shape} vs {stack.shape[1:]}")
    if reference.shape[0] != stack.shape[1]:
        raise DimensionError(
            f"row counts differ: {reference.shape[0]} vs {stack.shape[1]}")
    if not np.isfinite(stack).all():
        raise InvalidArgumentError("candidate must be finite")
    if not reference.any():
        raise DegenerateInputError("reference matrix has zero Frobenius norm")
    return reference, stack, single


def subspace_difference(reference: np.ndarray,
                        candidate: np.ndarray) -> float | np.ndarray:
    """Relative Frobenius difference ``||reference - candidate||_F / ||reference||_F``,
    a float for one candidate matrix and an array for a stack of them.

    This compares raw matrix entries, so it is sensitive to the coordinate
    system of the factorization: remixing the candidate's columns changes the
    value even though the spanned subspace is identical. Use
    `aligned_subspace_difference` or `mutual_coherence` for coordinate-free
    comparisons.
    """
    reference, stack, single = _subspace_inputs(reference, candidate, same_shape=True)
    diff, cand, exp = _scaled(reference[None], stack, axis=(1, 2))
    diff -= cand
    own, own_exp = _scaled(reference)
    norms = np.linalg.norm(diff, axis=(1, 2)) / np.linalg.norm(own)
    norms = np.ldexp(norms, (exp - own_exp).ravel())
    return float(norms[0]) if single else norms


def aligned_subspace_difference(reference: np.ndarray,
                                candidate: np.ndarray) -> float | np.ndarray:
    """Relative residual of the reference after the best column remix of the
    candidate: ``min_A ||reference - candidate A||_F / ||reference||_F``, a
    float for one candidate matrix and an array for a stack of them.

    Equivalently, the fraction of the reference not captured by the
    candidate's column space. Invariant to invertible remixing of the
    candidate's columns, so it measures recovery of the subspace itself.
    The stack, each candidate scaled by a power of two, takes one
    Householder QR and forms ``reference - Q Q^T reference``; a candidate
    whose R has a diagonal entry below 1e-8 times its largest is (near)
    rank deficient and takes ``lstsq``'s cutoff.
    """
    reference, stack, single = _subspace_inputs(reference, candidate, same_shape=False)
    reference, _ = _scaled(reference)
    stack, _ = _scaled(stack, axis=(1, 2))
    q, r = np.linalg.qr(stack)
    resid = reference - q @ (q.transpose(0, 2, 1) @ reference)
    norms = np.linalg.norm(resid, axis=(1, 2))
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = diag.min(1, initial=np.inf) <= 1e-8 * diag.max(1, initial=0.0)
    for k in np.flatnonzero(deficient):
        mix, *_ = np.linalg.lstsq(stack[k], reference, rcond=None)
        norms[k] = np.linalg.norm(reference - stack[k] @ mix)
    norms /= np.linalg.norm(reference)
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
    a = check_matrix("a", a)
    b = check_matrix("b", b)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    a, _ = _scaled(a, axis=0)
    b, _ = _scaled(b, axis=0)
    a_norms = _nonzero(np.linalg.norm(a, axis=0), "matrix a has zero column(s)")
    b_norms = _nonzero(np.linalg.norm(b, axis=0), "matrix b has zero column(s)")
    cos = np.abs((a / a_norms).T @ (b / b_norms))
    cos = np.minimum(cos, 1.0)  # shave rounding overshoot above Cauchy-Schwarz
    return CoherenceSummary(float(cos.max()), float(cos.mean()))


def weight_correlations(w_hat: np.ndarray, w_true: np.ndarray) -> np.ndarray:
    """Per-row Pearson correlation between two equally shaped matrices.

    Row t of each matrix is one task's weight vector; returns a length-T
    array of correlations.
    """
    w_hat = check_matrix("w_hat", w_hat)
    w_true = check_matrix("w_true", w_true)
    if w_hat.shape != w_true.shape:
        raise DimensionError(f"shape mismatch: {w_hat.shape} vs {w_true.shape}")
    w_hat, _ = _scaled(w_hat, axis=1)
    w_true, _ = _scaled(w_true, axis=1)
    hc = w_hat - w_hat.mean(axis=1, keepdims=True)
    tc = w_true - w_true.mean(axis=1, keepdims=True)
    h_norms = _nonzero(np.linalg.norm(hc, axis=1), "w_hat has zero-variance row(s)")
    t_norms = _nonzero(np.linalg.norm(tc, axis=1), "w_true has zero-variance row(s)")
    return np.sum(hc * tc, axis=1) / (h_norms * t_norms)


def anmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Average normalized mean squared error over tasks.

    Per task, the squared error is normalized by the target's centered sum
    of squares, so predicting each task's mean scores exactly 1.0; the
    returned value is the mean over tasks.
    """
    y_true = check_matrix("y_true", y_true)
    y_pred = check_matrix("y_pred", y_pred)
    if y_true.shape != y_pred.shape:
        raise DimensionError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    true, pred, exp = _scaled(y_true, y_pred, axis=0)
    sse = np.sum((true - pred) ** 2, axis=0)
    true, true_exp = _scaled(y_true, axis=0)
    sst = _nonzero(np.sum((true - true.mean(axis=0)) ** 2, axis=0),
                   "y_true has zero-variance column(s)")
    return float(np.mean(np.ldexp(sse / sst, 2 * (exp - true_exp)[0])))
