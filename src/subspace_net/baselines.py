"""Closed-form uncensored baselines: ordinary and ridge least squares.

Fitting centers the feature and target columns, factors the regularized
Gram matrix once with numpy's Cholesky routine, solves for all tasks with
that factor, and recovers the intercepts from the means; it loads no SciPy
module. Predictions can optionally be clamped at zero to mimic censored
outputs at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    ConditioningError,
    DimensionError,
    InvalidArgumentError,
)


@dataclass
class LinearModel:
    """Per-task linear coefficients W (T x D) with intercepts (T,)."""

    W: np.ndarray
    intercept: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.intercept = np.asarray(self.intercept, dtype=np.float64)
        if self.W.ndim != 2 or self.intercept.shape != (self.W.shape[0],):
            raise DimensionError("W must be T x D with a length-T intercept")
        if not (np.isfinite(self.W).all() and np.isfinite(self.intercept).all()):
            raise InvalidArgumentError("model coefficients must be finite")


def fit_ridge(data: Dataset, ridge_lambda: float = 0.0) -> LinearModel:
    """Solve ``(Xc' Xc + lambda I) W' = Xc' Yc`` on centered columns.

    ``ridge_lambda=0`` gives ordinary least squares and is allowed whenever
    the Gram matrix is numerically positive definite; otherwise a
    ConditioningError suggests regularizing.
    """
    if ridge_lambda < 0:
        raise InvalidArgumentError(f"ridge_lambda must be >= 0, got {ridge_lambda}")
    x_mean = data.X.mean(axis=0)
    y_mean = data.Y.mean(axis=0)
    xc = data.X - x_mean
    yc = data.Y - y_mean
    gram = xc.T @ xc + ridge_lambda * np.eye(data.d)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "normal equations are singular; increase ridge_lambda above 0"
        ) from exc
    w = np.linalg.solve(lower.T, np.linalg.solve(lower, xc.T @ yc)).T
    intercept = y_mean - w @ x_mean
    return LinearModel(W=w, intercept=intercept)


def predict_baseline(model: LinearModel, x_mat, censor: bool = False) -> np.ndarray:
    """Affine predictions ``X W' + intercept`` (N x T), clamped at zero when
    ``censor`` is set."""
    x_mat = np.asarray(x_mat, dtype=np.float64)
    if x_mat.ndim != 2 or x_mat.shape[1] != model.W.shape[1]:
        raise DimensionError(
            f"inputs must have shape (n, {model.W.shape[1]}), got {x_mat.shape}")
    preds = x_mat @ model.W.T + model.intercept
    return np.maximum(preds, 0.0) if censor else preds
