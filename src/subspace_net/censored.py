"""The per-entry censored negative log-likelihood and its gradient.

A target observed as ``y`` with linear predictor ``mu`` and noise scale
``sigma`` follows a lower-censored Gaussian model: the latent value
``mu + eps`` with ``eps ~ N(0, sigma^2)`` is observed exactly when positive
and reported as 0 otherwise. The negative log-likelihood of one entry is

    y > 0:   (y - mu)^2 / (2 sigma^2) + log(sigma) + log(2 pi)/2
    y = 0:   -log Phi(-mu / sigma)

where ``Phi`` is the standard normal CDF. The uncensored branch keeps the
full log-density constant so that per-task ``sigma`` calibration changes the
objective coherently.

Both branches use stock SciPy routines. The NLL's censored branch is
``-log_ndtr(z)`` with ``z = -mu/sigma``, accurate over the whole real line.
Its derivative is the inverse Mills ratio ``pdf(z) / (sigma Phi(z))``,
evaluated as ``sqrt(2/pi) / (sigma erfcx((mu/sigma)/sqrt 2))``: the scaled
complementary error function keeps it accurate to rounding in the deep
tail, where a ratio of the density and the CDF would cancel. The argument
is still capped at ``|z| <= CENSORED_Z_CAP``, with a `SaturationWarning`,
because ``log_ndtr`` overflows to ``-inf`` once ``z^2`` does.

Scalar operations (`censored_nll`, `grad_mu_censored_nll`) validate their
inputs and are the reference surface; the ``*_array`` variants are the
vectorized fast path used by training loops and assume validated inputs.
Both share one implementation.

What a sample's targets and noise scales fix is computed once per sample as
a `CensoredSample`: the indices of the censored entries, their ``sigma``,
``sigma*sigma`` and ``log(sigma)``. The array kernels take it with the
predictors, so each of the sample's kernel calls evaluates the uncensored
formula on all entries, then ``log_ndtr``/``erfcx`` and the cap test on the
censored entries only, written in place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr

from .errors import InvalidArgumentError, SaturationWarning

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)

# Guard cap for the censored-branch argument z = -mu/sigma. Far beyond any
# statistically meaningful value; it only exists so that absurd inputs
# saturate with a warning instead of overflowing to inf/NaN.
CENSORED_Z_CAP = 1e8

# ``log Phi(z)``: the routine the censored kernels use.
log_std_normal_cdf = log_ndtr


@dataclass(frozen=True)
class CensoredNllTerm:
    """One observation of the censored model: target, predictor, noise scale."""

    y: float
    mu: float
    sigma: float

    def __post_init__(self):
        for name in ("y", "mu", "sigma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.floating, np.integer))
                    and math.isfinite(float(v))):
                raise InvalidArgumentError(f"{name} must be a finite real, got {v!r}")
        if self.sigma <= 0:
            raise InvalidArgumentError(f"sigma must be positive, got {self.sigma}")
        if self.y < 0:
            raise InvalidArgumentError(f"y must be nonnegative, got {self.y}")


class CensoredSample:
    """What the 1-D float64 targets ``y`` and noise scales ``sigma`` of one
    sample fix for every kernel call on it (see the module docstring)."""

    __slots__ = ("y", "sigma", "sigma_sq", "log_sigma", "censored",
                 "sigma_censored")

    def __init__(self, y, sigma):
        self.y = y
        self.sigma = sigma
        self.sigma_sq = sigma * sigma
        self.log_sigma = np.log(sigma)
        self.censored = np.flatnonzero(y <= 0.0)
        self.sigma_censored = sigma[self.censored]


def _censored_ratio(mu, sigma):
    """``mu/sigma`` of the censored entries, i.e. ``-z`` for the
    censored-branch argument z, clamped to the cap with a warning."""
    ratio = mu / sigma
    # a NaN entry compares false, so it cannot hide another entry beyond the cap
    if np.count_nonzero(np.abs(ratio) > CENSORED_Z_CAP):
        warnings.warn(
            "censored-branch argument |mu/sigma| exceeded "
            f"{CENSORED_Z_CAP:g}; saturating", SaturationWarning, stacklevel=3)
        ratio = np.clip(ratio, -CENSORED_Z_CAP, CENSORED_Z_CAP)
    return ratio


def censored_nll_array(sample: CensoredSample, mu) -> np.ndarray:
    """Elementwise censored negative log-likelihood (vectorized fast path)
    of the predictors ``mu`` (1-D float64, one per entry of ``sample``).

    Entries with ``y <= 0`` use the censored branch. The sample is assumed
    validated (sigma > 0, y >= 0).
    """
    resid = (sample.y - mu) / sample.sigma
    out = 0.5 * resid * resid + sample.log_sigma + LOG_SQRT_2PI
    idx = sample.censored
    if idx.size:
        out[idx] = -log_ndtr(-_censored_ratio(mu[idx], sample.sigma_censored))
    return out


def grad_mu_censored_nll_array(sample: CensoredSample, mu) -> np.ndarray:
    """Elementwise d(censored_nll)/d(mu) (vectorized fast path), with
    arguments as in `censored_nll_array`.

    Uncensored entries contribute ``-(y - mu)/sigma^2``; censored entries the
    inverse Mills ratio ``pdf(z) / (sigma * Phi(z))`` with ``z = -mu/sigma``,
    evaluated through ``erfcx`` so the ratio survives deep tails.
    """
    out = -(sample.y - mu) / sample.sigma_sq
    idx = sample.censored
    if idx.size:
        ratio = _censored_ratio(mu[idx], sample.sigma_censored)
        out[idx] = _SQRT_2_OVER_PI / (sample.sigma_censored * erfcx(ratio / _SQRT_2))
    return out


def _one_entry(term: CensoredNllTerm):
    """The kernel arguments of one term: a one-entry sample and predictor."""
    y, sigma, mu = np.array([[term.y], [term.sigma], [term.mu]], dtype=np.float64)
    return CensoredSample(y, sigma), mu


def censored_nll(term: CensoredNllTerm) -> float:
    """Negative log-likelihood of one censored observation."""
    return float(censored_nll_array(*_one_entry(term))[0])


def grad_mu_censored_nll(term: CensoredNllTerm) -> float:
    """Derivative of `censored_nll` with respect to the linear predictor.

    Callers apply the chain rule onto the factor matrices themselves: the
    gradient with respect to a sketch row or basis row is this scalar times
    the corresponding input vector.
    """
    return float(grad_mu_censored_nll_array(*_one_entry(term))[0])
