"""Gaussian kernels and the per-entry censored negative log-likelihood.

A target observed as ``y`` with linear predictor ``mu`` and noise scale
``sigma`` follows a lower-censored Gaussian model: the latent value
``mu + eps`` with ``eps ~ N(0, sigma^2)`` is observed exactly when positive
and reported as 0 otherwise. The negative log-likelihood of one entry is

    y > 0:   (y - mu)^2 / (2 sigma^2) + log(sigma) + log(2 pi)/2
    y = 0:   -log Phi(-mu / sigma)

where ``Phi`` is the standard normal CDF. The uncensored branch keeps the
full log-density constant so that per-task ``sigma`` calibration changes the
objective coherently.

Scalar operations (`censored_nll`, `grad_mu_censored_nll`) validate their
inputs and are the reference surface; the ``*_array`` variants are the
vectorized fast path used by training loops and assume validated inputs.
Both share one implementation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import InvalidArgumentError, SaturationWarning

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# The log-CDF switches to an asymptotic tail expansion below this point;
# the erfc route would underflow near z = -37.5.
_ASYMPTOTIC_Z = -33.0

# Guard cap for the censored-branch argument z = -mu/sigma. Far beyond any
# statistically meaningful value; it only exists so that absurd inputs
# saturate with a warning instead of overflowing to inf/NaN.
CENSORED_Z_CAP = 1e8


def std_normal_pdf(z):
    """Standard normal density ``exp(-z^2/2) / sqrt(2 pi)``.

    Accepts a scalar or ndarray; raises InvalidArgumentError on non-finite
    input.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("std_normal_pdf requires finite input")
    out = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def std_normal_tail(z):
    """Upper-tail probability ``P(Z > z)`` for ``Z ~ N(0, 1)``.

    Computed as ``erfc(z / sqrt(2)) / 2``, which stays accurate to around
    1e-15 relative error over the whole double range where the result is
    representable.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("std_normal_tail requires finite input")
    out = 0.5 * erfc(z / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def log_std_normal_cdf(z):
    """``log Phi(z)``, stable over the whole real line.

    Three branches: ``log1p`` of the upper tail for z > 0 (keeps precision
    when Phi(z) is near 1), a direct erfc evaluation down to z = -33, and an
    asymptotic Mills-ratio expansion below that, where erfc underflows:

        log Phi(z) ~ -z^2/2 - log(-z) - log(2 pi)/2
                     + log1p(-1/z^2 + 3/z^4 - 15/z^6 + 105/z^8)

    The truncated series is accurate to ~5e-13 relative at the switch point
    and improves rapidly as z decreases.
    """
    z = np.asarray(z, dtype=np.float64)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)

    pos = z > 0.0
    if np.any(pos):
        out[pos] = np.log1p(-0.5 * erfc(z[pos] / math.sqrt(2.0)))

    mid = (~pos) & (z >= _ASYMPTOTIC_Z)
    if np.any(mid):
        out[mid] = np.log(0.5 * erfc(-z[mid] / math.sqrt(2.0)))

    low = z < _ASYMPTOTIC_Z
    if np.any(low):
        zl = z[low]
        inv2 = 1.0 / (zl * zl)
        series = -inv2 * (1.0 - inv2 * (3.0 - inv2 * (15.0 - inv2 * 105.0)))
        out[low] = (-0.5 * zl * zl - np.log(-zl) - LOG_SQRT_2PI
                    + np.log1p(series))

    return float(out[0]) if scalar else out


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


def _censored_z(mu, sigma):
    """Censored-branch argument ``z = -mu/sigma``, clamped with a warning."""
    z = -mu / sigma
    clipped = np.abs(z) > CENSORED_Z_CAP
    if np.any(clipped):
        warnings.warn(
            "censored-branch argument |mu/sigma| exceeded "
            f"{CENSORED_Z_CAP:g}; saturating", SaturationWarning, stacklevel=3)
        z = np.clip(z, -CENSORED_Z_CAP, CENSORED_Z_CAP)
    return z


def censored_nll_array(y, mu, sigma):
    """Elementwise censored negative log-likelihood (vectorized fast path).

    Entries with ``y <= 0`` use the censored branch. Inputs are assumed
    validated (sigma > 0, y >= 0); shapes must broadcast.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    censored = y <= 0.0
    resid = (y - mu) / sigma
    out = 0.5 * resid * resid + np.log(sigma) + LOG_SQRT_2PI
    if np.any(censored):
        z = _censored_z(np.where(censored, mu, 0.0), sigma)
        out = np.where(censored, -log_std_normal_cdf(z), out)
    return out


def grad_mu_censored_nll_array(y, mu, sigma):
    """Elementwise d(censored_nll)/d(mu) (vectorized fast path).

    Uncensored entries contribute ``-(y - mu)/sigma^2``; censored entries the
    inverse Mills ratio ``pdf(z) / (sigma * Phi(z))`` with ``z = -mu/sigma``,
    evaluated as ``exp(log pdf - log Phi)`` so the ratio survives deep tails.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    censored = y <= 0.0
    out = -(y - mu) / (sigma * sigma)
    if np.any(censored):
        z = _censored_z(np.where(censored, mu, 0.0), sigma)
        log_pdf = -0.5 * z * z - LOG_SQRT_2PI
        hazard = np.exp(log_pdf - log_std_normal_cdf(z)) / sigma
        out = np.where(censored, hazard, out)
    return out


def censored_nll(term: CensoredNllTerm) -> float:
    """Negative log-likelihood of one censored observation."""
    return float(censored_nll_array(term.y, term.mu, term.sigma))


def grad_mu_censored_nll(term: CensoredNllTerm) -> float:
    """Derivative of `censored_nll` with respect to the linear predictor.

    Callers apply the chain rule onto the factor matrices themselves: the
    gradient with respect to a sketch row or basis row is this scalar times
    the corresponding input vector.
    """
    return float(grad_mu_censored_nll_array(term.y, term.mu, term.sigma))
