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
because ``log_ndtr`` overflows to ``-inf`` once ``z^2`` does. Both are bound
as module globals by the first `NoiseTerms` (every kernel call goes through
one), so neither importing the package nor ``ssn predict`` loads SciPy.

What the noise scales fix is computed once per layer as `NoiseTerms`:
``log(sigma)``, ``1/sigma^2`` and the Mills-ratio scale
``sqrt(2/pi)/sigma``. What a sample's targets fix is computed once per
sample as a `CensoredSample`: the indices of its censored entries and two
gathers at them, ``sigma`` and the Mills-ratio scale. Each kernel call then
evaluates the uncensored formula on all entries, and the cap test and
``log_ndtr``/``erfcx`` on the censored entries only, in place. The
censored-branch arguments ``mu/sigma`` and ``(mu/sigma)/sqrt 2`` are
rounded exactly as written above: in the tail both branches are
ill-conditioned (a relative change d in ``mu/sigma`` moves the gradient by
about ``(mu/sigma)^2 d``), so another rounding of the argument, such as one
multiply by a precomputed ``1/(sigma sqrt 2)``, would move the result by
far more than one rounding.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import SaturationWarning

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)

# Guard cap for the censored-branch argument z = -mu/sigma. Far beyond any
# statistically meaningful value; it only exists so that absurd inputs
# saturate with a warning instead of overflowing to inf/NaN.
CENSORED_Z_CAP = 1e8
_CAP_SQ = CENSORED_Z_CAP * CENSORED_Z_CAP  # 1e16, exact in float64


def _bind_special():
    global erfcx, log_ndtr  # the kernels' routines, from scipy.special
    if "log_ndtr" not in globals():
        from scipy import special
        erfcx, log_ndtr = special.erfcx, special.log_ndtr


class NoiseTerms:
    """What the 1-D float64 noise scales ``sigma`` (positive) fix for every
    kernel call that uses them; a layer computes it once for all of its
    samples (see the module docstring)."""

    __slots__ = ("sigma", "log_sigma", "inv_var", "mills_scale")

    def __init__(self, sigma):
        _bind_special()
        self.sigma = sigma
        self.log_sigma = np.log(sigma)
        self.inv_var = 1.0 / (sigma * sigma)
        self.mills_scale = _SQRT_2_OVER_PI / sigma


class CensoredSample:
    """What the 1-D float64 targets ``y`` of one sample fix for every kernel
    call on it, with its noise scales' `NoiseTerms`."""

    __slots__ = ("y", "noise", "censored", "sigma_censored", "mills_censored")

    def __init__(self, y, noise: NoiseTerms):
        self.y = y
        self.noise = noise
        self.censored = (y <= 0.0).nonzero()[0]
        self.sigma_censored = noise.sigma[self.censored]
        self.mills_censored = noise.mills_scale[self.censored]


def _cap_censored_ratio(ratio):
    """Clamp ``ratio``, the ``mu/sigma`` of the censored entries (i.e.
    ``-z`` for the censored-branch argument z), to the cap in place, with a
    warning when some entry exceeds it."""
    # A rounded sum of squares is at least its largest rounded term, so one
    # dot product clears the common case. A NaN fails the comparison and
    # takes the entrywise test, where it compares false, so it cannot hide
    # another entry beyond the cap.
    if (not np.dot(ratio, ratio) <= _CAP_SQ
            and np.count_nonzero(np.abs(ratio) > CENSORED_Z_CAP)):
        warnings.warn(
            "censored-branch argument |mu/sigma| exceeded "
            f"{CENSORED_Z_CAP:g}; saturating", SaturationWarning, stacklevel=3)
        np.clip(ratio, -CENSORED_Z_CAP, CENSORED_Z_CAP, out=ratio)


def censored_nll_array(sample: CensoredSample, mu) -> np.ndarray:
    """Elementwise censored negative log-likelihood of the predictors
    ``mu`` (1-D float64, one per entry of ``sample``).

    Entries with ``y <= 0`` use the censored branch. The sample is assumed
    validated (sigma > 0, y >= 0).
    """
    out = np.subtract(sample.y, mu)
    out /= sample.noise.sigma
    idx = sample.censored
    if idx.size:
        # y = 0 there, so the residual is exactly z = -mu/sigma
        z = out[idx]
        _cap_censored_ratio(z)
        log_ndtr(z, out=z)
        np.negative(z, out=z)
    out *= 0.5 * out
    out += sample.noise.log_sigma
    out += LOG_SQRT_2PI
    if idx.size:
        out[idx] = z
    return out


def grad_mu_censored_nll_array(sample: CensoredSample, mu) -> np.ndarray:
    """Elementwise derivative of `censored_nll_array` with respect to
    ``mu``, with the same arguments.

    Uncensored entries contribute ``-(y - mu)/sigma^2``; censored entries the
    inverse Mills ratio ``pdf(z) / (sigma * Phi(z))`` with ``z = -mu/sigma``,
    evaluated through ``erfcx`` so the ratio survives deep tails.
    """
    out = np.subtract(mu, sample.y)
    out *= sample.noise.inv_var
    idx = sample.censored
    if idx.size:
        ratio = mu[idx]
        ratio /= sample.sigma_censored
        _cap_censored_ratio(ratio)
        ratio /= _SQRT_2
        erfcx(ratio, out=ratio)
        np.divide(sample.mills_censored, ratio, out=ratio)
        out[idx] = ratio
    return out
