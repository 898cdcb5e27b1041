"""Independent oracles for the censored kernels and the training steps.

The censored NLL and its gradient are written out entry formula by entry
formula: a fresh array per operation, noise terms computed on the spot, and
no code shared with `subspace_net.censored`. Tests compare the kernels, and
the sketch and refinement steps built on them, with these formulas and with
central finite differences.
"""

import math

import numpy as np
from scipy.special import erfcx, log_ndtr

from subspace_net.censored import CENSORED_Z_CAP


def reference_ratio(mu, sigma):
    """``mu/sigma`` clamped to the cap, and whether some entry exceeded it."""
    ratio = mu / sigma
    exceeded = bool(np.count_nonzero(np.abs(ratio) > CENSORED_Z_CAP))
    return np.clip(ratio, -CENSORED_Z_CAP, CENSORED_Z_CAP), exceeded


def reference_nll(y, mu, sigma):
    """The censored NLL of every entry, and whether some censored entry
    exceeded the cap."""
    resid = (y - mu) / sigma
    out = 0.5 * resid * resid + np.log(sigma) + 0.5 * math.log(2.0 * math.pi)
    c = y <= 0
    ratio, exceeded = reference_ratio(mu[c], sigma[c])
    out[c] = -log_ndtr(-ratio)
    return out, exceeded


def reference_grad(y, mu, sigma):
    """d(reference_nll)/d(mu), written the same way."""
    out = -(y - mu) / (sigma * sigma)
    c = y <= 0
    ratio, exceeded = reference_ratio(mu[c], sigma[c])
    out[c] = math.sqrt(2.0 / math.pi) / (sigma[c] * erfcx(ratio / math.sqrt(2.0)))
    return out, exceeded


def numeric_gradient(f, a, h):
    """Central differences of the scalar function ``f`` at every entry of
    the array ``a``."""
    grad = np.empty_like(a)
    for idx in np.ndindex(a.shape):
        up, dn = a.copy(), a.copy()
        up[idx] += h
        dn[idx] -= h
        grad[idx] = (f(up) - f(dn)) / (2 * h)
    return grad
