"""Tests for the Gaussian kernels and censored negative log-likelihood.

Expected values are produced by independent oracles: composite Simpson
quadrature of the density for tail probabilities, bisection for quantiles,
central finite differences for gradients, and the entry formulas that
`reference.py` writes out with no precomputed noise terms.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import reference_grad, reference_nll

from subspace_net.censored import (
    CENSORED_Z_CAP,
    CensoredSample,
    NoiseTerms,
    censored_nll_array,
    grad_mu_censored_nll_array,
)
from subspace_net.errors import SaturationWarning


def simpson_tail(z, upper=14.0, n=20001):
    """Quadrature oracle for P(Z > z): composite Simpson on [z, upper]."""
    xs = np.linspace(z, upper, n)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    h = (upper - z) / (n - 1)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def sample_of(y, sigma, n):
    """A sample of ``n`` entries with targets ``y`` and noise scales
    ``sigma``, each a scalar or a length-``n`` sequence."""
    return CensoredSample(np.broadcast_to(np.asarray(y, dtype=float), n),
                          NoiseTerms(np.broadcast_to(np.asarray(sigma, dtype=float), n)))


def log_phi(z):
    """``log Phi(z)`` as the censored branch computes it: the NLL of zero
    targets at ``mu = -z``, ``sigma = 1`` is ``-log Phi(z)``."""
    z = np.asarray(z, dtype=float)
    return -censored_nll_array(sample_of(0.0, 1.0, z.size), -z)


class TestLogStdNormalCdf:
    def test_at_zero(self):
        assert log_phi([0.0])[0] == pytest.approx(math.log(0.5), rel=1e-14)

    def test_against_quadrature(self):
        zs = [-8.0, -5.0, -3.0, -1.0, 0.0, 1.0, 4.0]
        expected = [math.log(1.0 - simpson_tail(z)) if z > 0 else
                    math.log(simpson_tail(-z)) for z in zs]
        np.testing.assert_allclose(log_phi(zs), expected, rtol=1e-9)

    def test_asymptotic_branch_continuity(self):
        # agrees with the direct erfc evaluation down to where erfc underflows
        zs = [-32.9, -33.1, -35.0, -37.0]
        direct = [math.log(0.5 * math.erfc(-z / math.sqrt(2))) for z in zs]
        np.testing.assert_allclose(log_phi(zs), direct, rtol=1e-11)

    def test_deep_tail_finite(self):
        vals = log_phi([-50.0, -100.0, -1000.0])
        assert np.isfinite(vals).all() and (vals < -1000.0).all()


class TestCensoredNll:
    def test_censored_at_zero_predictor(self):
        got = censored_nll_array(sample_of(0.0, 1.0, 1), np.zeros(1))[0]
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_residual_leaves_constant(self):
        got = censored_nll_array(sample_of(2.0, 1.0, 1), np.array([2.0]))[0]
        assert got == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_censored_against_quadrature(self):
        # y=0, mu=1.5, sigma=0.5: -log Phi(-3), Phi(-3) by the Simpson oracle
        got = censored_nll_array(sample_of(0.0, 0.5, 1), np.array([1.5]))[0]
        assert got == pytest.approx(-math.log(simpson_tail(3.0)), rel=1e-9)
        assert got == pytest.approx(6.6077, abs=5e-5)

    def test_uncensored_closed_form(self):
        # drawn entry by entry (y, mu, sigma), as a loop over entries would
        y, mu, sigma = np.random.default_rng(3).uniform(
            [0.1, -10, 0.1], [10, 10, 5], size=(100, 3)).T
        expected = ((y - mu) ** 2 / (2 * sigma ** 2) + np.log(sigma)
                    + 0.5 * math.log(2 * math.pi))
        np.testing.assert_allclose(censored_nll_array(sample_of(y, sigma, 100), mu),
                                   expected, rtol=1e-12)

    def test_censored_monotone_in_mu(self):
        vals = censored_nll_array(sample_of(0.0, 1.0, 401), np.linspace(-35, 35, 401))
        assert (np.diff(vals) >= 0).all()

    def test_stable_over_wide_ratio_range(self):
        sample, mu = sample_of(0.0, 1.0, 121), np.linspace(-30, 30, 121)
        for kernel in (censored_nll_array, grad_mu_censored_nll_array):
            assert np.isfinite(kernel(sample, mu)).all()

    def test_saturation_warns_never_nan(self):
        sample = CensoredSample(np.array([0.0]), NoiseTerms(np.array([1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaturationWarning):
                censored_nll_array(sample, np.array([CENSORED_Z_CAP * 10.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = censored_nll_array(sample, np.array([CENSORED_Z_CAP * 10.0]))
            assert np.isfinite(val).all()


def relative_fd_error(y, mu, sigma, h):
    """The gradient kernel's error relative to central differences of the
    NLL kernel, at every entry."""
    sample = sample_of(y, sigma, len(mu))
    grad = grad_mu_censored_nll_array(sample, mu)
    fd = (censored_nll_array(sample, mu + h) - censored_nll_array(sample, mu - h)) / (2 * h)
    return np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-300)


class TestGradMu:
    def test_uncensored_closed_form(self):
        got = grad_mu_censored_nll_array(sample_of(3.0, 1.0, 1), np.ones(1))[0]
        assert got == pytest.approx(-2.0, rel=1e-12)

    def test_censored_at_zero(self):
        expected = 2.0 / math.sqrt(2 * math.pi)
        got = grad_mu_censored_nll_array(sample_of(0.0, 1.0, 1), np.zeros(1))[0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.7978846, abs=1e-7)

    def test_matches_finite_differences(self):
        # acceptance-grade property: 1000 random entries, relative error < 1e-5
        rng = np.random.default_rng(11)
        y, mu, sigma = np.array([
            (0.0 if rng.random() < 0.5 else rng.uniform(1e-3, 10),
             rng.uniform(-10, 10), rng.uniform(0.1, 5)) for _ in range(1000)]).T
        err = relative_fd_error(y, mu, sigma, 1e-5 * np.maximum(1.0, np.abs(mu)))
        assert (err < 1e-5).all(), err.max()

    def test_deep_tail_matches_mills_series(self):
        # z = -mu/sigma far below zero: the inverse Mills ratio pdf(z)/Phi(z)
        # follows -z / (1 - 1/z^2 + 3/z^4 - 15/z^6), whose truncation error
        # (105/z^8) is negligible here
        sample = CensoredSample(np.array([0.0]), NoiseTerms(np.array([1.0])))
        for r in (1e3, 1e4, 1e6, 1e8):
            z = -r
            series = -z / (1 - 1 / z**2 + 3 / z**4 - 15 / z**6)
            got = grad_mu_censored_nll_array(sample, np.array([r]))[0]
            assert got == pytest.approx(series, rel=1e-12, abs=0.0), r

    @settings(max_examples=500)
    @given(sigma=st.floats(1e-2, 1e2), ratio=st.floats(-35.0, 35.0),
           censored=st.booleans(), y_ratio=st.floats(1e-3, 35.0))
    def test_matches_finite_differences_over_extreme_ratios(
            self, sigma, ratio, censored, y_ratio):
        # mu = ratio * sigma; an uncensored target sits at y = y_ratio * sigma,
        # kept off the residual's zero, where a relative error means nothing
        mu = ratio * sigma
        y = 0.0 if censored else y_ratio * sigma
        assume(censored or abs(y_ratio - ratio) > 0.1)
        err = relative_fd_error(y, np.array([mu]), sigma, 1e-5 * sigma)
        assert err[0] < 1e-5, (y, mu, sigma)


class TestArrayKernels:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        st.one_of(st.floats(-1e12, 1e12), st.just(math.nan)),
        st.floats(1e-2, 1e2)), min_size=1, max_size=40))
    def test_per_sample_path_is_bit_identical(self, entries):
        # training passes a whole sample to each kernel call; every entry must
        # come out exactly as a one-entry call on it would, and the call must
        # warn (once) exactly when some entry's own call warns
        y, mu, sigma = (np.array(col) for col in zip(*entries))
        sample = CensoredSample(y, NoiseTerms(sigma))
        for kernel in (censored_nll_array, grad_mu_censored_nll_array):
            with warnings.catch_warnings(record=True) as whole:
                warnings.simplefilter("always")
                got = kernel(sample, mu)
            expected, entry_warned = [], []
            for i in range(len(y)):
                with warnings.catch_warnings(record=True) as one:
                    warnings.simplefilter("always")
                    one_entry = CensoredSample(y[i:i + 1], NoiseTerms(sigma[i:i + 1]))
                    expected.append(kernel(one_entry, mu[i:i + 1]))
                entry_warned += one
            assert got.tobytes() == np.concatenate(expected).tobytes()
            assert len(whole) == (1 if entry_warned else 0)
            assert all(w.category is SaturationWarning for w in whole + entry_warned)
            assert {str(w.message) for w in whole} == {str(w.message) for w in entry_warned}


# a predictor: a plain value, NaN, or a multiple of its entry's sigma, which
# reaches the ill-conditioned tail of the censored branch and both sides of
# the cap
_MU = st.one_of(
    st.floats(-1e12, 1e12),
    st.just(math.nan),
    st.tuples(st.just("ratio"), st.floats(-40.0, 40.0)),
    st.tuples(st.just("ratio"), st.sampled_from(
        [s * CENSORED_Z_CAP * f for s in (-1.0, 1.0) for f in (1 - 1e-12, 1 + 1e-12)])))


_TINY = np.finfo(np.float64).tiny


class TestAgainstReferenceFormulas:
    @settings(max_examples=400)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), _MU, st.floats(1e-2, 1e2)),
        min_size=1, max_size=40))
    def test_kernels_match_reference(self, entries):
        y = np.array([e[0] for e in entries])
        sigma = np.array([e[2] for e in entries])
        mu = np.array([m[1] * s if isinstance(m, tuple) else m
                       for (_, m, s) in entries])
        # one noise-terms object shared by the sample, as in training
        sample = CensoredSample(y, NoiseTerms(sigma))
        for kernel, reference in ((censored_nll_array, reference_nll),
                                  (grad_mu_censored_nll_array, reference_grad)):
            with np.errstate(all="ignore"):  # sigma*erfcx may overflow
                expected, exceeded = reference(y, mu, sigma)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = kernel(sample, mu)
            # relative agreement means nothing below the smallest normal
            # number; there the kernel's sqrt(2/pi)/sigma over erfcx keeps a
            # subnormal gradient that sigma*erfcx overflows to 0 above
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=_TINY)
            assert [w.category for w in caught] == (
                [SaturationWarning] if exceeded else [])

    @pytest.mark.parametrize("kernel", [censored_nll_array, grad_mu_censored_nll_array])
    @pytest.mark.parametrize("factor,warns", [(1 - 1e-12, False), (1 + 1e-12, True)])
    def test_warns_exactly_beyond_the_cap(self, kernel, factor, warns):
        sigma = np.array([0.5, 3.0, 70.0, 2.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        for sign in (-1.0, 1.0):
            # the uncensored entry is far beyond the cap: only censored ones count
            mu = sigma * CENSORED_Z_CAP * np.array([0.5, sign * factor, 9.0, math.nan])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kernel(CensoredSample(y, NoiseTerms(sigma)), mu)
            assert [w.category for w in caught] == ([SaturationWarning] if warns else [])
