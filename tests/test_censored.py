"""Tests for the Gaussian kernels and censored negative log-likelihood.

Expected values are produced by independent oracles: composite Simpson
quadrature of the density for tail probabilities, bisection for quantiles,
and central finite differences for gradients.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subspace_net.censored import (
    CENSORED_Z_CAP,
    CensoredNllTerm,
    CensoredSample,
    censored_nll,
    censored_nll_array,
    grad_mu_censored_nll,
    grad_mu_censored_nll_array,
    log_std_normal_cdf,
)
from subspace_net.errors import InvalidArgumentError, SaturationWarning


def simpson_tail(z, upper=14.0, n=20001):
    """Quadrature oracle for P(Z > z): composite Simpson on [z, upper]."""
    xs = np.linspace(z, upper, n)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    h = (upper - z) / (n - 1)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


class TestLogStdNormalCdf:
    def test_at_zero(self):
        assert log_std_normal_cdf(0.0) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_against_quadrature(self):
        for z in (-8.0, -5.0, -3.0, -1.0, 0.0, 1.0, 4.0):
            expected = math.log(1.0 - simpson_tail(z)) if z > 0 else \
                math.log(simpson_tail(-z))
            assert log_std_normal_cdf(z) == pytest.approx(expected, rel=1e-9)

    def test_asymptotic_branch_continuity(self):
        # agrees with the direct erfc evaluation down to where erfc underflows
        for z in (-32.9, -33.1, -35.0, -37.0):
            direct = math.log(0.5 * math.erfc(-z / math.sqrt(2)))
            assert log_std_normal_cdf(z) == pytest.approx(direct, rel=1e-11)

    def test_deep_tail_finite(self):
        for z in (-50.0, -100.0, -1000.0):
            val = log_std_normal_cdf(z)
            assert math.isfinite(val)
            assert val < -1000.0


class TestCensoredNllTerm:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidArgumentError):
            CensoredNllTerm(y=-0.5, mu=0.0, sigma=1.0)
        with pytest.raises(InvalidArgumentError):
            CensoredNllTerm(y=1.0, mu=0.0, sigma=0.0)
        with pytest.raises(InvalidArgumentError):
            CensoredNllTerm(y=1.0, mu=math.inf, sigma=1.0)


class TestCensoredNll:
    def test_censored_at_zero_predictor(self):
        assert censored_nll(CensoredNllTerm(0.0, 0.0, 1.0)) == pytest.approx(
            math.log(2.0), rel=1e-12)

    def test_zero_residual_leaves_constant(self):
        assert censored_nll(CensoredNllTerm(2.0, 2.0, 1.0)) == pytest.approx(
            0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_censored_against_quadrature(self):
        # y=0, mu=1.5, sigma=0.5: -log Phi(-3), Phi(-3) by the Simpson oracle
        phi_m3 = simpson_tail(3.0)
        expected = -math.log(phi_m3)
        got = censored_nll(CensoredNllTerm(0.0, 1.5, 0.5))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(6.6077, abs=5e-5)

    def test_uncensored_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.uniform(0.1, 10)
            mu = rng.uniform(-10, 10)
            sigma = rng.uniform(0.1, 5)
            expected = ((y - mu) ** 2 / (2 * sigma ** 2) + math.log(sigma)
                        + 0.5 * math.log(2 * math.pi))
            assert censored_nll(CensoredNllTerm(y, mu, sigma)) == pytest.approx(
                expected, rel=1e-12)

    def test_censored_monotone_in_mu(self):
        mus = np.linspace(-35, 35, 401)
        vals = [censored_nll(CensoredNllTerm(0.0, m, 1.0)) for m in mus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_stable_over_wide_ratio_range(self):
        for mu_over_sigma in np.linspace(-30, 30, 121):
            term = CensoredNllTerm(0.0, float(mu_over_sigma), 1.0)
            assert math.isfinite(censored_nll(term))
            assert math.isfinite(grad_mu_censored_nll(term))

    def test_saturation_warns_never_nan(self):
        sample = CensoredSample(np.array([0.0]), np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaturationWarning):
                censored_nll_array(sample, np.array([CENSORED_Z_CAP * 10.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = censored_nll_array(sample, np.array([CENSORED_Z_CAP * 10.0]))
            assert np.isfinite(val).all()


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestGradMu:
    def test_uncensored_closed_form(self):
        assert grad_mu_censored_nll(CensoredNllTerm(3.0, 1.0, 1.0)) == pytest.approx(
            -2.0, rel=1e-12)

    def test_censored_at_zero(self):
        expected = 2.0 / math.sqrt(2 * math.pi)
        assert grad_mu_censored_nll(CensoredNllTerm(0.0, 0.0, 1.0)) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.7978846, abs=1e-7)

    def test_matches_finite_differences(self):
        # acceptance-grade property: 1000 random terms, relative error < 1e-5
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            y = 0.0 if rng.random() < 0.5 else rng.uniform(1e-3, 10)
            mu = rng.uniform(-10, 10)
            sigma = rng.uniform(0.1, 5)
            term = CensoredNllTerm(y, mu, sigma)
            grad = grad_mu_censored_nll(term)
            h = 1e-5 * max(1.0, abs(mu))
            fd = central_diff(
                lambda m: censored_nll(CensoredNllTerm(y, m, sigma)), mu, h)
            denom = max(abs(grad), abs(fd), 1e-12)
            assert abs(grad - fd) / denom < 1e-5, (y, mu, sigma, grad, fd)
            checked += 1

    def test_deep_tail_matches_mills_series(self):
        # z = -mu/sigma far below zero: the inverse Mills ratio pdf(z)/Phi(z)
        # follows -z / (1 - 1/z^2 + 3/z^4 - 15/z^6), whose truncation error
        # (105/z^8) is negligible here
        for r in (1e3, 1e4, 1e6, 1e8):
            z = -r
            series = -z / (1 - 1 / z**2 + 3 / z**4 - 15 / z**6)
            got = grad_mu_censored_nll_array(
                CensoredSample(np.array([0.0]), np.array([1.0])), np.array([r]))[0]
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
        grad = grad_mu_censored_nll(CensoredNllTerm(y, mu, sigma))
        fd = central_diff(
            lambda m: censored_nll(CensoredNllTerm(y, m, sigma)), mu, 1e-5 * sigma)
        denom = max(abs(grad), abs(fd), 1e-300)
        assert abs(grad - fd) / denom < 1e-5, (y, mu, sigma, grad, fd)


class TestArrayKernels:
    def test_match_scalar_loop(self):
        rng = np.random.default_rng(5)
        y = np.where(rng.random(500) < 0.4, 0.0, rng.uniform(0.01, 10, 500))
        mu = rng.uniform(-12, 12, 500)
        sigma = rng.uniform(0.1, 5, 500)
        sample = CensoredSample(y, sigma)
        nll_vec = censored_nll_array(sample, mu)
        grad_vec = grad_mu_censored_nll_array(sample, mu)
        for i in range(500):
            term = CensoredNllTerm(y[i], mu[i], sigma[i])
            assert nll_vec[i] == pytest.approx(censored_nll(term), rel=1e-14)
            assert grad_vec[i] == pytest.approx(grad_mu_censored_nll(term), rel=1e-14)

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
        sample = CensoredSample(y, sigma)
        for kernel in (censored_nll_array, grad_mu_censored_nll_array):
            with warnings.catch_warnings(record=True) as whole:
                warnings.simplefilter("always")
                got = kernel(sample, mu)
            expected, entry_warned = [], []
            for i in range(len(y)):
                with warnings.catch_warnings(record=True) as one:
                    warnings.simplefilter("always")
                    expected.append(kernel(
                        CensoredSample(y[i:i + 1], sigma[i:i + 1]), mu[i:i + 1]))
                entry_warned += one
            assert got.tobytes() == np.concatenate(expected).tobytes()
            assert len(whole) == (1 if entry_warned else 0)
            assert all(w.category is SaturationWarning for w in whole + entry_warned)
            assert {str(w.message) for w in whole} == {str(w.message) for w in entry_warned}
