"""Tests for the evaluation metrics against independent scalar-loop oracles."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_net.errors import DegenerateInputError, DimensionError, InvalidArgumentError
from subspace_net.metrics import (
    aligned_subspace_difference,
    anmse,
    mutual_coherence,
    subspace_difference,
    weight_correlations,
)


def frobenius_loop(m):
    total = 0.0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            total += m[i, j] ** 2
    return math.sqrt(total)


def relative_difference_decimal(reference, candidate):
    """Oracle: ``||reference - candidate||_F / ||reference||_F`` in 50-digit
    decimal arithmetic, whose exponent range holds every square of a float."""
    with localcontext() as ctx:
        ctx.prec = 50
        ref = [Decimal(float(x)) for x in np.ravel(reference)]
        cand = [Decimal(float(x)) for x in np.ravel(candidate)]
        diff = sum((a - b) ** 2 for a, b in zip(ref, cand))
        return float(diff.sqrt() / sum(a * a for a in ref).sqrt())


def signed_log_uniform(rng, shape):
    """Entries of magnitude 2**-8 to 2**8 with random signs: times any
    2**k with |k| <= 1000 they stay normal floats."""
    return rng.choice([-1.0, 1.0], shape) * np.exp2(rng.uniform(-8, 8, shape))


def lstsq_residual(reference, candidate):
    """Oracle: the best column remix of one candidate by least squares,
    with lstsq's default cutoff for small singular values."""
    mix, *_ = np.linalg.lstsq(candidate, reference, rcond=None)
    return np.linalg.norm(reference - candidate @ mix) / np.linalg.norm(reference)


def conditioned(rng, t, r, cond):
    """A t x r matrix with singular values spread geometrically from 1 to
    1/cond, times a random scale."""
    left, _ = np.linalg.qr(rng.standard_normal((t, r)))
    right, _ = np.linalg.qr(rng.standard_normal((r, r)))
    s = np.geomspace(1.0, 1.0 / cond, r) * 10.0 ** rng.uniform(-3, 3)
    return (left * s) @ right.T


class TestSubspaceDifference:
    def test_identical(self):
        u = np.random.default_rng(0).standard_normal((6, 3))
        assert subspace_difference(u, u) == 0.0

    def test_doubled(self):
        u = np.random.default_rng(1).standard_normal((6, 3))
        assert subspace_difference(u, 2 * u) == pytest.approx(1.0, rel=1e-12)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            expected = frobenius_loop(a - b) / frobenius_loop(a)
            assert subspace_difference(a, b) == pytest.approx(expected, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateInputError):
            subspace_difference(np.zeros((3, 2)), np.ones((3, 2)))

    def test_huge_finite_candidate_stays_finite(self):
        # ||r - c r|| / ||r|| = c - 1 exactly, although the sum of squares of
        # the difference overflows; the aligned metric is finite on it too
        r = np.random.default_rng(4).standard_normal((6, 2))
        with np.errstate(all="raise"):
            got = subspace_difference(r, 1e300 * r)
        assert got == pytest.approx(1e300 - 1.0, rel=1e-12)
        assert np.isfinite(aligned_subspace_difference(r, 1e300 * r))
        # the difference itself overflows here; the quotient does not
        got = subspace_difference(-np.ones((6, 2)), np.full((6, 2), 1.7e308))
        assert got == pytest.approx(1.7e308, rel=1e-12)
        # the reference's own sum of squares overflows
        got = subspace_difference(1e200 * r, 1e200 * r + 1.0)
        assert got == pytest.approx(math.sqrt(12) / (1e200 * frobenius_loop(r)), rel=1e-12)

    def test_stack_entries_in_range_keep_the_plain_norm(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal((6, 2))
        stack = rng.standard_normal((3, 6, 2))
        stack[1] *= 1e300
        got = subspace_difference(ref, stack)
        plain = np.linalg.norm(ref - stack[[0, 2]], axis=(1, 2)) / np.linalg.norm(ref)
        assert got[[0, 2]].tolist() == plain.tolist()
        scale = np.abs(stack[1]).max()
        want = scale * frobenius_loop(ref / scale - stack[1] / scale) / frobenius_loop(ref)
        assert got[1] == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            subspace_difference(np.ones((3, 2)), np.ones((2, 3)))

    def test_fragile_under_column_remix(self):
        # remixing candidate columns changes the raw difference arbitrarily,
        # while the aligned variant is invariant
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((20, 5))
        cand = ref.copy()
        mix = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        raw = subspace_difference(ref, cand @ mix)
        assert raw > 0.5
        assert aligned_subspace_difference(ref, cand @ mix) == pytest.approx(0.0, abs=1e-9)


class TestAlignedSubspaceDifference:
    def test_orthogonal_complement(self):
        # candidate spanning only 1 of 2 reference directions recovers half the energy
        ref = np.eye(4)[:, :2]
        cand = np.eye(4)[:, :1]
        assert aligned_subspace_difference(ref, cand) == pytest.approx(
            math.sqrt(0.5), rel=1e-12)

    def test_matches_projection_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ref = rng.standard_normal((12, 4))
            cand = rng.standard_normal((12, 4))
            q, _ = np.linalg.qr(cand)
            resid = ref - q @ (q.T @ ref)
            expected = np.linalg.norm(resid) / np.linalg.norm(ref)
            assert aligned_subspace_difference(ref, cand) == pytest.approx(
                expected, rel=1e-9)


class TestStackedCandidates:
    """Both subspace metrics take a stack of candidates, one value each."""

    @settings(max_examples=300)
    @given(t=st.integers(1, 30), r_frac=st.floats(0.0, 1.0), m=st.integers(1, 8),
           log_cond=st.floats(0.0, 6.0), n=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_candidate_oracles(self, t, r_frac, m, log_cond, n, seed):
        # Householder QR and lstsq's SVD are both backward stable, so they
        # differ by about eps * cond: 1e-12 where that is smaller, a bound
        # scaled by cond above. Values are fractions of ||reference||, so
        # the same bound also applies absolutely (a candidate with r = t
        # spans everything and both values are rounding noise).
        rng = np.random.default_rng(seed)
        r = 1 + int(r_frac * (t - 1))
        cond = 10.0 ** log_cond
        ref = rng.standard_normal((t, m))
        stack = np.stack([conditioned(rng, t, r, cond) for _ in range(n)])
        raw_ref = rng.standard_normal((t, r))
        tol = max(1e-12, 20 * np.finfo(float).eps * cond)
        aligned = aligned_subspace_difference(ref, stack)
        raw = subspace_difference(raw_ref, stack)
        assert aligned.shape == raw.shape == (n,)
        for k in range(n):
            np.testing.assert_allclose(aligned[k], lstsq_residual(ref, stack[k]),
                                       rtol=tol, atol=tol)
            np.testing.assert_allclose(
                raw[k], frobenius_loop(raw_ref - stack[k]) / frobenius_loop(raw_ref),
                rtol=1e-12)

    @settings(max_examples=200)
    @given(t=st.integers(2, 30), r=st.integers(2, 12), m=st.integers(1, 6),
           n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient_candidates_follow_lstsq(self, t, r, m, n, seed):
        # a QR of a rank-deficient candidate spans directions the candidate
        # does not; those candidates must take lstsq's cutoff instead
        rng = np.random.default_rng(seed)
        r = min(r, t)
        stack = []
        for _ in range(n):
            rank = int(rng.integers(0, r))
            cand = rng.standard_normal((t, rank)) @ rng.standard_normal((rank, r))
            stack.append(cand * 10.0 ** rng.uniform(-3, 3))
        stack.append(rng.standard_normal((t, r)))  # one full-rank neighbour
        stack = np.stack(stack)
        ref = rng.standard_normal((t, m))
        got = aligned_subspace_difference(ref, stack)
        for k in range(n):
            np.testing.assert_allclose(got[k], lstsq_residual(ref, stack[k]),
                                       rtol=1e-12, atol=1e-15)
        tol = max(1e-12, 20 * np.finfo(float).eps * np.linalg.cond(stack[n]))
        np.testing.assert_allclose(got[n], lstsq_residual(ref, stack[n]), rtol=tol, atol=tol)

    def test_duplicated_and_zero_columns(self):
        ref = np.eye(5)[:, :3] + 0.1
        base = np.random.default_rng(12).standard_normal((5, 2))
        stack = np.stack([base[:, [0, 0, 1]], np.column_stack([base, np.zeros(5)])])
        got = aligned_subspace_difference(ref, stack)
        want = [lstsq_residual(ref, c) for c in stack]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got[0] == pytest.approx(lstsq_residual(ref, base), rel=1e-12)

    def test_stack_of_one_equals_the_matrix_call(self):
        rng = np.random.default_rng(13)
        ref = rng.standard_normal((9, 3))
        cand = rng.standard_normal((9, 3))
        for metric in (aligned_subspace_difference, subspace_difference):
            single = metric(ref, cand)
            assert type(single) is float
            assert metric(ref, cand[None]).tolist() == [single]

    def test_errors_for_stacks(self):
        stack = np.ones((2, 3, 2))
        for metric in (aligned_subspace_difference, subspace_difference):
            with pytest.raises(DegenerateInputError):
                metric(np.zeros((3, 2)), stack)
            with pytest.raises(DimensionError):
                metric(np.ones((4, 2)), stack)
            with pytest.raises(DimensionError):
                metric(np.ones((3, 2)), np.ones((1, 2, 3, 2)))
        with pytest.raises(DimensionError):
            subspace_difference(np.ones((3, 2)), np.ones((2, 3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_candidate_rejected(self, bad):
        # lstsq does not return on an infinite entry
        stack = np.ones((2, 3, 2))
        stack[1, 0, 0] = bad
        for metric in (aligned_subspace_difference, subspace_difference):
            with pytest.raises(InvalidArgumentError, match="candidate must be finite"):
                metric(np.eye(3)[:, :2], stack)


class TestMutualCoherence:
    def test_self_pairs_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((8, 3)))
        summary = mutual_coherence(q, q)
        assert summary.max_coherence == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_spans(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 3:5]
        summary = mutual_coherence(a, b)
        assert summary.max_coherence == 0.0
        assert summary.mean_coherence == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 2))
        vals = []
        for i in range(3):
            for j in range(2):
                num = abs(float(a[:, i] @ b[:, j]))
                den = math.sqrt(float(a[:, i] @ a[:, i])) * math.sqrt(float(b[:, j] @ b[:, j]))
                vals.append(num / den)
        summary = mutual_coherence(a, b)
        assert summary.max_coherence == pytest.approx(max(vals), rel=1e-12)
        assert summary.mean_coherence == pytest.approx(np.mean(vals), rel=1e-12)

    def test_bounds_property(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.standard_normal((5, rng.integers(1, 4)))
            b = rng.standard_normal((5, rng.integers(1, 4)))
            summary = mutual_coherence(a, b)
            assert 0.0 <= summary.mean_coherence <= summary.max_coherence <= 1.0

    def test_zero_column_rejected(self):
        a = np.ones((4, 2))
        a[:, 1] = 0.0
        with pytest.raises(DegenerateInputError, match="index \\[1\\]"):
            mutual_coherence(a, np.ones((4, 1)))

    def test_orthogonal_remix_leaves_max_nearly_invariant(self):
        # column-span invariance: an orthogonal remix changes max coherence
        # by rounding only, while the raw subspace difference moves freely
        rng = np.random.default_rng(9)
        ref = rng.standard_normal((30, 5))
        u = rng.standard_normal((30, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = mutual_coherence(u, ref)
        mixed = mutual_coherence(u @ q, ref)
        # orthogonal remix of the candidate changes each column but not its span;
        # the max over pairs can move a little, the claim is < 5% movement
        assert abs(mixed.max_coherence - base.max_coherence) < 0.05 * base.max_coherence
        assert abs(subspace_difference(ref, u) - subspace_difference(ref, u @ q)) > 0.0


class TestWeightCorrelations:
    def test_identical(self):
        w = np.random.default_rng(10).standard_normal((4, 6))
        np.testing.assert_allclose(weight_correlations(w, w), 1.0, atol=1e-12)

    def test_negated(self):
        w = np.random.default_rng(11).standard_normal((4, 6))
        np.testing.assert_allclose(weight_correlations(-w, w), -1.0, atol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 9))
        b = rng.standard_normal((5, 9))
        got = weight_correlations(a, b)
        for t in range(5):
            xa, xb = a[t], b[t]
            ma, mb = xa.mean(), xb.mean()
            num = float(np.sum((xa - ma) * (xb - mb)))
            den = math.sqrt(float(np.sum((xa - ma) ** 2))) * \
                math.sqrt(float(np.sum((xb - mb) ** 2)))
            assert got[t] == pytest.approx(num / den, rel=1e-10)

    def test_zero_variance_row_rejected(self):
        a = np.random.default_rng(13).standard_normal((3, 5))
        a[1] = 2.0
        with pytest.raises(DegenerateInputError, match="index \\[1\\]"):
            weight_correlations(a, np.random.default_rng(14).standard_normal((3, 5)))


class TestAnmse:
    def test_perfect_predictions(self):
        y = np.random.default_rng(15).standard_normal((20, 3)) ** 2
        assert anmse(y, y) == 0.0

    def test_predicting_the_mean_scores_one(self):
        y = np.random.default_rng(16).standard_normal((50, 4)) ** 2
        pred = np.tile(y.mean(axis=0), (50, 1))
        assert anmse(y, pred) == pytest.approx(1.0, rel=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((30, 5))
        p = rng.standard_normal((30, 5))
        per_task = []
        for t in range(5):
            sse = sum((y[i, t] - p[i, t]) ** 2 for i in range(30))
            mean_t = sum(y[i, t] for i in range(30)) / 30
            sst = sum((y[i, t] - mean_t) ** 2 for i in range(30))
            per_task.append(sse / sst)
        assert anmse(y, p) == pytest.approx(float(np.mean(per_task)), rel=1e-12)

    def test_sample_permutation_invariant(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal((40, 3))
        p = rng.standard_normal((40, 3))
        perm = rng.permutation(40)
        assert anmse(y, p) == pytest.approx(anmse(y[perm], p[perm]), rel=1e-12)

    def test_zero_variance_column_rejected(self):
        y = np.ones((10, 2))
        y[:, 0] = np.arange(10)
        with pytest.raises(DegenerateInputError, match="index \\[1\\]"):
            anmse(y, y * 0.5)


class TestPowerOfTwoScaling:
    """Every norm is taken of inputs scaled by a power of two, which is exact,
    so no metric overflows, underflows or moves under such a scaling."""

    @settings(max_examples=300)
    @given(k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
    def test_every_metric_is_exact_under_power_of_two_scaling(self, k, seed):
        # full-rank candidates, so the aligned metric takes its QR path
        rng = np.random.default_rng(seed)
        ref, a, b = (signed_log_uniform(rng, (8, r)) for r in (3, 3, 2))
        stack = signed_log_uniform(rng, (2, 8, 3))
        y, p = signed_log_uniform(rng, (10, 3)), signed_log_uniform(rng, (10, 3))
        cases = [(subspace_difference, (ref, stack)),
                 (aligned_subspace_difference, (ref, stack)),
                 (mutual_coherence, (a, b)),
                 (weight_correlations, (a.T, stack[0].T)),
                 (anmse, (y, p))]
        for metric, args in cases:
            want = metric(*args)
            got = metric(*(np.ldexp(x, k) for x in args))
            np.testing.assert_array_equal(got, want, err_msg=metric.__name__)

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_rank_deficient_candidate_is_exact_under_power_of_two_scaling(self, k):
        # a repeated column sends the candidate to the lstsq branch
        rng = np.random.default_rng(0)
        ref = signed_log_uniform(rng, (8, 3))
        stack = signed_log_uniform(rng, (2, 8, 3))
        stack[:, :, 2] = stack[:, :, 0]
        want = aligned_subspace_difference(ref, stack)
        np.testing.assert_array_equal(aligned_subspace_difference(ref, np.ldexp(stack, k)), want)

    def test_candidate_near_the_overflow_edge(self):
        # the QR of the unscaled stack overflows to nan
        rng = np.random.default_rng(1)
        ref, stack = rng.standard_normal((8, 3)), rng.standard_normal((2, 8, 3))
        np.testing.assert_allclose(aligned_subspace_difference(ref, 4.25e307 * stack),
                                   [lstsq_residual(ref, c) for c in stack], rtol=1e-12)

    def test_subnormal_candidate_equals_its_exact_upscale(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((8, 3))
        tiny = np.ldexp(rng.standard_normal((2, 8, 3)), -1060)
        upscaled = np.ldexp(tiny, 1060)
        got = aligned_subspace_difference(ref, tiny)
        np.testing.assert_array_equal(got, aligned_subspace_difference(ref, upscaled))
        np.testing.assert_allclose(got, [lstsq_residual(ref, c) for c in upscaled], rtol=1e-12)

    def test_tiny_reference_is_nonzero(self):
        # every square of a 1e-300 entry underflows to 0
        r = np.random.default_rng(20).standard_normal((6, 2))
        assert subspace_difference(1e-300 * r, r) == pytest.approx(
            relative_difference_decimal(1e-300 * r, r), rel=1e-12)
        assert aligned_subspace_difference(1e-300 * r, r) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-157, 1e-160, 1e-162])
    def test_reference_whose_squares_are_subnormal(self, scale):
        rng = np.random.default_rng(21)
        ref = scale * rng.standard_normal((6, 2))
        cand = ref + 0.3 * scale * rng.standard_normal((3, 6, 2))
        got = subspace_difference(ref, cand)
        for k in range(3):
            assert got[k] == pytest.approx(
                relative_difference_decimal(ref, cand[k]), rel=1e-12)
        np.testing.assert_allclose(aligned_subspace_difference(ref, cand),
                                   [lstsq_residual(ref / scale, c / scale) for c in cand],
                                   rtol=1e-12)

    def test_huge_reference_in_the_aligned_metric(self):
        # the reference's sum of squares overflows; its columns lie in the
        # candidate's span
        r = np.random.default_rng(22).standard_normal((6, 2))
        assert aligned_subspace_difference(1e200 * r, r[:, ::-1]) == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_coherence_of_a_scaled_copy(self, scale):
        r = np.random.default_rng(23).standard_normal((6, 2))
        summary = mutual_coherence(scale * r, r)
        assert summary.max_coherence == pytest.approx(1.0, abs=1e-12)
        assert summary.mean_coherence == pytest.approx(
            mutual_coherence(r, r).mean_coherence, abs=1e-12)

    def test_correlation_of_a_scaled_copy(self):
        w = np.random.default_rng(24).standard_normal((3, 5))
        np.testing.assert_allclose(weight_correlations(1e200 * w, w), 1.0, rtol=0, atol=1e-12)

    def test_anmse_of_huge_targets(self):
        y = np.random.default_rng(25).standard_normal((10, 3)) ** 2
        assert anmse(1e200 * y, 0.9e200 * y) == pytest.approx(anmse(y, 0.9 * y), rel=1e-12)
