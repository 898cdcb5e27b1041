"""Tests for the evaluation metrics against independent scalar-loop oracles."""

import math

import numpy as np
import pytest

from subspace_net.errors import DegenerateInputError, DimensionError
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
