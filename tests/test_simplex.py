import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potts_sl import (
    DataError,
    Distribution,
    InfiniteDivergenceError,
    LogitField,
    ProbField,
    ScribbleField,
    argmax_decode,
    entropy,
    kl,
    one_hot,
    softmax,
)
from potts_sl.simplex import (
    _row_dot,
    _row_max,
    _row_sum,
    one_hot_rows,
    softmax_backward,
    softmax_rows,
)
from potts_sl.data_terms import XentKind, xent_value
from helpers import interior_pair


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]).probs, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant_vector(self):
        for c in (-31.7, 0.0, 5.0, 1e4):
            np.testing.assert_allclose(
                softmax([c, c, c]).probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15
            )

    def test_hand_evaluated_pair(self):
        # e^{ln 2} / (e^{ln 2} + e^0) = 2/3
        np.testing.assert_allclose(
            softmax([math.log(2.0), 0.0]).probs, [2 / 3, 1 / 3], atol=1e-15
        )

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.standard_normal(5) * 10
            c = rng.standard_normal() * 100
            np.testing.assert_allclose(
                softmax(z).probs, softmax(z + c).probs, atol=1e-12
            )

    def test_overflow_safe(self):
        p = softmax([1000.0, 0.0]).probs
        assert np.all(np.isfinite(p)) and p[0] > 0.999

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            softmax([np.inf, 0.0])


class TestSoftmaxBackward:
    @staticmethod
    def instance(n, k, seed):
        rng = np.random.default_rng(seed)
        p = softmax_rows(3.0 * rng.standard_normal((n, k)))
        return rng, p, 10.0 * rng.standard_normal((n, k))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_rows_are_the_softmax_jacobian_times_g(self, n, k, seed):
        _, p, g = self.instance(n, k, seed)
        out = softmax_backward(p, g)
        for row, pi, gi in zip(out, p, g):
            np.testing.assert_allclose(row, (np.diag(pi) - np.outer(pi, pi)) @ gi,
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_exactly_zero_at_one_hot_rows(self, n, k, seed):
        # pinned (one-hot) pixels receive no logit update in the solver
        rng, _, g = self.instance(n, k, seed)
        p = one_hot_rows(rng.integers(1, k + 1, size=n), k)
        assert np.all(softmax_backward(p, g) == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_matches_central_differences(self, k, seed):
        # softmax_backward(softmax(z), g) is the gradient of g . softmax(z)
        rng, _, g = self.instance(3, k, seed)
        z = 3.0 * rng.standard_normal((3, k))
        out = softmax_backward(softmax_rows(z), g)
        h = 1e-6
        for i in range(3):
            for c in range(k):
                zp, zm = z[i].copy(), z[i].copy()
                zp[c] += h
                zm[c] -= h
                fd = (g[i] @ softmax_rows(zp[None])[0] - g[i] @ softmax_rows(zm[None])[0]) / (2 * h)
                assert abs(fd - out[i, c]) <= 1e-6


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def wide_rows(n, k, seed):
    """(n, k) floats over about 40 decades, both signs, with zeros of both
    signs."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, k)) * np.exp(rng.uniform(-46, 46, (n, k)))
    a[rng.uniform(size=(n, k)) < 0.1] = 0.0
    a[rng.uniform(size=(n, k)) < 0.1] = -0.0
    return a


class TestClassAxisHelpers:
    """The column-wise class-axis reductions against numpy's own."""

    @pytest.mark.parametrize("k", range(1, 22))
    def test_row_max_is_numpy_max_bit_for_bit(self, k):
        a = wide_rows(300, k, k)
        a[::7, k // 2] = np.nan
        a[1::11, 0] = -np.inf
        a[2::13] = -0.0
        assert np.array_equal(bits(_row_max(a)), bits(np.max(a, axis=1)))
        mask = a > 1.0
        assert np.array_equal(_row_max(mask), np.any(mask, axis=1))

    @pytest.mark.parametrize("k", range(1, 22))
    def test_row_sum_is_numpy_sum(self, k):
        a = wide_rows(300, k, 100 + k)
        ours, ref = _row_sum(a), np.sum(a, axis=1)
        if k <= 7:
            assert np.array_equal(bits(ours), bits(ref))
        else:
            # numpy sums pairwise from 8 items: both are within (K - 1) eps
            # sum |a| of the exact sum
            bound = k * np.finfo(float).eps * np.sum(np.abs(a), axis=1)
            assert np.all(np.abs(ours - ref) <= bound)

    @pytest.mark.parametrize("k", range(1, 22))
    def test_row_dot_is_numpy_einsum(self, k):
        a, b = wide_rows(300, k, 300 + k), wide_rows(300, k, 400 + k)
        cases = [(a, b), (a.reshape(20, 15, k), b.reshape(20, 15, k)), (a[:1], b[:1]),
                 (a[:1].reshape(1, 1, k), b[:1].reshape(1, 1, k))]
        # class-last views of (K, ...) planes, as the solver and potts pass them
        cases += [(np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T) for x, y in cases]
        cases += [(np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0))[:, 2:9, 3:], 0, -1),
                   np.moveaxis(np.ascontiguousarray(np.moveaxis(y, -1, 0))[:, 2:9, 3:], 0, -1))
                  for x, y in cases[1:2]]
        for x, y in cases:
            ours, ref = _row_dot(x, y), np.einsum("...k,...k->...", np.ascontiguousarray(x),
                                                  np.ascontiguousarray(y))
            assert ours.shape == ref.shape
            # the defined order, whatever the build: each lane adds its
            # classes in order to 0.0, then the even lane takes the odd one
            lanes = [np.zeros(ref.shape), np.zeros(ref.shape)]
            for j in range(k):
                lanes[j % 2] = lanes[j % 2] + x[..., j] * y[..., j]
            assert np.array_equal(bits(ours), bits(lanes[0] + lanes[1]))
            if k <= 7:
                # numpy's einsum loop on contiguous rows takes that order for
                # K < 8; checked on numpy 2.4, x86-64 with AVX-512. Another
                # numpy or SIMD width may order it otherwise.
                assert np.array_equal(bits(ours), bits(ref))
            else:
                bound = 1e-15 * np.einsum("...k,...k->...", np.abs(x), np.abs(y))
                assert np.all(np.abs(ours - ref) <= bound)

    @pytest.mark.parametrize("k", range(2, 22))
    def test_softmax_pair_matches_numpy_formulas(self, k):
        rng = np.random.default_rng(200 + k)
        z = 30.0 * rng.standard_normal((300, k))
        g = 10.0 * rng.standard_normal((300, k))
        ref = np.exp(z - z.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        p = softmax_rows(z)
        back = softmax_backward(p, g)
        back_ref = p * (g - np.sum(p * g, axis=1, keepdims=True))
        if k <= 7:
            assert np.array_equal(bits(p), bits(ref))
            assert np.array_equal(bits(back), bits(back_ref))
        else:
            eps = np.finfo(float).eps
            np.testing.assert_allclose(p, ref, rtol=2 * k * eps, atol=0)
            # the row sums differ by at most k eps sum |p g|, and g minus
            # them rounds within eps |g - sum p g|
            bound = k * eps * p * (np.abs(g) + np.sum(np.abs(p * g), axis=1, keepdims=True))
            assert np.all(np.abs(back - back_ref) <= bound)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log_k(self):
        assert abs(entropy([0.25] * 4) - math.log(4)) < 1e-12

    def test_direct_evaluation(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert abs(entropy([0.9, 0.1]) - expected) < 1e-12
        assert abs(expected - 0.325083) < 5e-7

    def test_decomposition_identity(self):
        # H(p, q) = H(p) + KL(p || q)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = interior_pair(rng, 4)
            lhs = xent_value(XentKind.CE, p, q)
            assert abs(lhs - (entropy(p) + kl(p, q))) < 1e-9

    def test_concavity_spot_check(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q = interior_pair(rng, 3)
            mid = entropy(0.5 * p + 0.5 * q)
            assert mid >= 0.5 * entropy(p) + 0.5 * entropy(q) - 1e-12


class TestKl:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, _ = interior_pair(rng, 4)
            assert abs(kl(p, p)) < 1e-14

    def test_one_hot_against_uniform_pair(self):
        assert abs(kl([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-12

    def test_unsupported_q_raises(self):
        with pytest.raises(InfiniteDivergenceError):
            kl([0.5, 0.5], [1.0, 0.0])


class TestOneHotDecode:
    def test_one_hot(self):
        np.testing.assert_array_equal(one_hot(2, 3).probs, [0.0, 1.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(DataError):
            one_hot(4, 3)
        with pytest.raises(DataError):
            one_hot(0, 3)

    def test_decode(self):
        field = ProbField(np.array([[[0.2, 0.5, 0.3]]]))
        np.testing.assert_array_equal(argmax_decode(field), [[2]])

    def test_decode_tie_goes_to_smallest_index(self):
        field = ProbField(np.array([[[0.5, 0.5]]]))
        np.testing.assert_array_equal(argmax_decode(field), [[1]])


class TestTypes:
    def test_distribution_renormalizes_within_tolerance(self):
        d = Distribution(np.array([0.5, 0.5 + 5e-7]))
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_distribution_rejects_garbage(self):
        with pytest.raises(DataError):
            Distribution(np.array([0.7, 0.7]))
        with pytest.raises(DataError):
            Distribution(np.array([-0.2, 1.2]))
        with pytest.raises(DataError):
            Distribution(np.array([1.0]))

    def test_probfield_keeps_bits(self):
        data = np.array([[[0.25, 0.75]]])
        field = ProbField(data)
        assert field.data[0, 0, 0] == 0.25 and field.data[0, 0, 1] == 0.75
        assert (field.height, field.width, field.classes) == (1, 1, 2)

    def test_probfield_rejects_bad_sums(self):
        with pytest.raises(DataError):
            ProbField(np.full((2, 2, 2), 0.6))

    def test_probfield_at(self):
        field = ProbField.uniform(2, 3, 4)
        assert field.at(1, 2).classes == 4

    def test_scribbles(self):
        s = ScribbleField(np.array([[0, 2], [1, 0]]))
        assert s.labeled_fraction() == 0.5
        assert s.max_class() == 2
        with pytest.raises(DataError):
            ScribbleField(np.array([[-1, 0]]))
        with pytest.raises(DataError):
            ScribbleField(np.array([[0.5, 1.0]]))

    def test_logitfield_rejects_nonfinite(self):
        with pytest.raises(DataError):
            LogitField(np.full((1, 1, 2), np.nan))
