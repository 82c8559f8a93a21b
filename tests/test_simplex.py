import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potts_sl import (
    DataError,
    Distribution,
    Image,
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
from potts_sl.errors import LOG_CLAMP
from potts_sl.simplex import (
    _row_dot,
    entropy_rows,
    one_hot_rows,
    softmax_backward,
    softmax_rows,
)
from potts_sl.data_terms import XentKind, xent_value
from potts_sl.trainer import PixelModel
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
        """(rng, p, g) with p and g (k, n) class planes."""
        rng = np.random.default_rng(seed)
        p = softmax_rows(3.0 * rng.standard_normal((k, n)))
        return rng, p, 10.0 * rng.standard_normal((k, n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_rows_are_the_softmax_jacobian_times_g(self, n, k, seed):
        _, p, g = self.instance(n, k, seed)
        out = softmax_backward(p, g)
        for col, pi, gi in zip(out.T, p.T, g.T):
            np.testing.assert_allclose(col, (np.diag(pi) - np.outer(pi, pi)) @ gi,
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=0), 0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_exactly_zero_at_one_hot_rows(self, n, k, seed):
        # pinned (one-hot) pixels receive no logit update in the solver
        rng, _, g = self.instance(n, k, seed)
        p = one_hot_rows(rng.integers(1, k + 1, size=n), k).T
        assert np.all(softmax_backward(p, g) == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_matches_central_differences(self, k, seed):
        # softmax_backward(softmax(z), g) is the gradient of g . softmax(z)
        rng, _, g = self.instance(3, k, seed)
        z = 3.0 * rng.standard_normal((k, 3))
        out = softmax_backward(softmax_rows(z), g)
        h = 1e-6
        for i in range(3):
            for c in range(k):
                zp, zm = z[:, i].copy(), z[:, i].copy()
                zp[c] += h
                zm[c] -= h
                fd = (g[:, i] @ softmax_rows(zp[:, None])[:, 0]
                      - g[:, i] @ softmax_rows(zm[:, None])[:, 0]) / (2 * h)
                assert abs(fd - out[c, i]) <= 1e-6


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
    """The class-axis primitives against numpy's own formulas."""

    @pytest.mark.parametrize("k", range(1, 22))
    def test_plane_max_is_numpy_row_max_bit_for_bit(self, k):
        # softmax_rows shifts by, and the data terms flag divergence with,
        # class-axis max and any over (K, N) planes; both keep the row
        # layout's result, NaN, infinities and signed zeros included
        a = wide_rows(300, k, k)
        a[::7, k // 2] = np.nan
        a[1::11, 0] = -np.inf
        a[2::13] = -0.0
        planes = np.ascontiguousarray(a.T)
        assert np.array_equal(bits(planes.max(axis=0)), bits(np.max(a, axis=1)))
        mask = a > 1.0
        assert np.array_equal(np.ascontiguousarray(mask.T).any(axis=0), np.any(mask, axis=1))

    @pytest.mark.parametrize("k", range(1, 22))
    def test_entropy_rows_sums_planes_in_class_order(self, k):
        rng = np.random.default_rng(100 + k)
        p = softmax_rows(30.0 * rng.standard_normal((k, 300)))
        p[:, ::9] = one_hot_rows(rng.integers(1, k + 1, size=p[:, ::9].shape[1]), k).T
        p[rng.uniform(size=p.shape) < 0.1] = 0.0
        terms = np.where(p > 0.0, p * np.log(np.maximum(p, LOG_CLAMP)), 0.0)
        total = terms[0]
        for row in terms[1:]:
            total = total + row
        assert np.array_equal(bits(entropy_rows(p)), bits(-total))
        # numpy's row layout adds in that order for K < 8 and pairwise
        # from K = 8; both are within (K - 1) eps sum |terms| of the exact sum
        ref = np.sum(np.ascontiguousarray(terms.T), axis=1)
        if k <= 7:
            assert np.array_equal(bits(total), bits(ref))
        else:
            bound = k * np.finfo(float).eps * np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(total - ref) <= bound)
        for col, h in zip(p.T[:20], entropy_rows(p)[:20]):
            assert abs(entropy(col) - h) <= 1e-12 * max(1.0, abs(h))

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
        # on (K, N) planes numpy reduces axis 0 by adding whole planes in
        # class order, so the pair is these formulas bit for bit at every K
        rng = np.random.default_rng(200 + k)
        z = 30.0 * rng.standard_normal((k, 300))
        g = 10.0 * rng.standard_normal((k, 300))
        ref = np.exp(z - z.max(axis=0))
        ref /= ref.sum(axis=0)
        p = softmax_rows(z)
        assert np.array_equal(bits(p), bits(ref))
        back_ref = p * (g - np.sum(p * g, axis=0))
        assert np.array_equal(bits(softmax_backward(p, g)), bits(back_ref))
        # the sum adds one plane at a time in class order, the order the
        # byte-identical outputs rest on
        total = p[0]
        for row in p[1:]:
            total = total + row
        assert np.array_equal(bits(p.sum(axis=0)), bits(total))


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
        assert np.count_nonzero(s.data > 0) == 2
        assert s.max_class() == 2
        with pytest.raises(DataError):
            ScribbleField(np.array([[-1, 0]]))
        with pytest.raises(DataError):
            ScribbleField(np.array([[0.5, 1.0]]))

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 7), st.integers(2, 21),
           st.sampled_from(["none", "some", "all"]), st.integers(0, 2**32 - 1))
    def test_partition_splits_every_pixel_once_in_row_major_order(self, h, w, k, marks, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(1, k + 1, size=(h, w))
        if marks != "all":
            data[rng.uniform(size=(h, w)) < (1.0 if marks == "none" else 0.5)] = 0
        scribbled, classes, free = ScribbleField(data).partition(h, w, k)
        for ids in (scribbled, free):
            assert ids.dtype == np.int64
            assert np.all(np.diff(ids) > 0)
        assert np.array_equal(np.sort(np.concatenate([scribbled, free])), np.arange(h * w))
        assert np.array_equal(scribbled, np.flatnonzero(data))
        assert np.array_equal(classes, data.ravel()[scribbled] - 1)
        assert np.all(data.ravel()[free] == 0)
        if marks == "none":
            assert scribbled.size == 0
        if marks == "all":
            assert free.size == 0

    def test_logitfield_rejects_nonfinite(self):
        with pytest.raises(DataError):
            LogitField(np.full((1, 1, 2), np.nan))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (2, 2, 1), (2, 2)])
    @pytest.mark.parametrize("field", [ProbField, LogitField])
    def test_class_fields_refuse_empty_or_short_shapes(self, field, shape):
        with pytest.raises(DataError, match=r"must be \(H, W, K>=2\)"):
            field(np.full(shape, 0.5))

    @pytest.mark.parametrize("field, data", [
        (Image, np.zeros((2, 3, 3))), (ScribbleField, np.zeros((2, 3), dtype=np.int64)),
        (ProbField, np.full((2, 3, 4), 0.25)), (LogitField, np.zeros((2, 3, 4))),
    ])
    def test_grids_share_their_shape(self, field, data):
        grid = field(data)
        assert (grid.height, grid.width, grid.npixels) == (2, 3, 6)
        if field in (ProbField, LogitField):
            assert grid.classes == 4 and grid.flat().shape == (6, 4)
            assert grid.planes().shape == (4, 6) and grid.planes().flags.c_contiguous

    @pytest.mark.parametrize("make", [
        lambda: Image(np.zeros((2, 3, 3))),
        lambda: Distribution(np.array([0.25, 0.75])),
        lambda: ProbField.uniform(2, 2, 2),
        lambda: LogitField(np.zeros((2, 2, 2))),
        lambda: ScribbleField(np.array([[0, 1], [2, 0]])),
        lambda: PixelModel.zeros(2),
    ], ids=["Image", "Distribution", "ProbField", "LogitField", "ScribbleField", "PixelModel"])
    def test_equality_is_identity(self, make):
        # the arrays are not compared, so == never raises
        value, copy = make(), make()
        assert value == value and not value != value
        assert value != copy and not value == copy
