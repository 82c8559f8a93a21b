import math

import numpy as np
import pytest

from potts_sl import (
    DataError,
    DivergentPointError,
    corrupted_target,
    is_divergent,
    xent_grad,
    xent_value,
)
from potts_sl.data_terms import XentKind, row_values
from potts_sl.errors import LOG_CLAMP
from potts_sl.oracles import finite_diff_check
from helpers import interior_pair, interior_point

ALL_KINDS = list(XentKind)


class TestValues:
    def test_ce_with_one_hot_target_is_nll(self):
        rng = np.random.default_rng(0)
        sigma = interior_point(rng, 3)
        for k in range(3):
            y = np.zeros(3)
            y[k] = 1.0
            assert abs(xent_value(XentKind.CE, y, sigma) + math.log(sigma[k])) < 1e-12

    def test_cce_uniform_pair(self):
        v = xent_value(XentKind.CCE, [0.5, 0.5], [0.5, 0.5])
        assert abs(v - math.log(2)) < 1e-12

    def test_rce_uniform_target_constant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sigma = interior_point(rng, 5)
            v = xent_value(XentKind.RCE, np.full(5, 0.2), sigma)
            assert abs(v - math.log(5)) < 1e-12

    def test_quad_self_is_zero(self):
        rng = np.random.default_rng(2)
        y = interior_point(rng, 4)
        assert xent_value(XentKind.QUAD, y, y) == 0.0

    def test_cce_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = interior_pair(rng, 4)
            assert abs(
                xent_value(XentKind.CCE, a, b) - xent_value(XentKind.CCE, b, a)
            ) < 1e-12

    def test_cce_equals_ce_for_one_hot_target(self):
        rng = np.random.default_rng(4)
        sigma = interior_point(rng, 3)
        y = np.array([0.0, 1.0, 0.0])
        assert abs(
            xent_value(XentKind.CCE, y, sigma) - xent_value(XentKind.CE, y, sigma)
        ) < 1e-12

    def test_divergence_tagged(self):
        assert is_divergent(xent_value(XentKind.CE, [1.0, 0.0], [0.0, 1.0]))
        assert is_divergent(xent_value(XentKind.RCE, [0.0, 1.0], [1.0, 0.0]))
        assert is_divergent(xent_value(XentKind.CCE, [1.0, 0.0], [0.0, 1.0]))


class TestUncertaintyBehavior:
    """A uniform target should not be mimicked by RCE/CCE, but is by CE."""

    def test_rce_cce_flat_in_sigma_for_uniform_target(self):
        rng = np.random.default_rng(5)
        k = 4
        u = np.full(k, 1.0 / k)
        for kind in (XentKind.RCE, XentKind.CCE):
            for _ in range(30):
                sigma = interior_point(rng, k)
                assert abs(xent_value(kind, u, sigma) - math.log(k)) < 1e-12
                _, gs = xent_grad(kind, u, sigma)
                tangent = gs - gs.mean()  # project onto the simplex tangent space
                assert np.max(np.abs(tangent)) < 1e-12

    def test_ce_minimized_at_uniform_sigma(self):
        u = np.full(3, 1.0 / 3.0)
        best, best_val = None, np.inf
        grid = np.linspace(0.02, 0.96, 48)
        for a in grid:
            for b in grid:
                c = 1.0 - a - b
                if c <= 0.02:
                    continue
                v = xent_value(XentKind.CE, u, np.array([a, b, c]))
                if v < best_val:
                    best, best_val = np.array([a, b, c]), v
        assert np.max(np.abs(best - u)) < 0.02


class TestGrads:
    def test_cce_sigma_gradient_closed_form(self):
        rng = np.random.default_rng(6)
        y, sigma = interior_pair(rng, 4)
        _, gs = xent_grad(XentKind.CCE, y, sigma)
        np.testing.assert_allclose(gs, -y / (sigma @ y), atol=1e-12)
        one_hot = np.zeros(4)
        one_hot[2] = 1.0
        _, gs = xent_grad(XentKind.CCE, one_hot, sigma)
        expected = np.zeros(4)
        expected[2] = -1.0 / sigma[2]
        np.testing.assert_allclose(gs, expected, atol=1e-12)

    def test_quad_gradient_closed_form(self):
        rng = np.random.default_rng(7)
        y, sigma = interior_pair(rng, 3)
        gy, gs = xent_grad(XentKind.QUAD, y, sigma)
        np.testing.assert_allclose(gy, 2 * (y - sigma), atol=1e-15)
        np.testing.assert_allclose(gs, -2 * (y - sigma), atol=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        k = 4
        for _ in range(100):
            y, sigma = interior_pair(rng, k)
            gy, gs = xent_grad(kind, y, sigma)
            f = lambda z: xent_value(kind, z[:k], z[k:])
            err = finite_diff_check(f, np.concatenate([gy, gs]), np.concatenate([y, sigma]))
            assert err < 1e-4

    def test_divergent_gradient_refused(self):
        with pytest.raises(DivergentPointError):
            xent_grad(XentKind.CCE, [1.0, 0.0], [0.0, 1.0])


class TestFusedKernel:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_values_mask_and_gradients(self, kind):
        rng = np.random.default_rng(9)
        k = 4
        # (k, 40) class planes whose first 3 pixels are orthogonal one-hots
        y = np.ascontiguousarray((0.85 * rng.dirichlet(np.ones(k), size=40) + 0.15 / k).T)
        sigma = np.ascontiguousarray((0.85 * rng.dirichlet(np.ones(k), size=40) + 0.15 / k).T)
        y[:, :3], sigma[:, :3] = np.eye(k)[:, :1], np.eye(k)[:, 1:2]
        v1, div1, (gy, gs) = row_values(kind, y, sigma)
        assert v1.shape == div1.shape == (40,)
        assert np.array_equal(div1[:3], np.full(3, kind is not XentKind.QUAD))
        assert not div1[3:].any()
        assert gy.shape == gs.shape == y.shape
        assert np.all(np.isfinite(gy)) and np.all(np.isfinite(gs))
        # the clamped loss is flat along clamped log arguments
        if kind is XentKind.CE:
            assert not gs[sigma <= LOG_CLAMP].any()
        if kind is XentKind.RCE:
            assert not gy[y <= LOG_CLAMP].any()
        if kind is XentKind.CCE:
            assert not gy[:, div1].any() and not gs[:, div1].any()

    def test_unknown_kind_rejected(self):
        y = np.full((3, 2), 1.0 / 3.0)
        with pytest.raises(DataError):
            row_values("nope", y, y)


class TestCorruptedTarget:
    def test_extreme_mixes(self):
        y = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(corrupted_target(y, 0.0).probs, y, atol=1e-15)
        np.testing.assert_allclose(corrupted_target(y, 1.0).probs, np.full(3, 1 / 3), atol=1e-15)

    def test_half_mix(self):
        np.testing.assert_allclose(
            corrupted_target(np.array([1.0, 0.0]), 0.5).probs, [0.75, 0.25], atol=1e-15
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            corrupted_target(np.array([1.0, 0.0]), 1.5)
        with pytest.raises(DataError):
            corrupted_target(np.array([0.6, 0.4]), 0.5)
