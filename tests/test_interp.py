"""Tests for barycentric Lagrange interpolation on Gauss node sets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_barycentric_basis

from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.interp import barycentric_basis, eval2d_grid


def make_rule(alpha=0.0, length=4.0, degree=8):
    return sgg_rule(BasisSpec(alpha=alpha, length=length, degree=degree))


class TestBarycentricBasis:
    def test_two_node_midpoint(self):
        """Symmetric two-node set: cardinal values at the midpoint are 1/2."""
        rule = make_rule(degree=1, length=2.0)
        basis = barycentric_basis(rule.nodes, rule.bary_weights, np.array([1.0]), 2.0)
        np.testing.assert_allclose(basis, [[0.5, 0.5]], atol=1e-14)

    def test_unit_rows_at_nodes(self):
        rule = make_rule(degree=6)
        basis = barycentric_basis(rule.nodes, rule.bary_weights, rule.nodes, 4.0)
        np.testing.assert_array_equal(basis, np.eye(7))

    def test_rows_sum_to_one(self, rng):
        rule = make_rule(alpha=-0.3, degree=9)
        pts = rng.uniform(0.0, 4.0, size=50)
        basis = barycentric_basis(rule.nodes, rule.bary_weights, pts, 4.0)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(7))
    def test_reproduces_monomials(self, k):
        """A degree-n basis reproduces x^k exactly for k <= n."""
        rule = make_rule(alpha=0.4, degree=6)
        pts = np.linspace(0.0, 4.0, 41)
        basis = barycentric_basis(rule.nodes, rule.bary_weights, pts, 4.0)
        np.testing.assert_allclose(basis @ rule.nodes**k, pts**k, rtol=1e-11, atol=1e-11)

    def test_weight_scale_invariance(self, rng):
        """Rescaling all weights leaves the basis unchanged (true form)."""
        rule = make_rule(degree=5)
        pts = rng.uniform(0.0, 4.0, size=20)
        a = barycentric_basis(rule.nodes, rule.bary_weights, pts, 4.0)
        b = barycentric_basis(rule.nodes, 7.3 * rule.bary_weights, pts, 4.0)
        np.testing.assert_allclose(a, b, atol=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.9, 15.0])
    @pytest.mark.parametrize("degree", [1, 2, 3, 6, 7, 33, 128])
    def test_bytes_match_full_width_reference(self, alpha, degree, rng):
        """Nearest-node coincidence and in-place division give the full-width
        form's bytes: on nodes, a rounding step off them, between them and at
        both ends of the interval."""
        length = 1.5
        rule = make_rule(alpha=alpha, length=length, degree=degree)
        x = rule.nodes
        mid = 0.5 * (x[:-1] + x[1:])
        pts = np.concatenate(
            [
                x[[0, -1, x.size // 2]],
                x * (1 + 1e-16),
                np.nextafter(x, np.inf),
                np.nextafter(x, -np.inf),
                x + 1e-13,
                mid,
                np.nextafter(mid, np.inf),
                [0.0, length],
                rng.uniform(0.0, length, size=40),
            ]
        )
        want = reference_barycentric_basis(x, rule.bary_weights, pts, length)
        got = barycentric_basis(x, rule.bary_weights, pts, length)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "nodes", [[0.0, 2.0, 1.0], [2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 2.0]]
    )
    def test_non_ascending_nodes_rejected(self, nodes):
        nodes = np.array(nodes)
        with pytest.raises(ValueError, match="ascending"):
            barycentric_basis(nodes, np.ones_like(nodes), np.array([0.5]), 2.0)


class TestInterpolant2D:
    """The tensor-product interpolant that eval2d_grid evaluates."""

    def make_poly_interpolant(self):
        rule_y = make_rule(alpha=0.1, length=4.0, degree=5)
        rule_t = make_rule(alpha=0.1, length=1.0, degree=4)
        f = lambda y, t: y * y * t + y - 3.0 * t
        values = f(rule_y.nodes[:, None], rule_t.nodes[None, :])
        return (rule_y, rule_t, values), f

    def test_shape_mismatch_rejected(self):
        rule_y = make_rule(degree=3)
        rule_t = make_rule(degree=2, length=1.0)
        with pytest.raises(ValueError, match="shape"):
            eval2d_grid(rule_y, rule_t, np.zeros((3, 4)), [0.5], [0.5])

    def test_polynomial_exact_on_grid(self):
        p, f = self.make_poly_interpolant()
        ys = np.linspace(0.0, 4.0, 13)
        ts = np.linspace(0.0, 1.0, 7)
        got = eval2d_grid(*p, ys, ts)
        np.testing.assert_allclose(got, f(ys[:, None], ts[None, :]), atol=1e-11)

    def test_grid_matches_pointwise(self, rng):
        p, _ = self.make_poly_interpolant()
        ys = rng.uniform(0.0, 4.0, size=6)
        ts = rng.uniform(0.0, 1.0, size=5)
        grid = eval2d_grid(*p, ys, ts)
        for a, y in enumerate(ys):
            for b, t in enumerate(ts):
                assert eval2d_grid(*p, [y], [t])[0, 0] == pytest.approx(grid[a, b], abs=1e-13)

    def test_grid_shape(self):
        p, _ = self.make_poly_interpolant()
        assert eval2d_grid(*p, np.zeros(3), np.zeros(4)).shape == (3, 4)

    def test_domain_enforced_on_both_axes(self):
        p, _ = self.make_poly_interpolant()
        with pytest.raises(ValueError):
            eval2d_grid(*p, [4.5], [0.5])
        with pytest.raises(ValueError):
            eval2d_grid(*p, [2.0], [1.5])

    def test_smooth_function_converges(self):
        """Doubling the space degree shrinks the error on a smooth bump; the
        data is affine in t, which the time rule reproduces exactly."""
        f = lambda y: 1.0 / (1.0 + (y - 2.0) ** 2)
        probe = np.linspace(0.0, 4.0, 101)
        ts = np.array([0.0, 0.5, 1.0])
        want = f(probe)[:, None] * (1.0 + ts)[None, :]
        rule_t = make_rule(alpha=-0.2, length=1.0, degree=3)
        errs = []
        for degree in (8, 16, 32):
            rule_y = make_rule(alpha=-0.2, degree=degree)
            values = f(rule_y.nodes)[:, None] * (1.0 + rule_t.nodes)[None, :]
            errs.append(np.abs(eval2d_grid(rule_y, rule_t, values, probe, ts) - want).max())
        assert errs[1] < errs[0] / 10.0
        assert errs[2] < errs[1] / 10.0

    def test_time_boundary_evaluation_allowed(self):
        """t = 0 lies outside the open node span but inside the domain."""
        p, f = self.make_poly_interpolant()
        assert eval2d_grid(*p, [2.0], [0.0])[0, 0] == pytest.approx(f(2.0, 0.0), abs=1e-10)


@settings(deadline=None, max_examples=50)
@given(
    alpha=st.floats(min_value=-0.45, max_value=1.5),
    degree=st.integers(min_value=1, max_value=12),
    x=st.floats(min_value=0.0, max_value=4.0),
)
def test_partition_of_unity_property(alpha, degree, x):
    rule = sgg_rule(BasisSpec(alpha=alpha, length=4.0, degree=degree))
    basis = barycentric_basis(rule.nodes, rule.bary_weights, np.array([x]), 4.0)
    assert float(basis.sum()) == pytest.approx(1.0, abs=1e-11)


@settings(deadline=None, max_examples=30)
@given(
    degree=st.integers(min_value=1, max_value=10),
    coeff=st.floats(min_value=-5.0, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=1.0),
)
def test_linear_reproduction_property(degree, coeff, x):
    """Interpolation is exact on affine data regardless of the node count."""
    rule = sgg_rule(BasisSpec(alpha=-0.2, length=1.0, degree=degree))
    basis = barycentric_basis(rule.nodes, rule.bary_weights, np.array([x]), 1.0)
    got = (basis @ (coeff * rule.nodes + 1.0))[0]
    assert got == pytest.approx(coeff * x + 1.0, abs=1e-10 * (1 + abs(coeff)))
