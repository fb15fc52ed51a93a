"""Tests for Gauss nodes, Christoffel numbers and barycentric weights.

Oracles: closed-form Chebyshev roots at alpha = 0, the numpy Gauss-Legendre
rule at alpha = 1/2, the closed-form Gauss-Chebyshev weights of both kinds
up to degree 1024, closed-form weight moments for exactness, and the
classical sine form of Chebyshev barycentric weights.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gegopt.polycore import BasisSpec
from gegopt.nodes import (
    QuadratureRule,
    RootSolveError,
    RuleWeightError,
    barycentric_weights,
    sgg_rule,
    shifted_weight_moment,
)


def total_mass(alpha: float) -> float:
    """Integral of (1 - z^2)^(alpha - 1/2) over [-1, 1]."""
    a = alpha + 0.5
    return 4.0**alpha * math.gamma(a) ** 2 / math.gamma(2.0 * a)


class TestFrozenTwoNodeRule:
    """alpha = 0, degree 1, length 2: everything known in closed form."""

    @pytest.fixture
    def rule(self) -> QuadratureRule:
        return sgg_rule(BasisSpec(alpha=0.0, length=2.0, degree=1))

    def test_nodes(self, rule):
        expected = [1.0 - math.sqrt(2.0) / 2.0, 1.0 + math.sqrt(2.0) / 2.0]
        np.testing.assert_allclose(rule.nodes, expected, atol=1e-15)

    def test_christoffel(self, rule):
        np.testing.assert_allclose(rule.christoffel, [np.pi / 2.0] * 2, atol=1e-14)

    def test_barycentric_weights(self, rule):
        half_sqrt_pi = math.sqrt(np.pi) / 2.0
        np.testing.assert_allclose(
            rule.bary_weights, [half_sqrt_pi, -half_sqrt_pi], atol=1e-14
        )

    def test_standard_nodes(self, rule):
        expected = [-math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0]
        np.testing.assert_allclose(rule.standard_nodes, expected, atol=1e-15)


class TestClosedFormReductions:
    @pytest.mark.parametrize("degree", range(17))
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_chebyshev_roots(self, degree, length):
        """alpha = 0 nodes are the ascending Chebyshev roots mapped to [0, L]."""
        rule = sgg_rule(BasisSpec(alpha=0.0, length=length, degree=degree))
        i = np.arange(degree + 1)
        z = -np.cos((2.0 * i + 1.0) * np.pi / (2.0 * degree + 2.0))
        np.testing.assert_allclose(rule.nodes, (z + 1.0) * length / 2.0, atol=1e-12)

    @pytest.mark.parametrize("degree", range(17))
    def test_legendre_nodes_and_weights(self, degree):
        """alpha = 1/2 reproduces the numpy Gauss-Legendre rule."""
        rule = sgg_rule(BasisSpec(alpha=0.5, length=2.0, degree=degree))
        z, w = np.polynomial.legendre.leggauss(degree + 1)
        np.testing.assert_allclose(rule.standard_nodes, z, atol=1e-12)
        np.testing.assert_allclose(rule.christoffel, w, atol=1e-12)

    @pytest.mark.parametrize("degree", range(9))
    def test_chebyshev_barycentric_sine_form(self, degree):
        """At alpha = 0 the weights reduce to alternating sines times a constant."""
        rule = sgg_rule(BasisSpec(alpha=0.0, length=4.0, degree=degree))
        i = np.arange(degree + 1)
        theta = (2.0 * i + 1.0) * np.pi / (2.0 * degree + 2.0)
        expected = (-1.0) ** i * np.sin(theta) * math.sqrt(np.pi / (degree + 1.0))
        np.testing.assert_allclose(rule.bary_weights, expected, atol=1e-13)

    @pytest.mark.parametrize("degree", [1, 3, 6, 10])
    def test_legendre_barycentric_proportionality(self, degree):
        """Weights are proportional to (-1)^i sqrt((1 - z_i^2) w_i)."""
        rule = sgg_rule(BasisSpec(alpha=0.5, length=3.0, degree=degree))
        z, w = np.polynomial.legendre.leggauss(degree + 1)
        classical = (-1.0) ** np.arange(degree + 1) * np.sqrt((1.0 - z * z) * w)
        ratio = rule.bary_weights / classical
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


class TestHighDegreeChristoffel:
    """Christoffel numbers far above the degrees the other checks reach."""

    @pytest.mark.parametrize("degree", [64, 256, 1024])
    def test_chebyshev_first_kind(self, degree):
        # alpha = 0: every Gauss-Chebyshev weight is pi / (n + 1).
        rule = sgg_rule(BasisSpec(alpha=0.0, length=1.0, degree=degree))
        np.testing.assert_allclose(rule.christoffel, np.pi / (degree + 1), rtol=1e-10)

    @pytest.mark.parametrize("degree", [64, 256, 1024])
    def test_chebyshev_second_kind(self, degree):
        # alpha = 1: the m-point weights are pi / (m + 1) sin^2(i pi / (m + 1)).
        rule = sgg_rule(BasisSpec(alpha=1.0, length=1.0, degree=degree))
        m = degree + 1
        theta = np.arange(1, m + 1) * np.pi / (m + 1)
        np.testing.assert_allclose(
            rule.christoffel, np.pi / (m + 1) * np.sin(theta) ** 2, rtol=1e-10
        )


class TestQuadratureExactness:
    @pytest.mark.parametrize("alpha", [-0.4, -0.2, 0.0, 0.5, 0.9, 1.5])
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_moments_to_gauss_degree(self, alpha, length):
        """A degree-n rule integrates x^k exactly for all k <= 2n + 1."""
        degree = 7
        rule = sgg_rule(BasisSpec(alpha=alpha, length=length, degree=degree))
        for k in range(2 * degree + 2):
            approx = float(rule.christoffel @ rule.nodes**k)
            exact = shifted_weight_moment(alpha, length, k)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 0.9])
    def test_christoffel_sum_is_total_mass(self, alpha):
        rule = sgg_rule(BasisSpec(alpha=alpha, length=2.0, degree=12))
        assert float(rule.christoffel.sum()) == pytest.approx(
            total_mass(alpha), rel=1e-13
        )

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 1.2])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_moment_closed_form_against_gamma_oracle(self, alpha, k):
        """The log-domain moment matches a direct gamma-function evaluation."""
        length = 4.0
        a = alpha + 0.5
        direct = (
            4.0**alpha
            * length**k
            * math.gamma(k + a)
            * math.gamma(a)
            / math.gamma(k + 2.0 * a)
        )
        assert shifted_weight_moment(alpha, length, k) == pytest.approx(
            direct, rel=1e-13
        )


class TestStructure:
    def test_degree_zero_rule(self):
        rule = sgg_rule(BasisSpec(alpha=0.3, length=4.0, degree=0))
        np.testing.assert_allclose(rule.nodes, [2.0], atol=1e-15)
        assert float(rule.christoffel[0]) == pytest.approx(total_mass(0.3), rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.9])
    def test_symmetry_about_midpoint(self, alpha):
        rule = sgg_rule(BasisSpec(alpha=alpha, length=4.0, degree=9))
        np.testing.assert_allclose(
            rule.nodes + rule.nodes[::-1], np.full(10, 4.0), atol=1e-14
        )
        np.testing.assert_allclose(
            rule.christoffel, rule.christoffel[::-1], atol=1e-15
        )

    def test_determinism(self):
        spec = BasisSpec(alpha=-0.2, length=4.0, degree=12)
        a, b = sgg_rule(spec), sgg_rule(spec)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.christoffel, b.christoffel)
        assert np.array_equal(a.bary_weights, b.bary_weights)

    def test_large_degree_stays_stable(self):
        rule = sgg_rule(BasisSpec(alpha=-0.2, length=1.0, degree=64))
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.isfinite(rule.bary_weights))

    def test_barycentric_weights_standalone_call(self):
        rule = sgg_rule(BasisSpec(alpha=0.5, length=2.0, degree=5))
        np.testing.assert_allclose(
            barycentric_weights(rule.spec, rule.nodes, rule.christoffel), rule.bary_weights, atol=0
        )

    def test_non_finite_weights_raise_typed_error(self):
        """At alpha = 300, n = 1024, P' underflows at the outer nodes; from
        alpha = 512 on, 4^alpha in the barycentric weights overflows."""
        for alpha, n in ((300.0, 1024), (600.0, 64), (1000.0, 64)):
            with pytest.raises(RuleWeightError) as exc:
                sgg_rule(BasisSpec(alpha=alpha, length=1.0, degree=n))
            assert exc.value.alpha == alpha and exc.value.degree == n
            assert exc.value.count > 0
            assert f"alpha={alpha:g}" in str(exc.value) and f"n={n}" in str(exc.value)

    def test_root_solve_error_carries_context(self):
        err = RootSolveError(node_index=3, residual=1e-3)
        assert err.node_index == 3
        assert err.residual == pytest.approx(1e-3)
        assert "node 3" in str(err)


@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(min_value=-0.45, max_value=2.0),
    degree=st.integers(min_value=0, max_value=24),
    length=st.floats(min_value=0.1, max_value=10.0),
)
def test_rule_wellformedness_property(alpha, degree, length):
    """Nodes interior and ascending, Christoffel numbers positive, signs alternate."""
    rule = sgg_rule(BasisSpec(alpha=alpha, length=length, degree=degree))
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < length
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.christoffel > 0)
    signs = np.sign(rule.bary_weights)
    np.testing.assert_array_equal(signs, (-1.0) ** np.arange(degree + 1))
