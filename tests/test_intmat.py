"""Tests for the barycentric integration matrices.

The load-bearing property is polynomial exactness: a degree-n node set must
integrate every polynomial of degree <= n to round-off, for the running
integral, the repeated integral of any order, and the full-interval row.
The first-order entries are also held to exact rational integrals of the
Lagrange basis, so their accuracy is checked entry by entry at round-off.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_barycentric_basis

from gegopt import intmat
from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.intmat import (
    FullIntervalRouteError,
    first_order_matrix,
    full_interval_vector,
    higher_order_matrix,
)

ALPHAS = [-0.4, -0.2, 0.0, 0.5, 0.9]


def make_rule(alpha=0.0, length=4.0, degree=8):
    return sgg_rule(BasisSpec(alpha=alpha, length=length, degree=degree))


class TestFirstOrder:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_monomial_exactness(self, alpha, length):
        degree = 9
        op = first_order_matrix(make_rule(alpha, length, degree))
        x = op.rule.nodes
        for k in range(degree + 1):
            got = op.matrix @ x**k
            want = x ** (k + 1) / (k + 1)
            scale = length ** (k + 1)
            np.testing.assert_allclose(got, want, atol=1e-13 * scale)

    def test_constant_row_values(self):
        """Integrating 1 from 0 to each node returns the nodes themselves."""
        op = first_order_matrix(make_rule(degree=6))
        np.testing.assert_allclose(op.matrix @ np.ones(7), op.rule.nodes, atol=1e-13)

    def test_matrix_rows_sum_to_nodes(self):
        op = first_order_matrix(make_rule(alpha=-0.2, degree=6))
        np.testing.assert_allclose(op.matrix.sum(axis=1), op.rule.nodes, atol=1e-13)

    def test_interval_metadata(self):
        """An operator acts on its rule's interval [0, length]."""
        op = first_order_matrix(make_rule(length=4.0, degree=3))
        assert op.rule.spec.length == 4.0
        assert op.order == 1


def exact_first_order_matrix(nodes: np.ndarray) -> np.ndarray:
    """Integrals from 0 to each node of every Lagrange basis polynomial on
    the given float nodes, computed in exact rational arithmetic and rounded
    once to float64."""
    x = [Fraction(float(v)) for v in nodes]
    out = np.empty((len(x), len(x)))
    for j, xj in enumerate(x):
        coeffs = [Fraction(1)]  # ascending powers of prod_{k != j} (t - x_k)
        denom = Fraction(1)
        for k, xk in enumerate(x):
            if k == j:
                continue
            coeffs = [Fraction(0)] + coeffs
            for p in range(len(coeffs) - 1):
                coeffs[p] -= xk * coeffs[p + 1]
            denom *= xj - xk
        antiderivative = [c / (p + 1) for p, c in enumerate(coeffs)]
        for i, xi in enumerate(x):
            acc = Fraction(0)
            for c in reversed(antiderivative):
                acc = acc * xi + c
            out[i, j] = float(acc * xi / denom)
    return out


class TestExactEntries:
    """Every entry of the first-order operator is the integral of a Lagrange
    basis polynomial; compare with the exact rational value at the same float
    nodes.  The measured worst case is about 2.7 eps * length, round-off of
    an order-length integral, so 8 eps * length leaves room for summation
    order without hiding a formula or sub-rule error."""

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_entries_match_exact_rational_integrals(self, alpha, length):
        tol = 8.0 * np.finfo(float).eps * length
        for degree in range(1, 13):
            op = first_order_matrix(make_rule(alpha, length, degree))
            exact = exact_first_order_matrix(op.rule.nodes)
            worst = float(np.max(np.abs(op.matrix - exact)))
            assert worst <= tol, f"degree {degree}: max entry error {worst:.3e} > {tol:.3e}"


def reference_integrated_basis(nodes, bary_w, span, lower, uppers):
    """The per-row construction that intmat._integrated_basis must reproduce
    bit for bit: one full-width barycentric evaluation per upper limit."""
    m = (nodes.size + 1) // 2 + 1
    zg, wg = np.polynomial.legendre.leggauss(m)
    out = np.empty((len(uppers), nodes.size))
    for r, upper in enumerate(uppers):
        half = 0.5 * (upper - lower)
        mid = 0.5 * (upper + lower)
        vals = reference_barycentric_basis(nodes, bary_w, mid + half * zg, span)
        out[r] = half * (wg @ vals)
    return out


class TestBlockedEvaluation:
    """Blocks of upper limits share one barycentric evaluation; every entry
    keeps the per-row construction's bytes, whatever the block size."""

    # At alpha = 15, n = 257 some rows' barycentric sums come out 0, so both
    # constructions divide by zero and must agree on the inf/nan bytes too.
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("block_entries", [intmat._BLOCK_ENTRIES, 1])
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.9, 15.0])
    @pytest.mark.parametrize("degree", [*range(1, 13), 33, 128, 257])
    def test_bytes_match_per_row_reference(self, degree, alpha, block_entries, monkeypatch):
        monkeypatch.setattr(intmat, "_BLOCK_ENTRIES", block_entries)
        length = 1.5
        rule = make_rule(alpha, length, degree)
        z = rule.standard_nodes
        calls = [
            (rule.nodes, length, 0.0, rule.nodes),
            (rule.nodes, length, 0.0, np.array([length])),
            (rule.nodes, length, 0.0, rule.nodes[[degree // 2]]),
            (z, 2.0, -1.0, np.array([1.0])),
        ]
        for nodes, span, lower, uppers in calls:
            want = reference_integrated_basis(nodes, rule.bary_weights, span, lower, uppers)
            got = intmat._integrated_basis(nodes, rule.bary_weights, span, lower, uppers)
            assert got.tobytes() == want.tobytes()

    def test_memory_peak_of_first_and_second_order(self):
        """Building P1 and P2 at n = 512 holds the two results and at most
        half an n^2 block more: 2.5 * 8 n^2 bytes."""
        n = 512
        rule = make_rule(0.0, 1.5, n)
        first_order_matrix(make_rule(0.0, 1.5, 4))  # lazy NumPy imports
        tracemalloc.start()
        try:
            higher_order_matrix(first_order_matrix(rule), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n**2, f"peak {peak / (8 * n**2):.2f} x 8n^2 bytes"


class TestStandardAndShift:
    """The scaling law between intervals, on the public builder: the
    operator of the same (alpha, n) rule on the standard-length interval
    [0, 2], scaled by (length / 2)^q, is the direct build on [0, length]."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_shift_route_matches_direct_route(self, alpha):
        direct = first_order_matrix(make_rule(alpha=alpha, length=4.0, degree=8))
        standard = first_order_matrix(make_rule(alpha=alpha, length=2.0, degree=8))
        np.testing.assert_allclose(2.0 * standard.matrix, direct.matrix, atol=1e-13)
        np.testing.assert_allclose(
            2.0 * standard.full_interval_row, direct.full_interval_row, atol=1e-13
        )

    def test_shift_scales_higher_order_by_power(self):
        std2, direct2 = (
            higher_order_matrix(first_order_matrix(make_rule(alpha=0.2, length=span, degree=6)), 2)
            for span in (2.0, 3.0)
        )
        np.testing.assert_allclose(1.5**2 * std2.matrix, direct2.matrix, atol=1e-12)


class TestHigherOrder:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    def test_repeated_integral_of_monomials(self, q, alpha):
        """Order-q operator sends x^k to x^(k+q) k! / (k+q)! exactly.

        The kernel form multiplies the integrand by a degree-(q-1) factor,
        so exactness holds for k <= n + 1 - q, not all of degree n.
        """
        degree = 8
        op1 = first_order_matrix(make_rule(alpha, 4.0, degree))
        opq = higher_order_matrix(op1, q)
        x = op1.rule.nodes
        for k in range(degree + 2 - q):
            want = x ** (k + q) * math.factorial(k) / math.factorial(k + q)
            got = opq.matrix @ x**k
            np.testing.assert_allclose(got, want, atol=1e-12 * 4.0 ** (k + q))

    def test_composition_consistency(self):
        """Applying order 1 twice agrees with order 2 on low-degree data."""
        op1 = first_order_matrix(make_rule(alpha=-0.2, degree=7))
        op2 = higher_order_matrix(op1, 2)
        x = op1.rule.nodes
        for k in range(7):  # degree k + 1 <= 7 stays exactly representable
            np.testing.assert_allclose(
                op1.matrix @ (op1.matrix @ x**k), op2.matrix @ x**k, atol=1e-11
            )

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5])
    def test_bytes_match_entrywise_formula(self, q, alpha):
        """The in-place kernel weighting gives the bytes of
        P1 * (x_i - x_j)^(q-1) / (q-1)! evaluated with temporaries."""
        op1 = first_order_matrix(make_rule(alpha, 1.5, 33))
        x = op1.rule.nodes
        want = op1.matrix * (x[:, None] - x[None, :]) ** (q - 1) / math.factorial(q - 1)
        assert higher_order_matrix(op1, q).matrix.tobytes() == want.tobytes()

    def test_order_one_returns_same_operator(self):
        op1 = first_order_matrix(make_rule(degree=4))
        assert higher_order_matrix(op1, 1) is op1

    def test_rejects_bad_order(self):
        op1 = first_order_matrix(make_rule(degree=4))
        with pytest.raises(ValueError):
            higher_order_matrix(op1, 0)
        op2 = higher_order_matrix(op1, 2)
        with pytest.raises(ValueError):
            higher_order_matrix(op2, 2)

    def test_no_full_interval_row_above_order_one(self):
        op2 = higher_order_matrix(first_order_matrix(make_rule(degree=4)), 2)
        assert op2.full_interval_row is None


class TestFullIntervalVector:
    def test_frozen_constant_and_linear(self):
        """On [0, 4]: integral of 1 is 4 and of x is 8."""
        rule = make_rule(alpha=-0.2, length=4.0, degree=6)
        row = full_interval_vector(rule)
        assert float(row @ np.ones(7)) == pytest.approx(4.0, abs=1e-12)
        assert float(row @ rule.nodes) == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_monomial_exactness(self, alpha, length):
        degree = 10
        rule = make_rule(alpha, length, degree)
        row = full_interval_vector(rule)
        for k in range(degree + 1):
            got = float(row @ rule.nodes**k)
            want = length ** (k + 1) / (k + 1)
            assert got == pytest.approx(want, rel=1e-11)

    def test_disagreeing_routes_raise_typed_error(self):
        """At alpha = 20 the Lagrange-basis integrals lose accuracy and the
        two routes part by more than 1e-12 of the interval length."""
        with pytest.raises(FullIntervalRouteError) as info:
            first_order_matrix(sgg_rule(BasisSpec(20.0, 4.0, 6)))
        err = info.value
        assert isinstance(err, RuntimeError)
        assert (err.alpha, err.degree) == (20.0, 6)
        assert err.disagreement > 4e-12
        assert str(err) == (
            "full-interval vector construction routes disagree for alpha=20, n=6 "
            f"(largest disagreement {err.disagreement:.3e})"
        )


@settings(deadline=None, max_examples=30)
@given(
    alpha=st.floats(min_value=-0.45, max_value=1.5),
    degree=st.integers(min_value=1, max_value=12),
    c0=st.floats(min_value=-3.0, max_value=3.0),
    c1=st.floats(min_value=-3.0, max_value=3.0),
)
def test_affine_exactness_property(alpha, degree, c0, c1):
    """Every operator integrates affine data exactly, whatever the rule."""
    rule = sgg_rule(BasisSpec(alpha=alpha, length=2.0, degree=degree))
    op = first_order_matrix(rule)
    x = rule.nodes
    got = op.matrix @ (c0 + c1 * x)
    want = c0 * x + 0.5 * c1 * x * x
    np.testing.assert_allclose(got, want, atol=1e-11 * (1.0 + abs(c0) + abs(c1)))
