"""Tests for the Gegenbauer recurrence that `sgg_rule` polishes its nodes
with, and for the `BasisSpec` checks.

The family is normalized so every member equals 1 at the right endpoint.
Known reductions pin the convention: alpha = 0 gives Chebyshev polynomials
of the first kind, alpha = 1/2 gives Legendre polynomials, and alpha = 1
gives Chebyshev polynomials of the second kind divided by (degree + 1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_chebyu, eval_jacobi, eval_legendre

from gegopt.polycore import BasisSpec, gegenbauer_with_derivative

ALPHAS = [-0.4, -0.2, 0.0, 0.5, 1.0, 1.7]


class TestKnownReductions:
    def test_chebyshev_first_kind_value(self):
        """alpha = 0, degree 3 at 0.5: 4 x^3 - 3 x = -1."""
        assert float(gegenbauer_with_derivative(0.0, 3, 0.5)[0]) == pytest.approx(
            -1.0, abs=1e-14
        )

    def test_legendre_value(self):
        """alpha = 1/2, degree 2 at 0.3: (3 x^2 - 1)/2 = -0.365."""
        assert float(gegenbauer_with_derivative(0.5, 2, 0.3)[0]) == pytest.approx(
            -0.365, abs=1e-14
        )

    @pytest.mark.parametrize("degree", range(9))
    def test_chebyshev_trig_closed_form(self, degree):
        """alpha = 0 reduces to cos(n arccos x)."""
        theta = np.linspace(0.05, 3.1, 40)
        np.testing.assert_allclose(
            gegenbauer_with_derivative(0.0, degree, np.cos(theta))[0],
            np.cos(degree * theta),
            atol=1e-13,
        )

    @pytest.mark.parametrize("degree", range(9))
    def test_legendre_reduction(self, degree):
        x = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_allclose(
            gegenbauer_with_derivative(0.5, degree, x)[0], eval_legendre(degree, x), atol=1e-13
        )

    @pytest.mark.parametrize("degree", range(9))
    def test_second_kind_reduction(self, degree):
        """alpha = 1 equals Chebyshev-U divided by (degree + 1)."""
        x = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_allclose(
            gegenbauer_with_derivative(1.0, degree, x)[0],
            eval_chebyu(degree, x) / (degree + 1),
            atol=1e-13,
        )

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 8])
    def test_jacobi_cross_check(self, alpha, degree):
        """Independent route: symmetric Jacobi normalized to 1 at x = 1."""
        a = alpha - 0.5
        x = np.linspace(-1.0, 1.0, 21)
        expected = eval_jacobi(degree, a, a, x) / eval_jacobi(degree, a, a, 1.0)
        np.testing.assert_allclose(
            gegenbauer_with_derivative(alpha, degree, x)[0], expected, atol=1e-12
        )


class TestShiftedEvaluation:
    """A shifted member reaches the right end of [0, length] at z = 1."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_endpoint_normalization(self, alpha):
        for degree in range(10):
            value = float(gegenbauer_with_derivative(alpha, degree, 1.0)[0])
            assert value == pytest.approx(1.0, abs=1e-12)


class TestDerivative:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("degree", [1, 3, 6])
    def test_matches_central_difference(self, alpha, degree):
        z = np.linspace(-0.9, 0.9, 17)
        h = 1e-6
        _, deriv = gegenbauer_with_derivative(alpha, degree, z)
        numeric = (
            gegenbauer_with_derivative(alpha, degree, z + h)[0]
            - gegenbauer_with_derivative(alpha, degree, z - h)[0]
        ) / (2.0 * h)
        np.testing.assert_allclose(deriv, numeric, atol=1e-8)

    def test_chebyshev_derivative_identity(self):
        """T_n' = n U_{n-1} on the open interval."""
        z = np.linspace(-0.95, 0.95, 21)
        for degree in range(1, 8):
            _, deriv = gegenbauer_with_derivative(0.0, degree, z)
            np.testing.assert_allclose(
                deriv, degree * eval_chebyu(degree - 1, z), atol=1e-12
            )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.5, "length": 1.0, "degree": 2},
            {"alpha": -0.7, "length": 1.0, "degree": 2},
            {"alpha": 0.0, "length": 0.0, "degree": 2},
            {"alpha": 0.0, "length": -1.0, "degree": 2},
            {"alpha": 0.0, "length": 1.0, "degree": -1},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BasisSpec(**kwargs)


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(min_value=-0.45, max_value=2.0),
    degree=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_symmetry_property(alpha, degree, x):
    """G_n(-x) = (-1)^n G_n(x) for every member of the family."""
    left = gegenbauer_with_derivative(alpha, degree, -x)[0]
    right = (-1.0) ** degree * gegenbauer_with_derivative(alpha, degree, x)[0]
    np.testing.assert_allclose(left, right, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(min_value=0.0, max_value=2.0),
    degree=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_bounded_by_endpoint_value_for_nonnegative_alpha(alpha, degree, x):
    """With alpha >= 0 the normalized family attains its maximum modulus at 1."""
    assert abs(gegenbauer_with_derivative(alpha, degree, x)[0]) <= 1.0 + 1e-12
