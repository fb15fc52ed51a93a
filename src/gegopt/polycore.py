"""Gegenbauer (ultraspherical) polynomials and their shifted counterparts.

The family used throughout this package is normalized so that every member
equals 1 at the right end of its interval.  Under that convention alpha = 0
recovers the Chebyshev polynomials of the first kind, alpha = 1/2 the
Legendre polynomials, and alpha = 1 the Chebyshev polynomials of the second
kind rescaled to 1 at the endpoint.  The normalization keeps values, roots
and leading coefficients well behaved over the whole parameter range
alpha > -1/2, including the Chebyshev limit where the unnormalized family
degenerates.

Shifted members live on [0, length] and are obtained by composing with the
affine map z = 2 x / length - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "eval_gegenbauer",
    "eval_shifted_gegenbauer",
    "gegenbauer_with_derivative",
    "leading_coefficient",
    "log_leading_coefficient",
]

#: Slack allowed when checking that evaluation points lie in the domain.
DOMAIN_TOL = 1e-14


@dataclass(frozen=True)
class BasisSpec:
    """Degree-`degree` member of the shifted Gegenbauer family on [0, length].

    alpha is the family parameter (must exceed -1/2); length is the length of
    the shifted interval.
    """

    alpha: float
    length: float
    degree: int

    def __post_init__(self) -> None:
        if not self.alpha > -0.5:
            raise ValueError(f"family parameter must exceed -1/2, got {self.alpha}")
        if not self.length > 0.0:
            raise ValueError(f"interval length must be positive, got {self.length}")
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree}")


def _recurrence(alpha: float, degree: int, z: np.ndarray) -> np.ndarray:
    # G_0 = 1, G_1 = z, (m + 2 alpha) G_{m+1} = 2 (m + alpha) z G_m - m G_{m-1}.
    # Endpoint normalization G_m(1) = 1 is preserved term by term.
    if degree == 0:
        return np.ones_like(z)
    prev = np.ones_like(z)
    cur = np.array(z, dtype=float, copy=True)
    for m in range(1, degree):
        prev, cur = cur, (2.0 * (m + alpha) * z * cur - m * prev) / (m + 2.0 * alpha)
    return cur


def gegenbauer_with_derivative(
    alpha: float, degree: int, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value and z-derivative of the degree-`degree` member on [-1, 1].

    No domain checks: intended for root polishing where z is already known
    to be inside the interval.
    """
    z = np.asarray(z, dtype=float)
    if degree == 0:
        return np.ones_like(z), np.zeros_like(z)
    g_prev, d_prev = np.ones_like(z), np.zeros_like(z)
    g_cur, d_cur = np.array(z, copy=True), np.ones_like(z)
    for m in range(1, degree):
        den = m + 2.0 * alpha
        g_next = (2.0 * (m + alpha) * z * g_cur - m * g_prev) / den
        d_next = (2.0 * (m + alpha) * (g_cur + z * d_cur) - m * d_prev) / den
        g_prev, g_cur = g_cur, g_next
        d_prev, d_cur = d_cur, d_next
    return g_cur, d_cur


def eval_gegenbauer(spec: BasisSpec, x):
    """Evaluate the unshifted degree-`spec.degree` polynomial at x in [-1, 1]."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) > 1.0 + DOMAIN_TOL):
        raise ValueError("evaluation point outside [-1, 1]")
    z = np.clip(x_arr, -1.0, 1.0)
    out = _recurrence(spec.alpha, spec.degree, z)
    return float(out) if x_arr.ndim == 0 else out


def eval_shifted_gegenbauer(spec: BasisSpec, x):
    """Evaluate the shifted polynomial at x in [0, spec.length]."""
    x_arr = np.asarray(x, dtype=float)
    tol = DOMAIN_TOL * max(1.0, spec.length)
    if np.any(x_arr < -tol) or np.any(x_arr > spec.length + tol):
        raise ValueError(f"evaluation point outside [0, {spec.length}]")
    z = np.clip(2.0 * x_arr / spec.length - 1.0, -1.0, 1.0)
    out = _recurrence(spec.alpha, spec.degree, z)
    return float(out) if x_arr.ndim == 0 else out


def log_leading_coefficient(spec: BasisSpec) -> float:
    """Natural log of the (positive) leading coefficient of the shifted member."""
    n, alpha = spec.degree, spec.alpha
    if n == 0:
        return 0.0
    # Unshifted leading coefficient 2^(n-1) Gamma(n+a) Gamma(1+2a) / (Gamma(1+a) Gamma(n+2a));
    # the shift contributes (2 / length)^n.  All gamma arguments are positive.
    log_k = (
        (n - 1) * np.log(2.0)
        + math.lgamma(n + alpha)
        - math.lgamma(1.0 + alpha)
        + math.lgamma(1.0 + 2.0 * alpha)
        - math.lgamma(n + 2.0 * alpha)
    )
    return float(log_k + n * (np.log(2.0) - np.log(spec.length)))


def leading_coefficient(spec: BasisSpec) -> float:
    """Leading coefficient of the shifted member; inf signals overflow."""
    if spec.degree == 0:
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.exp(log_leading_coefficient(spec)))
