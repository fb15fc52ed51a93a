"""Gegenbauer (ultraspherical) polynomials and their shifted counterparts.

The family used throughout this package is normalized so that every member
equals 1 at the right end of its interval.  Under that convention alpha = 0
recovers the Chebyshev polynomials of the first kind, alpha = 1/2 the
Legendre polynomials, and alpha = 1 the Chebyshev polynomials of the second
kind rescaled to 1 at the endpoint.  The normalization keeps values and
roots well behaved over the whole parameter range alpha > -1/2, including
the Chebyshev limit where the unnormalized family degenerates.

`gegenbauer_with_derivative` runs the three-term recurrence on [-1, 1];
`nodes.sgg_rule` polishes the Gauss nodes with it.  A `BasisSpec` names a
shifted member on [0, length], the composition with the affine map
z = 2 x / length - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "gegenbauer_with_derivative",
]


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
