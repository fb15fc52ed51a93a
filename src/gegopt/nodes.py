"""Gauss nodes, Christoffel numbers and barycentric weights for the shifted
Gegenbauer family.

Nodes on [0, length] are the images of the Gauss points of the weight
(1 - z^2)^(alpha - 1/2) on [-1, 1] under z -> (z + 1) length / 2.  The
eigenvalues of the Jacobi matrix seed them and Newton steps polish them.
The Christoffel numbers come in closed form from the derivative of the
family member at the polished nodes, so no eigenvectors are needed.  They
are kept in the unshifted convention: they are the [-1, 1] Gauss weights,
reused unchanged for the shifted nodes.  Every interval-length factor lives
explicitly in the barycentric-weight formula and in the integration
operators, never inside the stored weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polycore import BasisSpec, gegenbauer_with_derivative

__all__ = [
    "QuadratureRule",
    "RootSolveError",
    "RuleWeightError",
    "sgg_rule",
    "barycentric_weights",
    "shifted_weight_moment",
]


class RootSolveError(RuntimeError):
    """Raised when a Gauss node fails to converge under Newton polishing."""

    def __init__(self, node_index: int, residual: float):
        self.node_index = node_index
        self.residual = residual
        super().__init__(
            f"node {node_index} failed to converge (Newton step {residual:.3e})"
        )


class RuleWeightError(RuntimeError):
    """Raised when the Christoffel numbers or barycentric weights of a rule
    are not all finite (P' underflows at the outer nodes for extreme alpha)."""

    def __init__(self, alpha: float, degree: int, count: int):
        self.alpha = alpha
        self.degree = degree
        self.count = count
        super().__init__(
            f"rule weights for alpha={alpha:g}, n={degree} are not finite "
            f"at {count} node(s)"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule of spec.degree + 1 points for one (alpha, length, degree).

    nodes: ascending, strictly inside (0, length).
    christoffel: positive [-1, 1] Gauss weights (shift invariant convention).
    bary_weights: explicit barycentric weights for the node set.
    """

    spec: BasisSpec
    nodes: np.ndarray
    christoffel: np.ndarray
    bary_weights: np.ndarray

    @property
    def standard_nodes(self) -> np.ndarray:
        """The node set pulled back to [-1, 1]."""
        return 2.0 * self.nodes / self.spec.length - 1.0


def _recurrence_offdiag(alpha: float, count: int) -> np.ndarray:
    """Off-diagonal entries of the symmetric Jacobi matrix for the weight
    (1 - z^2)^(alpha - 1/2): sqrt of the monic three-term coefficients."""
    if count == 0:
        return np.zeros(0)
    k = np.arange(1, count + 1, dtype=float)
    beta = np.empty(count)
    beta[0] = 1.0 / (2.0 * (1.0 + alpha))
    if count > 1:
        kk = k[1:]
        beta[1:] = kk * (kk + 2.0 * alpha - 1.0) / (4.0 * (kk + alpha) * (kk + alpha - 1.0))
    return np.sqrt(beta)


def shifted_weight_moment(alpha: float, length: float, k: int) -> float:
    """Closed-form moment of x^k against the shifted family weight on [0, length].

    Normalized so that k = 0 gives the total mass carried by the Christoffel
    numbers: 4^alpha B(alpha + 1/2, alpha + 1/2) length^k B(k + a + 1/2, a + 1/2)
    / B(a + 1/2, a + 1/2), evaluated in the log domain.
    """
    a = alpha + 0.5
    log_beta = math.lgamma(k + a) + math.lgamma(a) - math.lgamma(k + 2.0 * a)
    return float(np.exp(2.0 * alpha * np.log(2.0) + k * np.log(length) + log_beta))


def sgg_rule(spec: BasisSpec) -> QuadratureRule:
    """Gauss rule on [0, spec.length]: nodes are the roots of the shifted
    degree-(spec.degree + 1) family member P.

    Eigenvalues of the symmetric Jacobi matrix seed the roots; two Newton
    corrections polish them to round-off.  The Christoffel numbers are
    w_i = c / ((1 - z_i^2) P'(z_i)^2) (Golub & Welsch 1969), with c fixed so
    that they sum to the weight's total mass.  Weights that come out
    non-finite raise RuleWeightError.
    """
    n = spec.degree
    npts = n + 1
    off = _recurrence_offdiag(spec.alpha, n)
    z = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # Newton polish on the unshifted interval, then enforce exact symmetry.
    for _ in range(2):
        val, der = gegenbauer_with_derivative(spec.alpha, npts, z)
        step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
        z = z - step
    val, der = gegenbauer_with_derivative(spec.alpha, npts, z)
    final_step = np.abs(np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), val))
    worst = int(np.argmax(final_step))
    if final_step[worst] > 1e-12:
        raise RootSolveError(worst, float(final_step[worst]))
    # Dividing by max |P'| first keeps the square finite at large alpha;
    # where it still overflows the weights are rejected below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = (np.abs(der).max() / der) ** 2 / (1.0 - z * z)
        w *= shifted_weight_moment(spec.alpha, spec.length, 0) / w.sum()
    z = 0.5 * (z - z[::-1])
    w = 0.5 * (w + w[::-1])
    x = (z + 1.0) * (0.5 * spec.length)
    if np.any(np.diff(x) <= 0.0) or x[0] <= 0.0 or x[-1] >= spec.length:
        raise RootSolveError(0, float("nan"))
    xi = barycentric_weights(spec, x, w)
    bad = np.count_nonzero(~(np.isfinite(w) & np.isfinite(xi)))
    if bad:
        raise RuleWeightError(spec.alpha, n, bad)
    return QuadratureRule(spec, x, w, xi)


def barycentric_weights(spec: BasisSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Explicit barycentric weights for the nodes x on [0, spec.length]:

        xi_i = 2 (-1)^i sqrt(4^alpha length^(-2(1+alpha)) (length - x_i) x_i w_i)

    with w_i the (unshifted) Christoffel numbers.  Any common scaling of the
    weights leaves barycentric interpolation unchanged; this fixes one
    concrete normalization with xi_0 > 0.
    """
    # In NumPy, so that an overflowing power at extreme alpha gives inf (and
    # the caller's finite check names alpha and n) instead of OverflowError.
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = (
            np.float64(4.0) ** spec.alpha
            * np.float64(spec.length) ** (-2.0 * (1.0 + spec.alpha))
            * (spec.length - x)
            * x
            * w
        )
    if np.any(radicand < 0.0):
        raise ValueError("negative radicand in barycentric weight formula")
    signs = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
    return 2.0 * signs * np.sqrt(radicand)
