"""Integration matrices for Gauss node sets.

A first-order operator maps samples at the nodes to values of the running
integral from the left end of the interval at those same nodes: entry
(i, j) is the integral of the j-th Lagrange basis polynomial from the left
endpoint to node i.  Because the basis has degree n, an m-point
Gauss-Legendre sub-rule with m = ceil((n + 1) / 2) + 1 evaluates each entry
to round-off, so applying the operator to polynomial samples of degree <= n
reproduces the running integral exactly.

Higher-order (repeated) integration reuses the first-order rows through the
reduction of an order-q repeated integral to a single weighted integral:

    row_i^(q) = row_i^(1) * (x_i - x_j)^(q-1) / (q-1)!   (entrywise in j).

Operators built on [-1, 1] transfer to [0, length] by the scaling
(length / 2)^q; both construction routes are kept and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interp import barycentric_basis
from .nodes import QuadratureRule

__all__ = [
    "IntegrationOperator",
    "first_order_matrix",
    "standard_first_order_matrix",
    "shift_matrix",
    "higher_order_matrix",
    "full_interval_vector",
    "FullIntervalRouteError",
]


class FullIntervalRouteError(RuntimeError):
    """Raised when the two constructions of a rule's full-interval vector
    disagree (the Lagrange-basis integrals lose accuracy at large alpha)."""

    def __init__(self, alpha: float, degree: int, disagreement: float):
        self.alpha = alpha
        self.degree = degree
        self.disagreement = disagreement
        super().__init__(
            f"full-interval vector construction routes disagree for alpha={alpha:g}, "
            f"n={degree} (largest disagreement {disagreement:.3e})"
        )


@dataclass(frozen=True)
class IntegrationOperator:
    """Dense integration operator tied to one quadrature rule.

    interval records the domain the operator acts on: (0, length) for
    shifted operators, (-1, 1) for standard ones.  full_interval_row (the
    integral of each basis polynomial over the whole interval) is only
    populated for first-order operators.
    """

    rule: QuadratureRule
    order: int
    matrix: np.ndarray
    full_interval_row: np.ndarray | None
    interval: tuple[float, float]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Running integral(s) of the sampled function at the nodes."""
        return self.matrix @ values

    def full_integral(self, values: np.ndarray) -> np.ndarray:
        """Integral over the whole interval (first-order operators only)."""
        if self.full_interval_row is None:
            raise ValueError("full-interval row is only defined for order 1")
        return self.full_interval_row @ values

    @property
    def op_nodes(self) -> np.ndarray:
        """Node coordinates in the operator's own interval."""
        if self.interval == (-1.0, 1.0):
            return self.rule.standard_nodes
        return self.rule.nodes


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


#: Entries of the (upper limits x sub-rule points) x nodes block that
#: _integrated_basis evaluates per barycentric_basis call (2 MiB of float64).
_BLOCK_ENTRIES = 1 << 18


def _integrated_basis(
    nodes: np.ndarray,
    bary_w: np.ndarray,
    span: float,
    lower: float,
    uppers: np.ndarray,
) -> np.ndarray:
    """Exact integrals of every Lagrange basis polynomial from `lower` to
    each entry of `uppers`, one row per upper limit.

    The sub-rule points of as many upper limits as fit _BLOCK_ENTRIES (at
    least one) are evaluated in one barycentric_basis call."""
    n = nodes.size
    m = (n + 1) // 2 + 1
    zg, wg = _gauss_legendre(m)
    uppers = np.asarray(uppers, dtype=float)
    half = 0.5 * (uppers - lower)
    mid = 0.5 * (uppers + lower)
    step = max(1, _BLOCK_ENTRIES // (m * n))
    out = np.empty((uppers.size, n))
    for start in range(0, uppers.size, step):
        block = slice(start, start + step)
        h = half[block, None]
        vals = barycentric_basis(nodes, bary_w, (mid[block, None] + h * zg).ravel(), span)
        out[block] = h * np.matmul(wg, vals.reshape(-1, m, n))
        del vals  # let the next block's evaluation reuse this one's memory
    return out


def first_order_matrix(rule: QuadratureRule) -> IntegrationOperator:
    """First-order integration operator on [0, length] for the rule's nodes."""
    length = rule.spec.length
    matrix = _integrated_basis(rule.nodes, rule.bary_weights, length, 0.0, rule.nodes)
    return IntegrationOperator(
        rule=rule,
        order=1,
        matrix=matrix,
        full_interval_row=full_interval_vector(rule),
        interval=(0.0, length),
    )


def standard_first_order_matrix(rule: QuadratureRule) -> IntegrationOperator:
    """First-order operator on [-1, 1] (integration from -1) for the node set
    pulled back to the unshifted interval."""
    z = rule.standard_nodes
    matrix = _integrated_basis(z, rule.bary_weights, 2.0, -1.0, z)
    row = _integrated_basis(z, rule.bary_weights, 2.0, -1.0, np.array([1.0]))[0]
    return IntegrationOperator(
        rule=rule, order=1, matrix=matrix, full_interval_row=row, interval=(-1.0, 1.0)
    )


def shift_matrix(standard: IntegrationOperator, length: float) -> IntegrationOperator:
    """Transfer an operator built on [-1, 1] to [0, length]: the matrix picks
    up (length / 2)^order and the full-interval row (order 1) length / 2."""
    if standard.interval != (-1.0, 1.0):
        raise ValueError("shift_matrix expects an operator built on [-1, 1]")
    if not length > 0.0:
        raise ValueError("interval length must be positive")
    scale = (0.5 * length) ** standard.order
    row = None
    if standard.full_interval_row is not None:
        row = 0.5 * length * standard.full_interval_row
    return IntegrationOperator(
        rule=standard.rule,
        order=standard.order,
        matrix=scale * standard.matrix,
        full_interval_row=row,
        interval=(0.0, length),
    )


def higher_order_matrix(first: IntegrationOperator, q: int) -> IntegrationOperator:
    """Order-q repeated-integration operator from a first-order one.

    Row i is the first-order row weighted entrywise by (x_i - x_j)^(q-1)
    and divided by (q-1)!; no matrix powers are involved.
    """
    if first.order != 1:
        raise ValueError("higher_order_matrix expects a first-order operator")
    if int(q) != q or q < 1:
        raise ValueError(f"integration order must be a positive integer, got {q}")
    if q == 1:
        return first
    x = first.op_nodes
    matrix = np.subtract.outer(x, x)
    if q > 2:
        matrix **= q - 1
    matrix *= first.matrix
    matrix /= math.factorial(q - 1)
    return IntegrationOperator(
        rule=first.rule,
        order=int(q),
        matrix=matrix,
        full_interval_row=None,
        interval=first.interval,
    )


def full_interval_vector(rule: QuadratureRule) -> np.ndarray:
    """Integral of each basis polynomial over the rule's interval [0, length].

    Built directly on the shifted interval and, independently, as
    (length / 2) times the [-1, 1] construction; the two must agree to
    1e-12 relative to the interval length, or FullIntervalRouteError is
    raised.
    """
    span = rule.spec.length
    direct = _integrated_basis(rule.nodes, rule.bary_weights, span, 0.0, np.array([span]))[0]
    z = rule.standard_nodes
    standard = _integrated_basis(z, rule.bary_weights, 2.0, -1.0, np.array([1.0]))[0]
    scaled = 0.5 * span * standard
    disagreement = float(np.max(np.abs(direct - scaled)))
    if disagreement > 1e-12 * max(1.0, span):
        raise FullIntervalRouteError(rule.spec.alpha, rule.spec.degree, disagreement)
    return direct
