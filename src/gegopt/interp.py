"""Barycentric Lagrange interpolation on Gauss node sets, in one and two
dimensions.

Evaluation uses the second (true) barycentric form, which is
scale-invariant in the weights and backward stable.  Query points that land
on a node (within a relative tolerance) short-circuit to the stored sample
so no division by ~0 ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nodes import QuadratureRule

__all__ = [
    "Interpolant1D",
    "Interpolant2D",
    "barycentric_basis",
    "eval1d",
    "eval2d",
    "eval2d_grid",
]

#: Relative node-coincidence tolerance (scaled by the interval length).
COINCIDENCE_TOL = 1e-14


def barycentric_basis(
    nodes: np.ndarray, weights: np.ndarray, points: np.ndarray, span: float
) -> np.ndarray:
    """Matrix of Lagrange cardinal values: entry (p, j) is the j-th basis
    polynomial at points[p].

    Rows are evaluated in barycentric form and sum to 1; a query within
    COINCIDENCE_TOL * span of a node returns the exact unit row.  The nodes
    must be strictly ascending (ValueError otherwise): each point is checked
    against its nearest node only, found by bisection on the node midpoints.
    """
    if (nodes[1:] <= nodes[:-1]).any():
        raise ValueError("barycentric nodes must be strictly ascending")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    basis = pts[:, None] - nodes[None, :]
    rows = np.arange(pts.size)
    nearest = np.searchsorted(0.5 * (nodes[:-1] + nodes[1:]), pts)
    hit = np.abs(basis[rows, nearest]) <= COINCIDENCE_TOL * span
    basis[rows[hit], nearest[hit]] = 1.0
    np.divide(weights, basis, out=basis)
    basis /= basis.sum(axis=1, keepdims=True)
    if hit.any():
        basis[hit] = 0.0
        basis[rows[hit], nearest[hit]] = 1.0
    return basis


@dataclass(frozen=True)
class Interpolant1D:
    """Samples on a rule's nodes, evaluated anywhere in [0, length]."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.values) != np.shape(self.rule.nodes):
            raise ValueError("one sample per node is required")


@dataclass(frozen=True)
class Interpolant2D:
    """Tensor-product interpolant on a space rule x time rule grid.

    values[i, j] is the sample at (rule_y.nodes[i], rule_t.nodes[j]).
    """

    rule_y: QuadratureRule
    rule_t: QuadratureRule
    values: np.ndarray

    def __post_init__(self) -> None:
        want = (self.rule_y.nodes.size, self.rule_t.nodes.size)
        if np.shape(self.values) != want:
            raise ValueError(f"value grid must have shape {want}")


def _check_domain(points: np.ndarray, length: float) -> None:
    tol = COINCIDENCE_TOL * max(1.0, length)
    if np.any(points < -tol) or np.any(points > length + tol):
        raise ValueError(f"evaluation point outside [0, {length}]")


def eval1d(p: Interpolant1D, x):
    """Evaluate a 1-D interpolant; x may be a scalar or an array."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    length = p.rule.spec.length
    _check_domain(x_arr, length)
    basis = barycentric_basis(p.rule.nodes, p.rule.bary_weights, x_arr, length)
    out = basis @ p.values
    return float(out[0]) if np.ndim(x) == 0 else out


def eval2d(p: Interpolant2D, y: float, t: float) -> float:
    """Evaluate a 2-D interpolant at one point of its rectangle."""
    return float(eval2d_grid(p, np.array([y]), np.array([t]))[0, 0])


def eval2d_grid(p: Interpolant2D, ys, ts) -> np.ndarray:
    """Evaluate on the tensor grid ys x ts; returns shape (len(ys), len(ts))."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_domain(ys, p.rule_y.spec.length)
    _check_domain(ts, p.rule_t.spec.length)
    by = barycentric_basis(p.rule_y.nodes, p.rule_y.bary_weights, ys, p.rule_y.spec.length)
    bt = barycentric_basis(p.rule_t.nodes, p.rule_t.bary_weights, ts, p.rule_t.spec.length)
    return by @ p.values @ bt.T
