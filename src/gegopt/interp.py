"""Barycentric Lagrange interpolation on Gauss node sets: the cardinal rows
of one node set, and tensor-product interpolants on space x time grids.

Evaluation uses the second (true) barycentric form, which is
scale-invariant in the weights and backward stable.  Query points that land
on a node (within a relative tolerance) short-circuit to the stored sample
so no division by ~0 ever happens.
"""

from __future__ import annotations

import numpy as np

from .nodes import QuadratureRule

__all__ = [
    "barycentric_basis",
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


def _check_domain(points: np.ndarray, length: float) -> None:
    tol = COINCIDENCE_TOL * max(1.0, length)
    if np.any(points < -tol) or np.any(points > length + tol):
        raise ValueError(f"evaluation point outside [0, {length}]")


def eval2d_grid(rule_y: QuadratureRule, rule_t: QuadratureRule, values, ys, ts) -> np.ndarray:
    """Evaluate the tensor-product interpolant of values[i, j], the sample
    at (rule_y.nodes[i], rule_t.nodes[j]), on the grid ys x ts; returns
    shape (len(ys), len(ts))."""
    want = (rule_y.nodes.size, rule_t.nodes.size)
    if np.shape(values) != want:
        raise ValueError(f"value grid must have shape {want}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_domain(ys, rule_y.spec.length)
    _check_domain(ts, rule_t.spec.length)
    by = barycentric_basis(rule_y.nodes, rule_y.bary_weights, ys, rule_y.spec.length)
    bt = barycentric_basis(rule_t.nodes, rule_t.bary_weights, ts, rule_t.spec.length)
    return by @ values @ bt.T
