"""Shared fixtures and cached solves for the test suite.

The reference control problem (length 4, horizon 1, equal quadratic
weights, affine initial profile 1 + y) appears in many tests; its solves
are memoized so repeated criteria reuse the same cell results.  The
compatible problem swaps in a profile whose wall slopes vanish, so its exact
optimum is smooth and convergence checks can be held to spectral rates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import lstsq, null_space

from gegopt.cli import OcpSolution, RunRecord, run_single
from gegopt.polycore import BasisSpec
from gegopt.nodes import QuadratureRule, sgg_rule
from gegopt.transcribe import DiffusionOcp, DiscreteQp


def reference_ocp() -> DiffusionOcp:
    """The benchmark problem used throughout: L=4, t_f=1, r1=r2=1/2, f=1+y."""
    return DiffusionOcp(
        length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y
    )


def compatible_ocp() -> DiffusionOcp:
    """The benchmark problem with f = 2 - cos(pi y / 4).

    f'(0) = f'(L) = 0 matches the zero-flux conditions, and f is two cosine
    modes, so the exact optimum is two smooth modal solutions with no corner
    layers.
    """
    return DiffusionOcp(
        length=4.0,
        t_final=1.0,
        r1=0.5,
        r2=0.5,
        initial=lambda y: 2.0 - np.cos(np.pi * y / 4.0),
    )


@lru_cache(maxsize=None)
def solve_reference_cell(n: int, alpha: float) -> tuple[RunRecord, OcpSolution]:
    """Solve the benchmark problem on an n-by-n grid, memoized per (n, alpha)."""
    return run_single(reference_ocp(), n, n, alpha)


@lru_cache(maxsize=None)
def cached_rule(alpha: float, length: float, degree: int) -> QuadratureRule:
    return sgg_rule(BasisSpec(alpha=alpha, length=length, degree=degree))


def null_space_oracle(qp: DiscreteQp) -> tuple[np.ndarray, np.ndarray, float]:
    """(z, lambda, J) of a dense program by an independent route: eliminate
    the constraints, solve the reduced system.

    Feasible points are z_p + N v with z_p the minimum-norm feasible point
    and N an orthonormal null-space basis, so the minimum-norm v gives the
    minimum-norm minimizer.
    """
    z_p = lstsq(qp.H, qp.b)[0]
    basis = null_space(qp.H)
    if basis.size:
        reduced = 2.0 * basis.T @ qp.Q @ basis
        rhs = -basis.T @ (2.0 * qp.Q @ z_p + qp.c)
        v = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
        z = z_p + basis @ v
    else:
        z = z_p
    lam = lstsq(qp.H.T, -(2.0 * qp.Q @ z + qp.c))[0]
    j = float(z @ qp.Q @ z + qp.c @ z + qp.j0)
    return z, lam, j


def reference_barycentric_basis(
    nodes: np.ndarray, weights: np.ndarray, points: np.ndarray, span: float
) -> np.ndarray:
    """The full-width barycentric basis that interp.barycentric_basis must
    reproduce bit for bit: every point is compared with every node, and a
    row with a node within 1e-14 * span becomes the unit row of the closest."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    diff = pts[:, None] - nodes[None, :]
    hits = np.abs(diff) <= 1e-14 * span
    safe = np.where(hits, 1.0, diff)
    terms = weights[None, :] / safe
    basis = terms / terms.sum(axis=1, keepdims=True)
    hit_rows = hits.any(axis=1)
    if np.any(hit_rows):
        basis[hit_rows] = 0.0
        rows = np.nonzero(hit_rows)[0]
        cols = np.abs(diff[hit_rows]).argmin(axis=1)
        basis[rows, cols] = 1.0
    return basis


def reachable_arrays(obj) -> list[np.ndarray]:
    """Every NumPy array an object holds, through the attributes of gegopt
    objects and through tuples, lists and dicts, cached values included."""
    found, seen, todo = [], set(), [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif type(item).__module__.startswith("gegopt"):
            todo.extend(vars(item).values())
    return found


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
