"""Tests for the equality-constrained QP solver.

Small hand-solvable programs freeze the expected minimizers and multipliers;
random programs are cross-checked against an independent null-space
elimination built from scipy.linalg.null_space and least squares.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import gegopt
import numpy as np
import pytest
from scipy.linalg import lstsq, null_space

from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.transcribe import DiffusionOcp, DiscreteQp, GridIndexMap, build
from gegopt.qpsolve import (
    QpSolution,
    RankDeficientError,
    SolveError,
    diagnostics,
    solve,
)


def toy_qp(h, b, q, c, j0=0.0) -> DiscreteQp:
    return DiscreteQp(
        H=np.asarray(h, dtype=float),
        b=np.asarray(b, dtype=float),
        Q=np.asarray(q, dtype=float),
        c=np.asarray(c, dtype=float),
        j0=j0,
        grid=GridIndexMap(1, 1),
    )


def null_space_oracle(qp: DiscreteQp) -> tuple[np.ndarray, np.ndarray, float]:
    """Independent route: eliminate the constraints, solve the reduced system.

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


def reference_qp(n: int, alpha: float = 0.0) -> DiscreteQp:
    ocp = DiffusionOcp(
        length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y
    )
    rule_y = sgg_rule(BasisSpec(alpha=alpha, length=4.0, degree=n))
    rule_t = sgg_rule(BasisSpec(alpha=alpha, length=1.0, degree=n))
    return build(ocp, rule_y, rule_t).qp


class TestHandSolvablePrograms:
    def test_projection_onto_plane(self):
        """min z'z s.t. z1 + z2 = 1 -> (1/2, 1/2), J = 1/2, multiplier -1."""
        sol = solve(toy_qp([[1.0, 1.0]], [1.0], np.eye(2), np.zeros(2)))
        np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-12)
        assert sol.j == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.multipliers, [-1.0], atol=1e-12)
        assert sol.feasibility < 1e-12
        assert sol.kkt_residual < 1e-12

    def test_constant_term_carried_into_objective(self):
        sol = solve(toy_qp([[1.0, 1.0]], [1.0], np.eye(2), np.zeros(2), j0=2.5))
        assert sol.j == pytest.approx(3.0, abs=1e-12)

    def test_affine_term(self):
        """min z'z + 2 z1 s.t. z2 = 0 -> z = (-1, 0), J = -1."""
        sol = solve(toy_qp([[0.0, 1.0]], [0.0], np.eye(2), [2.0, 0.0]))
        np.testing.assert_allclose(sol.z, [-1.0, 0.0], atol=1e-12)
        assert sol.j == pytest.approx(-1.0, abs=1e-12)

    def test_costless_direction_resolved_to_minimum_norm(self):
        """A free coordinate (zero cost row and no constraint) comes back 0."""
        sol = solve(toy_qp([[1.0, 0.0]], [1.0], np.diag([1.0, 0.0]), np.zeros(2)))
        np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.multipliers, [-2.0], atol=1e-12)
        assert sol.kkt_rank_deficiency == 1

    def test_nondegenerate_program_reports_full_rank(self):
        sol = solve(toy_qp([[1.0, 1.0]], [1.0], np.eye(2), np.zeros(2)))
        assert sol.kkt_rank_deficiency == 0
        assert sol.kkt_condition >= 1.0


class TestErrorPaths:
    def test_duplicated_constraint_row_aborts(self):
        with pytest.raises(RankDeficientError) as exc:
            solve(toy_qp([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0], np.eye(2), np.zeros(2)))
        assert exc.value.deficiency == 1

    def test_inconsistent_stationarity_aborts(self):
        """No multiplier can cancel a cost gradient outside range(H')."""
        with pytest.raises(SolveError):
            solve(toy_qp([[1.0, 0.0]], [0.0], np.zeros((2, 2)), [0.0, 1.0]))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            solve(toy_qp([[1.0, np.nan]], [1.0], np.eye(2), np.zeros(2)))
        with pytest.raises(ValueError):
            solve(toy_qp([[1.0, 1.0]], [np.inf], np.eye(2), np.zeros(2)))

    def test_asymmetric_cost_rejected(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve(toy_qp([[1.0, 1.0]], [1.0], q, np.zeros(2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowingPrograms:
    """Finite programs whose arithmetic overflows end in a SolveError."""

    def test_overflowing_saddle_matrix_rejected_before_svd(self):
        """2Q overflows to inf; an SVD of that matrix never returns, so the
        check runs in a fresh process under a timeout."""
        code = (
            "import numpy as np\n"
            "from gegopt.qpsolve import SolveError, solve\n"
            "from gegopt.transcribe import DiscreteQp, GridIndexMap\n"
            "qp = DiscreteQp(H=np.full((1, 2), 1e308), b=np.array([1e308]),\n"
            "                Q=1e308 * np.eye(2), c=np.zeros(2), j0=0.0, grid=GridIndexMap(1, 1))\n"
            "try:\n"
            "    solve(qp)\n"
            "except SolveError as exc:\n"
            "    print('SolveError', exc)\n"
        )
        package_root = Path(gegopt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("SolveError saddle matrix has non-finite entries")

    def test_overflowing_rank_cutoff_gives_typed_error(self):
        """The SVD cutoff s_max * dim * eps overflowed and left no singular
        value above it; the solve now ends in the residual check."""
        with pytest.raises(SolveError):
            solve(toy_qp([[1.0, 1.0]], [1.0], 8e307 * np.eye(2), np.zeros(2)))

    def test_overflowing_objective_rejected(self):
        with pytest.raises(SolveError, match="objective is not finite"):
            solve(toy_qp([[1e307, 1e307]], [1e308], 1e307 * np.eye(2), np.zeros(2)))


class TestNullSpaceOracle:
    def test_random_strictly_convex_programs(self, rng):
        for _ in range(10):
            n, m = 12, 5
            a = rng.normal(size=(n, n))
            q = a.T @ a + 0.5 * np.eye(n)
            h = rng.normal(size=(m, n))
            qp = toy_qp(h, rng.normal(size=m), q, rng.normal(size=n))
            sol = solve(qp)
            z_ref, lam_ref, j_ref = null_space_oracle(qp)
            np.testing.assert_allclose(sol.z, z_ref, atol=1e-9)
            np.testing.assert_allclose(sol.multipliers, lam_ref, atol=1e-8)
            assert sol.j == pytest.approx(j_ref, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transcribed_programs(self, n):
        """The structural free split must not break agreement of the routes."""
        qp = reference_qp(n)
        sol = solve(qp)
        z_ref, lam_ref, j_ref = null_space_oracle(qp)
        np.testing.assert_allclose(sol.z, z_ref, atol=1e-8)
        assert sol.j == pytest.approx(j_ref, abs=1e-8)
        np.testing.assert_allclose(sol.multipliers, lam_ref, atol=1e-7)

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("n", [8, 12])
    def test_transcribed_programs_across_alpha(self, n, alpha):
        qp = reference_qp(n, alpha)
        sol = solve(qp)
        z_ref, lam_ref, j_ref = null_space_oracle(qp)
        np.testing.assert_allclose(sol.z, z_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.multipliers, lam_ref, rtol=0, atol=1e-12)
        assert sol.j == pytest.approx(j_ref, rel=0, abs=1e-12)
        assert sol.kkt_rank_deficiency == n + 1


class TestTranscribedStructure:
    @pytest.mark.parametrize("n", [3, 4])
    def test_boundary_split_degeneracy_counted_exactly(self, n):
        """Splitting phi + u at the y = 0 column is free: one null direction
        per time node, and no more."""
        sol = solve(reference_qp(n))
        assert sol.kkt_rank_deficiency == n + 1

    def test_split_direction_is_feasible_and_costless(self):
        qp = reference_qp(3)
        grid = qp.grid
        direction = np.zeros(grid.n_unknowns)
        pos = int(grid.index(grid.n_y + 1, 1))
        direction[pos] = 1.0
        direction[grid.block_size + pos] = -1.0
        np.testing.assert_allclose(qp.H @ direction, 0.0, atol=1e-12)
        np.testing.assert_allclose(qp.Q @ direction, 0.0, atol=1e-12)
        assert qp.c @ direction == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_scales_like_roundoff(self):
        sol = solve(reference_qp(4))
        assert sol.feasibility < 1e-10
        assert sol.kkt_residual < 1e-8


class TestGenericPath:
    """Programs without an elimination are solved through the SVD of the
    full saddle matrix: columns that H, Q and c cannot tell apart share
    their sum evenly, as in any minimum-norm solution."""

    def test_three_equal_columns_share_evenly(self):
        sol = solve(toy_qp([[1.0, 1.0, 1.0]], [1.0], np.zeros((3, 3)), np.zeros(3)))
        np.testing.assert_allclose(sol.z, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(sol.multipliers, [0.0], atol=1e-15)
        assert sol.kkt_rank_deficiency == 2

    def test_equal_columns_with_further_null_direction(self):
        """The minimum-norm point of the full program, (1, 1, 2) / 3, not the
        even split of the merged program's minimum-norm point, (1, 1, 4) / 5."""
        sol = solve(toy_qp([[1.0, 1.0, 2.0]], [2.0], np.zeros((3, 3)), np.zeros(3)))
        np.testing.assert_allclose(sol.z, [1 / 3, 1 / 3, 2 / 3], atol=1e-14)
        assert sol.kkt_rank_deficiency == 2

    def test_round_off_differences_counted_as_null_directions(self):
        qp = dataclasses.replace(reference_qp(4), elimination=None)
        pos = int(qp.grid.block_size + qp.grid.index(qp.grid.n_y + 1, 2))
        h, q = qp.H.copy(), qp.Q.copy()
        h[:, pos] = np.nextafter(h[:, pos], np.inf)
        q[:, pos] = np.nextafter(q[:, pos], np.inf)
        q[pos, :] = q[:, pos]
        sol = solve(dataclasses.replace(qp, H=h, Q=q))
        assert sol.kkt_rank_deficiency == 5

    @pytest.mark.parametrize(
        "n, alpha", [(6, 0.0), (4, -0.4), (4, 0.9), (12, -0.4), (12, 0.9), (16, 0.0)]
    )
    def test_transcribed_solve_needs_no_svd(self, monkeypatch, n, alpha):
        """Transcribed programs across the benchmark's range stay on the
        condensed route."""

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        sol = solve(reference_qp(n, alpha))
        assert sol.kkt_rank_deficiency == n + 1
        assert sol.feasibility < 1e-10


class TestCondensedSolve:
    """Transcribed programs are solved through their elimination: a saddle
    matrix of (N_y + 3)(N_t + 1) rows instead of the full one."""

    def test_factored_matrix_is_the_condensed_one(self, monkeypatch):
        shapes = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            shapes.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        solve(reference_qp(8))
        assert max(shapes) == (99, 99)

    @pytest.mark.parametrize("alpha", [-0.4, -0.2, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_agrees_with_generic_path(self, n, alpha):
        qp = reference_qp(n, alpha)
        condensed = solve(qp)
        generic = solve(dataclasses.replace(qp, elimination=None))
        np.testing.assert_allclose(condensed.z, generic.z, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            condensed.multipliers, generic.multipliers, rtol=0, atol=1e-12
        )
        assert condensed.j == pytest.approx(generic.j, rel=0, abs=1e-12)
        assert condensed.kkt_rank_deficiency == generic.kkt_rank_deficiency == n + 1

    @pytest.mark.parametrize(
        "broken",
        [
            pytest.param(lambda dim: np.zeros((dim, dim)), id="singular"),
            pytest.param(
                lambda dim: 1.0 / (np.arange(dim)[:, None] + np.arange(dim) + 1.0),
                id="ill-conditioned",
            ),
            pytest.param(lambda dim: np.full((dim, dim), np.nan), id="not-finite"),
        ],
    )
    def test_failed_condensed_matrix_falls_through(self, monkeypatch, broken):
        qp = reference_qp(6)
        generic = solve(dataclasses.replace(qp, elimination=None))
        dim = qp.elimination.saddle().shape[0]
        monkeypatch.setattr(type(qp.elimination), "saddle", lambda self: broken(dim))
        sol = solve(qp)
        np.testing.assert_array_equal(sol.z, generic.z)
        np.testing.assert_array_equal(sol.multipliers, generic.multipliers)
        assert sol.j == generic.j
        assert sol.kkt_rank_deficiency == qp.grid.n_t + 1


class TestDiagnostics:
    def test_report_matches_solution(self):
        qp = reference_qp(3)
        sol = solve(qp)
        report = diagnostics(sol, qp)
        assert report.objective == pytest.approx(sol.j, abs=1e-12)
        assert report.feasibility == pytest.approx(sol.feasibility, abs=1e-12)
        assert report.stationarity == pytest.approx(sol.kkt_residual, abs=1e-12)
        assert report.kkt_rank_deficiency == sol.kkt_rank_deficiency

    def test_determinism(self):
        qp = reference_qp(3)
        a, b = solve(qp), solve(qp)
        assert np.array_equal(a.z, b.z)
        assert a.j == b.j
        assert np.array_equal(a.multipliers, b.multipliers)

    def test_solution_is_dataclass_with_expected_fields(self):
        sol = solve(reference_qp(2))
        assert isinstance(sol, QpSolution)
        assert np.isfinite(sol.kkt_condition)
