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
from gegopt.transcribe import DiffusionOcp, DiscreteQp, GridIndexMap, Transcription, build
from gegopt import qpsolve
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


def transcription(n_y: int, n_t: int, alpha: float = 0.0) -> Transcription:
    ocp = DiffusionOcp(
        length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y
    )
    rule_y = sgg_rule(BasisSpec(alpha=alpha, length=4.0, degree=n_y))
    rule_t = sgg_rule(BasisSpec(alpha=alpha, length=1.0, degree=n_t))
    return build(ocp, rule_y, rule_t)


def reference_qp(n: int, alpha: float = 0.0) -> DiscreteQp:
    return transcription(n, n, alpha).qp


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
    """Transcribed programs are solved through their elimination: CG on the
    condensed system reduced onto the null space of its flux rows,
    preconditioned by its control term."""

    def test_linalg_sees_only_factor_sized_matrices(self, monkeypatch):
        """No np.linalg call of the condensed route sees a matrix with more
        rows or columns than N_t + 1 or N_y + 2, a batch of them included."""
        largest = []

        def recording(func):
            def wrapper(*args, **kwargs):
                for arg in (*args, *kwargs.values()):
                    if isinstance(arg, np.ndarray) and arg.ndim >= 2:
                        largest.append(max(arg.shape[-2:]))
                return func(*args, **kwargs)

            return wrapper

        for name in np.linalg.__all__:
            func = getattr(np.linalg, name)
            if callable(func) and not isinstance(func, type):
                monkeypatch.setattr(np.linalg, name, recording(func))
        sol = solve(transcription(11, 7).factored)
        assert sol.iterations > 0 and largest
        assert max(largest) <= max(7 + 1, 11 + 2)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_iterations_stay_few(self, n):
        """The control term leaves the reduced system a condition number of
        1 + (r1/r2)(2 t_f/pi)^2, 1.405 here, whatever N."""
        sol = solve(transcription(n, n).factored)
        assert 0 < sol.iterations <= 40
        assert sol.kkt_condition == pytest.approx(1.0 + (2.0 / np.pi) ** 2, rel=1e-3)
        assert sol.kkt_rank_deficiency == n + 1

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 3.0, 10.0])
    def test_preconditioner_inverts_the_control_term(self, alpha, rng):
        """M^-1 (M x) = x for M = 2 r2 (K Z)' W (K Z), to within 1e-12 in
        normwise backward error.  The forward error is cond(M) times that,
        and cond(M) reaches 1e12 at alpha = 10 on this grid."""
        elim = transcription(7, 9, alpha).elimination
        z_y = qpsolve._NullSpace(elim).z_y
        n_t = elim.grid.n_t + 1
        k = np.kron(elim.d, elim.a) + np.kron(np.eye(n_t), elim._mismatch())
        kz = k @ np.kron(np.eye(n_t), z_y)
        m = 2.0 * elim.r2 * kz.T @ (np.kron(elim.w_t, elim.w_y)[:, None] * kz)
        x = rng.normal(size=m.shape[0])
        mx = m @ x
        back = qpsolve._preconditioner(elim, z_y)(mx.reshape(n_t, -1)).ravel()
        norm = lambda v: np.linalg.norm(v, np.inf)
        eta = norm(m @ back - mx) / (norm(m) * norm(back) + norm(mx))
        assert eta <= 1e-12

    @pytest.mark.parametrize("n, alpha", [(10, 20.0), (12, 15.0)])
    def test_residual_gate_rejects_large_alpha(self, n, alpha):
        """CG converges on these cells, but the refined residual stays far
        above round-off, so they fall through and fail there."""
        qp = transcription(n, n, alpha).factored
        assert qpsolve._condensed_solve(qp.elimination) is None
        with pytest.raises(SolveError):
            solve(qp)

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
        assert condensed.iterations > 0 and generic.iterations == 0

    @pytest.mark.parametrize(
        "broken",
        [
            pytest.param(
                lambda real: lambda elim, z_y: real(elim, 0.0 * z_y), id="singular"
            ),
            pytest.param(lambda real: lambda elim, z_y: lambda r: r, id="ill-conditioned"),
            pytest.param(
                lambda real: lambda elim, z_y: lambda r: np.full_like(r, np.nan),
                id="not-finite",
            ),
        ],
    )
    def test_failed_condensed_matrix_falls_through(self, monkeypatch, broken):
        """A preconditioner whose setup meets a singular matrix, one that
        leaves CG stalled short of its tolerance (the unpreconditioned
        reduced Hessian), and one that gives NaN all hand the cell to the
        SVD route, which answers as for a hand-built program."""
        qp = reference_qp(6)
        generic = solve(dataclasses.replace(qp, elimination=None))
        monkeypatch.setattr(qpsolve, "_preconditioner", broken(qpsolve._preconditioner))
        sol = solve(qp)
        np.testing.assert_array_equal(sol.z, generic.z)
        np.testing.assert_array_equal(sol.multipliers, generic.multipliers)
        assert sol.j == generic.j
        assert sol.kkt_rank_deficiency == qp.grid.n_t + 1
        assert sol.iterations == 0

    def test_fall_through_refused_when_dense_program_does_not_fit(self, monkeypatch):
        """With too little memory for the dense H, Q and saddle matrix, a
        cell that falls through ends in SolveError naming their sizes,
        before the dense program is assembled."""
        tr = transcription(6, 6)
        factored = tr.factored
        reads = []
        real = type(tr).qp.fget
        monkeypatch.setattr(type(tr), "qp", property(lambda t: reads.append(1) or real(t)))
        monkeypatch.setattr(qpsolve, "_physical_memory", lambda: 10**5)

        def singular(elim, z_y):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(qpsolve, "_preconditioner", singular)
        need = r"H 5\.02e-05 GB, Q 0\.0001 GB, the 168-square saddle"
        with pytest.raises(SolveError, match=need):
            solve(factored)
        assert not reads
        monkeypatch.setattr(qpsolve, "_physical_memory", lambda: 10**9)
        assert solve(factored).iterations == 0 and reads


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
