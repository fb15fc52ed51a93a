"""Tests for the equality-constrained QP solver.

Transcribed programs are cross-checked against an independent null-space
elimination of their dense form built from scipy.linalg.null_space and
least squares; a cell the solver cannot solve fails with a SolveError that
names the failing step.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import null_space_oracle
from perfbench import oracle

from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.transcribe import DiffusionOcp, DiscreteQp, Transcription, build
from gegopt import qpsolve
from gegopt.cli import run_single
from gegopt.qpsolve import QpSolution, SolveError, solve


def transcription(
    n_y: int, n_t: int, alpha: float = 0.0, r: float = 0.5, initial=lambda y: 1.0 + y
) -> Transcription:
    ocp = DiffusionOcp(length=4.0, t_final=1.0, r1=r, r2=r, initial=initial)
    rule_y = sgg_rule(BasisSpec(alpha=alpha, length=4.0, degree=n_y))
    rule_t = sgg_rule(BasisSpec(alpha=alpha, length=1.0, degree=n_t))
    return build(ocp, rule_y, rule_t)


def reference_qp(n: int, alpha: float = 0.0) -> DiscreteQp:
    return transcription(n, n, alpha).qp


def long_horizon_qp(n: int) -> DiscreteQp:
    """The badly conditioned cell t_f = 100, r1 = 50, r2 = 0.5, alpha = 0:
    the reduced system's condition number is 1 + (r1/r2)(2 t_f/pi)^2,
    4.05e5."""
    ocp = DiffusionOcp(length=4.0, t_final=100.0, r1=50.0, r2=0.5, initial=lambda y: 1.0 + y)
    rule_y = sgg_rule(BasisSpec(alpha=0.0, length=4.0, degree=n))
    rule_t = sgg_rule(BasisSpec(alpha=0.0, length=100.0, degree=n))
    return build(ocp, rule_y, rule_t).qp


def with_factors(tr: Transcription, **factors) -> DiscreteQp:
    """The transcribed program with some of its factors replaced."""
    return dataclasses.replace(tr.qp, **factors)


class TestErrorPaths:
    def test_non_finite_input_rejected(self):
        tr = transcription(4, 4)
        f = tr.qp.f.copy()
        f[1] = np.nan
        with pytest.raises(ValueError, match="non-finite entries in program factor f"):
            solve(with_factors(tr, f=f))

    def test_singular_time_operator_named(self):
        """D = P1^-1 is set up with the preconditioner and fails like it."""
        tr = transcription(4, 4)
        p1 = tr.qp.p1.copy()
        p1[:, 0] = 0.0
        with pytest.raises(SolveError, match="preconditioner setup failed"):
            solve(with_factors(tr, p1=p1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowingPrograms:
    """Finite programs whose arithmetic overflows end in a SolveError."""

    def test_overflowing_objective_rejected(self):
        """The factors are finite but J is beyond the float range.  The small
        weights keep CG's |r|^2 finite, so the solve reaches J."""
        tr = transcription(4, 4, r=1e-20, initial=lambda y: 1e160 * (1.0 + y))
        with pytest.raises(SolveError, match="objective is not finite"):
            solve(tr.qp)


class TestNullSpaceOracle:
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

    def test_constant_profile(self):
        """With f constant, b = 0 and H Z is round-off alone: the residual
        gate scales the constraint rows by the terms H Z sums."""
        tr = transcription(8, 8, initial=lambda y: 7.0)
        sol = solve(tr.qp)
        z_ref, _, j_ref = null_space_oracle(tr.qp)
        np.testing.assert_allclose(sol.z, z_ref, rtol=0, atol=1e-9)
        assert sol.j == pytest.approx(j_ref, rel=1e-13)
        assert sol.iterations > 0

    @pytest.mark.parametrize("n", [8, 16])
    def test_long_horizon(self, n):
        """CG takes a few hundred steps here, and the condensed Hessian
        carries D = P1^-1 into the state term; the answer still agrees with
        the dense elimination."""
        qp = long_horizon_qp(n)
        sol = solve(qp)
        z_ref, _, j_ref = null_space_oracle(qp)
        assert sol.j == pytest.approx(j_ref, rel=1e-11)
        np.testing.assert_allclose(sol.z, z_ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_large_constant_profile(self, scale):
        """b = 0 for a constant profile, so the feasibility gate scales with
        the terms H z sums, not with |b|: a large constant solves, and J
        grows as its square."""
        unit = solve(transcription(8, 8, initial=lambda y: 1.0).qp)
        sol = solve(transcription(8, 8, initial=lambda y: scale).qp)
        assert sol.j / scale**2 == pytest.approx(unit.j, rel=1e-14)
        assert sol.feasibility <= qpsolve.FEASIBILITY_TOL * scale


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
    """The SVD of the full saddle matrix, the generic route of a dense
    solver, is never taken."""

    @pytest.mark.parametrize(
        "n, alpha", [(6, 0.0), (4, -0.4), (4, 0.9), (12, -0.4), (12, 0.9), (16, 0.0)]
    )
    def test_transcribed_solve_needs_no_svd(self, monkeypatch, n, alpha):
        """Transcribed programs across the benchmark's range solve without
        one."""

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        sol = solve(reference_qp(n, alpha))
        assert sol.kkt_rank_deficiency == n + 1
        assert sol.feasibility < 1e-10


class TestCondensedSolve:
    """Transcribed programs are solved through their factors: CG on the
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
        sol = solve(transcription(11, 7).qp)
        assert sol.iterations > 0 and largest
        assert max(largest) <= max(7 + 1, 11 + 2)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_iterations_stay_few(self, n):
        """The control term leaves the reduced system a condition number of
        1 + (r1/r2)(2 t_f/pi)^2, 1.405 here, whatever N."""
        sol = solve(transcription(n, n).qp)
        assert 0 < sol.iterations <= 40
        assert sol.kkt_condition == pytest.approx(1.0 + (2.0 / np.pi) ** 2, rel=1e-3)
        assert sol.kkt_rank_deficiency == n + 1

    def test_condition_estimate_reads_every_cg_step(self):
        """At t_f = 100, r1 = 50 CG takes about 160 steps on the N = 8 grid,
        and the Ritz values of all of them put kkt_condition within 5% of
        1 + (r1/r2)(2 t_f/pi)^2, 4.05e5."""
        sol = solve(long_horizon_qp(8))
        want = 1.0 + (50.0 / 0.5) * (2.0 * 100.0 / np.pi) ** 2
        assert sol.kkt_condition == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 3.0, 10.0])
    def test_preconditioner_inverts_the_control_term(self, alpha, rng):
        """M^-1 (M x) = x for M = 2 r2 (K Z)' W (K Z), to within 1e-12 in
        normwise backward error.  The forward error is cond(M) times that,
        and cond(M) reaches 1e12 at alpha = 10 on this grid."""
        qp = transcription(7, 9, alpha).qp
        condensed = qpsolve._Condensed(qp)
        z_y = condensed.z_y
        n_t = qp.grid.n_t + 1
        k = np.kron(condensed.d, qp.a) + np.kron(np.eye(n_t), qp.mismatch)
        kz = k @ np.kron(np.eye(n_t), z_y)
        m = 2.0 * qp.r2 * kz.T @ (np.kron(qp.w_t, qp.w_y)[:, None] * kz)
        x = rng.normal(size=m.shape[0])
        mx = m @ x
        back = qpsolve._preconditioner(qp, z_y)(mx.reshape(n_t, -1)).ravel()
        norm = lambda v: np.linalg.norm(v, np.inf)
        eta = norm(m @ back - mx) / (norm(m) * norm(back) + norm(mx))
        assert eta <= 1e-12

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("n", [4, 12, 32])
    def test_saddle_matches_kronecker_sum(self, n, alpha, rng):
        """The matrix-free condensed Hessian, 2 Qc zeta, and the flux rows
        reproduce the product with the condensed saddle matrix summed from
        np.kron products plus its transpose."""
        qp = transcription(n, n, alpha).qp
        condensed = qpsolve._Condensed(qp)
        a, c = qp.a, qp.mismatch
        b = c + np.eye(n + 1, n + 2)
        d, p1, w_t = condensed.d, qp.p1, qp.w_t

        def gram(x, y):
            return x.T @ (qp.w_y[:, None] * y)

        terms = (
            (qp.r1 * np.diag(w_t) + qp.r2 * d.T @ (w_t[:, None] * d), gram(a, a)),
            (qp.r1 * p1.T @ (w_t[:, None] * p1), gram(b, b)),
            (qp.r2 * np.diag(w_t), gram(c, c)),
            (2.0 * qp.r1 * (w_t[:, None] * p1), gram(a, b)),
            (2.0 * qp.r2 * (d.T * w_t), gram(a, c)),
        )
        size = (n + 1) * (n + 2)
        kkt = np.zeros((size + n + 1,) * 2)
        hess = kkt[:size, :size]
        for t, s_ in terms:
            hess += np.kron(t, s_)
        hess += hess.T
        flux = np.kron(np.eye(n + 1), np.append(qp.w_y, 0.0))
        kkt[size:, :size] = flux
        kkt[:size, size:] = flux.T
        zeta, mu = rng.normal(size=(n + 1, n + 2)), rng.normal(size=n + 1)
        want = kkt @ np.concatenate([zeta.ravel(), mu])
        got = condensed.hessian(zeta) + np.outer(mu, np.append(qp.w_y, 0.0))
        assert np.abs(got.ravel() - want[:size]).max() <= 1e-14 * np.abs(want[:size]).max()
        flux = zeta[:, :-1] @ qp.w_y
        assert np.abs(flux - want[size:]).max() <= 1e-14 * np.abs(want[size:]).max()

    @pytest.mark.parametrize("alpha", [-0.4, 0.0])
    def test_grid_of_200_solves_to_the_exact_optimum(self, alpha):
        """Two correction steps leave the full residual at 2e-6 (alpha =
        -0.4) and 1.6e-11 (alpha = 0) of its scale here; a third reaches
        round-off, and J then matches the modal optimum."""
        ocp = DiffusionOcp(length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y)
        record, _ = run_single(ocp, 200, 200, alpha)
        assert oracle.normalized_error(record.j, 1.0, 1.0) <= 1e-10

    @pytest.mark.parametrize("n, alpha", [(10, 20.0), (12, 15.0)])
    def test_residual_gate_rejects_large_alpha(self, n, alpha):
        """CG converges on these cells, but the refined residual stays far
        above round-off."""
        with pytest.raises(SolveError, match="refined residual is not at round-off"):
            solve(transcription(n, n, alpha).qp)

    @pytest.mark.parametrize("alpha", [-0.4, -0.2, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_agrees_with_generic_path(self, n, alpha):
        """The solve through the program's factors agrees with the generic
        null-space elimination of its dense form."""
        tr = transcription(n, n, alpha)
        sol = solve(tr.qp)
        z_ref, lam_ref, j_ref = null_space_oracle(tr.qp)
        np.testing.assert_allclose(sol.z, z_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.multipliers, lam_ref, rtol=0, atol=1e-12)
        assert sol.j == pytest.approx(j_ref, rel=0, abs=1e-12)
        assert sol.kkt_rank_deficiency == n + 1
        assert sol.iterations > 0

    @pytest.mark.parametrize(
        "broken, cause",
        [
            pytest.param(
                lambda real: lambda qp, z_y: real(qp, 0.0 * z_y),
                "preconditioner setup failed",
                id="singular",
            ),
            pytest.param(
                lambda real: lambda qp, z_y: lambda r: r,
                "CG on the first solve is not finite",
                id="ill-conditioned",
            ),
            pytest.param(
                lambda real: lambda qp, z_y: lambda r: np.full_like(r, np.nan),
                "CG on the first solve is not finite",
                id="not-finite",
            ),
        ],
    )
    def test_failed_condensed_solve_names_its_step(self, monkeypatch, broken, cause):
        """A preconditioner whose setup meets a singular matrix, one that
        leaves CG to break down (the unpreconditioned reduced Hessian) and
        one that gives NaN each end the solve with a SolveError naming the
        step."""
        monkeypatch.setattr(qpsolve, "_preconditioner", broken(qpsolve._preconditioner))
        with pytest.raises(SolveError, match=cause):
            solve(transcription(6, 6).qp)

    def test_cg_iteration_cap_named(self, monkeypatch):
        """CG takes 12 or 13 steps per solve here; with 5 allowed the first
        solve fails."""
        monkeypatch.setattr(qpsolve, "CG_MAX_ITERATIONS", 5)
        cause = r"CG on the first solve did not reach \|r\| <= 1e-10 \|rhs\| in 5 iterations"
        with pytest.raises(SolveError, match=cause):
            solve(transcription(6, 6).qp)

    def test_failed_refinement_solve_named(self, monkeypatch):
        real, steps = qpsolve._pcg, []

        def pcg(apply, precondition, rhs, step):
            steps.append(step)
            if step == "refinement":
                precondition = lambda r: np.full_like(r, np.nan)
            return real(apply, precondition, rhs, step)

        monkeypatch.setattr(qpsolve, "_pcg", pcg)
        with pytest.raises(SolveError, match="CG on the refinement solve is not finite"):
            solve(transcription(6, 6).qp)
        assert steps == ["first", "refinement"]


class TestDiagnostics:
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
