"""Tests for the command-line driver: configuration parsing, sweep
orchestration, score computation and the CSV/JSON artifacts it writes.

Everything runs in-process through main(argv) so exit codes and outputs are
asserted without spawning shells; subprocess tests cover the module entry
point, the scripts' help text and the modules a fresh process loads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reachable_arrays, solve_reference_cell, reference_ocp

import gegopt
from gegopt import transcribe
from gegopt.cli import (
    ALPHA_WINDOW,
    ConfigError,
    RunConfig,
    RunRecord,
    _build_parser,
    _csv_rows,
    _stage,
    emit_profiles,
    main,
    parse_initial_profile,
    run_single,
    run_sweep,
)
from gegopt.interp import Interpolant2D, eval2d_grid


class TestInitialProfileParsing:
    def test_affine(self):
        f = parse_initial_profile("affine:1,1")
        assert f(2.0) == pytest.approx(3.0)
        f = parse_initial_profile("affine:-2,0.5")
        assert f(4.0) == pytest.approx(0.0)

    def test_polynomial(self):
        f = parse_initial_profile("poly:0,0,1")
        assert f(3.0) == pytest.approx(9.0)
        f = parse_initial_profile("poly:5")
        assert f(123.0) == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "bad", ["affine:1", "affine:1,2,3", "poly:", "gauss:1", "affine:a,b", ""]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_initial_profile(bad)


class TestCellConstruction:
    def test_defaults_to_single_cell(self):
        assert RunConfig().cells() == [(8, 8, 0.0)]

    def test_command_line_defaults_are_the_config_defaults(self, tmp_path):
        assert main(["--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "config.json").read_text())
        config = RunConfig()
        assert (echo["L"], echo["tf"], echo["r1"], echo["r2"], echo["f"]) == (
            config.length, config.t_final, config.r1, config.r2, config.f_spec
        )
        assert (echo["Ny"], echo["alpha"], echo["eval_grid"]) == (
            list(config.n_y), list(config.alphas), config.eval_grid
        )

    def test_nt_mirrors_ny_when_unset(self):
        config = RunConfig(n_y=(4, 6), sweep=True)
        assert config.cells() == [(4, 4, 0.0), (6, 6, 0.0)]

    def test_single_nt_broadcasts(self):
        config = RunConfig(n_y=(4, 6), n_t=(3,), sweep=True)
        assert config.cells() == [(4, 3, 0.0), (6, 3, 0.0)]

    def test_equal_lengths_zip(self):
        config = RunConfig(n_y=(4, 6), n_t=(2, 5), sweep=True)
        assert config.cells() == [(4, 2, 0.0), (6, 5, 0.0)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(n_y=(4, 6, 8), n_t=(2, 5), sweep=True).cells()

    def test_multiple_cells_require_sweep_flag(self):
        with pytest.raises(ConfigError):
            RunConfig(n_y=(4, 6)).cells()
        with pytest.raises(ConfigError):
            RunConfig(alphas=(0.0, 0.5)).cells()

    def test_cells_sorted_and_deduplicated(self):
        config = RunConfig(n_y=(6, 4, 6), alphas=(0.5, -0.2), sweep=True)
        cells = config.cells()
        assert cells == sorted(set(cells))
        assert cells == [
            (4, 4, -0.2),
            (4, 4, 0.5),
            (6, 6, -0.2),
            (6, 6, 0.5),
        ]


class TestRunSingle:
    def test_zero_initial_profile_gives_zero_cost(self):
        ocp = reference_ocp()
        ocp = type(ocp)(
            length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 0.0
        )
        record, sol = run_single(ocp, 4, 4, 0.0, eval_grid=21)
        assert abs(record.j) < 1e-12
        assert np.max(np.abs(sol.z)) < 1e-8
        assert record.psi1 < 1e-10
        assert record.psi2 < 1e-10

    def test_reference_cell_scores(self):
        record, sol = solve_reference_cell(12, -0.2)
        assert record.j == pytest.approx(15.0, rel=0.02)
        assert record.psi2 <= 1e-10
        assert record.feasibility <= 1e-8
        assert sol.x.shape == (14, 13)
        assert sol.phi.shape == sol.u.shape == sol.x.shape

    def test_midline_state_matches_initial_profile(self):
        # x(L/2, 0) should reproduce f(L/2) = 3 up to the closure score
        record, sol = solve_reference_cell(8, 0.0)
        rows = emit_profiles(sol, samples=21)
        value = next(
            xv for sect, y, t, xv, _ in rows
            if sect == "grid" and y == pytest.approx(2.0) and t == 0.0
        )
        assert value == pytest.approx(3.0, abs=max(0.05, 2 * record.psi1))

    def test_determinism(self):
        r1, s1 = run_single(reference_ocp(), 5, 5, 0.3, eval_grid=11)
        r2, s2 = run_single(reference_ocp(), 5, 5, 0.3, eval_grid=11)
        assert r1.j == r2.j
        assert r1.psi1 == r2.psi1
        assert r1.psi2 == r2.psi2
        assert np.array_equal(s1.z, s2.z)

    def test_rejects_degenerate_eval_grid(self):
        with pytest.raises(ConfigError):
            run_single(reference_ocp(), 4, 4, 0.0, eval_grid=1)

    def test_solution_does_not_keep_the_assembled_qp(self):
        # A sweep keeps every cell's solution: it holds no array of the
        # dense program's O(N^4) size, and the program reassembles on read.
        record, sol = run_single(reference_ocp(), 6, 5, -0.2, eval_grid=11)
        n_unknowns = sol.transcription.grid.n_unknowns
        assert max(a.size for a in reachable_arrays(sol)) <= n_unknowns
        qp = sol.transcription.qp
        assert qp.H.shape == (7 * 6 + 6, n_unknowns)
        assert float(np.max(np.abs(qp.H @ sol.z - qp.b))) == pytest.approx(
            record.feasibility, rel=0, abs=1e-14
        )
        j = float(sol.z @ qp.Q @ sol.z + qp.c @ sol.z + qp.j0)
        assert j == pytest.approx(record.j, rel=1e-13)

    @pytest.mark.parametrize("n", [4, 12, 16])
    def test_cell_never_assembles_the_dense_program(self, monkeypatch, n):
        """A cell solves through its program's factors: it assembles
        neither the dense constraints nor the dense cost."""

        def refuse(*args, **kwargs):
            raise AssertionError("dense program assembled")

        for name in ("assemble_dynamics", "assemble_boundary", "assemble_cost"):
            monkeypatch.setattr(transcribe, name, refuse)
        record, sol = run_single(reference_ocp(), n, n, 0.0, eval_grid=11)
        assert np.isfinite(record.j)
        assert sol.qp_solution.kkt_rank_deficiency == n + 1


class TestRunSweep:
    def test_single_cell_sweep_matches_run_single(self):
        config = RunConfig(n_y=(5,), alphas=(0.1,), eval_grid=31)
        records, solutions = run_sweep(config)
        assert len(records) == 1
        direct, _ = run_single(reference_ocp(), 5, 5, 0.1, eval_grid=31)
        got = records[0]
        assert got.j == direct.j
        assert got.psi1 == direct.psi1
        assert got.psi2 == direct.psi2
        assert got.kkt_residual == direct.kkt_residual
        assert (5, 5, 0.1) in solutions

    def test_failed_cell_recorded_not_raised(self):
        config = RunConfig(n_y=(0, 4), sweep=True)
        records, solutions = run_sweep(config)
        assert len(records) == 2
        failed = [r for r in records if r.error]
        assert len(failed) == 1
        assert failed[0].n_y == 0
        assert failed[0].error == (
            "stage 'transcribe' failed for N_y=0, N_t=0, alpha=0.0: "
            "grid needs at least one interior node per axis"
        )
        assert math.isnan(failed[0].j)
        assert (4, 4, 0.0) in solutions

    def test_eval_grid_below_two_rejected_before_any_cell(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="eval grid needs at least two sample points"):
            run_sweep(RunConfig(n_y=(4,), eval_grid=1, out=out))
        assert not out.exists()

    def test_multiple_cells_without_sweep_rejected_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="multiple cells requested without --sweep"):
            run_sweep(RunConfig(n_y=(4, 6), out=out))
        assert not out.exists()

    def test_failure_text_reads_back_from_report(self, tmp_path):
        # The message contains commas, so report.csv must quote it.
        assert main(["--Ny", "0", "--out", str(tmp_path)]) == 2
        with (tmp_path / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][-1] == (
            "stage 'transcribe' failed for N_y=0, N_t=0, alpha=0.0: "
            "grid needs at least one interior node per axis"
        )


class TestAlphaWindow:
    """alpha must lie in the open window (-1/2, 2), checked before any cell
    runs; the edges themselves are outside it."""

    @pytest.mark.parametrize("alpha", [-0.5, 2.0])
    def test_edges_rejected_before_any_cell(self, alpha, tmp_path):
        window = rf"alpha={alpha:g} is outside the window \(-0\.5, 2\)"
        with pytest.raises(ConfigError, match=window):
            RunConfig(alphas=(0.0, alpha), sweep=True)
        out = tmp_path / "o"
        assert main(["--Ny", "4", "--alpha", str(alpha), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [-0.45, 1.9])
    def test_inside_edges_accepted(self, alpha, tmp_path):
        assert RunConfig(alphas=(alpha,)).alphas == (alpha,)
        args = ["--Ny", "4", "--alpha", str(alpha), "--eval-grid", "11", "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / f"solution_4_{alpha:g}.csv").exists()

    def test_help_states_the_window(self):
        assert ALPHA_WINDOW == (-0.5, 2.0)
        assert "in the open window (-0.5, 2)" in " ".join(_build_parser().format_help().split())


class TestStage:
    def test_other_errors_wrapped_with_stage_and_cell(self):
        with pytest.raises(RuntimeError) as info:
            with _stage("solve", 5, 6, -0.2):
                raise ValueError("bad input")
        assert str(info.value) == "stage 'solve' failed for N_y=5, N_t=6, alpha=-0.2: bad input"
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("err", [RuntimeError("as raised"), KeyboardInterrupt()])
    def test_runtime_error_and_interrupt_pass_through(self, err):
        # An interrupt turned into RuntimeError would be recorded as a failed
        # cell by run_sweep, and the sweep would go on.
        with pytest.raises(type(err)) as info:
            with _stage("solve", 5, 6, -0.2):
                raise err
        assert info.value is err


class TestEmitProfiles:
    def test_row_count_and_sections(self):
        _, sol = solve_reference_cell(4, 0.0)
        rows = emit_profiles(sol, samples=9)
        assert len(rows) == 9 * 9 + 9
        sections = {r[0] for r in rows}
        assert sections == {"grid", "midline"}
        midline = [r for r in rows if r[0] == "midline"]
        assert all(r[1] == pytest.approx(2.0) for r in midline)
        assert len(midline) == 9


class TestMainOutputs:
    def run_main(self, tmp_path, extra):
        args = ["--Ny", "4", "--alpha", "-0.2", "--eval-grid", "11",
                "--out", str(tmp_path)] + extra
        assert main(args) == 0

    def test_writes_report_solution_profiles_config(self, tmp_path, capsys):
        self.run_main(tmp_path, [])
        out = capsys.readouterr().out
        assert "N_y=4 N_t=4 alpha=-0.2" in out

        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "N_y", "N_t", "alpha", "J", "feasibility", "psi1", "psi2",
            "kkt_residual", "wall_time_s", "error",
        ]
        assert len(rows) == 2
        assert rows[1][:3] == ["4", "4", "-0.2"]
        assert float(rows[1][3]) == pytest.approx(15.0, rel=0.02)

        with (tmp_path / "solution_4_-0.2.csv").open() as fh:
            sol_rows = list(csv.reader(fh))
        assert sol_rows[0] == ["i", "j", "y", "t", "phi", "u", "x"]
        assert len(sol_rows) == 1 + 6 * 5  # (N_y + 2) (N_t + 1) grid slots

        with (tmp_path / "profiles_4_-0.2.csv").open() as fh:
            prof_rows = list(csv.reader(fh))
        assert prof_rows[0] == ["section", "y", "t", "x", "u"]
        assert len(prof_rows) == 1 + 11 * 11 + 11

        config = json.loads((tmp_path / "config.json").read_text())
        assert config["Ny"] == [4]
        assert config["alpha"] == [-0.2]
        assert config["L"] == 4.0
        assert "version" in config

    def test_matrix_dump(self, tmp_path):
        self.run_main(tmp_path, ["--dump-matrices"])
        mat_dir = tmp_path / "matrices_4_-0.2"
        for name in ("H", "Q", "b", "c"):
            assert (mat_dir / f"{name}.csv").exists()
        with (mat_dir / "H.csv").open() as fh:
            h_rows = list(csv.reader(fh))
        meta = json.loads((mat_dir / "meta.json").read_text())
        assert meta["H_shape"] == [len(h_rows), len(h_rows[0])]
        # dynamics rows + one closure row per time node
        assert len(h_rows) == 5 * 5 + 5
        assert len(h_rows[0]) == 2 * 6 * 5

    def test_range_arguments_expand_inclusively(self, tmp_path):
        # leading-minus range values need the = form under argparse
        args = ["--Ny", "4:6", "--alpha=-0.2:0.2:0.2", "--sweep",
                "--eval-grid", "11", "--out", str(tmp_path)]
        assert main(args) == 0
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 9  # {4,5,6} x {-0.2, 0, 0.2}
        assert {r[0] for r in rows} == {"4", "5", "6"}
        assert {r[2] for r in rows} == {"-0.2", "0", "0.2"}

    def test_mixed_grid_tag(self, tmp_path):
        args = ["--Ny", "4", "--Nt", "3", "--eval-grid", "11",
                "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "solution_4x3_0.csv").exists()


def _reference_solution_csv(path, sol):
    """The csv.writer + f"{v:.16e}" writer these files were first defined by."""
    grid = sol.transcription.grid
    y_aug = np.append(sol.transcription.rule_y.nodes, 0.0)
    t_nodes = sol.transcription.rule_t.nodes
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "y", "t", "phi", "u", "x"])
        for i in range(grid.n_y + 2):
            for j in range(grid.n_t + 1):
                writer.writerow(
                    [i, j, f"{y_aug[i]:.16e}", f"{t_nodes[j]:.16e}", f"{sol.phi[i, j]:.16e}",
                     f"{sol.u[i, j]:.16e}", f"{sol.x[i, j]:.16e}"]
                )


def _reference_profiles_csv(path, sol, samples):
    trans = sol.transcription
    n_y = trans.grid.n_y
    x_interp = Interpolant2D(trans.rule_y, trans.rule_t, sol.x[: n_y + 1, :])
    u_interp = Interpolant2D(trans.rule_y, trans.rule_t, sol.u[: n_y + 1, :])
    ys = np.linspace(0.0, trans.ocp.length, samples)
    ts = np.linspace(0.0, trans.ocp.t_final, samples)
    xg = eval2d_grid(x_interp, ys, ts)
    ug = eval2d_grid(u_interp, ys, ts)
    rows = [("grid", ys[iy], ts[it], xg[iy, it], ug[iy, it])
            for iy in range(samples) for it in range(samples)]
    mid = 0.5 * trans.ocp.length
    xm = eval2d_grid(x_interp, [mid], ts)[0]
    um = eval2d_grid(u_interp, [mid], ts)[0]
    rows.extend(("midline", mid, ts[it], xm[it], um[it]) for it in range(samples))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "y", "t", "x", "u"])
        for section, y, t, xv, uv in rows:
            writer.writerow([section, f"{y:.16e}", f"{t:.16e}", f"{xv:.16e}", f"{uv:.16e}"])


def _reference_matrices(out_dir, sol):
    qp = sol.transcription.qp
    out_dir.mkdir()
    for name, arr in (("H", qp.H), ("Q", qp.Q)):
        with (out_dir / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in arr:
                writer.writerow([f"{v:.16e}" for v in row])
    for name, vec in (("b", qp.b), ("c", qp.c)):
        with (out_dir / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            for v in vec:
                writer.writerow([f"{v:.16e}"])


class TestArtifactBytes:
    """The CSV files are pinned byte for byte to a csv.writer reference."""

    def test_files_match_reference_writer(self, tmp_path):
        out, ref = tmp_path / "out", tmp_path / "ref"
        args = ["--Ny", "4", "--Nt", "3", "--alpha=-0.2", "--eval-grid", "11",
                "--dump-matrices", "--out", str(out)]
        assert main(args) == 0
        _, sol = run_single(reference_ocp(), 4, 3, -0.2, eval_grid=11)
        ref.mkdir()
        _reference_solution_csv(ref / "solution.csv", sol)
        _reference_profiles_csv(ref / "profiles.csv", sol, 11)
        _reference_matrices(ref / "matrices", sol)
        pairs = [
            (out / "solution_4x3_-0.2.csv", ref / "solution.csv"),
            (out / "profiles_4x3_-0.2.csv", ref / "profiles.csv"),
        ] + [
            (out / "matrices_4x3_-0.2" / f"{name}.csv", ref / "matrices" / f"{name}.csv")
            for name in ("H", "Q", "b", "c")
        ]
        for got, want in pairs:
            data = got.read_bytes()
            assert data == want.read_bytes(), got.name
            assert data.endswith(b"\r\n")
            assert data.count(b"\n") == data.count(b"\r\n"), got.name

    def test_row_formatter_special_values(self):
        values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1]
        col = np.array(values)[:, None]
        got = _csv_rows("v,%.16e,%.16e\r\n", np.hstack([col, -col]))
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for v in values:
            writer.writerow(["v", f"{v:.16e}", f"{-v:.16e}"])
        assert got == buf.getvalue()
        assert got.splitlines()[0] == "v,-0.0000000000000000e+00,0.0000000000000000e+00"
        parsed = [float(line.split(",")[1]) for line in got.splitlines()]
        assert np.array_equal(parsed, values, equal_nan=True)
        assert [math.copysign(1.0, v) for v in parsed] == [math.copysign(1.0, v) for v in values]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus"],
            ["--f", "gauss:1"],
            ["--Ny", "4", "--Ny", "6"],  # multiple cells, no --sweep
            ["--r2", "0"],
            ["--Ny", "4:3"],  # descending range
        ],
    )
    def test_configuration_failures_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--Ny", "0"]])
    def test_cell_failure_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_eval_grid_below_two_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--Ny", "4", "--eval-grid", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: eval grid needs at least two sample points" in err
        assert not out.exists()

    def test_successful_run_exits_zero(self, capsys):
        assert main(["--Ny", "3", "--eval-grid", "11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("N_y=3 N_t=3 alpha=0:")
        assert "J=" in out

    def test_module_entry_point(self):
        # The child does not inherit sys.path; point it at the gegopt under test.
        package_root = Path(gegopt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "gegopt", "--help"],
            capture_output=True,
            text=True,
            check=False,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert proc.returncode == 0
        assert "--alpha" in proc.stdout
        assert "--dump-matrices" in proc.stdout


class TestRuntimeDependencies:
    def test_package_loads_no_scipy(self):
        # SciPy is a test-only dependency: importing every module and solving
        # a cell must not load it.
        package_root = Path(gegopt.__file__).resolve().parents[1]
        child = (
            "import sys\n"
            "import gegopt, gegopt.cli, gegopt.bounds, gegopt.intmat, gegopt.interp\n"
            "import gegopt.nodes, gegopt.polycore, gegopt.qpsolve, gegopt.transcribe\n"
            "from gegopt.cli import run_single\n"
            "from gegopt.transcribe import DiffusionOcp\n"
            "ocp = DiffusionOcp(length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y)\n"
            "record, _ = run_single(ocp, 4, 4, 0.0)\n"
            "assert record.error == '' and record.j > 0.0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            check=False,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestScripts:
    @pytest.mark.parametrize(
        "name",
        ["convergence_table.py", "large_cells.py", "quadrature_bound_demo.py", "run_benchmark_sweep.py"],
    )
    def test_help_shows_module_docstring(self, name):
        script = Path(__file__).resolve().parents[1] / "scripts" / name
        package_root = Path(gegopt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True,
            text=True,
            check=False,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert proc.returncode == 0
        assert f"$ python3 scripts/{name}" in proc.stdout


class TestRecordDefaults:
    def test_error_field_defaults_empty(self):
        record = RunRecord(n_y=4, n_t=4, alpha=0.0)
        assert record.error == ""
        assert math.isnan(record.j)
