"""Tests for the command-line driver: configuration parsing, sweep
orchestration, score computation and the CSV/JSON artifacts it writes.

Everything runs in-process through main(argv) so exit codes and outputs are
asserted without spawning shells; one subprocess test covers the module
entry point itself.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import solve_reference_cell, reference_ocp

import gegopt
from gegopt.cli import (
    ConfigError,
    RunConfig,
    RunRecord,
    emit_profiles,
    main,
    parse_initial_profile,
    run_single,
    run_sweep,
)


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
        assert math.isnan(failed[0].j)
        assert (4, 4, 0.0) in solutions


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

    @pytest.mark.parametrize("argv", [["--Ny", "0"], ["--eval-grid", "1"]])
    def test_cell_failure_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "FAILED" in capsys.readouterr().out

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


class TestRecordDefaults:
    def test_error_field_defaults_empty(self):
        record = RunRecord(n_y=4, n_t=4, alpha=0.0)
        assert record.error == ""
        assert math.isnan(record.j)
