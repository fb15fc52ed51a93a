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
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import reachable_arrays, solve_reference_cell, reference_ocp

import gegopt
from gegopt import cli, transcribe
from gegopt.cli import (
    ALPHA_WINDOW,
    MAX_RANGE_VALUES,
    ConfigError,
    RunConfig,
    RunRecord,
    _build_parser,
    _format16e,
    _parse_range,
    _stage,
    _write_csv,
    _write_profiles_csv,
    emit_profiles,
    main,
    parse_initial_profile,
    run_single,
    run_sweep,
)
from gegopt.interp import eval2d_grid


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
        "bad",
        [
            "affine:1", "affine:1,2,3", "poly:", "gauss:1", "affine:a,b", "",
            "affine:1,nan", "poly:1,inf",
        ],
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

    def test_rejects_alpha_outside_window_before_any_rule(self, monkeypatch):
        monkeypatch.setattr(cli, "sgg_rule", None)  # never reached
        with pytest.raises(ConfigError, match="outside the window"):
            run_single(reference_ocp(), 4, 4, 2.0)

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
        # So close to the window's lower edge the refined residual stays far
        # above round-off at N = 5 (4e-11 of its scale after four correction
        # steps), so that cell fails in the solve.
        config = RunConfig(n_y=(5,), alphas=(-0.4999999, 0.0), sweep=True)
        records, solutions = run_sweep(config)
        assert len(records) == 2
        failed = [r for r in records if r.error]
        assert len(failed) == 1
        assert failed[0].alpha == -0.4999999
        assert failed[0].error.startswith("refined residual is not at round-off: stationarity ")
        assert math.isnan(failed[0].j)
        assert (5, 5, 0.0) in solutions

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

    def test_failure_text_reads_back_from_report(self, tmp_path, capsys):
        # The message contains commas, so report.csv must quote it.
        assert main(["--Ny", "5", "--alpha=-0.4999999", "--out", str(tmp_path)]) == 2
        printed = capsys.readouterr().out.strip().split("FAILED: ", 1)[1]
        assert ", constraints " in printed
        with (tmp_path / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][-1] == printed


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

    @pytest.mark.parametrize("samples", [2, 7, 101])
    def test_rows_equal_reference_samples(self, samples):
        _, sol = solve_reference_cell(5, 0.3)
        rows = emit_profiles(sol, samples)
        assert rows == _reference_profile_rows(sol, samples)
        assert all(type(v) is float for row in rows for v in row[1:])


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

    @pytest.mark.parametrize(
        "token, cast, want",
        [
            ("4:12:3", int, [4, 7, 10]),
            ("0:1.9:0.4", float, [0.0, 0.4, 0.8, 1.2, 1.6]),
            ("-0.4:0.9:0.1", float, [round(-0.4 + 0.1 * k, 12) for k in range(14)]),
            ("0:0.3:0.1", float, [0.0, 0.1, 0.2, 0.3]),
        ],
    )
    def test_range_never_passes_its_stop(self, token, cast, want):
        assert _parse_range(token, cast) == want

    def test_range_gives_at_most_the_value_limit(self):
        assert len(_parse_range("1:10000", int)) == MAX_RANGE_VALUES
        with pytest.raises(ConfigError, match="gives more than 10000 values"):
            _parse_range("1:10001", int)

    def test_alpha_range_stops_inside_window(self, capsys):
        assert main(["--Ny", "4", "--alpha=0:1.9:0.4", "--sweep", "--eval-grid", "11"]) == 0
        alphas = [line.split()[2] for line in capsys.readouterr().out.splitlines()]
        assert alphas == ["alpha=0:", "alpha=0.4:", "alpha=0.8:", "alpha=1.2:", "alpha=1.6:"]

    def test_config_echo_pins_every_key(self, tmp_path):
        """config.json holds every RunConfig field but `out`, in field order,
        each under its flag's name, then the version."""
        args = ["--L", "3", "--tf", "2", "--r1", "1", "--r2", "0.25", "--f", "poly:1,0,2",
                "--Ny", "3:4", "--Nt", "3", "--alpha=-0.2", "--alpha", "0.5", "--sweep",
                "--eval-grid", "11", "--dump-matrices", "--out", str(tmp_path)]
        assert main(args) == 0
        echo = json.loads((tmp_path / "config.json").read_text())
        assert list(echo.items()) == [
            ("L", 3.0), ("tf", 2.0), ("r1", 1.0), ("r2", 0.25), ("f", "poly:1,0,2"),
            ("Ny", [3, 4]), ("Nt", [3]), ("alpha", [-0.2, 0.5]), ("sweep", True),
            ("eval_grid", 11), ("dump_matrices", True), ("version", gegopt.__version__),
        ]

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


def _reference_profile_rows(sol, samples):
    trans = sol.transcription
    n_y = trans.grid.n_y
    rules = (trans.rule_y, trans.rule_t)
    x, u = sol.x[: n_y + 1, :], sol.u[: n_y + 1, :]
    ys = np.linspace(0.0, trans.ocp.length, samples)
    ts = np.linspace(0.0, trans.ocp.t_final, samples)
    xg = eval2d_grid(*rules, x, ys, ts)
    ug = eval2d_grid(*rules, u, ys, ts)
    rows = [("grid", ys[iy], ts[it], xg[iy, it], ug[iy, it])
            for iy in range(samples) for it in range(samples)]
    mid = 0.5 * trans.ocp.length
    xm = eval2d_grid(*rules, x, [mid], ts)[0]
    um = eval2d_grid(*rules, u, [mid], ts)[0]
    rows.extend(("midline", mid, ts[it], xm[it], um[it]) for it in range(samples))
    return rows


def _reference_profiles_csv(path, sol, samples):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "y", "t", "x", "u"])
        for section, y, t, xv, uv in _reference_profile_rows(sol, samples):
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

    @pytest.mark.parametrize(
        "length, t_final, n_y, n_t, samples",
        [
            ("4", "1", 4, 4, 2),
            ("4", "1", 5, 5, 101),
            # linspace(0, 3.7, 11) and linspace(0, 0.3, 11) need all 17 digits
            ("3.7", "0.3", 6, 4, 11),
        ],
    )
    def test_files_match_reference_writer_across_grids(
        self, length, t_final, n_y, n_t, samples, tmp_path
    ):
        out, ref = tmp_path / "out", tmp_path / "ref"
        args = ["--L", length, "--tf", t_final, "--Ny", str(n_y), "--Nt", str(n_t),
                "--alpha", "0.3", "--eval-grid", str(samples), "--out", str(out)]
        assert main(args) == 0
        ocp = transcribe.DiffusionOcp(
            length=float(length), t_final=float(t_final), r1=0.5, r2=0.5,
            initial=lambda y: 1.0 + y,
        )
        _, sol = run_single(ocp, n_y, n_t, 0.3, eval_grid=samples)
        ref.mkdir()
        _reference_solution_csv(ref / "solution.csv", sol)
        _reference_profiles_csv(ref / "profiles.csv", sol, samples)
        tag = f"{n_y}_0.3" if n_y == n_t else f"{n_y}x{n_t}_0.3"
        assert (out / f"solution_{tag}.csv").read_bytes() == (ref / "solution.csv").read_bytes()
        assert (out / f"profiles_{tag}.csv").read_bytes() == (ref / "profiles.csv").read_bytes()

    def test_profile_writer_memory_peak(self, tmp_path):
        """One profile file at eval grid 101 peaks at no more than four
        times the file's own bytes."""
        _, sol = solve_reference_cell(8, 0.0)
        path = tmp_path / "profiles.csv"
        args = (sol.transcription.rule_y, sol.transcription.rule_t, sol.x, sol.u, 101)
        _write_profiles_csv(path, *args)  # lazy NumPy imports
        tracemalloc.start()
        try:
            _write_profiles_csv(path, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 4 * size, f"peak {peak / size:.2f} x the file's {size} bytes"

    def test_row_formatter_special_values(self, tmp_path):
        values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1]
        col = np.array(values)[:, None]
        path = tmp_path / "rows.csv"
        _write_csv(path, b"", [(np.array([b"v"]), np.zeros(len(values), int))],
                   np.hstack([col, -col]))
        got = path.read_bytes().decode()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for v in values:
            writer.writerow(["v", f"{v:.16e}", f"{-v:.16e}"])
        assert got == buf.getvalue()
        assert got.splitlines()[0] == "v,-0.0000000000000000e+00,0.0000000000000000e+00"
        parsed = [float(line.split(",")[1]) for line in got.splitlines()]
        assert np.array_equal(parsed, values, equal_nan=True)
        assert [math.copysign(1.0, v) for v in parsed] == [math.copysign(1.0, v) for v in values]


def _percent_fields(values):
    return [b"%.16e" % v for v in np.ravel(values).tolist()]


def _fields(cells):
    return [cell.replace(b"\0", b"") for cell in cells.tolist()]


class TestFormat16e:
    """`_format16e` gives the bytes of `b"%.16e" % v` for every double."""

    EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             9.999999999999999e16, 1e16, 1e17, 1e23, 1e100, 1e-100, 0.1, 0.5, 1.0,
             9.5, 0.15, 1.0000000000000002, 0.9999999999999999]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_values(self, sign):
        values = sign * np.array(self.EDGES)
        assert _fields(_format16e(values)) == _percent_fields(values)
        assert _fields(_format16e(-np.zeros(1))) == [b"-0.0000000000000000e+00"]

    @pytest.mark.parametrize("draw", ["bit patterns", "normals", "scaled normals"])
    def test_matches_percent_on_random_values(self, draw):
        rng = np.random.default_rng(29)
        n = 200_000
        if draw == "bit patterns":  # nan, inf and subnormals included
            values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
            values[:4] = [np.nan, np.inf, -np.inf, 4e-320]
        elif draw == "normals":
            values = rng.standard_normal(n)
        else:
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        got, want = _fields(_format16e(values)), _percent_fields(values)
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not mismatches, mismatches[:5]

    def test_fallback_for_every_value_writes_the_same_files(self, tmp_path, monkeypatch):
        config = dict(n_y=(4, 5), alphas=(-0.2, 0.9), sweep=True, eval_grid=11, dump_matrices=True)
        run_sweep(RunConfig(out=tmp_path / "own", **config))
        monkeypatch.setattr(cli, "_MANTISSA_BITS", 10**6)
        monkeypatch.setattr(cli, "_format_tables", None)  # never reached
        run_sweep(RunConfig(out=tmp_path / "fallback", **config))
        files = sorted(p.relative_to(tmp_path / "own") for p in (tmp_path / "own").rglob("*.csv"))
        assert len(files) == 4 * (2 + 4) + 1
        for name in files:
            if name.name != "report.csv":
                own = (tmp_path / "own" / name).read_bytes()
                assert own == (tmp_path / "fallback" / name).read_bytes(), name


class TestSweepWrites:
    """A sweep writes each solved cell's files before it solves the next
    cell, and report.csv and config.json after the last."""

    def test_failed_write_raises_and_leaves_no_report(self, tmp_path):
        (tmp_path / "solution_5_0.csv").mkdir()
        config = RunConfig(n_y=(4, 5, 6), sweep=True, out=tmp_path, eval_grid=11)
        with pytest.raises(IsADirectoryError):
            run_sweep(config)
        assert (tmp_path / "profiles_4_0.csv").exists()
        assert not (tmp_path / "solution_6_0.csv").exists()
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "config.json").exists()

    def test_interrupted_sweep_keeps_earlier_files(self, tmp_path, monkeypatch):
        solve_cell = run_single

        def interrupt_at_five(ocp, n_y, *args):
            if n_y == 5:
                raise KeyboardInterrupt
            return solve_cell(ocp, n_y, *args)

        monkeypatch.setattr(cli, "run_single", interrupt_at_five)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(RunConfig(n_y=(4, 5, 6), sweep=True, out=tmp_path, eval_grid=11))
        assert (tmp_path / "solution_4_0.csv").exists()
        assert (tmp_path / "profiles_4_0.csv").exists()
        assert not (tmp_path / "report.csv").exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus"],
            ["--f", "gauss:1"],
            ["--Ny", "4", "--Ny", "6"],  # multiple cells, no --sweep
            ["--r2", "0"],
            ["--Ny", "4:3"],  # descending range
            ["--Ny", "0"],
            ["--Ny", "4", "--Nt", "0"],
            ["--Ny", "4:inf", "--sweep"],
            ["--alpha=-inf:1:0.5", "--sweep"],
        ],
    )
    def test_configuration_failures_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token, cause",
        [
            ("4:3", "range '4:3' must ascend with positive step"),
            ("abc", "invalid literal for int() with base 10: 'abc'"),
            ("4:8:2.5", "range '4:8:2.5' gives 6.5, which is not a whole number"),
            ("4:inf", "range '4:inf' needs a finite start, stop and step"),
            ("4:8:nan", "range '4:8:nan' needs a finite start, stop and step"),
        ],
    )
    def test_bad_grid_token_names_its_flag(self, token, cause, capsys):
        assert main(["--Ny", token]) == 1
        assert capsys.readouterr().err == f"configuration error: argument --Ny: {cause}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--Ny", "4:1e30"], "--Ny"), (["--alpha=0:1.9:1e-12"], "--alpha")],
    )
    def test_huge_range_exits_one_before_building_it(self, argv, flag):
        """A range of about 1e30 values is refused before its list is built.
        The child runs under a 512 MiB address-space cap and a 10 s timeout,
        so a parser that builds the list fails the test instead of the host."""
        cap = 512 * 2**20
        package_root = Path(gegopt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "gegopt", *argv, "--sweep"],
            capture_output=True,
            text=True,
            check=False,
            timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert proc.returncode == 1
        assert f"configuration error: argument {flag}" in proc.stderr

    @pytest.mark.parametrize("argv", [["--r2", "1e-300"]])
    def test_cell_failure_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--L", "inf"), ("--tf", "inf"), ("--r1", "inf"), ("--r2", "inf"),
            ("--f", "affine:1,nan"),
        ],
    )
    def test_non_finite_problem_data_exits_one_before_output(self, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--Ny", "4", flag, value, "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

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


def _modules_loaded_by_a_run(prefixes, out):
    """The loaded modules named by, or inside, one of `prefixes` after a
    fresh process imports every gegopt module, solves one cell and runs
    the command line with its files written to `out`."""
    package_root = Path(gegopt.__file__).resolve().parents[1]
    child = (
        "import sys\n"
        "import gegopt, gegopt.cli, gegopt.bounds, gegopt.intmat, gegopt.interp\n"
        "import gegopt.nodes, gegopt.polycore, gegopt.qpsolve, gegopt.transcribe\n"
        "from gegopt.cli import main, run_single\n"
        "from gegopt.transcribe import DiffusionOcp\n"
        "ocp = DiffusionOcp(length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y)\n"
        "record, _ = run_single(ocp, 4, 4, 0.0)\n"
        "assert record.error == '' and record.j > 0.0\n"
        f"assert main(['--Ny', '4', '--eval-grid', '11', '--out', {str(out)!r}]) == 0\n"
        f"prefixes = {tuple(prefixes)!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in prefixes or m.startswith(tuple(p + '.' for p in prefixes))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        check=False,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.csv").exists()
    return proc.stdout.splitlines()[-1]


class TestRuntimeDependencies:
    def test_package_loads_no_scipy(self, tmp_path):
        # SciPy is a test-only dependency: importing every module, solving a
        # cell and writing a sweep's files must not load it.
        assert _modules_loaded_by_a_run(["scipy"], tmp_path) == "[]"

    def test_sweep_loads_no_process_pool_machinery(self, tmp_path):
        # A sweep writes its files in its own process.  Importing
        # concurrent.futures.process costs a fresh process 5-8 ms and added
        # about 1.5 MB to a paper_sweep run's peak RSS.
        assert _modules_loaded_by_a_run(["concurrent", "multiprocessing"], tmp_path) == "[]"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


class TestScripts:
    @pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py")))
    def test_help_shows_module_docstring(self, name):
        script = SCRIPTS / name
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
