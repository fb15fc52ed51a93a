"""Tests of the benchmark's own parts: oracle, span arithmetic, patching and the gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import gegopt  # noqa: E402
from gegopt import cli, intmat, nodes  # noqa: E402
from gegopt.polycore import BasisSpec  # noqa: E402

from perfbench import oracle, spans, workloads  # noqa: E402

REFERENCE = oracle.draw_inputs(13)


def test_oracle_reproduces_reference_optimum():
    assert oracle.modal_optimum(1.0, 1.0) == pytest.approx(15.00031138576968, abs=1e-13)
    assert oracle.normalized_error(15.0, 1.0, 1.0) == pytest.approx(3.1138576968e-4, abs=1e-13)


def test_seed_draws_reproducible_inputs_and_reaches_paper_profile():
    assert oracle.draw_inputs(7) == oracle.draw_inputs(7)
    assert (REFERENCE.a, REFERENCE.b) == (1.0, 1.0)
    assert cli.parse_initial_profile(REFERENCE.f_spec)(2.0) == 3.0


def _tracer(events):
    """Tracer fed from a scripted clock: events are ('open', name, t) or ('close', t)."""
    times = iter(t for *_, t in events)
    tracer = spans.Tracer(clock=lambda: next(times))
    stack = []
    for event in events:
        if event[0] == "open":
            stack.append(tracer.open(event[1]))
        else:
            tracer.close(stack.pop())
    return tracer


def test_self_time_subtracts_children_on_synthetic_tree():
    tracer = _tracer([
        ("open", "root", 0.0),
        ("open", "a", 1.0), ("open", "leaf", 2.0), ("close", 3.0), ("close", 4.0),
        ("open", "b", 5.0), ("close", 9.0),
        ("close", 10.0),
    ])
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, ""),
        spans.Span("x", 1.0, 4.0, 0, ""),
        spans.Span("y", 3.0, 6.0, 0, ""),
        spans.Span("z", 8.0, 12.0, 0, ""),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_figures_average_over_passes():
    tracer = _tracer([
        ("open", "cli.run_single", 0.0), ("open", "qpsolve.solve", 1.0), ("close", 3.0), ("close", 4.0),
        ("open", "cli.run_single", 5.0), ("close", 6.0),
    ])
    tracer.add("interp.points", 10)
    tracer.peak("qpsolve.kkt_dim.max", 7)
    figures = spans.layer_figures(tracer, passes=2)
    assert figures["cli.run_single.s"] == pytest.approx(2.5)
    assert figures["cli.run_single.self_s"] == pytest.approx(1.5)
    assert figures["cli.run_single.calls"] == 1
    assert figures["qpsolve.solve.s"] == pytest.approx(1.0)
    assert figures["interp.points"] == 5
    assert figures["qpsolve.kkt_dim.max"] == 7
    assert figures["bounds.first_order_error_bound.calls"] == 0


def _function_attributes():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "gegopt" or name.startswith("gegopt.")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def test_traced_pass_records_spans_and_restores_every_wrapper():
    before = _function_attributes()
    ocp = workloads.ocp_for(REFERENCE)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert gegopt.cli.solve is not before[("gegopt.cli", "solve")]
        cli.run_single(ocp, 4, 4, 0.0)
    assert _function_attributes() == before

    names = {s.name for s in tracer.spans}
    assert {"cli.run_single", "qpsolve.solve", "transcribe.build", "transcribe.assemble_cost",
            "intmat.first_order_matrix", "intmat.full_interval_vector",
            "nodes.sgg_rule", "polycore.gegenbauer_with_derivative"} <= names
    assert {s.cell for s in tracer.spans} == {"N4x4_a0"}
    assert tracer.peaks["qpsolve.kkt_dim.max"] == 2 * (4 + 4 * 6 + 2) + (4 + 4 + 16 + 1) + 5
    assert tracer.totals["qpsolve.kkt_rank_deficiency.sum"] == 5

    count = len(tracer.spans)
    cli.run_single(ocp, 4, 4, 0.0)
    assert len(tracer.spans) == count


def test_wrappers_restored_when_the_pass_raises():
    before = _function_attributes()
    with pytest.raises(ValueError):
        with spans.traced(spans.Tracer()):
            nodes.sgg_rule(BasisSpec(alpha=0.0, length=1.0, degree=4))
            raise ValueError("pass failed")
    assert _function_attributes() == before


def test_perturbed_j_counts_as_failure():
    record, sol = cli.run_single(workloads.ocp_for(REFERENCE), 8, 8, 0.5)
    problems, err = workloads.check_solution(REFERENCE, 8, record.j, sol)
    assert problems == [] and err == pytest.approx(2.0e-8, rel=0.05)
    outcome = workloads.Outcome()
    outcome.record("cell", *workloads.check_solution(REFERENCE, 8, record.j + 10 * workloads.J_ERR_TOL[8], sol))
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "|J - J*|" in outcome.problems[0]


def _small_sweep(out: Path):
    config = dataclasses.replace(
        workloads.sweep_config(REFERENCE, out), n_y=(4,), alphas=(0.0, 0.5)
    )
    return config, cli.run_sweep(config)


def test_sweep_gate_passes_intact_artifacts_and_fails_truncated_csv(tmp_path):
    raw = _small_sweep(tmp_path)
    outcome = workloads.check_sweep(REFERENCE, raw, tmp_path)
    assert (outcome.attempted, outcome.failed) == (2, 0), outcome.problems

    profiles = tmp_path / "profiles_4_0.5.csv"
    text = profiles.read_text()
    profiles.write_text(text[: len(text) // 2])
    outcome = workloads.check_sweep(REFERENCE, raw, tmp_path)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "profiles_4_0.5.csv" in outcome.problems[0]

    report = tmp_path / "report.csv"
    report.write_text(report.read_text().splitlines()[0] + "\n")
    outcome = workloads.check_sweep(REFERENCE, raw, tmp_path)
    assert outcome.failed == 2


def test_operator_gate_flags_a_wrong_operator():
    rule = nodes.sgg_rule(BasisSpec(alpha=0.0, length=1.5, degree=16))
    first = intmat.first_order_matrix(rule)
    second = intmat.higher_order_matrix(first, 2)
    assert workloads.check_operator(rule, first, second, [0.0]) == []
    skewed = dataclasses.replace(first, matrix=first.matrix * (1 + 1e-9))
    assert workloads.check_operator(rule, skewed, second, [0.0])
    assert workloads.check_operator(rule, first, second, [float("nan")])
