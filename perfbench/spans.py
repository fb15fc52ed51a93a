"""Spans around gegopt's public functions, and the per-layer figures made from them.

A traced pass replaces every public function of the traced modules, at every
module attribute a caller looks it up by (``gegopt.cli.solve``,
``gegopt.transcribe.first_order_matrix``, ``gegopt.intmat.full_interval_vector``
...), with a wrapper that records a span, and puts the originals back when
the pass ends.  Spans are kept in memory.  A span's self time is its
duration minus the part of it that its child spans cover.  Counts are taken
by observers that run at the same boundaries, on the arguments and results
of the wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

#: gegopt modules whose public functions get spans; the layer names.
LAYERS = ("cli", "qpsolve", "transcribe", "intmat", "nodes", "polycore", "interp", "bounds")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    cell: str  # the cell or operator build the span belongs to, "" outside one


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self.cell = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.cell))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def public_functions() -> dict[Callable, str]:
    """Every public function of the traced modules, mapped to 'layer.name'."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gegopt.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{name}"
    return found


def _spec_cell(spec) -> str:
    return f"n{spec.degree}_a{spec.alpha:g}"


#: Spans that open a cell when none is open; each maps the call's positional
#: arguments to the cell id its nested spans share.
CELL_OF: dict[str, Callable[[tuple], str]] = {
    "cli.run_single": lambda args: f"N{args[1]}x{args[2]}_a{args[3]:g}",
    "nodes.sgg_rule": lambda args: _spec_cell(args[0]),
    "intmat.first_order_matrix": lambda args: _spec_cell(args[0].spec),
    "intmat.higher_order_matrix": lambda args: _spec_cell(args[0].rule.spec),
    "bounds.first_order_error_bound": lambda args: _spec_cell(args[0].spec),
}


def _observe_solve(tracer: Tracer, args: tuple, result) -> None:
    qp = args[0]
    dim = qp.Q.shape[0] + qp.H.shape[0]
    tracer.peak("qpsolve.kkt_dim.max", dim)
    tracer.peak("qpsolve.kkt_bytes.max", 8 * dim * dim)  # computed: one dense float64 copy
    tracer.add("qpsolve.kkt_rank_deficiency.sum", result.kkt_rank_deficiency)
    tracer.peak("qpsolve.kkt_condition.max", result.kkt_condition)
    tracer.peak("qpsolve.kkt_residual.max", result.kkt_residual)


def _observe_build(tracer: Tracer, args: tuple, result) -> None:
    qp = result.qp
    tracer.peak("transcribe.qp_bytes.max", qp.H.nbytes + qp.Q.nbytes + qp.b.nbytes + qp.c.nbytes)


def _observe_run_sweep(tracer: Tracer, args: tuple, result) -> None:
    out = args[0].out
    files = [p for p in Path(out).rglob("*") if p.is_file()] if out is not None else []
    tracer.add("cli.files_written", len(files))
    tracer.add("cli.bytes_written", sum(p.stat().st_size for p in files))


#: Every counter and peak the observers below can report; zero until observed.
COUNTERS = (
    "qpsolve.kkt_dim.max",
    "qpsolve.kkt_bytes.max",
    "qpsolve.kkt_rank_deficiency.sum",
    "qpsolve.kkt_condition.max",
    "qpsolve.kkt_residual.max",
    "transcribe.qp_bytes.max",
    "cli.files_written",
    "cli.bytes_written",
    "intmat.operator_entries",
    "interp.points",
)

#: Counts taken when a wrapped call returns, from its arguments and result.
OBSERVERS: dict[str, Callable[[Tracer, tuple, object], None]] = {
    "qpsolve.solve": _observe_solve,
    "transcribe.build": _observe_build,
    "cli.run_sweep": _observe_run_sweep,
    "intmat.first_order_matrix": lambda t, args, op: t.add("intmat.operator_entries", op.matrix.size),
    "interp.eval2d_grid": lambda t, args, values: t.add("interp.points", values.size),
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    cell_of = CELL_OF.get(name)
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.cell
        if cell_of is not None and not outer and args:
            tracer.cell = cell_of(args)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.cell = outer
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans into `tracer` until the block ends, then unpatch."""
    names = public_functions()
    wrappers = {fn: _wrap(tracer, name, fn) for fn, name in names.items()}
    patched = []
    try:
        for module_name, module in list(sys.modules.items()):
            if module_name != "gegopt" and not module_name.startswith("gegopt."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def layer_figures(tracer: Tracer, passes: int = 1) -> dict[str, float]:
    """Per function: total time (.s), self time (.self_s) and calls (.calls),
    zero for functions never called, plus every counter, each as a mean over
    `passes` traced passes; and every peak."""
    figures: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for name in public_functions().values():
        figures.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0, f"{name}.calls": 0})
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        figures[f"{span.name}.s"] += span.end - span.start
        figures[f"{span.name}.self_s"] += own
        figures[f"{span.name}.calls"] += 1
    figures.update(tracer.totals)
    figures["trace.spans"] = len(tracer.spans)
    figures = {key: value / passes for key, value in figures.items()}
    figures.update(tracer.peaks)
    return figures
