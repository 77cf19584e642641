"""Spans around pairgap's public functions, installed from outside the package.

Every module binding of a traced function is replaced by one wrapper, so a
call is recorded whichever module makes it (adiabatic, trotter and nmr bind
propagator and realize by name, for example). Spans are kept in memory as
[name, op id, parent span, start, end] and written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter

TRACED = {
    "config": ("build_config",),
    "hamiltonian": ("realize", "sector_basis"),
    "exact": ("eigendecompose", "propagator", "sector_matrix", "reachable_gap"),
    "trotter": ("symmetric3_step", "convergence_sweep"),
    "nmr": ("compile_trotter_step", "program_unitary", "simulate_program"),
    "adiabatic": ("prepare", "sector_population_report"),
    "spectroscopy": ("acquire", "dft", "peak_pick", "fit_damped_sinusoid"),
    "pipeline": ("run_experiment", "sweep_t0", "write_run_artifacts"),
    "cli": ("main",),
}

# (name, unit, better). Counts are per cycle of the workload's op list and
# repeat exactly; self times are the best over traced cycles.
LAYER_METRICS = (
    ("config.build_config.calls", "count", "lower"),
    ("config.build_config.self_s", "s", "lower"),
    ("hamiltonian.realize.calls", "count", "lower"),
    ("hamiltonian.realize.self_s", "s", "lower"),
    ("hamiltonian.realize.bytes_out", "B", "lower"),
    ("hamiltonian.sector_basis.self_s", "s", "lower"),
    ("exact.eigendecompose.calls", "count", "lower"),
    ("exact.eigendecompose.self_s", "s", "lower"),
    ("exact.eigendecompose.dim3", "count", "lower"),
    ("exact.propagator.calls", "count", "lower"),
    ("exact.propagator.self_s", "s", "lower"),
    ("exact.sector_matrix.calls", "count", "lower"),
    ("exact.sector_matrix.self_s", "s", "lower"),
    ("exact.sector_matrix.per_op", "1/op", "lower"),
    ("exact.reachable_gap.self_s", "s", "lower"),
    ("trotter.symmetric3_step.calls", "count", "lower"),
    ("trotter.symmetric3_step.self_s", "s", "lower"),
    ("trotter.convergence_sweep.self_s", "s", "lower"),
    ("nmr.compile_trotter_step.calls", "count", "lower"),
    ("nmr.compile_trotter_step.self_s", "s", "lower"),
    ("nmr.compile_trotter_step.events", "count", "lower"),
    ("nmr.program_unitary.calls", "count", "lower"),
    ("nmr.program_unitary.self_s", "s", "lower"),
    ("nmr.simulate_program.calls", "count", "lower"),
    ("nmr.simulate_program.self_s", "s", "lower"),
    ("nmr.events_applied", "count", "lower"),
    ("nmr.event_distinct_ratio", "ratio", "lower"),
    ("adiabatic.prepare.calls", "count", "lower"),
    ("adiabatic.prepare.self_s", "s", "lower"),
    ("adiabatic.prepare.per_run", "1/run", "lower"),
    ("adiabatic.sector_population_report.self_s", "s", "lower"),
    ("spectroscopy.acquire.calls", "count", "lower"),
    ("spectroscopy.acquire.self_s", "s", "lower"),
    ("spectroscopy.acquire.samples", "count", "lower"),
    ("spectroscopy.dft.self_s", "s", "lower"),
    ("spectroscopy.peak_pick.self_s", "s", "lower"),
    ("spectroscopy.fit_damped_sinusoid.calls", "count", "lower"),
    ("spectroscopy.fit_damped_sinusoid.self_s", "s", "lower"),
    ("spectroscopy.fit.converged_ratio", "ratio", "higher"),
    ("pipeline.run_experiment.calls", "count", "lower"),
    ("pipeline.run_experiment.self_s", "s", "lower"),
    ("pipeline.sweep_t0.self_s", "s", "lower"),
    ("pipeline.write_run_artifacts.self_s", "s", "lower"),
    ("pipeline.write_run_artifacts.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _pairgap_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "pairgap" or name.startswith("pairgap.")]


def _event_key(event, t_pi: float) -> tuple:
    """(kind, targets, phase, angle, duration) of a pulse-program event."""
    if hasattr(event, "duration"):
        return ("delay", (), 0.0, 0.0, event.duration)
    return ("rf", event.targets, event.phase, event.angle, t_pi * abs(event.angle) / math.pi)


class Tracer:
    """Wraps the TRACED functions at every module binding. Wrappers record
    only while `active` is set, so the benchmark's own checks, which call
    pairgap too, leave no spans."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._captured: list[tuple] = []
        self._work = Counter()
        self._distinct: set = set()
        self._cycle_start = 0
        self._originals: dict[int, tuple] = {}
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"pairgap.{mod_name}")
            for fname in names:
                fn = getattr(module, fname)
                self._originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn))
        self._bindings = [
            (module, attr, entry[0], entry[1])
            for module in _pairgap_modules()
            for attr, value in vars(module).items()
            if (entry := self._originals.get(id(value))) and entry[0] is value
        ]

    def _wrap(self, name: str, fn):
        spans, stack, captured = self.spans, self._stack, self._captured

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, self.op_id, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            captured.append((name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Put the wrappers in place and check that no pairgap module still
        holds an unwrapped reference to a traced function."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        for module in _pairgap_modules():
            for attr, value in vars(module).items():
                entry = self._originals.get(id(value))
                if entry and entry[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} is still unwrapped")

    def remove(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def end_op(self, bytes_written: int) -> None:
        """Turn the values captured during one op into work counts. Runs
        outside the op, so it adds nothing to any span."""
        work = self._work
        for name, args, kwargs, result in self._captured:
            if name == "hamiltonian.realize":
                work["realize_bytes"] += result.nbytes
            elif name == "exact.eigendecompose":
                work["dim3"] += len(result.values) ** 3
            elif name == "nmr.compile_trotter_step":
                work["events"] += len(result.events)
            elif name in ("nmr.program_unitary", "nmr.simulate_program"):
                program = args[0] if args else kwargs["program"]
                machine = args[1] if len(args) > 1 else kwargs["machine"]
                work["events_applied"] += len(program.events)
                self._distinct.update(_event_key(ev, machine.t_pi) for ev in program.events)
            elif name == "spectroscopy.acquire":
                work["samples"] += result.q
            elif name == "spectroscopy.fit_damped_sinusoid":
                work["fits_converged"] += bool(result.converged)
            elif name == "pipeline.write_run_artifacts":
                work["artifact_bytes"] += sum(os.path.getsize(p) for p in result.values())
        self._captured.clear()
        work["bytes_written"] += bytes_written
        work["ops"] += 1

    def start_cycle(self) -> None:
        self._cycle_start = len(self.spans)
        self._work.clear()
        self._distinct.clear()

    def end_cycle(self) -> dict:
        """Calls, self seconds and work counts of the spans since start_cycle."""
        first = self._cycle_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[2] >= first:
                child[span[2] - first] += span[4] - span[3]
        calls, self_s = Counter(), Counter()
        for i, span in enumerate(spans):
            calls[span[0]] += 1
            self_s[span[0]] += span[4] - span[3] - child[i]
        work = dict(self._work)
        work["distinct_events"] = len(self._distinct)
        return {"calls": dict(calls), "self_s": dict(self_s), "work": work}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def repeatable_counts(cycle: dict) -> dict:
    """The part of a cycle record that must repeat exactly."""
    return {"calls": cycle["calls"], "work": cycle["work"]}


def layer_metrics(cycles: list[dict], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from traced cycles that ran the same op list."""
    calls = Counter(cycles[0]["calls"])
    work = Counter(cycles[0]["work"])

    def self_s(name: str) -> float:
        return min(c["self_s"].get(name, 0.0) for c in cycles)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {"trace.overhead_frac": overhead_frac}
    for metric, _, _ in LAYER_METRICS:
        if metric in values:
            continue
        fn, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            values[metric] = calls[fn]
        elif leaf == "self_s":
            values[metric] = self_s(fn)
    values.update({
        "hamiltonian.realize.bytes_out": work["realize_bytes"],
        "exact.eigendecompose.dim3": work["dim3"],
        "exact.sector_matrix.per_op": ratio(calls["exact.sector_matrix"], work["ops"]),
        "nmr.compile_trotter_step.events": work["events"],
        "nmr.events_applied": work["events_applied"],
        "nmr.event_distinct_ratio": ratio(work["distinct_events"], work["events_applied"]),
        "adiabatic.prepare.per_run": ratio(calls["adiabatic.prepare"], calls["pipeline.run_experiment"]),
        "spectroscopy.acquire.samples": work["samples"],
        "spectroscopy.fit.converged_ratio": ratio(work["fits_converged"], calls["spectroscopy.fit_damped_sinusoid"]),
        "pipeline.write_run_artifacts.bytes": work["artifact_bytes"],
        "cli.bytes_written": work["bytes_written"],
    })
    return values
