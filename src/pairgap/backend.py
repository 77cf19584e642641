"""How one Trotter step becomes a unitary and a wall time.

A step is named by its method. "ideal" realizes the palindromic step as the
product of exact part exponentials (trotter.symmetric3_step). "w1" or "w2"
compiles it to a pulse program for the machine of the run's EventTable and
simulates it in that table's pulse mode. This is the only module that tells
the two apart: acquisition takes the step's unitary from ``step``,
preparation applies the steps of its ramp to a state through
``state_stepper``. A compiled caller hands the table every event of its
programs before applying any, so the table builds them in one stacked pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .hamiltonian import PairingModel
from .nmr import (
    EventTable,
    SpinSystem,
    StepCompiler,
    compile_trotter_step,
    program_unitary,
    simulate_program,
    wall_time,
)
from .trotter import TrotterPlan, symmetric3_step

IDEAL = "ideal"


def _machine(method: str, table: EventTable | None) -> SpinSystem:
    if table is None:
        raise ValueError(f"method {method}: a compiled step runs on the run's EventTable; none was given")
    return table.machine


def step(
    model: PairingModel, plan: TrotterPlan, method: str = IDEAL, table: EventTable | None = None
) -> tuple[np.ndarray, float, tuple[str, ...]]:
    """(unitary, wall-clock seconds, clamp warnings) of one step t0.

    An ideal step takes the simulated time t0 as its wall time. A compiled
    step composes the program's event unitaries from ``table`` and lasts the
    program's wall time.
    """
    if method == IDEAL:
        return symmetric3_step(model, plan), plan.t0, ()
    machine = _machine(method, table)
    program = compile_trotter_step(model, plan, method, machine)
    table._build_all(program.events)
    u = program_unitary(program, machine, table.pulse_mode, table)
    return u, wall_time(program, machine.t_pi), program.clamp_warnings


def state_stepper(
    plan: TrotterPlan, method: str, table: EventTable | None
) -> Callable[[Sequence[PairingModel], np.ndarray], np.ndarray]:
    """A function giving the state after one step of each model in turn, for
    the models of one preparation ramp. A compiled stepper keeps one
    StepCompiler, so the ramp's programs share their templates and pulses;
    it compiles every program, has the table build all their events at once,
    then applies each program event by event, which rounds differently from
    applying its composed unitary."""
    if method == IDEAL:

        def ideal(models: Sequence[PairingModel], psi: np.ndarray) -> np.ndarray:
            for model in models:
                psi = symmetric3_step(model, plan) @ psi
            return psi

        return ideal
    machine = _machine(method, table)
    compiler = StepCompiler(plan, method, machine)

    def apply(models: Sequence[PairingModel], psi: np.ndarray) -> np.ndarray:
        programs = [compiler.compile(model) for model in models]
        table._build_all(ev for program in programs for ev in program.events)
        for program in programs:
            psi = simulate_program(program, machine, psi, table.pulse_mode, table)[0]
        return psi

    return apply
