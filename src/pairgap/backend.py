"""How one Trotter step becomes a unitary and a wall time.

A step is named by its method. "ideal" realizes the palindromic step as the
product of exact part exponentials (trotter.symmetric3_step). "w1" or "w2"
compiles it to a pulse program for the machine of the run's EventTable and
simulates it in that table's pulse mode. This is the only module that tells
the two apart: acquisition takes the step's unitary from ``step``,
preparation applies the steps of its ramp to a state with ``step_state``.
The table compiles each program of a run once and builds its events once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .hamiltonian import PairingModel
from .nmr import EventTable, SpinSystem, program_unitary, simulate_program, wall_time
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
    step takes its program from ``table`` (compiled once, reserved ahead by
    a run), composes its built event unitaries and lasts its wall time.
    """
    if method == IDEAL:
        return symmetric3_step(model, plan), plan.t0, ()
    machine = _machine(method, table)
    (program,) = table.programs([model], plan, method)
    u = program_unitary(program, machine, table.pulse_mode, table)
    return u, wall_time(program, machine.t_pi), program.clamp_warnings


def step_state(
    models: Sequence[PairingModel], plan: TrotterPlan, method: str, table: EventTable | None, psi: np.ndarray
) -> np.ndarray:
    """The state after one step of each model in turn, for the models of one
    preparation ramp. A compiled method has the table compile each program
    once and build their events, and a reserved step's, in one pass; each
    is applied event by event, which rounds unlike its composed unitary."""
    if method == IDEAL:
        for model in models:
            psi = symmetric3_step(model, plan) @ psi
        return psi
    machine = _machine(method, table)
    for program in table.programs(models, plan, method):
        psi = simulate_program(program, machine, psi, table.pulse_mode, table)
    return psi
