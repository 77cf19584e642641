"""How one Trotter step becomes a unitary and a wall time.

A Backend realizes the palindromic step either ideally, as the product of
exact part exponentials (trotter.symmetric3_step), or as a pulse program
compiled with method "w1" or "w2" and simulated on an NMR machine. This is
the only module that tells the two apart: acquisition takes the step's
unitary from ``step``, preparation applies it to a state through
``state_stepper``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PairingModel
from .nmr import (
    DELTA,
    FINITE,
    W1,
    W2,
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


@dataclass(frozen=True)
class Backend:
    """Step realization: method "ideal", or "w1" / "w2" compiled for
    ``machine`` and simulated in ``pulse_mode`` ("delta" or "finite")."""

    method: str = IDEAL
    machine: SpinSystem | None = None
    pulse_mode: str = DELTA

    def __post_init__(self):
        if self.method not in (IDEAL, W1, W2):
            raise ValueError("backend.method: must be ideal, w1 or w2")
        if self.pulse_mode not in (DELTA, FINITE):
            raise ValueError("backend.pulse_mode: must be delta or finite")
        if self.method != IDEAL and self.machine is None:
            raise ValueError(f"backend.machine: method {self.method} compiles for a machine")


def step(
    model: PairingModel, plan: TrotterPlan, backend: Backend, table: EventTable | None = None
) -> tuple[np.ndarray, float, tuple[str, ...]]:
    """(unitary, wall-clock seconds, clamp warnings) of one step t0.

    An ideal step takes the simulated time t0 as its wall time. A compiled
    step composes the program's event unitaries, taken from ``table`` when
    given, and lasts the program's wall time.
    """
    if backend.method == IDEAL:
        return symmetric3_step(model, plan), plan.t0, ()
    program = compile_trotter_step(model, plan, backend.method, backend.machine)
    u = program_unitary(program, backend.machine, backend.pulse_mode, table)
    return u, wall_time(program, backend.machine.t_pi), program.clamp_warnings


def state_stepper(
    plan: TrotterPlan, backend: Backend, table: EventTable | None = None
) -> Callable[[PairingModel, np.ndarray], np.ndarray]:
    """A function giving the state after one step of a model, for the models
    of one preparation ramp. A compiled stepper keeps one StepCompiler, so the
    ramp's programs share their templates; each program is applied event by
    event, which rounds differently from applying its composed unitary."""
    if backend.method == IDEAL:
        return lambda model, psi: symmetric3_step(model, plan) @ psi
    compiler = StepCompiler(plan, backend.method, backend.machine)

    def apply(model: PairingModel, psi: np.ndarray) -> np.ndarray:
        program = compiler.compile(model)
        return simulate_program(program, backend.machine, psi, backend.pulse_mode, table)[0]

    return apply
