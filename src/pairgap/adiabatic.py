"""Quasiadiabatic state preparation: stepwise interpolation from the free
Hamiltonian to the full pairing Hamiltonian.

The schedule is deliberately fast. Leaving population in an excited state is
the point: the later oscillation of the observable at the gap frequency is
what the spectroscopy stage measures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .backend import Backend, state_stepper
from .exact import Ramp, _ramp_for, propagator
from .hamiltonian import PairingModel
from .nmr import EventTable
from .trotter import TrotterPlan


class AdiabaticityWarning(UserWarning):
    """Raised when the schedule is too fast for the minimum gap along the path."""


@dataclass(frozen=True)
class AdiabaticSchedule:
    """S interpolation steps of per-step simulated time t_ad; the product runs
    over s = 0..S inclusive, so S+1 evolutions are applied. Each is exact
    when ``backend`` is None, else one Trotter step t_ad of k repetitions
    realized by the backend."""

    steps: int
    t_ad: float
    backend: Backend | None = None
    k: int = 1

    def __post_init__(self):
        if int(self.steps) < 1:
            raise ValueError("schedule.steps: must be >= 1")
        if not (self.t_ad >= 0 and math.isfinite(self.t_ad)):
            raise ValueError("schedule.t_ad: must be non-negative and finite")
        if int(self.k) < 1:
            raise ValueError("schedule.k: must be >= 1")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "k", int(self.k))


def _single_sector(state: np.ndarray) -> int | None:
    weights = {bin(i).count("1") for i in np.flatnonzero(np.abs(state) > 1e-12)}
    return weights.pop() if len(weights) == 1 else None


def _min_schedule_gap(ramp: Ramp) -> float:
    gaps = []
    for s in range(ramp.steps + 1):
        values = ramp.eigensystem(s).values
        if len(values) > 1:
            gaps.append(float(values[1] - values[0]))
    return min(gaps) if gaps else math.inf


def prepare(
    model: PairingModel,
    init: np.ndarray,
    schedule: AdiabaticSchedule,
    check_adiabaticity: bool = True,
    ramp: Ramp | None = None,
    table: EventTable | None = None,
) -> np.ndarray:
    """Evolve ``init`` for t_ad under each ramp step's model, s = 0..S, and
    return the final state: exactly when the schedule has no backend, else by
    one backend step of each ``ramp.step_model(s)``. Warns when the minimum
    sector gap along the path is below 1/(S * t_ad).

    The exact evolution of a state in one pair sector (every amplitude above
    1e-12 at one Hamming weight) runs inside that sector: only ``psi[idx]``
    is evolved, through the ramp's step eigensystems, and the returned state
    holds exact zeros outside it. A state spread over sectors evolves under
    the dense ``ramp.hamiltonian(s)``.

    A run passes its ramp and its pulse-event table, so the ramp's operators
    and each distinct pulse are built once and shared with the run's other
    stages; without them this call builds its own ramp, and a compiled
    backend a fresh table per step. A compiled backend builds each step
    template once per call and stamps it for every s.
    """
    psi = np.asarray(init, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    s_steps = schedule.steps
    pairs = _single_sector(psi)
    ramp = _ramp_for(model, pairs, ramp, s_steps)
    if ramp.steps != s_steps:
        raise ValueError("ramp was built for another schedule length")
    if schedule.backend is None and pairs is None:
        for s in range(s_steps + 1):
            psi = propagator(ramp.hamiltonian(s), schedule.t_ad) @ psi
    elif schedule.backend is None:
        sub = psi[ramp.idx]
        for s in range(s_steps + 1):
            es = ramp.eigensystem(s)
            sub = es.vectors @ (np.exp(-1j * es.values * schedule.t_ad) * (es.vectors.conj().T @ sub))
        psi = np.zeros_like(psi)
        psi[ramp.idx] = sub
    elif schedule.t_ad > 0:
        step_state = state_stepper(TrotterPlan(schedule.t_ad, schedule.k), schedule.backend, table)
        for s in range(s_steps + 1):
            psi = step_state(ramp.step_model(s), psi)
    # The gap check reads the ramp's step eigensystems: an exact evolution
    # has just kept them, a stepped one has them computed here.
    if check_adiabaticity and schedule.t_ad > 0 and pairs is not None:
        min_gap = _min_schedule_gap(ramp)
        if min_gap < 1.0 / (s_steps * schedule.t_ad):
            warnings.warn(
                f"minimum schedule gap {min_gap:.3g} rad/s is below "
                f"1/(S*t_ad) = {1.0 / (s_steps * schedule.t_ad):.3g} rad/s; "
                "preparation is quasiadiabatic, not adiabatic",
                AdiabaticityWarning,
                stacklevel=2,
            )
    return psi


def sector_population_report(
    model: PairingModel, pairs: int, state: np.ndarray, ramp: Ramp | None = None
) -> list[tuple[int, float, float]]:
    """Population report against the sector-restricted Hamiltonian; the state is
    projected onto the sector first, so rows sum to the in-sector weight. A
    run passes its ramp, whose final sector eigensystem it shares."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2**model.n,):
        raise ValueError("state and model dimensions differ")
    ramp = _ramp_for(model, pairs, ramp)
    es = ramp.final_eigensystem()
    pops = np.abs(es.vectors.conj().T @ state[ramp.idx]) ** 2
    return [(i, float(es.values[i]), float(pops[i])) for i in range(len(pops))]
