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

from .backend import step_state
from .exact import Ramp
from .nmr import EventTable
from .trotter import TrotterPlan


class AdiabaticityWarning(UserWarning):
    """Raised when the schedule is too fast for the minimum gap along the path."""


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Per-step simulated time t_ad of a ramp's S + 1 evolutions, s = 0..S.
    Each is exact when ``method`` is None, else one Trotter step t_ad of k
    repetitions realized by ``method`` ("ideal", "w1" or "w2"; see
    backend.step). The step count S is the ramp's."""

    t_ad: float
    method: str | None = None
    k: int = 1

    def __post_init__(self):
        if not (self.t_ad >= 0 and math.isfinite(self.t_ad)):
            raise ValueError("schedule.t_ad: must be non-negative and finite")
        if int(self.k) < 1:
            raise ValueError("schedule.k: must be >= 1")
        object.__setattr__(self, "k", int(self.k))


def prepare(
    ramp: Ramp,
    init: np.ndarray,
    schedule: AdiabaticSchedule,
    check_adiabaticity: bool = True,
    table: EventTable | None = None,
) -> np.ndarray:
    """Evolve ``init`` for t_ad under each ramp step's model, s = 0..S, and
    return the final state: exactly when the schedule has no method, else by
    one step of each ``ramp.step_model(s)``. Warns when the minimum
    sector gap along the path is below 1/(S * t_ad).

    ``init`` must lie in the ramp's pair sector: a normalized 2^n vector
    with no amplitude above 1e-12 outside it. The exact evolution runs
    inside the sector: only ``psi[idx]`` is evolved, through the ramp's
    step eigensystems, and the returned state holds exact zeros outside it.

    A compiled method runs on ``table``, the run's pulse-event table (its
    machine, pulse mode and step compilers), and raises ValueError without
    one. The table compiles all S + 1 programs first, each step template
    once and stamped for every s, and builds each distinct event once, in
    one stacked batch for the whole ramp.
    """
    psi = np.asarray(init, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    n, pairs = ramp.model.n, ramp.pairs
    if psi.shape != (2**n,) or np.any(np.abs(np.delete(psi, ramp.idx)) > 1e-12):
        raise ValueError(f"initial state must lie in the ramp's sector of {pairs} pairs on {n} modes")
    if schedule.method is None:
        sub = psi[ramp.idx]
        for values, vectors in zip(ramp.values, ramp.vectors):
            sub = vectors @ (np.exp(-1j * values * schedule.t_ad) * (vectors.conj().T @ sub))
        psi = np.zeros_like(psi)
        psi[ramp.idx] = sub
    elif schedule.t_ad > 0:
        models = [ramp.step_model(s) for s in range(ramp.steps + 1)]
        psi = step_state(models, TrotterPlan(schedule.t_ad, schedule.k), schedule.method, table, psi)
    if check_adiabaticity and schedule.t_ad > 0 and ramp.values.shape[1] > 1:
        min_gap = float((ramp.values[:, 1] - ramp.values[:, 0]).min())
        if min_gap < 1.0 / (ramp.steps * schedule.t_ad):
            warnings.warn(
                f"minimum schedule gap {min_gap:.3g} rad/s is below "
                f"1/(S*t_ad) = {1.0 / (ramp.steps * schedule.t_ad):.3g} rad/s; "
                "preparation is quasiadiabatic, not adiabatic",
                AdiabaticityWarning,
                stacklevel=2,
            )
    return psi


def sector_population_report(ramp: Ramp, state: np.ndarray) -> list[tuple[int, float, float]]:
    """Population report against the ramp's final sector eigensystem; the
    state is projected onto the sector first, so rows sum to the in-sector
    weight."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2**ramp.model.n,):
        raise ValueError("state and model dimensions differ")
    es = ramp.final_eigensystem()
    pops = np.abs(es.vectors.conj().T @ state[ramp.idx]) ** 2
    return [(i, float(es.values[i]), float(pops[i])) for i in range(len(pops))]
