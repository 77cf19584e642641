"""Exact diagonalization oracle: eigensystems, propagators, sector gaps, the
preparation ramp's operators and the level actually reachable from a prepared
superposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import PairingModel, full_hamiltonian, realize, sector_basis

_HERMITICITY_TOL = 1e-9
# Eigenvalues closer than this (relative to the spectral scale) are treated as
# one degenerate level when grouping populations.
_DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues (rad/s) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _require_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("operator must be square")
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.conj().T).max()) > _HERMITICITY_TOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")
    return h


def eigendecompose(h: np.ndarray) -> EigenSystem:
    h = _require_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values, vectors)


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of Hermitian h."""
    es = eigendecompose(h)
    phases = np.exp(-1j * es.values * t)
    return (es.vectors * phases) @ es.vectors.conj().T


def computational_state(n: int, index: int) -> np.ndarray:
    if not 0 <= index < 2**n:
        raise ValueError("basis index out of range")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def sector_matrix(model: PairingModel, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Full Hamiltonian restricted to the fixed-pair-number subspace.

    Returns (matrix, basis indices); basis order follows sector_basis.
    """
    idx = sector_basis(model.n, pairs)
    h = realize(full_hamiltonian(model))
    return h[np.ix_(idx, idx)], idx


class Ramp:
    """Operators of one preparation ramp in one pair sector. Step s = 0..S
    runs the model with its couplings scaled by s/S (``step_model``); the
    ramp realizes the dense H_s = realize(full_hamiltonian(step_model(s))),
    keeps the sector block of each and the eigensystem of the final (s = S)
    block, whose Hamiltonian is the model's own.

    Scaling the couplings realizes the interpolation, because
    (1 - s/S) H_free + (s/S) H_full = H_free + (s/S) (H_full - H_free).
    Realizing H_s keeps its sector block, not the dense matrix, so a ramp
    holds (S + 1) blocks of C(n, pairs)^2 entries and one eigensystem. A run
    builds one ramp and hands it to every stage: the preparation steps its
    models, the schedule gap, the reachable level and the population report
    read the blocks, each realized once. ``pairs`` None (a state spread over
    sectors) keeps no blocks.
    """

    def __init__(self, model: PairingModel, steps: int, pairs: int | None):
        if steps < 1:
            raise ValueError("schedule.steps: must be >= 1")
        self.model = model
        self.steps = steps
        self.pairs = pairs
        self.idx = None if pairs is None else sector_basis(model.n, pairs)
        self._blocks: dict[int, np.ndarray] = {}
        self._final: EigenSystem | None = None

    def step_model(self, s: int) -> PairingModel:
        """The model of ramp step s: couplings scaled by s/S, nu kept. Zero
        couplings are dropped from its Hamiltonian, so step 0 is the on-site
        part and step S the full Hamiltonian, term for term."""
        if not 0 <= s <= self.steps:
            raise ValueError("schedule step index out of range")
        return self.model.with_coupling_scale(s / self.steps)

    def hamiltonian(self, s: int) -> np.ndarray:
        h = realize(full_hamiltonian(self.step_model(s)))
        if self.idx is not None:
            self._blocks[s] = h[np.ix_(self.idx, self.idx)]
        return h

    def block(self, s: int) -> np.ndarray:
        if s not in self._blocks:
            self.hamiltonian(s)
        return self._blocks[s]

    def final_eigensystem(self) -> EigenSystem:
        if self._final is None:
            self._final = eigendecompose(self.block(self.steps))
        return self._final


def _ramp_for(model: PairingModel, pairs: int | None, ramp: Ramp | None, steps: int = 1) -> Ramp:
    """``ramp`` once it is checked to belong to this model and sector, or a
    fresh ramp of ``steps`` steps when it is None."""
    if ramp is None:
        return Ramp(model, steps, pairs)
    if ramp.model is not model or ramp.pairs != pairs:
        raise ValueError("ramp was built for another model or pair sector")
    return ramp


def sector_gap(model: PairingModel, pairs: int, target: int | str = "first") -> float:
    """E_target - E_ground inside one pair sector; target 'first' means level 1."""
    sub, _ = sector_matrix(model, pairs)
    if sub.shape[0] == 0:
        raise ValueError("empty sector")
    k = 1 if target == "first" else int(target)
    values = np.linalg.eigvalsh(sub)
    if not 1 <= k < len(values):
        raise ValueError("target level outside sector dimension")
    return float(values[k] - values[0])


def _grouped_levels(values: np.ndarray) -> list[np.ndarray]:
    """Indices of eigenvalues clustered into degenerate levels."""
    tol = _DEGENERACY_RTOL * max(1.0, float(np.abs(values).max()))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g, dtype=int) for g in groups]


def reachable_gap(
    model: PairingModel,
    pairs: int,
    prepared: np.ndarray,
    population_floor: float = 0.02,
    ramp: Ramp | None = None,
) -> tuple[int, float]:
    """Lowest excited level holding at least ``population_floor`` of the prepared
    state, and its gap to the ground level.

    This is the oscillation frequency the time-series stage will actually see.
    Degenerate eigenvalues are grouped and their populations summed. A run
    passes its ramp so the final sector eigensystem is computed once.
    """
    if not 0.0 < population_floor < 1.0:
        raise ValueError("population_floor must lie in (0, 1)")
    prepared = np.asarray(prepared, dtype=complex)
    if abs(np.linalg.norm(prepared) - 1.0) > 1e-8:
        raise ValueError("prepared state must be normalized")
    ramp = _ramp_for(model, pairs, ramp)
    es = ramp.final_eigensystem()
    amps = es.vectors.conj().T @ prepared[ramp.idx]
    pops = np.abs(amps) ** 2
    levels = _grouped_levels(es.values)
    e0 = float(np.mean(es.values[levels[0]]))
    for k, members in enumerate(levels[1:], start=1):
        if float(pops[members].sum()) >= population_floor:
            return k, float(np.mean(es.values[members])) - e0
    raise ValueError("no reachable excited state above the population floor")
