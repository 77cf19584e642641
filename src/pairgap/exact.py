"""Exact diagonalization oracle: eigensystems, propagators, sector gaps, the
preparation ramp's sector blocks and their eigensystems, and the level
actually reachable from a prepared superposition. Every block comes from
the hop list in ``hamiltonian``, the one builder of the pairing
Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import PairingModel, _hop_list, _sector_blocks, sector_basis

_HERMITICITY_TOL = 1e-9
# Eigenvalues closer than this (relative to the spectral scale) are treated as
# one degenerate level when grouping populations.
_DEGENERACY_RTOL = 1e-8


class LineIdentityError(ValueError):
    """A prepared state holds no excited level the run can measure."""


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues (rad/s) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _require_hermitian(h: np.ndarray) -> np.ndarray:
    """``h`` as complex once it is square, or a stack of squares, and each
    matrix is Hermitian within tolerance of its own largest entry."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("operator must be square")
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if np.any(np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) > _HERMITICITY_TOL * scale):
        raise ValueError("operator is not Hermitian within tolerance")
    return h


def eigendecompose(h: np.ndarray) -> EigenSystem:
    h = _require_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values, vectors)


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of Hermitian h."""
    return evolve(eigendecompose(h), t)


def evolve(es: EigenSystem, t: float) -> np.ndarray:
    """exp(-i h t) from the eigensystem of h."""
    phases = np.exp(-1j * es.values * t)
    return (es.vectors * phases) @ es.vectors.conj().T


def computational_state(n: int, index: int) -> np.ndarray:
    if not 0 <= index < 2**n:
        raise ValueError("basis index out of range")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def sector_matrix(model: PairingModel, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Full Hamiltonian restricted to the fixed-pair-number subspace, built
    inside the sector from the hop list.

    Returns (matrix, basis indices); basis order follows sector_basis.
    """
    return _sector_blocks(model, pairs, (1.0,))[0], sector_basis(model.n, pairs)


class Ramp:
    """One preparation ramp: a model, a pair sector and S steps. Step
    s = 0..S runs the model with its couplings scaled by s/S
    (``step_model``).

    Scaling the couplings realizes the interpolation, because
    (1 - s/S) H_free + (s/S) H_full = H_free + (s/S) (H_full - H_free).
    The pairing Hamiltonian conserves pair number, so the ramp works inside
    the sector: step s's C(n, pairs)-dimensional sector block of H_s comes
    from the hop list without the dense 2^n matrix. The ramp builds its
    S + 1 blocks in one stacked call, decomposes them in one stacked
    ``eigh`` and keeps only the eigensystems. A run builds one ramp and
    hands it to every stage: the exact preparation evolves the in-sector
    amplitudes with the step eigensystems, the schedule gap reads their
    eigenvalues, and the population report, whose rows give the reachable
    level, reads the final one (s = S), whose Hamiltonian is the model's own.
    """

    def __init__(self, model: PairingModel, steps: int, pairs: int):
        if steps < 1:
            raise ValueError("schedule.steps: must be >= 1")
        self.model = model
        self.steps = steps
        self.pairs = pairs
        self.idx = _hop_list(model.n, pairs)[0]
        blocks = _sector_blocks(model, pairs, [s / steps for s in range(steps + 1)])
        self.values, self.vectors = np.linalg.eigh(_require_hermitian(blocks))

    def step_model(self, s: int) -> PairingModel:
        """The model of ramp step s: couplings scaled by s/S, nu kept. Step 0's
        blocks hold the on-site diagonal and 0.0 on every hop; step S's are
        the model's own."""
        if not 0 <= s <= self.steps:
            raise ValueError("schedule step index out of range")
        return self.model.with_coupling_scale(s / self.steps)


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


def reachable_gap(populations: list[tuple[int, float, float]], population_floor: float) -> tuple[int, float]:
    """Lowest excited level holding at least ``population_floor`` of a
    prepared state, and its gap to the ground level, read off the state's
    ``sector_population_report`` rows (index, energy, population).

    The series may oscillate more strongly at another populated pair's gap.
    Degenerate eigenvalues are grouped and their populations summed.
    """
    if not 0.0 < population_floor < 1.0:
        raise ValueError("population_floor must lie in (0, 1)")
    _, values, pops = (np.array(column) for column in zip(*populations))
    levels = _grouped_levels(values)
    e0 = float(np.mean(values[levels[0]]))
    for k, members in enumerate(levels[1:], start=1):
        if float(pops[members].sum()) >= population_floor:
            return k, float(np.mean(values[members])) - e0
    raise LineIdentityError("no reachable excited state above the population floor")
