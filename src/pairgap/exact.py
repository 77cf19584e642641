"""Exact diagonalization oracle: eigensystems, propagators, sector gaps, the
preparation ramp's operators and the level actually reachable from a prepared
superposition."""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _hop_list(n: int, pairs: int) -> tuple[np.ndarray, ...]:
    """Layout of the sector block on n qubits, read-only: the sector basis;
    whether Z_m reads -1 on each basis state (row m); the flat index of
    V_ml in an n x n matrix for each pair m < l, in row-major order; and
    the in-sector hops, as the flat block index of each entry that a 01 <->
    10 swap on one pair fills, with the number of that pair."""
    idx = sector_basis(n, pairs)
    pos = np.full(2**n, -1)
    pos[idx] = np.arange(len(idx))
    odd = ((idx[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1).astype(bool)
    upper = [m * n + l for m in range(n) for l in range(m + 1, n)]
    at, pair = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for j, ml in enumerate(upper):
        m, l = divmod(ml, n)
        rows = np.flatnonzero(odd[m] != odd[l])
        at.append(rows * len(idx) + pos[idx[rows] ^ ((1 << (n - 1 - m)) | (1 << (n - 1 - l)))])
        pair.append(np.full(len(rows), j))
    layout = (idx, odd, np.array(upper, dtype=int), np.concatenate(at), np.concatenate(pair))
    for x in layout:
        x.flags.writeable = False
    return layout


def _sector_block(model: PairingModel, pairs: int) -> np.ndarray:
    """realize(full_hamiltonian(model))[np.ix_(idx, idx)], built from the hop
    list at dimension C(n, pairs) without the dense matrix, bit for bit.

    The diagonal sums the on-site terms in their Pauli-sum order from 0.0,
    as the dense accumulation does. The XX and YY terms of pair (m, l), with
    c = 0.5 f V_ml, each put c on a 01 <-> 10 hop (on 00 <-> 11 they cancel,
    outside the sector), so the hop entry is (0.0 + c) + c, which is also
    the 0.0 a dropped zero coupling leaves (c = -0.0 included). Every
    imaginary part is +0.0, as in the dense sum.
    """
    idx, odd, upper, hop_at, hop_pair = _hop_list(model.n, pairs)
    f = model.convention_factor
    dim = len(idx)
    diag = np.zeros(dim)
    for m, nu in enumerate(model.nu):
        a = -0.5 * f * nu
        diag += np.where(odd[m], -a, a)
    c = 0.5 * f * model.coupling.take(upper)
    block = np.zeros((dim, dim), dtype=complex)
    flat = block.reshape(-1)
    flat[:: dim + 1] = diag
    flat[hop_at] = ((0.0 + c) + c)[hop_pair]
    return block


def sector_matrix(model: PairingModel, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Full Hamiltonian restricted to the fixed-pair-number subspace, built
    inside the sector from the hop list (equal to the dense slice bit for
    bit).

    Returns (matrix, basis indices); basis order follows sector_basis.
    """
    return _sector_block(model, pairs), sector_basis(model.n, pairs)


class Ramp:
    """Operators of one preparation ramp in one pair sector. Step s = 0..S
    runs the model with its couplings scaled by s/S (``step_model``).

    Scaling the couplings realizes the interpolation, because
    (1 - s/S) H_free + (s/S) H_full = H_free + (s/S) (H_full - H_free).
    The pairing Hamiltonian conserves pair number, so the ramp works inside
    the sector: ``block(s)`` is the C(n, pairs)-dimensional sector block of
    H_s, built from the hop list without the dense 2^n matrix, and
    ``eigensystem(s)`` its eigensystem, computed once per step and kept. A
    run builds one ramp and hands it to every stage: the exact preparation
    evolves the in-sector amplitudes with the step eigensystems, the
    schedule gap reads their eigenvalues, and the reachable level and the
    population report read the final one (s = S), whose Hamiltonian is the
    model's own. ``pairs`` None (a state spread over sectors) has no blocks;
    its exact preparation evolves under the dense ``hamiltonian(s)``.
    """

    def __init__(self, model: PairingModel, steps: int, pairs: int | None):
        if steps < 1:
            raise ValueError("schedule.steps: must be >= 1")
        self.model = model
        self.steps = steps
        self.pairs = pairs
        self.idx = None if pairs is None else sector_basis(model.n, pairs)
        self._systems: dict[int, EigenSystem] = {}

    def step_model(self, s: int) -> PairingModel:
        """The model of ramp step s: couplings scaled by s/S, nu kept. Zero
        couplings are dropped from its Hamiltonian, so step 0 is the on-site
        part and step S the full Hamiltonian, term for term."""
        if not 0 <= s <= self.steps:
            raise ValueError("schedule step index out of range")
        return self.model.with_coupling_scale(s / self.steps)

    def hamiltonian(self, s: int) -> np.ndarray:
        """Dense H_s on all 2^n states."""
        return realize(full_hamiltonian(self.step_model(s)))

    def block(self, s: int) -> np.ndarray:
        return _sector_block(self.step_model(s), self.pairs)

    def eigensystem(self, s: int) -> EigenSystem:
        if s not in self._systems:
            self._systems[s] = eigendecompose(self.block(s))
        return self._systems[s]

    def final_eigensystem(self) -> EigenSystem:
        return self.eigensystem(self.steps)


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
