"""Pauli-sum construction of pairing-model Hamiltonians and their dense realizations.

Conventions used throughout the package: hbar = 1, every energy is an angular
frequency in rad/s, Z|0> = +|0>, and qubit 1 is the most significant bit of a
computational basis index (so |011> on three qubits has index 3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_MAX_DENSE_QUBITS = 12


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if m.size and float(np.abs(m - m.T).max()) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    return m


@dataclass(frozen=True)
class PairingModel:
    """Qubit pairing model: on-site angular frequencies nu_m and a symmetric
    coupling matrix V_ml (diagonal ignored), both in rad/s.

    ``convention_factor`` multiplies every Hamiltonian coefficient; it exists
    because published gap values for different instances are consistent with
    different overall factors, so presets pin it explicitly.
    """

    nu: tuple[float, ...]
    coupling: np.ndarray
    convention_factor: float = 1.0

    def __post_init__(self):
        nu = tuple(float(x) for x in self.nu)
        if len(nu) < 1:
            raise ValueError("model.nu: need at least one mode")
        if not all(math.isfinite(x) for x in nu):
            raise ValueError("model.nu: entries must be finite")
        v = _check_symmetric(self.coupling, "model.coupling")
        if v.shape[0] != len(nu):
            raise ValueError("model.coupling: dimension mismatch with nu")
        if not (self.convention_factor > 0 and math.isfinite(self.convention_factor)):
            raise ValueError("model.convention_factor: must be positive and finite")
        object.__setattr__(self, "nu", nu)
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "coupling", v)

    @property
    def n(self) -> int:
        return len(self.nu)

    def with_coupling_scale(self, scale: float) -> "PairingModel":
        """Model with every off-diagonal coupling multiplied by ``scale``;
        ``exact.Ramp.step_model`` builds each preparation step's model with it."""
        return PairingModel(self.nu, self.coupling * float(scale), self.convention_factor)


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient (rad/s) times a product of single-qubit Paulis.

    ``factors`` maps 1-based qubit indices to letters in {X, Y, Z}; stored as a
    sorted tuple of (index, letter) pairs so terms are hashable.
    """

    coeff: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError("term.coeff must be finite")
        pairs = tuple(sorted((int(q), str(p)) for q, p in self.factors))
        seen = set()
        for q, p in pairs:
            if q < 1:
                raise ValueError("term.factors: qubit indices are 1-based")
            if q in seen:
                raise ValueError("term.factors: duplicate qubit index")
            if p not in ("X", "Y", "Z"):
                raise ValueError("term.factors: letters must be X, Y or Z")
            seen.add(q)
        object.__setattr__(self, "factors", pairs)


@dataclass(frozen=True)
class PauliSum:
    """Sum of PauliTerms on ``n`` qubits. Real coefficients keep the realization
    Hermitian by construction."""

    terms: tuple[PauliTerm, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("operator qubit count must be >= 1")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.factors and t.factors[-1][0] > self.n:
                raise ValueError("term qubit index exceeds operator size")


def onsite_hamiltonian(model: PairingModel) -> PauliSum:
    """Free part: sum_m (nu_m/2)(-Z_m), times the convention factor."""
    f = model.convention_factor
    terms = [PauliTerm(-0.5 * f * model.nu[m], ((m + 1, "Z"),)) for m in range(model.n)]
    return PauliSum(tuple(terms), model.n)


def coupling_hamiltonian(model: PairingModel, axis: str) -> PauliSum:
    """Coupling part along one axis: sum_{m<l} (V_ml/2) A_m A_l with A = X or Y."""
    if axis not in ("X", "Y"):
        raise ValueError("axis must be 'X' or 'Y'")
    f = model.convention_factor
    terms = []
    v = model.coupling
    for m in range(model.n):
        for l in range(m + 1, model.n):
            if v[m, l] != 0.0:
                terms.append(PauliTerm(0.5 * f * v[m, l], ((m + 1, axis), (l + 1, axis))))
    return PauliSum(tuple(terms), model.n)


def full_hamiltonian(model: PairingModel) -> PauliSum:
    a = onsite_hamiltonian(model)
    b = coupling_hamiltonian(model, "X")
    c = coupling_hamiltonian(model, "Y")
    return PauliSum(a.terms + b.terms + c.terms, model.n)


def nmr_zz_hamiltonian(j_hz: np.ndarray) -> PauliSum:
    """Always-on scalar coupling sum_{i<j} (pi/2) J_ij Z_i Z_j.

    J is given in Hz; the pi/2 factor yields coefficients in rad/s.
    """
    j = _check_symmetric(j_hz, "machine.j_hz")
    if np.any(np.diag(j) != 0.0):
        raise ValueError("machine.j_hz: diagonal must be zero")
    n = j.shape[0]
    terms = []
    for i in range(n):
        for k in range(i + 1, n):
            if j[i, k] != 0.0:
                terms.append(PauliTerm(0.5 * math.pi * j[i, k], ((i + 1, "Z"), (k + 1, "Z"))))
    return PauliSum(tuple(terms), n)


@functools.lru_cache(maxsize=512)  # a 12-qubit run uses about 250 strings
def _pauli_pattern(n: int, factors: tuple[tuple[int, str], ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat index of each row's entry, rows whose sign flips, and number of
    Ys of a Pauli string on n qubits; read-only, 20 kB at n = 12."""
    dim = 2**n
    rows = np.arange(dim)
    xmask = 0
    parity = np.zeros_like(rows)
    ys = 0
    for q, p in factors:
        bit = n - q
        if p != "Z":
            xmask |= 1 << bit
        if p != "X":
            parity ^= rows >> bit
        ys += p == "Y"
    flat = (rows * dim + (rows ^ xmask)).astype(np.min_scalar_type(dim * dim - 1))
    odd = (parity & 1).astype(bool)
    flat.flags.writeable = False
    odd.flags.writeable = False
    return flat, odd, ys


def _add_pauli(out: np.ndarray, coeff: float, factors: tuple[tuple[int, str], ...]) -> None:
    """Add coeff times a Pauli string to the dense, C-contiguous 2^n x 2^n
    ``out`` in place.

    Qubit q sits at bit n - q. X and Y flip their bit, so row i holds its one
    entry in column i ^ xmask; Z and Y read their bit and flip the sign when
    it is set; each Y adds a factor -i. Every entry is +-coeff on the real or
    the imaginary axis, exactly what the tensor product of the 2 x 2 factors
    gives, so a sum of terms taken in the same order matches it bit for bit.
    """
    if not out.flags.c_contiguous:
        raise ValueError("Pauli strings are added into a C-contiguous matrix")
    flat, odd, ys = _pauli_pattern(out.shape[0].bit_length() - 1, factors)
    value = complex(coeff)
    for _ in range(ys):
        value *= -1j
    out.reshape(-1)[flat] += np.where(odd, -value, value)


def realize(op: PauliSum) -> np.ndarray:
    """Dense matrix of a PauliSum, qubit 1 most significant. Guarded at 12 qubits."""
    if op.n > _MAX_DENSE_QUBITS:
        raise ValueError(f"dense realization limited to {_MAX_DENSE_QUBITS} qubits")
    dim = 2**op.n
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        _add_pauli(out, term.coeff, term.factors)
    return out


def sector_basis(n: int, pairs: int) -> np.ndarray:
    """Ascending computational basis indices with Hamming weight ``pairs``."""
    if not 0 <= pairs <= n:
        raise ValueError("pairs out of range")
    idx = [i for i in range(2**n) if bin(i).count("1") == pairs]
    return np.array(idx, dtype=int)

