"""The pairing Hamiltonian and its one builder.

H = sum_m -(f nu_m / 2) Z_m + sum_{m<l} (f V_ml / 2)(X_m X_l + Y_m Y_l)
conserves the number of qubits in |1> (the pair number), so it is built one
pair sector at a time: ``_hop_list`` lays out which sector states a 01 <-> 10
swap on each mode pair connects, ``_sector_blocks`` fills a sector's blocks
from it (one per coupling scale, for the preparation ramp), and ``realize``
places every block into the dense 2^n matrix.

Conventions used throughout the package: hbar = 1, every energy is an angular
frequency in rad/s, Z|0> = +|0>, and qubit 1 is the most significant bit of a
computational basis index (so |011> on three qubits has index 3). ``_signs``
is the one table of that convention; every module that reads a qubit's Z
eigenvalue off a basis index reads it there.
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


def _check_dense(n: int) -> None:
    """Refuse n qubits before a 2^n x 2^n operator is allocated."""
    if n > _MAX_DENSE_QUBITS:
        raise ValueError(f"dense 2^n x 2^n operators are limited to {_MAX_DENSE_QUBITS} qubits, not {n}")


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


@functools.lru_cache(maxsize=16)
def _signs(n: int) -> np.ndarray:
    """z_m(x) = +-1, the eigenvalue of Z_m on basis state x, for every x
    (rows) and qubit m (column m - 1); read-only."""
    z = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    z.flags.writeable = False
    return z


def sector_basis(n: int, pairs: int) -> np.ndarray:
    """Ascending computational basis indices with Hamming weight ``pairs``."""
    if not 0 <= pairs <= n:
        raise ValueError("pairs out of range")
    idx = [i for i in range(2**n) if bin(i).count("1") == pairs]
    return np.array(idx, dtype=int)


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
    odd = _signs(n)[idx].T < 0
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


def _sector_blocks(model: PairingModel, pairs: int, scales) -> np.ndarray:
    """The blocks of H on the sector of ``pairs`` pairs, in sector_basis
    order, with the couplings scaled by each of ``scales`` in turn (the
    couplings of ``model.with_coupling_scale(scale)``), stacked; built from
    the hop list at dimension C(n, pairs).

    The diagonal sums the on-site terms -(f nu_m / 2) z_m in mode order from
    0.0, once for every scale. The XX and YY terms of pair (m, l), with
    c = 0.5 f (V_ml scale), each put c on a 01 <-> 10 hop (on 00 <-> 11
    they cancel, outside the sector), so the hop entry is (0.0 + c) + c,
    which is also the 0.0 a zero coupling leaves (c = -0.0 included). Every
    imaginary part is +0.0. That is the order in which a sum of Pauli-string
    tensor products, on-site terms first, accumulates each entry, so the
    blocks equal that sum's sector slices bit for bit, signed zeros
    included.
    """
    idx, odd, upper, hop_at, hop_pair = _hop_list(model.n, pairs)
    f = model.convention_factor
    dim = len(idx)
    diag = np.zeros(dim)
    for m, nu in enumerate(model.nu):
        a = -0.5 * f * nu
        diag += np.where(odd[m], -a, a)
    c = 0.5 * f * (model.coupling.take(upper)[None, :] * np.asarray(scales, dtype=float)[:, None])
    blocks = np.zeros((len(c), dim, dim), dtype=complex)
    flat = blocks.reshape(len(c), -1)
    flat[:, :: dim + 1] = diag
    flat[:, hop_at] = ((0.0 + c) + c)[:, hop_pair]
    return blocks


def realize(model: PairingModel) -> np.ndarray:
    """Dense H on all 2^n states: the direct sum of the sector blocks, each
    at its basis indices. Guarded at 12 qubits."""
    _check_dense(model.n)
    out = np.zeros((2**model.n, 2**model.n), dtype=complex)
    for pairs in range(model.n + 1):
        idx = _hop_list(model.n, pairs)[0]
        out[np.ix_(idx, idx)] = _sector_blocks(model, pairs, (1.0,))[0]
    return out
