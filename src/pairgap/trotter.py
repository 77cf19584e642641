"""The symmetric third-order product step used throughout the pipeline, its
error against the exact propagator, and convergence sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import propagator
from .hamiltonian import (
    PairingModel,
    coupling_hamiltonian,
    full_hamiltonian,
    onsite_hamiltonian,
    realize,
)

# Errors below this are numerical noise; exponent fits ignore such points.
_ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class TrotterPlan:
    """Simulated step t0 (s) split into k inner repetitions."""

    t0: float
    k: int = 1

    def __post_init__(self):
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValueError("plan.t0: must be positive and finite")
        if int(self.k) < 1:
            raise ValueError("plan.k: must be >= 1")
        object.__setattr__(self, "k", int(self.k))


def symmetric3_step(model: PairingModel, plan: TrotterPlan) -> np.ndarray:
    """Palindromic split of the pairing evolution over one step t0:

        [A(tau/2) B(tau/2) C(tau) B(tau/2) A(tau/2)]^k,  tau = t0 / k,

    with A the on-site part, B the XX coupling and C the YY coupling. The
    palindrome cancels even error orders, leaving a unitary defect O(t0^3/k^2).
    """
    tau = plan.t0 / plan.k
    ua = propagator(realize(onsite_hamiltonian(model)), tau / 2)
    ub = propagator(realize(coupling_hamiltonian(model, "X")), tau / 2)
    uc = propagator(realize(coupling_hamiltonian(model, "Y")), tau)
    rep = ua @ ub @ uc @ ub @ ua
    return np.linalg.matrix_power(rep, plan.k)


def trotter_error(u_exact: np.ndarray, v: np.ndarray) -> float:
    """Spectral norm of the difference. Global phase is NOT quotiented out:
    trotter_error(U, e^{i phi} U) = |1 - e^{i phi}|."""
    if u_exact.shape != v.shape:
        raise ValueError("operators must share a dimension")
    return float(np.linalg.norm(u_exact - v, ord=2))


@dataclass(frozen=True)
class SweepResult:
    """Grid of (t0, k, error) rows plus fitted exponents: error ~ t0^p at fixed
    k and ~ k^-q at fixed t0. An exponent is None when its axis has fewer than
    two usable points."""

    rows: tuple[tuple[float, int, float], ...]
    p: float | None
    q: float | None


def _log_slope(xs: list[float], ys: list[float], floor: float) -> float | None:
    """Least-squares slope of log y against log x over the points with
    y > floor; None when fewer than two remain."""
    pts = [(x, y) for x, y in zip(xs, ys) if y > floor]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def convergence_sweep(model: PairingModel, t0_list: list[float], k_list: list[int]) -> SweepResult:
    """Error of the symmetric step against the exact propagator over a product
    grid, with log-log least-squares exponents along each axis."""
    if not t0_list or not k_list:
        raise ValueError("t0 and k lists must be non-empty")
    h_full = realize(full_hamiltonian(model))
    rows = []
    for t0 in t0_list:
        u_exact = propagator(h_full, t0)
        for k in k_list:
            v = symmetric3_step(model, TrotterPlan(t0, k))
            rows.append((float(t0), int(k), trotter_error(u_exact, v)))
    p_fits = []
    for k in k_list:
        slope = _log_slope(
            [r[0] for r in rows if r[1] == k], [r[2] for r in rows if r[1] == k], _ERROR_FLOOR
        )
        if slope is not None:
            p_fits.append(slope)
    q_fits = []
    for t0 in t0_list:
        slope = _log_slope(
            [float(r[1]) for r in rows if r[0] == float(t0)],
            [r[2] for r in rows if r[0] == float(t0)],
            _ERROR_FLOOR,
        )
        if slope is not None:
            q_fits.append(-slope)
    p = float(np.mean(p_fits)) if p_fits else None
    q = float(np.mean(q_fits)) if q_fits else None
    if p is None and q is None:
        raise ValueError("fewer than 2 points for a fit on either axis")
    return SweepResult(tuple(rows), p, q)

