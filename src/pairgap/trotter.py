"""The symmetric third-order product step used throughout the pipeline, its
error against the exact propagator, and convergence sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import eigendecompose, evolve
from .hamiltonian import PairingModel, _check_dense, _signs, realize

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

    No part is diagonalized numerically. A is diagonal, a(x) = sum_m
    -(f nu_m / 2) z_m(x). The Walsh-Hadamard matrix W[x, y] = (-1)^(x.y)
    (W W = 2^n) turns every X into a Z, so B = W diag(b) W / 2^n with
    b(x) = sum_{m<l} (f V_ml / 2) z_m(x) z_l(x); and Y = S X S^dagger with
    S = diag(i^popcount(x)), so C = S W diag(b) W S^dagger / 2^n. Between
    B and C the product W S W collapses, leaving
        rep = D_a W D_b S* W D_c W S D_b W D_a / 4^n
    with D_a = exp(-i a tau/2), D_b = exp(-i b tau/2), D_c = exp(-i b tau):
    three dense matrix products per repetition. Models above 12 modes
    raise ValueError before any 2^n x 2^n matrix is formed.
    """
    _check_dense(model.n)
    tau = plan.t0 / plan.k
    f = model.convention_factor
    z = _signs(model.n)
    bits = (1.0 - z) / 2
    w = 1.0 - 2.0 * ((bits @ bits.T) % 2)
    s = np.array([1, 1j, -1, -1j])[bits.sum(axis=1).astype(int) % 4]
    a = z @ (-0.5 * f * np.array(model.nu))
    b = np.einsum("xm,ml,xl->x", z, np.triu(0.5 * f * model.coupling, 1), z)
    da = np.exp(-0.5j * tau * a) / 2**model.n  # the 1/4^n, split exactly
    db = np.exp(-0.5j * tau * b)
    left = (w * (db * s.conj())) @ w
    right = (w * (s * db)) @ w
    rep = ((da[:, None] * left) * np.exp(-1j * tau * b)) @ right * da
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
    # One eigensystem of H serves every t0.
    es = eigendecompose(realize(model))
    rows = []
    for t0 in t0_list:
        u_exact = evolve(es, t0)
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

