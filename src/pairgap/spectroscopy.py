"""Gap spectroscopy: step-and-measure acquisition of a single-spin Z series,
discrete Fourier transform, peak picking and a four-parameter damped-cosine
least-squares fit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import _signs

# Smallest decay rate distinguishable from zero; keeps tau_e finite.
_MIN_DECAY_RATE = 1e-12
_MAX_FIT_ITERATIONS = 200
# Fewest samples the four-parameter fit takes; run.q is checked against it.
MIN_FIT_SAMPLES = 8
_STEP_TOL = 1e-10
# A series spread over at most this many q 2^-52 is flat to rounding, the <Z>
# of a spin that never moves: spectators (h2 spin 3; chains of n = 4..10 with
# an uncoupled last spin; Q = 200, 1600) spread 0.08-2.78 q 2^-52, so 64 keeps
# a margin above 20x. It is 2.8e-12 at Q = 200.
_FLAT_SPREAD_ULPS = 64
# Parameter indices of (A, Delta, phi): the free set while the rate is held at 0.
_FREE_OF_RATE = np.array([0, 2, 3])


@dataclass(frozen=True)
class TimeSeries:
    """Q real samples <Z_r(k t0)>; sample k was taken at physical wall-clock
    time k wall_per_step, after k steps of wall_per_step seconds each."""

    t0: float
    values: np.ndarray
    wall_per_step: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValueError("series.t0: must be positive and finite")
        if values.ndim != 1 or len(values) < 2:
            raise ValueError("series needs at least two samples")
        if np.abs(values).max() > 1 + 1e-9:
            raise ValueError("expectation values must lie in [-1, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def q(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.q) * self.t0


@dataclass(frozen=True)
class Spectrum:
    """The series' DFT X[j] = sum_k values[k] exp(-2 pi i j k / Q) at
    omega_j = 2 pi j / (Q t0), numpy's FFT bins j = 0..Q//2 only: the series
    is real, so bin -j is conj X[j] and holds nothing more."""

    series: TimeSeries
    amp: np.ndarray

    @property
    def omega(self) -> np.ndarray:
        q = self.series.q
        return 2 * math.pi * np.arange(q // 2 + 1) / (q * self.series.t0)


@dataclass(frozen=True)
class FitResult:
    delta_exp: float
    tau_e: float
    amplitude: float
    phase: float
    residual_norm: float
    converged: bool


def _z_diagonal(n: int, spin: int) -> np.ndarray:
    if not 1 <= spin <= n:
        raise ValueError("observed spin out of range")
    return _signs(n)[:, spin - 1]


def acquire(
    prepared: np.ndarray,
    u: np.ndarray,
    wall_per_step: float,
    q: int,
    t0: float,
    observed_spin: int,
    t2: float | None = None,
) -> TimeSeries:
    """Sample <Z_r> after k = 0..Q-1 applications of the step unitary u.

    t0 is the simulated time per step and wall_per_step its physical
    duration. When t2 is given, sample k is attenuated by
    exp(-k * wall_per_step / t2), modelling dephasing of the observed spin
    over accumulated physical time; the k = 0 sample is untouched.

    The Q states fill one (Q, 2^n) complex array, Q * 2^n * 16 bytes, in
    blocks: with P = (u^f)^T, the next m <= f rows are the m rows f places
    back times P. The block f starts at 1 and doubles, P being squared,
    while more than 2^n rows are left; then P is kept. A square costs the
    arithmetic of stepping 2^n rows and gains only the speed of block
    products over one-row ones, so none is formed when few rows are left.
    Where Q is much larger than 2^n that is about 2 log2(Q) matrix
    products. Where Q - 1 <= 2^n (n >= 8 at Q = 200) no square is formed,
    and each row is u times the row before, as a loop steps one state. A row that went through squared
    powers of u carries their rounding, so it differs from stepping one
    state k times by a rounding error that grows about linearly in k:
    within (k + 1) 2^-52 in <Z_r> on random unitaries up to n = 5 and
    Q = 4096. Every <Z_r> is taken in one batched dot, each row's the
    reduction np.vdot makes.
    """
    if q < 2:
        raise ValueError("need at least two samples")
    psi = np.asarray(prepared, dtype=complex)
    u = np.asarray(u)
    dim = psi.shape[0] if psi.ndim == 1 else 0
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"prepared state has shape {psi.shape}; need a vector of length 2^n")
    if u.shape != (dim, dim):
        raise ValueError(f"step unitary has shape {u.shape}; need {(dim, dim)} for a state of length {dim}")
    zdiag = _z_diagonal(dim.bit_length() - 1, observed_spin)
    states = np.empty((q, dim), dtype=complex)
    states[0] = psi
    power, f, filled = u.T, 1, 1
    while filled < q:
        m = min(f, q - filled)
        np.matmul(states[filled - f : filled - f + m], power, out=states[filled : filled + m])
        filled += m
        if q - filled > dim:
            power = np.matmul(power, power)
            f = filled
    # One vector dot per row, the reduction np.vdot makes; einsum sums in
    # another order.
    values = np.ascontiguousarray(np.matmul(states.conj()[:, None, :], (zdiag * states)[:, :, None])[:, 0, 0].real)
    if t2 is not None:
        values *= [math.exp(-k * wall_per_step / t2) for k in range(q)]
    return TimeSeries(t0, values, wall_per_step)


def dft(series: TimeSeries) -> Spectrum:
    """numpy's FFT of the series, bins j = 0..Q//2, copied off the full array."""
    return Spectrum(series, np.fft.fft(series.values)[: series.q // 2 + 1].copy())


def peak_pick(spectrum: Spectrum) -> tuple[float, float]:
    """Frequency and magnitude of the largest bin above DC; ties resolve to
    the lower frequency."""
    mag = np.abs(spectrum.amp[1:])
    if mag.max() == 0.0:
        raise ValueError("no peak: spectrum is identically zero")
    best = int(np.argmax(mag))  # first maximum = lowest frequency on ties
    return float(spectrum.omega[best + 1]), float(mag[best])


def epsilon_ft(q: int, t0: float) -> float:
    """Fourier-limited gap precision 2 pi / (Q t0), rad/s."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if not t0 > 0:
        raise ValueError("t0 must be positive")
    return 2 * math.pi / (q * t0)


def systematic_offset(delta_exp: float, delta_exact: float) -> float:
    """Signed estimate error delta_exp - delta_exact, rad/s."""
    if delta_exp < 0 or delta_exact < 0:
        raise ValueError("gaps must be non-negative")
    return delta_exp - delta_exact


def _model_and_jacobian(beta: np.ndarray, t: np.ndarray, neg_t: np.ndarray, jac: np.ndarray | None = None):
    """Model values and their (Q, 4) Jacobian, written into ``jac`` when a
    C-contiguous buffer is given; ``neg_t`` is -t."""
    a, rate, omega, phi = beta
    if jac is None:
        jac = np.empty((len(t), 4))
    envelope = np.exp(-rate * t)
    arg = omega * t + phi
    c = np.cos(arg)
    s = np.sin(arg)
    ae = a * envelope
    tae = neg_t * a * envelope
    np.multiply(envelope, c, out=jac[:, 0])
    np.multiply(tae, c, out=jac[:, 1])
    np.multiply(tae, s, out=jac[:, 2])
    np.multiply(-ae, s, out=jac[:, 3])
    return ae * c, jac


def fit_damped_sinusoid(spectrum: Spectrum, seed: float) -> FitResult:
    """Least-squares fit of A exp(-t/tau_e) cos(Delta t + phi) to the series
    the spectrum transforms.

    Damped Gauss-Newton (Levenberg) iteration on (A, 1/tau_e, Delta, phi),
    seeded from the spectrum's bin nearest the seed frequency (clamped to
    0..Q//2): amplitude 2|X|/Q, tau_e = Q t0, phase arg(X). Accepted steps
    never increase the residual; convergence means a relative step below
    1e-10 within 200 iterations.

    The decay rate is clamped to rate >= 0. Once it sits on 0 with the cost
    gradient pushing it below, the bound is active: the step solves for
    (A, Delta, phi) alone and the rate stays 0 until the gradient turns. An
    undamped series thus converges with tau_e = 1e12 s (rate on its bound).
    A series flat to rounding has no tone to fit and raises ValueError.
    """
    series = spectrum.series
    if series.q < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit four parameters")
    y = series.values
    q = series.q
    spread, flat = float(np.ptp(y)), _FLAT_SPREAD_ULPS * q * 2.0**-52
    if spread <= flat:
        raise ValueError(f"degenerate flat series: spread {spread:.3g} <= {flat:.3g} ({_FLAT_SPREAD_ULPS} q 2^-52)")
    t = series.times
    neg_t = -t

    bin_index = int(round(seed * q * series.t0 / (2 * math.pi)))
    x = spectrum.amp[min(max(bin_index, 0), q // 2)]
    a0 = 2.0 * abs(x) / q
    if a0 == 0.0:
        a0 = spread / 2
    phi0 = float(np.angle(x))
    beta = np.array([a0, 1.0 / (q * series.t0), float(seed), phi0])

    # The accepted point's Jacobian and a spare that each trial writes into;
    # they swap when a trial is accepted.
    f, jac = _model_and_jacobian(beta, t, neg_t)
    spare = np.empty((q, 4))
    residual = f - y
    cost = float(residual @ residual)
    lam = 1e-3
    converged = False
    for _ in range(_MAX_FIT_ITERATIONS):
        jtj = jac.T @ jac
        g = jac.T @ residual
        # Rate on its bound with the gradient pushing it out: hold it there.
        free = _FREE_OF_RATE if beta[1] == 0.0 and g[1] >= 0.0 else slice(None)
        sub = jtj[free][:, free]
        sub_diag = np.diag(np.diag(sub))
        tiny = 1e-300 * np.eye(len(sub))
        rhs = -g[free]
        scale = np.maximum(np.abs(beta), 1e-12)
        step = None
        for _ in range(50):
            try:
                solved = np.linalg.solve(sub + lam * sub_diag + tiny, rhs)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = np.zeros(4)
            step[free] = solved
            trial = beta + step
            trial[1] = max(trial[1], 0.0)  # decay rates stay physical
            rel = float(np.max(np.abs(trial - beta) / scale))
            if rel < _STEP_TOL:
                # Parameters have stopped moving (possibly pinned at the
                # rate >= 0 boundary); that is convergence, not failure.
                converged = True
                break
            f_t, jac_t = _model_and_jacobian(trial, t, neg_t, spare)
            r_t = f_t - y
            cost_t = float(r_t @ r_t)
            if cost_t <= cost:
                break
            lam *= 2
            step = None
        if converged or step is None:
            break
        beta, f, residual, cost = trial, f_t, r_t, cost_t
        jac, spare = jac_t, jac
        lam = max(lam / 3, 1e-12)

    a, rate, omega, phi = beta
    if a < 0:
        a, phi = -a, phi + math.pi
    if omega < 0:
        omega, phi = -omega, -phi
    phi = math.remainder(phi, 2 * math.pi)
    return FitResult(
        delta_exp=float(omega),
        tau_e=1.0 / max(rate, _MIN_DECAY_RATE),
        amplitude=float(a),
        phase=float(phi),
        residual_norm=math.sqrt(cost),
        converged=converged,
    )
