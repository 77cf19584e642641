"""Shared test helpers: the one-line verdicts that the acceptance tests print
as a dedicated section at the end of the pytest run, two step oracles that
need no DFT and no fit (the step's own spectral line and the t0/k order of its
pair-number leak), the step built from dense eigendecompositions, test-only
operators and pulse blocks, the per-event unitary reference of the pulse
table, the Pauli-sum form of every Hamiltonian and the
np.kron builders that realize it, the dense exact side (sector blocks sliced
from the full Hamiltonian, the dense exact preparation), the reference step
compiler, the reference acquisition loop and two reference damped-cosine
fits."""

import math
from dataclasses import dataclass

import numpy as np

from pairgap.exact import propagator
from pairgap.hamiltonian import sector_basis
from pairgap.nmr import Delay, PulseProgram, RfPulse, _coupling_delay, _coupling_events, _onsite_events
from pairgap.spectroscopy import FitResult, TimeSeries

_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _LINES.append(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_LINES, key=lambda s: int(s.split()[1])):
        terminalreporter.write_line(line)


def step_line(model, u: np.ndarray, t0: float, pairs: int) -> float:
    """Gap (rad/s) between the step's eigenphases on the exact ground and first
    excited levels of the given pair sector.

    Each exact level is matched to the step eigenvector it overlaps most; the
    line is their eigenphase difference over t0, the frequency a noiseless
    stroboscopic series would oscillate at.
    """
    sub, idx = dense_sector_block(model, pairs), sector_basis(model.n, pairs)
    levels = np.zeros((u.shape[0], 2), dtype=complex)
    levels[idx, :] = np.linalg.eigh(sub)[1][:, :2]
    phases, vectors = np.linalg.eig(u)
    ground, excited = (int(np.argmax(np.abs(vectors.conj().T @ levels[:, j]))) for j in range(2))
    return float(-np.angle(phases[excited] * np.conj(phases[ground])) / t0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entries with equal signs of zero, real and imaginary parts."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


# Dense exact side: every ramp Hamiltonian realized on all 2^n states from
# its Pauli sum. The package builds each sector block from the hop list and
# evolves a single-sector preparation inside its sector; the blocks must
# equal these slices bit for bit and the preparation this loop within
# rounding.


def dense_sector_block(model, pairs: int) -> np.ndarray:
    idx = sector_basis(model.n, pairs)
    return kron_realize(full_hamiltonian(model))[np.ix_(idx, idx)]


def dense_prepare(model, init: np.ndarray, steps: int, t_ad: float) -> np.ndarray:
    """The exact preparation through dense propagators of each ramp step's
    full Hamiltonian, s = 0..S."""
    psi = np.asarray(init, dtype=complex)
    for s in range(steps + 1):
        h = kron_realize(full_hamiltonian(model.with_coupling_scale(s / steps)))
        psi = propagator(h, t_ad) @ psi
    return psi


def sector_leak_exponents(step, n: int, t0_list, k_list) -> tuple[float, float]:
    """Exponents p, q of the pair-number leak ||[U, N]|| ~ t0^p k^-q, each the
    mean of the log-log slopes along one axis of the grid. ``step(t0, k)``
    returns the step unitary."""
    num = number_operator(n)
    leak = np.array(
        [[np.linalg.norm(u @ num - num @ u) for u in (step(t0, k) for k in k_list)] for t0 in t0_list]
    )
    log_t, log_k, log_leak = np.log(t0_list), np.log(k_list), np.log(leak)
    p = np.mean([np.polyfit(log_t, log_leak[:, j], 1)[0] for j in range(len(k_list))])
    q = -np.mean([np.polyfit(log_k, log_leak[i], 1)[0] for i in range(len(t0_list))])
    return float(p), float(q)


def eigh_step(model, plan) -> np.ndarray:
    """The palindromic step [A(tau/2) B(tau/2) C(tau) B(tau/2) A(tau/2)]^k
    with each part exponentiated through its dense eigendecomposition, as
    the package built it before the Walsh-basis step; its oracle."""
    tau = plan.t0 / plan.k
    ua = propagator(kron_realize(onsite_hamiltonian(model)), tau / 2)
    ub = propagator(kron_realize(coupling_hamiltonian(model, "X")), tau / 2)
    uc = propagator(kron_realize(coupling_hamiltonian(model, "Y")), tau)
    return np.linalg.matrix_power(ua @ ub @ uc @ ub @ ua, plan.k)


def number_operator(n: int) -> np.ndarray:
    """Dense sum_m (I - Z_m)/2, counting qubits in |1>."""
    dim = 2**n
    diag = np.array([bin(i).count("1") for i in range(dim)], dtype=float)
    return np.diag(diag).astype(complex)


def first_order_step(parts: list[np.ndarray], t: float, k: int) -> np.ndarray:
    """(prod_j exp(-i H_j t/k))^k over the parts in the given order: the
    non-palindromic step, a negative control for the order checks."""
    if not parts:
        raise ValueError("need at least one Hamiltonian part")
    if k < 1:
        raise ValueError("k must be >= 1")
    step = np.eye(parts[0].shape[0], dtype=complex)
    for h in parts:
        step = step @ propagator(h, t / k)
    return np.linalg.matrix_power(step, k)


def compile_onsite(model, t: float) -> PulseProgram:
    """The compiler's on-site block alone: the free evolution for time t."""
    events = []
    _onsite_events(model, t, {m: 0 for m in range(1, model.n + 1)}, events, RfPulse)
    return PulseProgram(tuple(events), model.n)


def compile_coupling(model, axis: str, t: float, machine) -> PulseProgram:
    """The compiler's coupling block alone (axis 'X' or 'Y', time t). It
    leaves a spectator spin net-flipped; a full step program restores it."""
    d, pairs = _coupling_delay(model, t, machine)
    coupled = tuple(sorted({m + 1 for pair in pairs for m in pair}))
    idle = tuple(m for m in range(1, model.n + 1) if m not in coupled)
    events = []
    _coupling_events(axis, d, coupled, idle, {m: 0 for m in range(1, model.n + 1)}, events, RfPulse)
    return PulseProgram(tuple(events), model.n)


# Reference compiler: every event of every program built afresh, the layout
# refusals run per block and the w2 delays compensated in a second pass. The
# package's one-pass compiler, which interns its pulses, cuts each delay as it
# emits it and refuses a layout once per step, must give programs equal to
# these, clamp warnings and errors included.


def _reference_coupling_events(model, axis, t, machine, parity, out):
    open_phase, close_phase = (math.pi / 2, -math.pi / 2) if axis == "X" else (math.pi, 0.0)
    d, pairs = _coupling_delay(model, t, machine)
    coupled = sorted({m + 1 for pair in pairs for m in pair})
    if not coupled:
        return
    idle = tuple(m for m in range(1, model.n + 1) if m not in coupled)
    if d > 0:
        tied = [f"{a},{b}" for a in idle for b in idle if a < b and machine.j_hz[a - 1, b - 1] != 0.0]
        if tied:
            raise ValueError(
                f"spectator spins {'; '.join(tied)} have J != 0: the shared "
                "refocusing pulse leaves their mutual coupling on"
            )
        leaked = [
            f"{a},{b}"
            for a in coupled
            for b in coupled
            if a < b and model.coupling[a - 1, b - 1] == 0.0 and machine.j_hz[a - 1, b - 1] != 0.0
        ]
        if leaked:
            raise ValueError(
                f"coupled spins {'; '.join(leaked)} have V = 0 but J != 0: the "
                "shared delay leaves their mutual coupling on"
            )
    out.append(RfPulse(tuple(coupled), open_phase, math.pi / 2))
    if idle and d > 0:
        out.append(Delay(d / 2))
        out.append(RfPulse(idle, 0.0, math.pi))
        out.append(Delay(d / 2))
        for m in idle:
            parity[m] += 1
    else:
        out.append(Delay(d))
    out.append(RfPulse(tuple(coupled), close_phase, math.pi / 2))


def reference_compile_step(model, plan, method, machine) -> PulseProgram:
    """One palindromic step compiled event by event, then cut for w2."""
    if machine.n != model.n:
        raise ValueError("machine and model spin counts differ")
    tau = plan.t0 / plan.k
    parity = {m: 0 for m in range(1, model.n + 1)}
    events = []
    for _ in range(plan.k):
        _onsite_events(model, tau / 2, parity, events, RfPulse)
        _reference_coupling_events(model, "X", tau / 2, machine, parity, events)
        _reference_coupling_events(model, "Y", tau, machine, parity, events)
        _reference_coupling_events(model, "X", tau / 2, machine, parity, events)
        _onsite_events(model, tau / 2, parity, events, RfPulse)
    odd = tuple(m for m in range(1, model.n + 1) if parity[m] % 2)
    if odd:
        events.append(RfPulse(odd, 0.0, math.pi))
    if method == "w1":
        return PulseProgram(tuple(events), model.n)
    warnings = []
    for i, ev in enumerate(events):
        prev = events[i - 1] if i > 0 else None
        nxt = events[i + 1] if i + 1 < len(events) else None
        if isinstance(ev, Delay) and isinstance(prev, RfPulse) and isinstance(nxt, RfPulse):
            cut = ev.duration - (machine.t_pi / (2 * math.pi)) * (abs(prev.angle) + abs(nxt.angle))
            if cut < 0:
                warnings.append(f"event {i}: compensated delay {cut:.3e} s clamped to 0")
                cut = 0.0
            events[i] = Delay(cut)
    return PulseProgram(tuple(events), model.n, tuple(warnings))


# Pauli sums: the pairing Hamiltonian and the NMR ZZ drift as sums of Pauli
# strings, each term a real coefficient (rad/s) times single-qubit Paulis on
# 1-based qubits. Zero couplings are dropped.


@dataclass(frozen=True)
class PauliTerm:
    coeff: float
    factors: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class PauliSum:
    terms: tuple[PauliTerm, ...]
    n: int


def onsite_hamiltonian(model) -> PauliSum:
    """Free part: sum_m (nu_m/2)(-Z_m), times the convention factor."""
    f = model.convention_factor
    return PauliSum(tuple(PauliTerm(-0.5 * f * model.nu[m], ((m + 1, "Z"),)) for m in range(model.n)), model.n)


def coupling_hamiltonian(model, axis: str) -> PauliSum:
    """Coupling part along one axis: sum_{m<l} (V_ml/2) A_m A_l with A = X or Y."""
    if axis not in ("X", "Y"):
        raise ValueError("axis must be 'X' or 'Y'")
    f, v = model.convention_factor, model.coupling
    terms = tuple(
        PauliTerm(0.5 * f * v[m, l], ((m + 1, axis), (l + 1, axis)))
        for m in range(model.n)
        for l in range(m + 1, model.n)
        if v[m, l] != 0.0
    )
    return PauliSum(terms, model.n)


def full_hamiltonian(model) -> PauliSum:
    parts = (onsite_hamiltonian(model), coupling_hamiltonian(model, "X"), coupling_hamiltonian(model, "Y"))
    return PauliSum(sum((p.terms for p in parts), ()), model.n)


def nmr_zz_hamiltonian(j_hz: np.ndarray) -> PauliSum:
    """Always-on scalar coupling sum_{i<j} (pi/2) J_ij Z_i Z_j, J in Hz."""
    n = j_hz.shape[0]
    terms = tuple(
        PauliTerm(0.5 * math.pi * j_hz[i, k], ((i + 1, "Z"), (k + 1, "Z")))
        for i in range(n)
        for k in range(i + 1, n)
        if j_hz[i, k] != 0.0
    )
    return PauliSum(terms, n)


# Reference builders: every operator as an n-fold np.kron chain of 2 x 2
# factors, qubit 1 most significant. The package builds H from the hop list,
# the ZZ drift from its sign table and the RF operators by bit flips; each
# must match these bit for bit.

_MAX_DENSE_QUBITS = 12

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_realize(op) -> np.ndarray:
    """Dense matrix of a PauliSum, qubit 1 most significant. Guarded at 12 qubits."""
    if op.n > _MAX_DENSE_QUBITS:
        raise ValueError(f"dense realization limited to {_MAX_DENSE_QUBITS} qubits")
    dim = 2**op.n
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        letters = dict(term.factors)
        acc = np.array([[term.coeff]], dtype=complex)
        for q in range(1, op.n + 1):
            acc = np.kron(acc, _PAULI[letters.get(q, "I")])
        out += acc
    return out


def kron_rotation_unitary(n: int, targets: tuple[int, ...], phase: float, angle: float) -> np.ndarray:
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    r = np.array(
        [[c, 1j * s * np.exp(-1j * phase)], [1j * s * np.exp(1j * phase), c]],
        dtype=complex,
    )
    eye = np.eye(2, dtype=complex)
    acc = np.array([[1.0]], dtype=complex)
    for q in range(1, n + 1):
        acc = np.kron(acc, r if q in targets else eye)
    return acc


def reference_event_unitary(ev, machine, pulse_mode: str) -> np.ndarray:
    """One pulse-program event's unitary built on its own: the ZZ drift and
    the RF operators from the kron builders, a zero-angle pulse as the
    identity, and a finite pulse through its own exact.propagator (one
    eigendecomposition per event). The event table builds events in
    stacked batches; every one must equal this bit for bit."""
    n = machine.n
    zz = kron_realize(nmr_zz_hamiltonian(machine.j_hz))
    if isinstance(ev, Delay):
        return np.diag(np.exp(-1j * np.real(np.diag(zz)) * ev.duration))
    if ev.angle == 0.0:
        return np.eye(2**n, dtype=complex)
    if pulse_mode == "delta":
        return kron_rotation_unitary(n, ev.targets, ev.phase, ev.angle)
    omega1 = -math.copysign(math.pi / machine.t_pi, ev.angle)
    h = omega1 * kron_axis_field(n, ev.targets, ev.phase) + zz
    return propagator(h, machine.t_pi * abs(ev.angle) / math.pi)


def kron_axis_field(n: int, targets: tuple[int, ...], phase: float) -> np.ndarray:
    """Dense sum over targets of (X_i cos(phase) + Y_i sin(phase)) / 2."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    axis = x * math.cos(phase) + y * math.sin(phase)
    eye = np.eye(2, dtype=complex)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in targets:
        acc = np.array([[0.5]], dtype=complex)
        for q in range(1, n + 1):
            acc = np.kron(acc, axis if q == t else eye)
        out += acc
    return out


# Reference acquisition: one state at a time, each sample its own np.vdot. The
# package fills every state by doubling (binary powers of the step) and takes
# the samples in one batched dot; sample k must agree with this loop to a
# rounding error that grows linearly in k.


def loop_acquire(prepared, u, wall_per_step, q, t0, observed_spin, t2=None) -> TimeSeries:
    psi = np.asarray(prepared, dtype=complex)
    n = int(round(math.log2(psi.shape[0])))
    zdiag = 1.0 - 2.0 * ((np.arange(2**n) >> (n - observed_spin)) & 1)
    values = np.empty(q)
    for k in range(q):
        expectation = float(np.real(np.vdot(psi, zdiag * psi)))
        if t2 is not None:
            expectation *= math.exp(-k * wall_per_step / t2)
        values[k] = expectation
        if k + 1 < q:
            psi = u @ psi
    return TimeSeries(t0, values, wall_per_step)


# Reference fit: the damped-cosine Levenberg fit as it stood before the rate
# bound became an active constraint. On an undamped series the clamped rate
# sits at 0 and the relative-step stop cannot fire, so it runs to the
# iteration cap. Fits that never touch the bound must match it field for field.

_MIN_DECAY_RATE = 1e-12
_MAX_FIT_ITERATIONS = 200
_STEP_TOL = 1e-10


def _model_and_jacobian(beta: np.ndarray, t: np.ndarray):
    a, rate, omega, phi = beta
    envelope = np.exp(-rate * t)
    c = np.cos(omega * t + phi)
    s = np.sin(omega * t + phi)
    f = a * envelope * c
    jac = np.column_stack(
        (envelope * c, -t * a * envelope * c, -t * a * envelope * s, -a * envelope * s)
    )
    return f, jac


def capped_lm_fit(series: TimeSeries, seed: float) -> FitResult:
    """Least-squares fit of A exp(-t/tau_e) cos(Delta t + phi) to the series.

    Damped Gauss-Newton (Levenberg) iteration on (A, 1/tau_e, Delta, phi),
    seeded from the DFT bin nearest the seed frequency: amplitude 2|X|/Q,
    tau_e = Q t0, phase arg(X). Accepted steps never increase the residual;
    convergence means a relative step below 1e-10 within 200 iterations.
    """
    if series.q < 8:
        raise ValueError("need at least eight samples to fit four parameters")
    y = series.values
    if np.ptp(y) == 0.0:
        raise ValueError("degenerate flat series")
    t = series.times
    q = series.q

    x = np.fft.fft(y)
    bin_index = int(round(seed * q * series.t0 / (2 * math.pi)))
    bin_index = min(max(bin_index, 0), q // 2)
    a0 = 2.0 * abs(x[bin_index]) / q
    if a0 == 0.0:
        a0 = np.ptp(y) / 2
    phi0 = float(np.angle(x[bin_index]))
    beta = np.array([a0, 1.0 / (q * series.t0), float(seed), phi0])

    f, jac = _model_and_jacobian(beta, t)
    residual = f - y
    cost = float(residual @ residual)
    lam = 1e-3
    converged = False
    for _ in range(_MAX_FIT_ITERATIONS):
        jtj = jac.T @ jac
        g = jac.T @ residual
        step = None
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)) + 1e-300 * np.eye(4), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            trial = beta + step
            trial[1] = max(trial[1], 0.0)  # decay rates stay physical
            rel = float(np.max(np.abs(trial - beta) / np.maximum(np.abs(beta), 1e-12)))
            if rel < _STEP_TOL:
                # Parameters have stopped moving (possibly pinned at the
                # rate >= 0 boundary); that is convergence, not failure.
                converged = True
                break
            f_t, jac_t = _model_and_jacobian(trial, t)
            r_t = f_t - y
            cost_t = float(r_t @ r_t)
            if cost_t <= cost:
                break
            lam *= 2
            step = None
        if converged or step is None:
            break
        beta, f, jac, residual, cost = trial, f_t, jac_t, r_t, cost_t
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


# Reference fit: the rate-bounded fit with a freshly column-stacked Jacobian
# per evaluation and every inner-loop operand rebuilt on each try. The
# package reuses two Jacobian buffers and hoists those operands; its
# FitResult must equal this one field for field.

_FREE_OF_RATE = np.array([0, 2, 3])


def column_stack_fit(series: TimeSeries, seed: float) -> FitResult:
    if series.q < 8:
        raise ValueError("need at least eight samples to fit four parameters")
    y = series.values
    if np.ptp(y) == 0.0:
        raise ValueError("degenerate flat series")
    t = series.times
    q = series.q

    x = np.fft.fft(y)
    bin_index = int(round(seed * q * series.t0 / (2 * math.pi)))
    bin_index = min(max(bin_index, 0), q // 2)
    a0 = 2.0 * abs(x[bin_index]) / q
    if a0 == 0.0:
        a0 = np.ptp(y) / 2
    phi0 = float(np.angle(x[bin_index]))
    beta = np.array([a0, 1.0 / (q * series.t0), float(seed), phi0])

    f, jac = _model_and_jacobian(beta, t)
    residual = f - y
    cost = float(residual @ residual)
    lam = 1e-3
    converged = False
    for _ in range(_MAX_FIT_ITERATIONS):
        jtj = jac.T @ jac
        g = jac.T @ residual
        free = _FREE_OF_RATE if beta[1] == 0.0 and g[1] >= 0.0 else slice(None)
        sub = jtj[free][:, free]
        step = None
        for _ in range(50):
            try:
                solved = np.linalg.solve(sub + lam * np.diag(np.diag(sub)) + 1e-300 * np.eye(len(sub)), -g[free])
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = np.zeros(4)
            step[free] = solved
            trial = beta + step
            trial[1] = max(trial[1], 0.0)
            rel = float(np.max(np.abs(trial - beta) / np.maximum(np.abs(beta), 1e-12)))
            if rel < _STEP_TOL:
                converged = True
                break
            f_t, jac_t = _model_and_jacobian(trial, t)
            r_t = f_t - y
            cost_t = float(r_t @ r_t)
            if cost_t <= cost:
                break
            lam *= 2
            step = None
        if converged or step is None:
            break
        beta, f, jac, residual, cost = trial, f_t, jac_t, r_t, cost_t
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
