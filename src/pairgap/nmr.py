"""Pulse-level model of a liquid-state NMR register.

A compiled unitary is a PulseProgram: delays under the always-on scalar (ZZ)
coupling plus phased RF rotation events. Two compilation methods exist: "w1"
emits the bare sequence, "w2" additionally shortens every delay flanked by RF
pulses by alpha = (t_pi / 2 pi)(theta_1 + theta_2) to cancel the coupling that
accrues during finite-width pulses. Simulation runs in "delta" mode (pulses as
instantaneous perfect rotations) or "finite" mode (pulses as rectangular
on-resonance RF applied jointly with the ZZ coupling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import propagator
from .hamiltonian import PairingModel, _check_dense, _check_symmetric, _signs

_PI = math.pi

W1 = "w1"
W2 = "w2"
DELTA = "delta"
FINITE = "finite"


@dataclass(frozen=True)
class SpinSystem:
    """Machine description: scalar couplings J in Hz (symmetric, zero diagonal),
    pi-pulse duration t_pi in seconds, per-spin dephasing times t2 in seconds."""

    j_hz: np.ndarray
    t_pi: float = 20e-6
    t2: tuple[float, ...] = ()

    def __post_init__(self):
        j = _check_symmetric(self.j_hz, "machine.j_hz")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("machine.j_hz: diagonal must be zero")
        if not (self.t_pi >= 0 and math.isfinite(self.t_pi)):
            raise ValueError("machine.t_pi: must be non-negative and finite")
        t2 = tuple(float(x) for x in self.t2) or tuple(0.25 for _ in range(j.shape[0]))
        if len(t2) != j.shape[0]:
            raise ValueError("machine.t2: need one dephasing time per spin")
        if not all(x > 0 and math.isfinite(x) for x in t2):
            raise ValueError("machine.t2: entries must be positive")
        j = j.copy()
        j.flags.writeable = False
        object.__setattr__(self, "j_hz", j)
        object.__setattr__(self, "t2", t2)

    @property
    def n(self) -> int:
        return self.j_hz.shape[0]


@dataclass(frozen=True)
class Delay:
    duration: float

    def __post_init__(self):
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise ValueError("delay duration must be non-negative and finite")
        # numpy scalars sneak in from delay arithmetic; keep plain floats so
        # repr-based serialization stays portable
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "_hash", hash((self.duration,)))

    def __hash__(self) -> int:
        # hashed once: an EventTable looks every event up on each use
        return self._hash


@dataclass(frozen=True)
class RfPulse:
    """Simultaneous rotation R_phase(angle) = exp[+i (angle/2)(X cos(phase) +
    Y sin(phase))] on every target spin."""

    targets: tuple[int, ...]
    phase: float
    angle: float

    def __post_init__(self):
        targets = tuple(sorted(int(t) for t in self.targets))
        if not targets:
            raise ValueError("rf event needs at least one target spin")
        if targets[0] < 1 or len(set(targets)) != len(targets):
            raise ValueError("rf targets must be distinct 1-based spin indices")
        if not (math.isfinite(self.phase) and math.isfinite(self.angle)):
            raise ValueError("rf phase and angle must be finite")
        if not -2 * _PI < self.angle <= 2 * _PI:
            raise ValueError("rf angle must lie in (-2*pi, 2*pi]")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "phase", float(self.phase))
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "_hash", hash((targets, self.phase, self.angle)))

    def __hash__(self) -> int:
        return self._hash


PulseEvent = Delay | RfPulse


@dataclass(frozen=True)
class PulseProgram:
    events: tuple[PulseEvent, ...]
    n: int
    clamp_warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "clamp_warnings", tuple(self.clamp_warnings))
        top = max(
            (ev.targets[-1] for ev in self.events if isinstance(ev, RfPulse)),
            default=1,
        )
        if self.n < top:
            raise ValueError("program spin count below highest rf target")


def wall_time(program: PulseProgram, t_pi: float) -> float:
    """Total physical duration: delays plus t_pi * |angle| / pi per RF event."""
    total = 0.0
    for ev in program.events:
        if isinstance(ev, Delay):
            total += ev.duration
        else:
            total += t_pi * abs(ev.angle) / _PI
    return total


def _wrap_angle(angle: float) -> float:
    # Rotations are 4*pi-periodic in the angle, so reducing mod 4*pi into
    # (-2*pi, 2*pi] leaves the matrix bit-for-bit unchanged.
    a = math.fmod(angle, 4 * _PI)
    if a > 2 * _PI:
        a -= 4 * _PI
    elif a <= -2 * _PI:
        a += 4 * _PI
    return a


def _onsite_events(model: PairingModel, t: float, parity: dict[int, int], out: list) -> None:
    """Composite z-rotations realizing the free evolution for time t.

    Chronologically R_{-pi/2}(pi/2), per-spin R_0(nu_m t), R_{pi/2}(pi/2); the
    bracketing pulses share phase and angle across spins and merge into single
    multi-target events. A spin whose refocusing parity is odd gets its
    z-angle negated, since the surrounding flips invert its frame.
    """
    every = tuple(range(1, model.n + 1))
    out.append(RfPulse(every, -_PI / 2, _PI / 2))
    for m in range(1, model.n + 1):
        sign = -1.0 if parity[m] % 2 else 1.0
        angle = sign * model.convention_factor * model.nu[m - 1] * t
        out.append(RfPulse((m,), 0.0, _wrap_angle(angle)))
    out.append(RfPulse(every, _PI / 2, _PI / 2))


def _coupling_delay(model: PairingModel, t: float, machine: SpinSystem) -> tuple[float, tuple]:
    """Shared ZZ delay realizing angle V_ml * t on every coupled pair, plus
    those pairs as 0-based (i, j) with i < j."""
    v = model.coupling * model.convention_factor
    pairs = tuple(
        (i, j)
        for i in range(model.n)
        for j in range(i + 1, model.n)
        if v[i, j] != 0.0
    )
    if not pairs:
        return 0.0, pairs
    durations = []
    for i, j in pairs:
        j_hz = machine.j_hz[i, j]
        if j_hz == 0.0:
            raise ValueError(f"unrealizable coupling: spins {i + 1},{j + 1} have J = 0")
        d = v[i, j] * t / (_PI * j_hz)
        if d < 0:
            raise ValueError(
                f"coupling on spins {i + 1},{j + 1} requires a negative delay"
            )
        durations.append(d)
    if max(durations) - min(durations) > 1e-12 * max(1e-12, max(durations)):
        raise ValueError("coupled pairs demand inconsistent delays; one shared delay realizes them all")
    return durations[0], pairs


@dataclass(frozen=True)
class _Slot:
    """A coupling delay in a step template: its block time t, whole or halved
    around a refocusing pulse, and its w2 cut alpha (None when not cut)."""

    t: float
    half: bool
    alpha: float | None = None


def _coupling_events(
    axis: str,
    t: float,
    machine: SpinSystem,
    pairs: tuple[tuple[int, int], ...],
    delayed: bool,
    parity: dict[int, int],
    out: list,
) -> None:
    """One coupling block: basis-change sandwich on the coupled spins around a
    shared ZZ delay, left as a slot; when the delay is nonzero (``delayed``),
    uncoupled spins get a single X pi pulse at its midpoint, which cancels
    their coupling to the active spins over the block.

    Spectators are flipped together, so two of them with nonzero mutual J
    would keep that coupling through the block; so would two coupled spins
    with V = 0 but J != 0 between them, which share the delay. Such layouts
    raise a ValueError that names the spins.
    """
    if axis == "X":
        open_phase, close_phase = _PI / 2, -_PI / 2
    elif axis == "Y":
        open_phase, close_phase = _PI, 0.0
    else:
        raise ValueError("axis must be 'X' or 'Y'")
    coupled = sorted({m + 1 for pair in pairs for m in pair})
    if not coupled:
        return
    idle = tuple(m for m in range(1, machine.n + 1) if m not in coupled)
    if delayed:
        tied = [
            f"{a},{b}"
            for a in idle
            for b in idle
            if a < b and machine.j_hz[a - 1, b - 1] != 0.0
        ]
        if tied:
            raise ValueError(
                f"spectator spins {'; '.join(tied)} have J != 0: the shared "
                "refocusing pulse leaves their mutual coupling on"
            )
        leaked = [
            f"{a},{b}"
            for a in coupled
            for b in coupled
            if a < b and (a - 1, b - 1) not in pairs and machine.j_hz[a - 1, b - 1] != 0.0
        ]
        if leaked:
            raise ValueError(
                f"coupled spins {'; '.join(leaked)} have V = 0 but J != 0: the "
                "shared delay leaves their mutual coupling on"
            )
    out.append(RfPulse(tuple(coupled), open_phase, _PI / 2))
    if idle and delayed:
        out.append(_Slot(t, True))
        out.append(RfPulse(idle, 0.0, _PI))
        out.append(_Slot(t, True))
        for m in idle:
            parity[m] += 1
    else:
        out.append(_Slot(t, False))
    out.append(RfPulse(tuple(coupled), close_phase, _PI / 2))


def _stamp(template: tuple, delays: dict[float, float], n: int) -> PulseProgram:
    """Fill a template's slots with the shared delay of each block time. A
    cut delay that would go negative is clamped to zero and reported."""
    events = list(template)
    warnings = []
    for i, ev in enumerate(template):
        if not isinstance(ev, _Slot):
            continue
        duration = delays[ev.t] / 2 if ev.half else delays[ev.t]
        if ev.alpha is not None:
            duration = float(duration) - ev.alpha
            if duration < 0:
                warnings.append(f"event {i}: compensated delay {duration:.3e} s clamped to 0")
                duration = 0.0
        events[i] = Delay(duration)
    return PulseProgram(tuple(events), n, tuple(warnings))


class StepCompiler:
    """Compiles one symmetric Trotter step (see trotter.symmetric3_step) of
    ``plan`` for ``machine`` with method "w1" or "w2", for any model.

    The event list depends on the model only through its on-site part, its
    coupled pairs and which block delays are nonzero. It is built once per
    such key as a template with a slot per coupling delay, which each model
    stamps with its own delays: a ramp's steps s >= 1 share one template.
    """

    def __init__(self, plan, method: str, machine: SpinSystem):
        if method not in (W1, W2):
            raise ValueError("method must be 'w1' or 'w2'")
        self.plan = plan
        self.method = method
        self.machine = machine
        self._templates: dict[tuple, tuple] = {}

    def compile(self, model: PairingModel) -> PulseProgram:
        if self.machine.n != model.n:
            raise ValueError("machine and model spin counts differ")
        tau = self.plan.t0 / self.plan.k
        delays = {}
        for t in (tau / 2, tau):
            delays[t], pairs = _coupling_delay(model, t, self.machine)
        key = (model.nu, model.convention_factor, pairs, tuple(d > 0 for d in delays.values()))
        if key not in self._templates:
            self._templates[key] = self._template(model, tau, pairs, delays)
        return _stamp(self._templates[key], delays, model.n)

    def _template(self, model, tau, pairs, delays) -> tuple:
        """Refocusing parity is tracked across the whole program: spectator
        z-angles flip sign while the running flip count is odd, and one
        restoring X pi pulse ends it when the final count is odd. Method "w2"
        gives each slot between RF events its alpha (angles by magnitude)."""
        parity = {m: 0 for m in range(1, model.n + 1)}
        events: list = []
        for _ in range(self.plan.k):
            _onsite_events(model, tau / 2, parity, events)
            for axis, t in (("X", tau / 2), ("Y", tau), ("X", tau / 2)):
                _coupling_events(axis, t, self.machine, pairs, delays[t] > 0, parity, events)
            _onsite_events(model, tau / 2, parity, events)
        odd = tuple(m for m in range(1, model.n + 1) if parity[m] % 2)
        if odd:
            events.append(RfPulse(odd, 0.0, _PI))
        if self.method == W2:
            for i in range(1, len(events) - 1):
                prev, ev, nxt = events[i - 1 : i + 2]
                if isinstance(ev, _Slot) and isinstance(prev, RfPulse) and isinstance(nxt, RfPulse):
                    alpha = (self.machine.t_pi / (2 * _PI)) * (abs(prev.angle) + abs(nxt.angle))
                    events[i] = _Slot(ev.t, ev.half, alpha)
        return tuple(events)


def compile_trotter_step(model, plan, method: str, machine: SpinSystem) -> PulseProgram:
    """Compile one symmetric Trotter step into a pulse program, repeated
    plan.k times (a fresh StepCompiler's template, stamped once)."""
    return StepCompiler(plan, method, machine).compile(model)


def _rotation_unitary(n: int, targets: tuple[int, ...], phase: float, angle: float) -> np.ndarray:
    """R_phase(angle) on every target spin, identity elsewhere, spin q at bit n - q.

    Row i holds its entries in the columns i ^ m, m running over the subsets
    of the target bits. Each entry multiplies the targets' 2 x 2 factors in
    ascending spin order, the order of the tensor product, so it rounds the
    same way.
    """
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    r = np.array(
        [[c, 1j * s * np.exp(-1j * phase)], [1j * s * np.exp(1j * phase), c]],
        dtype=complex,
    )
    shifts = [n - t for t in sorted(targets)]
    flips = np.zeros(1, dtype=int)
    for b in shifts:
        flips = np.concatenate((flips, flips | (1 << b)))
    rows = np.arange(2**n)[:, None]
    cols = rows ^ flips
    vals = np.ones(cols.shape, dtype=complex)
    for b in shifts:
        vals = vals * r[(rows >> b) & 1, (cols >> b) & 1]
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[rows, cols] = vals
    return u


def _axis_field(n: int, targets: tuple[int, ...], phase: float) -> np.ndarray:
    """Dense sum over targets of (X_t cos(phase) + Y_t sin(phase)) / 2.

    Row i holds target t's entries in column i ^ (1 << (n - t)): X adds
    cos(phase) / 2, then Y adds -i sin(phase) / 2, negated where spin t
    reads 1; in that order, the sum of the tensor products rounds the same.
    """
    rows = np.arange(2**n)
    x = complex(0.5 * math.cos(phase))
    y = complex(0.5 * math.sin(phase)) * -1j
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in targets:
        cols = rows ^ (1 << (n - t))
        out[rows, cols] += x
        out[rows, cols] += np.where(_signs(n)[:, t - 1] < 0, -y, y)
    return out


def _pulse_unitary(ev: RfPulse, n: int, machine: SpinSystem, pulse_mode: str, zz: np.ndarray) -> np.ndarray:
    if pulse_mode == DELTA:
        return _rotation_unitary(n, ev.targets, ev.phase, ev.angle)
    if machine.t_pi <= 0:
        raise ValueError("finite pulse mode needs machine.t_pi > 0")
    duration = machine.t_pi * abs(ev.angle) / _PI
    omega1 = -math.copysign(_PI / machine.t_pi, ev.angle)
    h = omega1 * _axis_field(n, ev.targets, ev.phase) + zz
    return propagator(h, duration)


class EventTable:
    """Unitaries of pulse-program events for one machine and pulse mode.

    Delays evolve the diagonal ZZ Hamiltonian; finite-mode pulses evolve RF
    plus ZZ for duration t_pi |angle| / pi with amplitude
    omega_1 = -sign(angle) pi / t_pi, which reproduces the perfect rotation
    exactly when J = 0.

    Each distinct event, keyed by the frozen Delay or RfPulse itself, is
    built on first use and then shared by every program applied through the
    table; the ZZ diagonal is built once too. A run keeps one table, the one
    carrier of its machine and pulse mode: its preparation programs and its
    step program all run on it and repeat the same few pulses. Using the
    table with another machine, spin count or pulse mode raises ValueError
    instead of returning another machine's unitary, and so does building
    one for more than 12 spins.
    """

    def __init__(self, machine: SpinSystem, pulse_mode: str):
        if pulse_mode not in (DELTA, FINITE):
            raise ValueError("pulse_mode must be 'delta' or 'finite'")
        _check_dense(machine.n)
        self.machine = machine
        self.n = machine.n
        self.pulse_mode = pulse_mode
        self._zz: np.ndarray | None = None
        self._zz_diag: np.ndarray | None = None
        self._unitaries: dict[PulseEvent, np.ndarray] = {}

    def check(self, machine: SpinSystem, n: int, pulse_mode: str) -> None:
        if pulse_mode != self.pulse_mode:
            raise ValueError(f"event table holds {self.pulse_mode} unitaries, not {pulse_mode}")
        if n != self.n:
            raise ValueError(f"event table holds {self.n}-spin unitaries, not {n}-spin")
        same = machine is self.machine or (
            machine.t_pi == self.machine.t_pi and np.array_equal(machine.j_hz, self.machine.j_hz)
        )
        if not same:
            raise ValueError("event table holds the unitaries of another machine")

    def unitary(self, ev: PulseEvent) -> np.ndarray:
        u = self._unitaries.get(ev)
        if u is None:
            u = self._build(ev)
            u.flags.writeable = False
            self._unitaries[ev] = u
        return u

    def _build(self, ev: PulseEvent) -> np.ndarray:
        if self._zz is None:
            # sum_{i<j} (pi/2) J_ij z_i z_j, in pair order from 0.0
            z, j = _signs(self.n), self.machine.j_hz
            self._zz_diag = np.zeros(2**self.n)
            for a in range(self.n):
                for b in range(a + 1, self.n):
                    self._zz_diag += (0.5 * _PI * j[a, b]) * (z[:, a] * z[:, b])
            self._zz = np.diag(self._zz_diag.astype(complex))
        if isinstance(ev, Delay):
            return np.diag(np.exp(-1j * self._zz_diag * ev.duration))
        if ev.angle == 0.0:
            return np.eye(2**self.n, dtype=complex)
        return _pulse_unitary(ev, self.n, self.machine, self.pulse_mode, self._zz)


def _table_for(program: PulseProgram, machine: SpinSystem, pulse_mode: str, table: EventTable | None) -> EventTable:
    if table is None:
        table = EventTable(machine, pulse_mode)
    table.check(machine, program.n, pulse_mode)
    return table


def program_unitary(
    program: PulseProgram, machine: SpinSystem, pulse_mode: str = DELTA, table: EventTable | None = None
) -> np.ndarray:
    """Ordered product of the program's event unitaries, taken from ``table``
    (a fresh one when None)."""
    table = _table_for(program, machine, pulse_mode, table)
    u = np.eye(2**program.n, dtype=complex)
    for ev in program.events:
        u = table.unitary(ev) @ u
    return u


def simulate_program(
    program: PulseProgram,
    machine: SpinSystem,
    init: np.ndarray,
    pulse_mode: str = DELTA,
    table: EventTable | None = None,
) -> tuple[np.ndarray, float]:
    """Apply the program to a state; returns (final state, wall-clock duration).
    Event unitaries come from ``table`` (a fresh one when None)."""
    psi = np.asarray(init, dtype=complex)
    if psi.shape[0] != 2**program.n:
        raise ValueError("state dimension does not match program spin count")
    table = _table_for(program, machine, pulse_mode, table)
    for ev in program.events:
        psi = table.unitary(ev) @ psi
    return psi, wall_time(program, machine.t_pi)
