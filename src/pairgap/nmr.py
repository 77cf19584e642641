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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exact import _require_hermitian
from .hamiltonian import PairingModel, _check_dense, _check_symmetric, _signs

_PI = math.pi

W1 = "w1"
W2 = "w2"
DELTA = "delta"
FINITE = "finite"


@dataclass(frozen=True)
class SpinSystem:
    """Machine description: scalar couplings J in Hz (symmetric, zero diagonal),
    pi-pulse duration t_pi in seconds, per-spin dephasing times t2 in seconds
    (empty: 0.25 s each). Its defaults are the package's one copy of them."""

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


def _coupling_delays(model: PairingModel, tau: float, machine: SpinSystem) -> tuple[float, float, tuple]:
    """Shared ZZ delays realizing angles V_ml tau / 2 and V_ml tau on every
    coupled pair, plus those pairs as 0-based (i, j) with i < j. One pass
    over the pairs computes both; the refusals come as a tau / 2 pass and
    then a tau pass would raise them. Both tables are read as Python floats,
    whose arithmetic is the same IEEE arithmetic as numpy's."""
    v = (model.coupling * model.convention_factor).tolist()
    pairs = tuple((i, j) for i, j in combinations(range(model.n), 2) if v[i][j] != 0.0)
    if not pairs:
        return 0.0, 0.0, pairs
    j_table = machine.j_hz.tolist()
    half, whole = [], []
    for i, j in pairs:
        j_hz = j_table[i][j]
        # None stands for a pair with J = 0, which the tau / 2 pass refuses
        half.append(v[i][j] * (tau / 2) / (_PI * j_hz) if j_hz != 0.0 else None)
        whole.append(v[i][j] * tau / (_PI * j_hz) if j_hz != 0.0 else None)
    for durations in (half, whole):
        for (i, j), d in zip(pairs, durations):
            if d is None:
                raise ValueError(f"unrealizable coupling: spins {i + 1},{j + 1} have J = 0")
            if d < 0:
                raise ValueError(f"coupling on spins {i + 1},{j + 1} requires a negative delay")
        if max(durations) - min(durations) > 1e-12 * max(1e-12, max(durations)):
            raise ValueError("coupled pairs demand inconsistent delays; one shared delay realizes them all")
    return half[0], whole[0], pairs


def _refuse_open_couplings(machine: SpinSystem, pairs: tuple, coupled: tuple, idle: tuple) -> None:
    """Raise a ValueError naming the spins of a layout whose shared delay
    leaves a coupling on: spectators are flipped together, so two of them
    with nonzero mutual J keep that coupling through the block; so do two
    coupled spins with V = 0 but J != 0 between them, which share the delay."""
    j = machine.j_hz
    tied = [f"{a},{b}" for a, b in combinations(idle, 2) if j[a - 1, b - 1] != 0.0]
    if tied:
        raise ValueError(
            f"spectator spins {'; '.join(tied)} have J != 0: the shared "
            "refocusing pulse leaves their mutual coupling on"
        )
    leaked = [f"{a},{b}" for a, b in combinations(coupled, 2) if (a - 1, b - 1) not in pairs and j[a - 1, b - 1] != 0.0]
    if leaked:
        raise ValueError(
            f"coupled spins {'; '.join(leaked)} have V = 0 but J != 0: the "
            "shared delay leaves their mutual coupling on"
        )


class StepCompiler:
    """Compiles symmetric Trotter steps (see trotter.symmetric3_step) for
    ``machine`` with method "w1" or "w2", for any model and plan.

    A compile fetches each of its pulses and delays once, builds the on-site
    and coupling blocks of one step from them, with every w2 cut applied,
    and emits the k repetitions from those blocks. Each distinct event is
    built and validated once per compiler, so the programs of one compiler,
    a run's whole ramp and every acquisition step, share their RfPulse and
    Delay objects.
    """

    def __init__(self, method: str, machine: SpinSystem):
        if method not in (W1, W2):
            raise ValueError("method must be 'w1' or 'w2'")
        self.method = method
        self.machine = machine
        self._events: dict[tuple, PulseEvent] = {}

    def _event(self, *args) -> PulseEvent:
        """The RfPulse(targets, phase, angle) or Delay(duration) of ``args``.
        The sign of the last argument is part of the key: a -0.0 angle or
        duration keeps its own event, which a program's text prints as -0.0."""
        key = (*args, math.copysign(1.0, args[-1]))
        ev = self._events.get(key)
        if ev is None:
            ev = self._events[key] = RfPulse(*args) if len(args) == 3 else Delay(*args)
        return ev

    def compile(self, model: PairingModel, plan) -> PulseProgram:
        """Refocusing parity is tracked across the whole program: the
        spectators, flipped together at the midpoint of each coupling block
        with a nonzero delay, get their z-angles negated while the flip count
        is odd, and one restoring X pi pulse ends the program when the final
        count is odd. The tau / 2 and tau blocks each get their own delay
        (with subnormal couplings one is not half the other). With method
        "w2" each delay is shortened by t_pi / 2 pi times the summed |angle|
        of its two flanking pulses; one the cut would make negative is
        clamped to zero and reported by its event index. A layout the shared
        delay cannot realize raises a ValueError that names the spins."""
        if self.machine.n != model.n:
            raise ValueError("machine and model spin counts differ")
        n, tau = model.n, plan.t0 / plan.k
        half, whole, pairs = _coupling_delays(model, tau, self.machine)
        coupled = tuple(sorted({m + 1 for pair in pairs for m in pair}))
        idle = tuple(m for m in range(1, n + 1) if m not in coupled)
        if coupled and whole > 0:
            _refuse_open_couplings(self.machine, pairs, coupled, idle)
        event, every = self._event, tuple(range(1, n + 1))

        def onsite(flipped: tuple) -> list:
            # R_{-pi/2}(pi/2), per-spin R_0(nu_m tau / 2), R_{pi/2}(pi/2); a flipped spin's z-angle is negated
            signs = [-1.0 if m in flipped else 1.0 for m in every]
            angles = [sign * model.convention_factor * model.nu[m - 1] * (tau / 2) for m, sign in zip(every, signs)]
            spins = [event((m,), 0.0, _wrap_angle(angle)) for m, angle in zip(every, angles)]
            return [event(every, -_PI / 2, _PI / 2), *spins, event(every, _PI / 2, _PI / 2)]

        # the on-site block while the flip count is even, then while it is
        # odd; each coupling block as (events, clamps, whether it flips)
        free, blocks = [onsite(())], []
        cut = self.machine.t_pi / (2 * _PI) if self.method == W2 else None
        for d, open_phase, close_phase in ((half, _PI / 2, -_PI / 2), (whole, _PI, 0.0)) if coupled else ():
            # basis change on the coupled spins around their shared delay d,
            # split by one X pi pulse on the spectators when d > 0
            pulses = [event(coupled, open_phase, _PI / 2), event(coupled, close_phase, _PI / 2)]
            if idle and d > 0:
                pulses.insert(1, event(idle, 0.0, _PI))
            block, clamps = [pulses[0]], []
            for before, after in zip(pulses, pulses[1:]):
                duration = d / 2 if len(pulses) == 3 else d
                if cut is not None:
                    duration = float(duration) - cut * (abs(before.angle) + abs(after.angle))
                    if duration < 0:
                        clamps.append((len(block), f"compensated delay {duration:.3e} s clamped to 0"))
                        duration = 0.0
                block += [event(duration), after]
            blocks.append((block, clamps, len(pulses) == 3))
        if any(flips for *_, flips in blocks):
            free.append(onsite(idle))
        events, warnings, odd = [], [], 0
        for _ in range(plan.k):
            events += free[odd]
            for block, clamps, flips in blocks[:2] + blocks[:1]:
                warnings += (f"event {len(events) + i}: {text}" for i, text in clamps)
                events += block
                odd ^= flips
            events += free[odd]
        if odd:
            events.append(event(idle, 0.0, _PI))
        return PulseProgram(tuple(events), n, tuple(warnings))


def compile_trotter_step(model, plan, method: str, machine: SpinSystem) -> PulseProgram:
    """Compile one symmetric Trotter step into a pulse program, repeated
    plan.k times, on a fresh StepCompiler."""
    return StepCompiler(method, machine).compile(model, plan)


def _rotation_unitary(n: int, targets: tuple[int, ...], phases, angles) -> np.ndarray:
    """R_phase(angle) on every target spin, identity elsewhere, spin q at bit
    n - q; one matrix per (phase, angle) pair, stacked.

    Row i holds its entries in the columns i ^ m, m running over the subsets
    of the target bits. Each entry multiplies the targets' 2 x 2 factors in
    ascending spin order, the order of the tensor product, so it rounds the
    same way.
    """
    r = np.empty((len(angles), 2, 2), dtype=complex)
    for i, (phase, angle) in enumerate(zip(phases, angles)):
        c = math.cos(angle / 2)
        s = math.sin(angle / 2)
        r[i] = [[c, 1j * s * np.exp(-1j * phase)], [1j * s * np.exp(1j * phase), c]]
    shifts = [n - t for t in sorted(targets)]
    flips = np.zeros(1, dtype=int)
    for b in shifts:
        flips = np.concatenate((flips, flips | (1 << b)))
    rows = np.arange(2**n)[:, None]
    cols = rows ^ flips
    vals = np.ones((len(r),) + cols.shape, dtype=complex)
    for b in shifts:
        vals = vals * r[:, (rows >> b) & 1, (cols >> b) & 1]
    u = np.zeros((len(r), 2**n, 2**n), dtype=complex)
    u[:, rows, cols] = vals
    return u


def _axis_field(n: int, targets, phases) -> np.ndarray:
    """Dense sum over a pulse's targets of (X_t cos(phase) + Y_t sin(phase))
    / 2, one matrix per pulse, stacked; ``targets`` holds each pulse's
    target set and ``phases`` its phase.

    Row i holds target t's entries in column i ^ (1 << (n - t)): X adds
    cos(phase) / 2, then Y adds -i sin(phase) / 2, negated where spin t
    reads 1; in that order, the sum of the tensor products rounds the same.
    Each spin is filled at once in every pulse that targets it.
    """
    rows = np.arange(2**n)
    x = np.array([complex(0.5 * math.cos(phase)) for phase in phases])[:, None]
    y = np.array([complex(0.5 * math.sin(phase)) * -1j for phase in phases])[:, None]
    out = np.zeros((len(phases), 2**n, 2**n), dtype=complex)
    for t in range(1, n + 1):
        at = [b for b, pulse in enumerate(targets) if t in pulse]
        if at:
            entries = (np.array(at)[:, None], rows, rows ^ (1 << (n - t)))
            out[entries] += x[at]
            out[entries] += np.where(_signs(n)[:, t - 1] < 0, -y[at], y[at])
    return out


class EventTable:
    """Unitaries of pulse-program events for one machine and pulse mode.

    Delays evolve the diagonal ZZ Hamiltonian; finite-mode pulses evolve RF
    plus ZZ for duration t_pi |angle| / pi with amplitude
    omega_1 = -sign(angle) pi / t_pi, which reproduces the perfect rotation
    exactly when J = 0. A pulse of angle 0 (or -0.0, the same key) is the
    identity.

    Each distinct event, keyed by the frozen Delay or RfPulse itself, is
    built once and then shared by every program applied through the table;
    the ZZ drift is held once, as its diagonal. A run keeps one table, the one
    carrier of its machine and pulse mode, and the table compiles and builds
    every program the run applies: one StepCompiler per method compiles each
    program once, the acquisition step (``reserve``) before the ramp, and
    the events the table lacks are built in stacked batches, one numpy pass
    per event kind, so that a compiled run builds all its events in one
    (``programs``). Using the table with another machine, spin count or
    pulse mode raises ValueError instead of returning another machine's
    unitary, and so does building one for more than 12 spins.
    """

    def __init__(self, machine: SpinSystem, pulse_mode: str):
        if pulse_mode not in (DELTA, FINITE):
            raise ValueError("pulse_mode must be 'delta' or 'finite'")
        _check_dense(machine.n)
        self.machine = machine
        self.pulse_mode = pulse_mode
        self._zz_diag: np.ndarray | None = None
        self._unitaries: dict[PulseEvent, np.ndarray] = {}
        self._compilers: dict[str, StepCompiler] = {}
        self._reserved: tuple = (None,) * 4  # (model, plan, method, program or compile error)

    def check(self, machine: SpinSystem, n: int, pulse_mode: str) -> None:
        if pulse_mode != self.pulse_mode:
            raise ValueError(f"event table holds {self.pulse_mode} unitaries, not {pulse_mode}")
        if n != self.machine.n:
            raise ValueError(f"event table holds {self.machine.n}-spin unitaries, not {n}-spin")
        same = machine is self.machine or (
            machine.t_pi == self.machine.t_pi and np.array_equal(machine.j_hz, self.machine.j_hz)
        )
        if not same:
            raise ValueError("event table holds the unitaries of another machine")

    def unitaries(self, events: Sequence[PulseEvent]) -> list[np.ndarray]:
        """The unitary of each event, in order: one dict lookup per event,
        after building, in one batch, every event the table lacks."""
        try:
            return [self._unitaries[ev] for ev in events]
        except KeyError:
            self._build_all(events)
            return [self._unitaries[ev] for ev in events]

    def _compile(self, model: PairingModel, plan, method: str) -> PulseProgram:
        reserved = self._reserved
        if reserved[0] is model and reserved[1:3] == (plan, method):
            if isinstance(reserved[3], ValueError):
                raise reserved[3]
            return reserved[3]
        if method not in self._compilers:
            self._compilers[method] = StepCompiler(method, self.machine)
        return self._compilers[method].compile(model, plan)

    def reserve(self, model: PairingModel, plan, method: str) -> None:
        """Compile ``model``'s step of ``plan`` now if ``method`` is "w1" or
        "w2": the next build takes its events in the same pass, and
        ``programs`` hands it out instead of compiling it again. A compile
        error is held until then and raised where compiling would raise."""
        if method in (W1, W2):
            try:
                self._reserved = (model, plan, method, self._compile(model, plan, method))
            except ValueError as exc:
                self._reserved = (model, plan, method, exc)

    def programs(self, models: Sequence[PairingModel], plan, method: str) -> list[PulseProgram]:
        """One step of ``plan`` for each model, compiled with ``method`` on
        the table's compiler for that method (or reserved); every event of
        them and of a reserved program that the table lacks is built in one
        stacked pass before any is applied."""
        programs = [self._compile(model, plan, method) for model in models]
        held = [p for p in self._reserved[3:] if isinstance(p, PulseProgram)]
        self._build_all(ev for program in programs + held for ev in program.events)
        return programs

    def _build_all(self, events: Iterable[PulseEvent]) -> None:
        """Build, read-only, the unitary of every event in ``events`` that the
        table lacks: the delays on stacked diagonals, the identity for each
        zero-angle pulse, the other pulses in ``_pulse_unitaries``."""
        todo = [ev for ev in dict.fromkeys(events) if ev not in self._unitaries]
        if not todo:
            return
        n = self.machine.n
        dim = 2**n
        if self._zz_diag is None:
            # sum_{i<j} (pi/2) J_ij z_i z_j, in pair order from 0.0
            z, j = _signs(n), self.machine.j_hz
            self._zz_diag = np.zeros(dim)
            for a in range(n):
                for b in range(a + 1, n):
                    self._zz_diag += (0.5 * _PI * j[a, b]) * (z[:, a] * z[:, b])
        delays, idle, pulses = [], [], []
        for ev in todo:
            (delays if isinstance(ev, Delay) else pulses if ev.angle != 0.0 else idle).append(ev)
        batches = []
        if delays:
            durations = np.array([ev.duration for ev in delays])
            u = np.zeros((len(delays), dim, dim), dtype=complex)
            u[:, np.arange(dim), np.arange(dim)] = np.exp((-1j * self._zz_diag)[None, :] * durations[:, None])
            batches.append((delays, u))
        if idle:
            batches.append((idle, np.broadcast_to(np.eye(dim, dtype=complex), (len(idle), dim, dim))))
        if pulses:
            batches.append(self._pulse_unitaries(pulses))
        for evs, u in batches:
            u.flags.writeable = False
            self._unitaries.update(zip(evs, u))

    def _pulse_unitaries(self, pulses: list[RfPulse]) -> tuple[list[RfPulse], np.ndarray]:
        """Unitaries of nonzero-angle pulses, stacked, and the pulses in the
        order of the stack. Delta mode stacks the perfect rotations, grouped
        by target set; finite mode stacks every RF field plus ZZ, checks each
        matrix's Hermiticity against its own largest entry, decomposes them
        all in one ``eigh`` and evolves each for its width."""
        if self.pulse_mode == DELTA:
            groups: dict[tuple[int, ...], list[RfPulse]] = {}
            for ev in pulses:
                groups.setdefault(ev.targets, []).append(ev)
            stacks = [
                _rotation_unitary(self.machine.n, targets, [ev.phase for ev in group], [ev.angle for ev in group])
                for targets, group in groups.items()
            ]
            return [ev for group in groups.values() for ev in group], np.concatenate(stacks)
        t_pi = self.machine.t_pi
        if t_pi <= 0:
            raise ValueError("finite pulse mode needs machine.t_pi > 0")
        fields = _axis_field(self.machine.n, [ev.targets for ev in pulses], [ev.phase for ev in pulses])
        omega1 = np.array([-math.copysign(_PI / t_pi, ev.angle) for ev in pulses])
        durations = np.array([t_pi * abs(ev.angle) / _PI for ev in pulses])
        zz = np.diag(self._zz_diag.astype(complex))
        values, vectors = np.linalg.eigh(_require_hermitian(omega1[:, None, None] * fields + zz))
        phases = np.exp(-1j * values * durations[:, None])
        return pulses, (vectors * phases[:, None, :]) @ vectors.conj().swapaxes(-2, -1)


def _table_for(program: PulseProgram, machine: SpinSystem, pulse_mode: str, table: EventTable | None) -> EventTable:
    if table is None:
        table = EventTable(machine, pulse_mode)
    table.check(machine, program.n, pulse_mode)
    return table


def program_unitary(
    program: PulseProgram, machine: SpinSystem, pulse_mode: str = DELTA, table: EventTable | None = None
) -> np.ndarray:
    """Ordered product of the program's event unitaries, taken from ``table``.
    With no table a fresh one builds them: ``benchmarks/oracle.py`` composes
    its compiled steps that way, so that path serves the benchmark's oracle
    as well as the tests."""
    u = np.eye(2**program.n, dtype=complex)
    for ev_u in _table_for(program, machine, pulse_mode, table).unitaries(program.events):
        u = ev_u @ u
    return u


def simulate_program(
    program: PulseProgram,
    machine: SpinSystem,
    init: np.ndarray,
    pulse_mode: str = DELTA,
    table: EventTable | None = None,
) -> np.ndarray:
    """Apply the program to a state and return the final state. Event
    unitaries come from ``table`` (a fresh one when None)."""
    psi = np.asarray(init, dtype=complex)
    if psi.shape[0] != 2**program.n:
        raise ValueError("state dimension does not match program spin count")
    for u in _table_for(program, machine, pulse_mode, table).unitaries(program.events):
        psi = u @ psi
    return psi
