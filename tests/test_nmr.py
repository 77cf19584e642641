"""Pulse-program compiler checks: every compiled sequence is compared against
the matrix exponential it is supposed to realize."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    compile_coupling,
    compile_onsite,
    coupling_hamiltonian,
    kron_axis_field,
    kron_realize,
    kron_rotation_unitary,
    nmr_zz_hamiltonian,
    onsite_hamiltonian,
    reference_compile_step,
    reference_event_unitary,
    same_bits,
)
from pairgap.adiabatic import AdiabaticityWarning
from pairgap.config import build_config
from pairgap.hamiltonian import PairingModel
from pairgap.nmr import (
    _axis_field,
    _rotation_unitary,
    Delay,
    EventTable,
    PulseProgram,
    RfPulse,
    SpinSystem,
    StepCompiler,
    compile_trotter_step,
    program_unitary,
    simulate_program,
    wall_time,
)
from pairgap.pipeline import program_to_text, run_experiment
from pairgap.presets import pairing_model, spin_system
from pairgap.trotter import TrotterPlan, symmetric3_step

PI = math.pi
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
X3 = np.kron(np.kron(I2, I2), X)

H1 = pairing_model("h1")
H2 = pairing_model("h2")
MACHINE = spin_system()


def dense(model, part):
    return kron_realize(onsite_hamiltonian(model) if part == "onsite" else coupling_hamiltonian(model, part))


def phase_dist(got, want):
    """Max abs difference after quotienting a global phase.

    Refocusing pulses are pi rotations, so compiled blocks may differ from the
    bare propagator by powers of i; only the ray matters.
    """
    flat = want.ravel()
    j = int(np.argmax(np.abs(flat)))
    ratio = got.ravel()[j] / flat[j]
    ratio /= abs(ratio)
    return float(np.max(np.abs(got / ratio - want)))


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SpinSystem(np.array([[1.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SpinSystem(np.zeros((2, 2)), t_pi=-1e-6)
    with pytest.raises(ValueError):
        SpinSystem(np.zeros((2, 2)), t2=(0.25,))
    with pytest.raises(ValueError):
        SpinSystem(np.zeros((2, 2)), t2=(0.25, 0.0))
    assert SpinSystem(np.zeros((2, 2))).t2 == (0.25, 0.25)


def test_event_validation():
    with pytest.raises(ValueError):
        Delay(-1e-6)
    with pytest.raises(ValueError):
        RfPulse((), 0.0, PI)
    with pytest.raises(ValueError):
        RfPulse((0,), 0.0, PI)
    with pytest.raises(ValueError):
        RfPulse((1, 1), 0.0, PI)
    with pytest.raises(ValueError):
        RfPulse((1,), 0.0, 2 * PI + 0.1)
    assert RfPulse((2, 1), 0.0, PI).targets == (1, 2)
    assert RfPulse((1,), 0.0, 2 * PI).angle == 2 * PI


def test_wall_time_adds_delays_and_pulse_widths():
    prog = PulseProgram(
        (Delay(1.0e-3), RfPulse((1,), 0.0, PI), Delay(0.5e-3), RfPulse((2,), PI / 2, -PI)),
        n=2,
    )
    assert math.isclose(wall_time(prog, 10e-6), 1.52e-3, rel_tol=1e-12)
    assert math.isclose(wall_time(prog, 0.0), 1.5e-3, rel_tol=1e-12)


def test_single_pulse_rotation_convention():
    # R_phi(theta) = exp[+i (theta/2)(X cos phi + Y sin phi)] on the target spin
    machine = SpinSystem(np.zeros((1, 1)))
    for phi, theta in ((0.0, PI / 2), (PI / 2, PI), (-PI / 4, -PI / 3)):
        prog = PulseProgram((RfPulse((1,), phi, theta),), n=1)
        got = program_unitary(prog, machine, "delta")
        axis = math.cos(phi) * X + math.sin(phi) * np.array([[0, -1j], [1j, 0]])
        want = math.cos(theta / 2) * I2 + 1j * math.sin(theta / 2) * axis
        assert np.allclose(got, want, atol=1e-14)


ANGLES = st.floats(-2 * PI, 2 * PI, exclude_min=True, allow_nan=False) | st.sampled_from([0.0, -0.0, PI / 2, PI])


@st.composite
def rf_fields(draw):
    """A target set on 1..6 spins and a stack of 1..4 (phase, angle) pairs."""
    n = draw(st.integers(1, 6))
    targets = draw(st.sets(st.integers(1, n), min_size=1))
    phases = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=4))
    angles = draw(st.lists(ANGLES, min_size=len(phases), max_size=len(phases)))
    return n, tuple(sorted(targets)), phases, angles


@settings(deadline=None, max_examples=150)
@given(rf_fields())
def test_pulse_builders_match_kron_oracles_exactly(case):
    n, targets, phases, angles = case
    rotations = _rotation_unitary(n, targets, phases, angles)
    fields = _axis_field(n, [targets] * len(phases), phases)
    assert rotations.shape == fields.shape == (len(phases), 2**n, 2**n)
    for i, (phase, angle) in enumerate(zip(phases, angles)):
        assert np.array_equal(rotations[i], kron_rotation_unitary(n, targets, phase, angle))
        assert same_bits(fields[i], kron_axis_field(n, targets, phase))


@st.composite
def event_batches(draw):
    """A machine of 1..5 spins and a mixed batch of its events: delays, delta
    or finite pulses on one or several targets, zero and negative-zero
    angles, repeats included."""
    n = draw(st.integers(1, 5))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(st.floats(-500, 500) | st.sampled_from([0.0, -0.0]))
    machine = SpinSystem(j, t_pi=draw(st.floats(1e-6, 1e-4)))
    delays = st.builds(Delay, st.floats(0.0, 1e-2) | st.sampled_from([0.0, 1e-3]))
    pulses = st.builds(
        RfPulse,
        st.sets(st.integers(1, n), min_size=1).map(tuple),
        st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, PI / 2, -PI / 2]),
        ANGLES,
    )
    return machine, draw(st.lists(delays | pulses, min_size=1, max_size=12))


@settings(deadline=None, max_examples=120)
@given(event_batches(), st.sampled_from(["delta", "finite"]))
def test_stacked_event_builds_match_the_per_event_reference_bit_for_bit(case, pulse_mode):
    machine, events = case
    batch = EventTable(machine, pulse_mode)
    batch._build_all(events)
    assert len(batch._unitaries) == len(set(events))
    for ev in events:
        got = batch.unitary(ev)
        assert not got.flags.writeable
        # a batch of one, as a miss in unitary builds it
        assert same_bits(got, EventTable(machine, pulse_mode).unitary(ev))
        want = reference_event_unitary(ev, machine, pulse_mode)
        if pulse_mode == "delta" and isinstance(ev, RfPulse) and ev.angle != 0.0:
            assert np.array_equal(got, want)  # the kron chain's signed zeros differ
        else:
            assert same_bits(got, want)


@st.composite
def couplings_hz(draw):
    """Symmetric J of 1..7 spins in Hz with zero and negative-zero entries."""
    n = draw(st.integers(1, 7))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(st.floats(-500, 500) | st.sampled_from([0.0, -0.0]))
    return j


@settings(deadline=None, max_examples=100)
@given(couplings_hz())
def test_event_table_zz_drift_matches_the_kron_oracle_exactly(j):
    n = j.shape[0]
    table = EventTable(SpinSystem(j), "delta")
    d = 1.3e-3
    u = table.unitary(Delay(d))
    want = kron_realize(nmr_zz_hamiltonian(j))
    # the table holds the diagonal; finite pulses add it as np.diag of it
    assert same_bits(table._zz_diag, np.real(np.diag(want)))
    assert same_bits(np.diag(table._zz_diag.astype(complex)), want)
    assert np.array_equal(u, np.diag(np.exp(-1j * np.real(np.diag(want)) * d)))


def test_event_table_refuses_more_than_12_spins_before_allocating():
    machine = SpinSystem(np.zeros((13, 13)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="12"):
            EventTable(machine, "delta")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def oracle_program_unitary(program, machine, pulse_mode):
    """Ordered product of per-event unitaries, every one built afresh from the
    reference builders."""
    u = np.eye(2**program.n, dtype=complex)
    for ev in program.events:
        u = reference_event_unitary(ev, machine, pulse_mode) @ u
    return u


@pytest.mark.parametrize("pulse_mode", ["delta", "finite"])
def test_repeated_pulses_give_the_fresh_event_product(pulse_mode):
    prog = compile_trotter_step(H1, TrotterPlan(2e-3, 2), "w1", MACHINE)
    pulses = [e for e in prog.events if isinstance(e, RfPulse)]
    assert len(set(pulses)) < len(pulses)
    got = program_unitary(prog, MACHINE, pulse_mode)
    assert np.array_equal(got, oracle_program_unitary(prog, MACHINE, pulse_mode))


@pytest.mark.parametrize("model", [H1, H2], ids=["h1", "h2"])
@pytest.mark.parametrize("method", ["w1", "w2"])
@pytest.mark.parametrize("pulse_mode", ["delta", "finite"])
def test_shared_table_matches_fresh_programs(model, method, pulse_mode):
    # a run's programs: the S + 1 = 5 ramp steps of the preparation, then the step
    prepare_plan, steps = TrotterPlan(1 / 700, 2), 4
    programs = [
        compile_trotter_step(model.with_coupling_scale(s / steps), prepare_plan, method, MACHINE)
        for s in range(steps + 1)
    ]
    programs.append(compile_trotter_step(model, TrotterPlan(2e-3, 2), method, MACHINE))
    table = EventTable(MACHINE, pulse_mode)
    psi = np.zeros(8, dtype=complex)
    psi[3] = 1.0
    fresh_psi = psi
    for prog in programs:
        assert np.array_equal(program_unitary(prog, MACHINE, pulse_mode, table), program_unitary(prog, MACHINE, pulse_mode))
        psi = simulate_program(prog, MACHINE, psi, pulse_mode, table)
        fresh_psi = simulate_program(prog, MACHINE, fresh_psi, pulse_mode)
        assert np.array_equal(psi, fresh_psi)


def test_table_bound_to_another_machine_size_or_mode_raises():
    prog = compile_trotter_step(H1, TrotterPlan(2e-3, 2), "w1", MACHINE)
    table = EventTable(MACHINE, "delta")
    want = program_unitary(prog, MACHINE, "delta", table)
    # an equal machine built afresh is the same machine
    assert np.array_equal(program_unitary(prog, spin_system(), "delta", table), want)
    with pytest.raises(ValueError, match="another machine"):
        program_unitary(prog, replace(spin_system(), t_pi=30e-6), "delta", table)
    with pytest.raises(ValueError, match="another machine"):
        program_unitary(prog, SpinSystem(np.zeros((3, 3))), "delta", table)
    with pytest.raises(ValueError, match="delta unitaries, not finite"):
        program_unitary(prog, MACHINE, "finite", table)
    pair = SpinSystem(np.array([[0.0, 50.0], [50.0, 0.0]]))
    with pytest.raises(ValueError, match="3-spin unitaries, not 2-spin"):
        simulate_program(PulseProgram((RfPulse((1,), 0.0, PI),), n=2), pair, np.eye(4)[0], "delta", table)
    with pytest.raises(ValueError, match="pulse_mode"):
        EventTable(MACHINE, "gaussian")
    # a fresh table holds the machine's spins, which the program must match
    with pytest.raises(ValueError, match="3-spin unitaries, not 2-spin"):
        program_unitary(PulseProgram((RfPulse((1,), 0.0, PI),), n=2), MACHINE, "delta")


def test_equal_events_hash_alike_and_share_one_unitary():
    # each event hashes once, when it is built; equality still compares fields
    a, b = RfPulse((2, 1), 0.5, 1.0), RfPulse((1, 2), np.float64(0.5), 1.0)
    assert a == b and hash(a) == hash(b) == hash(((1, 2), 0.5, 1.0))
    assert a != RfPulse((1, 2), 0.5, -1.0) and a != RfPulse((1,), 0.5, 1.0)
    d, e = Delay(1e-3), Delay(np.float64(1e-3))
    assert d == e and hash(d) == hash(e) and hash(Delay(0.0)) == hash(Delay(-0.0))
    assert d != Delay(2e-3)
    table = EventTable(MACHINE, "delta")
    assert table.unitary(a) is table.unitary(b)
    assert table.unitary(d) is table.unitary(e)
    assert table.unitary(RfPulse((1, 2), 0.5, -1.0)) is not table.unitary(a)
    assert len(table._unitaries) == 3


def test_zero_angle_pulse_is_a_no_op():
    machine = spin_system()
    prog = PulseProgram((RfPulse((1,), 0.3, 0.0),), n=3)
    assert np.allclose(program_unitary(prog, machine, "delta"), np.eye(8), atol=0)
    assert np.allclose(program_unitary(prog, machine, "finite"), np.eye(8), atol=0)
    assert wall_time(prog, machine.t_pi) == 0.0


def test_delay_evolves_under_scalar_coupling():
    d = 1.7e-3
    prog = PulseProgram((Delay(d),), n=3)
    want = expm(-1j * kron_realize(nmr_zz_hamiltonian(MACHINE.j_hz)) * d)
    assert np.allclose(program_unitary(prog, MACHINE, "delta"), want, atol=1e-12)


def test_compile_onsite_matches_exact():
    for model, t in ((H1, 2e-3), (H2, 0.5e-3), (H1, 0.37e-3)):
        prog = compile_onsite(model, t)
        got = program_unitary(prog, MACHINE, "delta")
        want = expm(-1j * dense(model, "onsite") * t)
        assert phase_dist(got, want) < 1e-12
        # onsite blocks never need refocusing
        assert sum(isinstance(e, Delay) for e in prog.events) == 0


def test_compile_onsite_composite_identity():
    # single mode with nu*t = pi: the composite realizes exp(+i pi Z / 2)
    model = PairingModel((PI / 1e-3,), np.zeros((1, 1)))
    prog = compile_onsite(model, 1e-3)
    machine = SpinSystem(np.zeros((1, 1)))
    got = program_unitary(prog, machine, "delta")
    want = expm(1j * (PI / 2) * np.diag([1.0, -1.0]))
    assert phase_dist(got, want) < 1e-12


def test_compile_coupling_matches_exact_h1():
    for axis in ("X", "Y"):
        prog = compile_coupling(H1, axis, 1e-3, MACHINE)
        got = program_unitary(prog, MACHINE, "delta")
        want = expm(-1j * dense(H1, axis) * 1e-3)
        assert phase_dist(got, want) < 1e-12


def test_lone_coupling_block_flips_the_spectator():
    # with a single coupled pair the spectator gets exactly one midpoint pi
    # pulse; the block then equals X_3 times the target unitary, and the parity
    # is restored later at the step level
    t = 0.25e-3
    prog = compile_coupling(H2, "X", t, MACHINE)
    refocus = [e for e in prog.events if isinstance(e, RfPulse) and e.targets == (3,)]
    assert len(refocus) == 1
    got = program_unitary(prog, MACHINE, "delta")
    want = X3 @ expm(-1j * dense(H2, "X") * t)
    assert phase_dist(got, want) < 1e-12


def test_zero_coupling_compiles_to_nothing():
    bare = pairing_model("h1").with_coupling_scale(0.0)
    prog = compile_coupling(bare, "X", 1e-3, MACHINE)
    assert prog.events == ()


def test_unrealizable_coupling_raises():
    machine = SpinSystem(np.zeros((3, 3)))  # no scalar coupling to exploit
    with pytest.raises(ValueError, match="unrealizable"):
        compile_coupling(H1, "X", 1e-3, machine)


def spectator_pair_case(j34):
    # coupling only on (1,2); spins 3 and 4 are both spectators
    nu = (150 * PI, 100 * PI, 50 * PI, 75 * PI)
    v = np.zeros((4, 4))
    v[0, 1] = v[1, 0] = PI * 224.0
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = 224.0
    j[2, 3] = j[3, 2] = j34
    return PairingModel(nu, v), SpinSystem(j)


def test_coupled_spectator_pair_raises():
    # both spectators take the same midpoint pi pulse, which cannot refocus
    # their mutual J (compiled anyway, the w1 step would miss by a fidelity
    # deficit of 0.028)
    model, machine = spectator_pair_case(150.0)
    with pytest.raises(ValueError, match=r"spectator spins 3,4"):
        compile_trotter_step(model, TrotterPlan(0.5e-3, 2), "w1", machine)
    model, machine = spectator_pair_case(0.0)
    plan = TrotterPlan(0.5e-3, 2)
    u = program_unitary(compile_trotter_step(model, plan, "w1", machine), machine, "delta")
    want = symmetric3_step(model, plan)
    assert 1 - abs(np.trace(want.conj().T @ u)) / 16 < 1e-9


def open_pair_case(j13):
    # V on (1,2) and (2,3) only; spins 1 and 3 are both coupled, so they share
    # the delay, which keeps any J between them on
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = PI * 224.0
    v[1, 2] = v[2, 1] = -PI * 311.0
    j = np.array(spin_system().j_hz)
    j[0, 2] = j[2, 0] = j13
    return PairingModel((150 * PI, 100 * PI, 50 * PI), v), SpinSystem(j)


def test_coupled_pair_without_v_but_with_j_raises():
    # compiled anyway at the preset J_13 = 50 Hz, the w1 step would miss by a
    # fidelity deficit of 0.017
    plan = TrotterPlan(2e-3, 2)
    model, machine = open_pair_case(50.0)
    with pytest.raises(ValueError, match=r"coupled spins 1,3 have V = 0 but J != 0"):
        compile_trotter_step(model, plan, "w1", machine)
    model, machine = open_pair_case(0.0)
    u = program_unitary(compile_trotter_step(model, plan, "w1", machine), machine, "delta")
    want = symmetric3_step(model, plan)
    assert 1 - abs(np.trace(want.conj().T @ u)) / 8 < 1e-9


RAMP_STEPS = 4


def ramp_outcomes(compile_one, model):
    """The program, or the ValueError text, of each ramp step s = 0..S."""
    out = []
    for s in range(RAMP_STEPS + 1):
        try:
            out.append(compile_one(model.with_coupling_scale(s / RAMP_STEPS)))
        except ValueError as exc:
            out.append(str(exc))
    return out


def assert_ramp_matches_fresh_and_reference(model, plan, method, machine):
    """One shared StepCompiler across the ramp gives, at every s, the fresh
    compile's and the reference compiler's program or error."""
    shared = StepCompiler(method, machine)
    got = ramp_outcomes(lambda m: shared.compile(m, plan), model)
    assert got == ramp_outcomes(lambda m: compile_trotter_step(m, plan, method, machine), model)
    reference = ramp_outcomes(lambda m: reference_compile_step(m, plan, method, machine), model)
    assert got == reference
    # equal events may still differ in the sign of a zero, which the text shows
    text = [program_to_text(p, machine.t_pi) if isinstance(p, PulseProgram) else p for p in got]
    assert text == [program_to_text(p, machine.t_pi) if isinstance(p, PulseProgram) else p for p in reference]
    return got, shared


def test_shared_pulses_keep_the_sign_of_a_zero_angle():
    # h2's spin 3 is a spectator; with nu_3 = 0 its z-angle reads -0.0 while
    # it is flipped and 0.0 otherwise, two pulses the compiler keeps apart
    model = PairingModel((H2.nu[0], H2.nu[1], 0.0), H2.coupling, H2.convention_factor)
    got, _ = assert_ramp_matches_fresh_and_reference(model, TrotterPlan(2e-3, 2), "w1", MACHINE)
    zeros = [ev.angle for p in got for ev in p.events if isinstance(ev, RfPulse) and ev.angle == 0.0]
    assert {math.copysign(1.0, a) for a in zeros} == {-1.0, 1.0}


@st.composite
def realizable_layouts(draw):
    """A model and machine the compiler can realize: every coupled pair has
    J != 0 and V = c pi J for one c > 0, so all pairs share one delay;
    spectators have no mutual J, coupled spins without V have no J, and
    spectator-to-coupled J is arbitrary (the midpoint pulse refocuses it)."""
    n = draw(st.integers(2, 4))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.sets(st.sampled_from(all_pairs), min_size=1))
    coupled = {m for pair in chosen for m in pair}
    c = draw(st.floats(0.05, 2.0))
    hz = st.floats(20.0, 400.0).flatmap(lambda x: st.sampled_from([x, -x]))
    v = np.zeros((n, n))
    j = np.zeros((n, n))
    for a, b in all_pairs:
        if (a, b) in chosen:
            j[a, b] = draw(hz)
            v[a, b] = c * PI * j[a, b]
        elif (a in coupled) != (b in coupled):
            j[a, b] = draw(st.sampled_from([0.0, 35.0, -120.0]))
    nu = tuple(draw(st.lists(st.floats(-2000.0, 2000.0), min_size=n, max_size=n)))
    factor = draw(st.sampled_from([0.5, 1.0, 2.0]))
    t_pi = draw(st.sampled_from([0.0, 20e-6, 1e-3]))
    return PairingModel(nu, v + v.T, factor), SpinSystem(j + j.T, t_pi, (0.25,) * n)


@settings(deadline=None, max_examples=80)
@given(realizable_layouts(), st.sampled_from(["w1", "w2"]), st.integers(1, 3))
def test_shared_compiler_ramp_equals_fresh_and_reference_compiles(layout, method, k):
    model, machine = layout
    got, _ = assert_ramp_matches_fresh_and_reference(model, TrotterPlan(2e-3, k), method, machine)
    assert all(isinstance(p, PulseProgram) for p in got)


@pytest.mark.parametrize("method", ["w1", "w2"])
@pytest.mark.parametrize("model", [H1, H2], ids=["h1", "h2"])
def test_shared_compiler_preset_ramp_equals_fresh_and_reference_compiles(model, method):
    # a 1 ms pulse is longer than most delays, so w2 clamps fire
    machine = replace(spin_system(), t_pi=1e-3)
    got, _ = assert_ramp_matches_fresh_and_reference(model, TrotterPlan(2e-3, 2), method, machine)
    assert (method == "w2") == any(p.clamp_warnings for p in got)


@pytest.mark.parametrize(
    "case, message",
    [
        ((H1, SpinSystem(np.zeros((3, 3)))), "spins 1,2 have J = 0"),
        (spectator_pair_case(150.0), "spectator spins 3,4"),
        (open_pair_case(50.0), "coupled spins 1,3 have V = 0 but J != 0"),
    ],
    ids=["zero-j", "spectator-j", "v0-j"],
)
def test_unrealizable_ramp_raises_at_the_same_steps(case, message):
    model, machine = case
    got, _ = assert_ramp_matches_fresh_and_reference(model, TrotterPlan(2e-3, 2), "w1", machine)
    assert isinstance(got[0], PulseProgram)
    assert all(message in text for text in got[1:])


@pytest.mark.parametrize(
    "v12",
    [
        # 5e-324 * s/4 underflows to 0 at s = 1, 2 and rounds back to 5e-324
        # at s = 3: the coupled pairs change twice along the ramp
        5e-324,
        # the pair stays coupled for s >= 1, but at s = 1 only the tau block's
        # delay is nonzero, so only it refocuses the spectator
        1e-317,
    ],
)
def test_shared_compiler_follows_the_coupling_pattern(v12):
    v = np.zeros((3, 3))
    v[0, 1] = v[1, 0] = v12
    model = PairingModel(H1.nu, v)
    assert_ramp_matches_fresh_and_reference(model, TrotterPlan(2e-3, 2), "w2", MACHINE)


def test_one_compiler_compiles_every_tau_and_k():
    # (1 ms, 1) and (2 ms, 2) share tau but not k; (2 ms, 1) shares k with
    # the first; the last plan repeats the first
    shared = StepCompiler("w2", MACHINE)
    for plan in (TrotterPlan(1e-3, 1), TrotterPlan(2e-3, 2), TrotterPlan(2e-3, 1), TrotterPlan(1e-3, 1)):
        for model in (H1, H2):
            got = shared.compile(model, plan)
            assert got == compile_trotter_step(model, plan, "w2", MACHINE)
            assert program_to_text(got, MACHINE.t_pi) == program_to_text(
                compile_trotter_step(model, plan, "w2", MACHINE), MACHINE.t_pi
            )


def test_compiled_angles_stay_in_range():
    for model, t0 in ((H1, 2e-3), (H2, 0.5e-3)):
        prog = compile_trotter_step(model, TrotterPlan(t0, 3), "w1", MACHINE)
        for e in prog.events:
            if isinstance(e, RfPulse):
                assert -2 * PI < e.angle <= 2 * PI


def test_step_matches_ideal_trotter():
    for model, t0 in ((H1, 2e-3), (H2, 0.5e-3)):
        for k in (1, 2, 3):
            plan = TrotterPlan(t0, k)
            prog = compile_trotter_step(model, plan, "w1", MACHINE)
            got = program_unitary(prog, MACHINE, "delta")
            want = symmetric3_step(model, plan)
            assert phase_dist(got, want) < 1e-12


def test_h2_step_commutes_with_spectator_z():
    prog = compile_trotter_step(H2, TrotterPlan(0.5e-3, 2), "w1", MACHINE)
    u = program_unitary(prog, MACHINE, "delta")
    z3 = np.diag([1 - 2 * (i & 1) for i in range(8)]).astype(complex)
    assert np.max(np.abs(u @ z3 - z3 @ u)) < 1e-12


def test_compensation_shortens_wall_time():
    plan = TrotterPlan(2e-3, 2)
    w1 = compile_trotter_step(H1, plan, "w1", MACHINE)
    w2 = compile_trotter_step(H1, plan, "w2", MACHINE)
    shrink = wall_time(w1, MACHINE.t_pi) - wall_time(w2, MACHINE.t_pi)
    assert math.isclose(shrink, 60e-6, rel_tol=1e-9)
    assert w1.clamp_warnings == () and w2.clamp_warnings == ()


def test_compensation_vanishes_with_instant_pulses():
    machine = replace(spin_system(), t_pi=0.0)
    plan = TrotterPlan(1e-3, 2)
    w1 = compile_trotter_step(H1, plan, "w1", machine)
    w2 = compile_trotter_step(H1, plan, "w2", machine)
    assert w1.events == w2.events


def test_compensation_clamps_short_delays():
    # at 1 us steps every coupling delay is shorter than the pulse overhead
    prog = compile_trotter_step(H2, TrotterPlan(1e-6, 1), "w2", MACHINE)
    assert prog.clamp_warnings
    assert any("clamp" in w for w in prog.clamp_warnings)
    assert all(e.duration >= 0 for e in prog.events if isinstance(e, Delay))


def test_finite_pulses_converge_to_delta():
    plan = TrotterPlan(0.5e-3, 2)
    deficits = []
    for t_pi in (20e-6, 10e-6, 5e-6, 2.5e-6):
        machine = replace(spin_system(), t_pi=t_pi)
        prog = compile_trotter_step(H2, plan, "w1", machine)
        ud = program_unitary(prog, machine, "delta")
        uf = program_unitary(prog, machine, "finite")
        deficits.append(1 - abs(np.trace(ud.conj().T @ uf)) / 8)
    assert deficits[0] > 1e-4  # the 20 us control error is measurably large
    assert all(a > b for a, b in zip(deficits, deficits[1:]))
    # roughly second order in the pulse width
    assert deficits[0] / deficits[1] > 3.0
    machine = replace(spin_system(), t_pi=1e-10)
    prog = compile_trotter_step(H2, plan, "w1", machine)
    ud = program_unitary(prog, machine, "delta")
    uf = program_unitary(prog, machine, "finite")
    assert 1 - abs(np.trace(ud.conj().T @ uf)) / 8 < 1e-9


def test_compensated_step_beats_uncompensated_under_finite_pulses():
    plan = TrotterPlan(0.5e-3, 2)
    ideal = symmetric3_step(H2, plan)
    errs = {}
    for method in ("w1", "w2"):
        prog = compile_trotter_step(H2, plan, method, MACHINE)
        u = program_unitary(prog, MACHINE, "finite")
        errs[method] = np.linalg.norm(u - ideal, ord=2)
    assert errs["w2"] < errs["w1"]


def test_finite_mode_needs_a_pulse_width():
    machine = replace(spin_system(), t_pi=0.0)
    prog = PulseProgram((RfPulse((1,), 0.0, PI),), n=3)
    with pytest.raises(ValueError):
        program_unitary(prog, machine, "finite")
    # a full step program fails on its first finite pulse, not on a repeat
    prog = compile_trotter_step(H1, TrotterPlan(2e-3, 2), "w1", machine)
    with pytest.raises(ValueError, match=r"finite pulse mode needs machine\.t_pi > 0"):
        program_unitary(prog, machine, "finite")
    # so does a shared table, after building the delays before that pulse
    prog = PulseProgram((Delay(1e-3), RfPulse((1,), 0.0, PI)), n=3)
    table = EventTable(machine, "finite")
    with pytest.raises(ValueError, match=r"finite pulse mode needs machine\.t_pi > 0"):
        program_unitary(prog, machine, "finite", table)
    with pytest.raises(ValueError, match=r"finite pulse mode needs machine\.t_pi > 0"):
        program_unitary(prog, machine, "finite", table)
    # a batch holding such a pulse fails whole and keeps nothing; a pulse of
    # angle 0 needs no width
    events = [Delay(1e-3), RfPulse((1,), 0.0, 0.0), RfPulse((2,), 0.0, PI)]
    table = EventTable(machine, "finite")
    with pytest.raises(ValueError, match=r"finite pulse mode needs machine\.t_pi > 0"):
        table._build_all(events)
    assert table._unitaries == {}
    table._build_all(events[:2])
    assert np.array_equal(table.unitary(events[1]), np.eye(8))


def test_finite_pulse_calibration_without_coupling():
    # with J = 0 the driven pulse is calibrated to land exactly on R_0(pi)
    machine = SpinSystem(np.zeros((2, 2)), t_pi=20e-6)
    prog = PulseProgram((RfPulse((1,), 0.0, PI),), n=2)
    got = program_unitary(prog, machine, "finite")
    want = np.kron(1j * X, I2)
    assert np.max(np.abs(got - want)) < 1e-10


def test_finite_pulse_includes_coupling_evolution():
    machine = SpinSystem(np.array([[0.0, 50.0], [50.0, 0.0]]), t_pi=20e-6)
    prog = PulseProgram((RfPulse((1,), 0.0, PI),), n=2)
    got = program_unitary(prog, machine, "finite")
    # driven evolution: rf field of amplitude -pi/t_pi on spin 1 plus the
    # always-on ZZ term, for the pulse duration
    x1 = np.kron(X, I2)
    h = (-PI / 20e-6) * 0.5 * x1 + kron_realize(nmr_zz_hamiltonian(machine.j_hz))
    want = expm(-1j * h * 20e-6)
    assert np.max(np.abs(got - want)) < 1e-12


def test_simulate_program_threads_state_and_wall():
    plan = TrotterPlan(0.5e-3, 1)
    prog = compile_trotter_step(H2, plan, "w1", MACHINE)
    psi = np.zeros(8, dtype=complex)
    psi[3] = 1.0
    out = simulate_program(prog, MACHINE, psi, "delta")
    want = program_unitary(prog, MACHINE, "delta") @ psi
    assert out.shape == (8,) and np.allclose(out, want, atol=1e-12)
    # the state is all it returns; the program's wall time is wall_time's
    wall = sum(ev.duration if isinstance(ev, Delay) else MACHINE.t_pi * abs(ev.angle) / PI for ev in prog.events)
    assert math.isclose(wall, wall_time(prog, MACHINE.t_pi), rel_tol=1e-15)


def test_damping_factor_uses_observed_spin():
    # a damped run attenuates sample k by exp(-k * wall / T2) of the observed
    # spin, with the compiled program's wall time per step
    t2s = ("machine.t2_1_s=0.1", "machine.t2_2_s=0.2", "machine.t2_3_s=0.4", "run.method=w1")
    for spin, t2 in ((1, 0.1), (3, 0.4)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            off, on = (
                run_experiment(build_config("h1", None, t2s + (f"run.observed_spin={spin}", f"run.damping={d}")))
                for d in ("off", "on")
            )
        k = np.arange(on.config.q)
        assert on.series.wall_per_step == wall_time(compile_trotter_step(H1, on.config.plan, "w1", MACHINE), MACHINE.t_pi)
        assert np.allclose(on.series.values, off.series.values * np.exp(-k * on.series.wall_per_step / t2), rtol=1e-12, atol=0)


def test_program_text_keeps_repr_precision_and_wall():
    # the writer keeps every float at repr precision and closes with the wall
    # time at the given pulse width
    prog = PulseProgram((Delay(1e-3 / 3), RfPulse((1, 3), PI / 3, -PI), RfPulse((2,), 0.0, PI)), n=3)
    assert program_to_text(prog, 8e-6).split("\n") == [
        "DELAY 0.0003333333333333333",
        "RF 1,3 1.0471975511965976 -3.141592653589793",
        "RF 2 0.0 3.141592653589793",
        "WALL 0.0003493333333333333",
        "",
    ]
