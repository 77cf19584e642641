import ast
import inspect
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_prepare
import pairgap.backend
import pairgap.exact
import pairgap.nmr
import pairgap.pipeline
from pairgap.adiabatic import (
    AdiabaticityWarning,
    prepare,
    sector_population_report,
)
from pairgap.backend import step
from pairgap.config import build_config
from pairgap.exact import Ramp, computational_state
from pairgap.hamiltonian import PairingModel, sector_basis
from pairgap.nmr import EventTable, RfPulse, compile_trotter_step, simulate_program
from pairgap.pipeline import report_to_csv, result_record, run_experiment, sweep_rows_to_csv, sweep_t0
from pairgap.presets import pairing_model, spin_system
from pairgap.trotter import TrotterPlan

H1 = pairing_model("h1")
H2 = pairing_model("h2")
INIT = computational_state(3, 3)  # |011>


RAMP1 = Ramp(H1, 4, 2)
TABLE = EventTable(spin_system(), "delta")


def fast_schedule(method=None, k=1, t_ad=1 / 700):
    """prepare's (t_ad, method, k) for a deliberately fast ramp."""
    return t_ad, method, k


def test_schedule_validation():
    with pytest.raises(ValueError, match="schedule.steps"):
        Ramp(H1, 0, 2)
    with pytest.raises(ValueError, match="method"):
        prepare(RAMP1, INIT, *fast_schedule("w3"), check_adiabaticity=False, table=TABLE)


@pytest.mark.parametrize("method", [None, "ideal"])
@pytest.mark.parametrize("t_ad", [-1e-3, math.inf, math.nan])
def test_prepare_refuses_a_negative_or_non_finite_t_ad(t_ad, method):
    with pytest.raises(ValueError, match=r"^schedule\.t_ad: must be non-negative and finite$"):
        prepare(RAMP1, INIT, t_ad, method, check_adiabaticity=False)


def test_stepped_prepare_refuses_k_below_one():
    with pytest.raises(ValueError, match=r"^plan\.k: must be >= 1$"):
        prepare(RAMP1, INIT, *fast_schedule("ideal", k=0), check_adiabaticity=False)


@pytest.mark.parametrize("method", ["w1", "w2"])
def test_compiled_method_without_a_table_raises(method):
    with pytest.raises(ValueError, match=f"method {method}: .*EventTable"):
        step(H1, TrotterPlan(1e-3), method)
    with pytest.raises(ValueError, match=f"method {method}: .*EventTable"):
        prepare(RAMP1, INIT, *fast_schedule(method), check_adiabaticity=False)


def test_prepare_requires_normalized_state():
    with pytest.raises(ValueError):
        prepare(RAMP1, np.ones(8), *fast_schedule(), check_adiabaticity=False)


def test_prepare_stays_in_sector():
    psi = prepare(RAMP1, INIT, *fast_schedule(), check_adiabaticity=False)
    outside = np.delete(np.arange(8), sector_basis(3, 2))
    assert np.max(np.abs(psi[outside])) < 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_in_sector_preparation_matches_the_dense_one(n, seed, data):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-300, 300, (n, n)) * (rng.random((n, n)) < 0.7)
    model = PairingModel(tuple(rng.uniform(-200, 200, n) * math.pi), (v + v.T) * math.pi, rng.choice([1.0, 2.0]))
    pairs = data.draw(st.integers(0, n))
    idx = sector_basis(n, pairs)
    init = np.zeros(2**n, dtype=complex)
    init[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    init /= np.linalg.norm(init)
    steps, t_ad = data.draw(st.integers(1, 6)), data.draw(st.floats(0.0, 3e-3))
    psi = prepare(Ramp(model, steps, pairs), init, t_ad, check_adiabaticity=False)
    assert np.max(np.abs(psi - dense_prepare(model, init, steps, t_ad))) < 1e-13
    assert not np.any(np.delete(psi, idx))


def test_init_outside_the_ramp_sector_raises():
    spread = (computational_state(3, 3) + computational_state(3, 1)) / math.sqrt(2)
    for init in (spread, computational_state(3, 1), np.ones(4) / 2):
        with pytest.raises(ValueError, match="sector of 2 pairs on 3 modes"):
            prepare(RAMP1, init, *fast_schedule(), check_adiabaticity=False)
    # rounding dust below 1e-12 outside the sector is dropped
    dusty = INIT + 1e-13 * computational_state(3, 1)
    dropped = prepare(RAMP1, dusty, *fast_schedule(), check_adiabaticity=False)
    assert np.array_equal(dropped, prepare(RAMP1, INIT, *fast_schedule(), check_adiabaticity=False))


def test_prepare_h1_populations_frozen():
    psi = prepare(RAMP1, INIT, *fast_schedule(), check_adiabaticity=False)
    pops = [p for _, _, p in sector_population_report(RAMP1, psi)]
    want = [0.353667074372997, 0.589629281220753, 0.0567036444062517]
    assert np.allclose(pops, want, atol=1e-12)


def test_prepare_h2_leaves_decoupled_level_empty():
    ramp = Ramp(H2, 4, 2)
    psi = prepare(ramp, INIT, *fast_schedule(), check_adiabaticity=False)
    pops = [p for _, _, p in sector_population_report(ramp, psi)]
    assert np.allclose(pops, [0.675400947196885, 0.0, 0.324599052803114], atol=1e-12)
    assert pops[1] < 1e-12


def test_deliberately_fast_ramp_warns():
    with pytest.warns(AdiabaticityWarning):
        prepare(RAMP1, INIT, *fast_schedule())


def test_slow_ramp_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prepare(Ramp(H1, 200, 2), INIT, *fast_schedule(t_ad=0.02))


def test_ground_population_grows_with_steps():
    grounds = []
    for s in (4, 8, 16, 32, 64):
        ramp = Ramp(H1, s, 2)
        psi = prepare(ramp, INIT, *fast_schedule(), check_adiabaticity=False)
        grounds.append(sector_population_report(ramp, psi)[0][2])
    assert all(a < b for a, b in zip(grounds, grounds[1:]))
    assert grounds[0] < 0.4
    # a genuinely slow ramp pins the ground state
    ramp = Ramp(H1, 200, 2)
    psi = prepare(ramp, INIT, *fast_schedule(t_ad=0.02), check_adiabaticity=False)
    assert sector_population_report(ramp, psi)[0][2] > 0.99


def test_zero_duration_schedule_is_identity():
    for method in (None, "ideal", "w1"):
        psi = prepare(RAMP1, INIT, *fast_schedule(method, t_ad=0.0), check_adiabaticity=False, table=TABLE)
        assert np.allclose(psi, INIT, atol=1e-12)


def test_trotter_evolver_tracks_exact():
    exact = prepare(RAMP1, INIT, *fast_schedule(), check_adiabaticity=False)
    fids = []
    for k in (1, 4, 16):
        approx = prepare(RAMP1, INIT, *fast_schedule("ideal", k), check_adiabaticity=False)
        fids.append(abs(np.vdot(exact, approx)) ** 2)
    assert all(a < b for a, b in zip(fids, fids[1:]))
    assert fids[0] > 0.97
    assert fids[-1] > 0.9999


def test_nmr_evolver_matches_trotter_with_delta_pulses():
    a = prepare(RAMP1, INIT, *fast_schedule("ideal"), check_adiabaticity=False)
    b = prepare(RAMP1, INIT, *fast_schedule("w1"), check_adiabaticity=False, table=TABLE)
    assert abs(np.vdot(a, b)) ** 2 > 1 - 1e-12


def test_compiled_preparation_applies_programs_event_by_event():
    # composing each program's unitary first rounds differently, which would
    # move the prepared state's last bits and so the run's artifacts
    machine = spin_system()
    table = EventTable(machine, "finite")
    psi = prepare(RAMP1, INIT, *fast_schedule("w1", k=2), check_adiabaticity=False, table=table)
    want = INIT
    for s in range(5):
        program = compile_trotter_step(H1.with_coupling_scale(s / 4), TrotterPlan(1 / 700, 2), "w1", machine)
        want = simulate_program(program, machine, want, "finite")
    assert np.array_equal(psi, want)


def test_population_report_is_a_distribution():
    psi = prepare(RAMP1, INIT, *fast_schedule(), check_adiabaticity=False)
    rows = sector_population_report(RAMP1, psi)
    assert len(rows) == 3
    assert math.isclose(sum(p for _, _, p in rows), 1.0, rel_tol=1e-12)
    energies = [e for _, e, p in rows]
    assert energies == sorted(energies)
    with pytest.raises(ValueError):
        sector_population_report(RAMP1, np.ones(4))


def test_report_csv_layout():
    rows = [(0, -1.5, 0.25), (1, 2.0, 0.75)]
    text = report_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "eigenindex,energy_rad_per_s,population"
    assert lines[1] == "0,-1.5,0.25"


def counting(monkeypatch, module, name):
    """Record the first argument of every call to module.name."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_prepares_once_and_reads_its_level_from_that_state(monkeypatch):
    prepared = counting(monkeypatch, pairgap.pipeline, "prepare")
    cfg = build_config(preset="h1", overrides=("run.method=w1", "run.pulse_mode=finite"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        result = run_experiment(cfg)
    assert len(prepared) == 1
    first = next(i for i, _, p in result.populations[1:] if p >= cfg.population_floor)
    assert result.reachable_level == first


@pytest.mark.parametrize("method", ["ideal", "w1"])
def test_run_builds_no_dense_ramp_and_one_eigensystem_per_step(monkeypatch, method):
    # the ramp works inside the pair sector, with no dense H_s, and decomposes
    # its S + 1 blocks in one stacked eigh shared by the evolution, the gap
    # check and the reachable level (w1 delta pulses need no eigensolve)
    solved = counting(monkeypatch, np.linalg, "eigh")
    cfg = build_config(preset="h1", overrides=(f"run.method={method}",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    assert not hasattr(pairgap.exact, "realize")
    assert [h.shape for h in solved] == [(cfg.schedule_steps + 1, 3, 3)]


def assert_standalone_rows(cfg, rows):
    """Each t0 row holds the run a standalone run of its point gives: the
    same result.json record and the same sweep.csv line."""
    lines = sweep_rows_to_csv(rows).splitlines()[1:]
    for (t0, k, q, result), line in zip(rows, lines, strict=True):
        alone = run_experiment(replace(cfg, plan=TrotterPlan(t0, cfg.plan.k), q=q))
        assert (k, q) == (alone.config.plan.k, alone.config.q)
        assert result_record(result) == result_record(alone)
        assert line == sweep_rows_to_csv(((t0, k, q, alone),)).splitlines()[1]


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
@pytest.mark.parametrize("method", ["ideal", "w1"])
def test_sweep_prepares_once_and_gives_the_standalone_rows(monkeypatch, method):
    prepared = counting(monkeypatch, pairgap.pipeline, "prepare")
    cfg = build_config(preset="h1", overrides=(f"run.method={method}",))
    result = sweep_t0(cfg, [0.5e-3, 1e-3, 2e-3, 4e-3])
    assert len(prepared) == 1
    assert [q for _, _, q, _ in result.rows] == [800, 400, 200, 100]
    assert_standalone_rows(cfg, result.rows)


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
def test_sweep_point_with_a_bad_plan_gets_its_own_error_row():
    cfg = build_config(preset="h1")
    rows = sweep_t0(cfg, [1e-3, -1e-3, 2e-3]).rows
    with pytest.raises(ValueError) as bad:
        TrotterPlan(-1e-3, cfg.plan.k)
    assert isinstance(rows[1][3], ValueError) and str(rows[1][3]) == str(bad.value)
    _, k, q, _ = rows[1]
    assert sweep_rows_to_csv(rows).splitlines()[2] == f"-0.001,{k},{q},,,,,,0,\"{bad.value}\""
    assert [t0 for t0, _, _, _ in rows] == [1e-3, -1e-3, 2e-3]
    assert_standalone_rows(cfg, (rows[0], rows[2]))


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
def test_failed_preparation_puts_its_error_on_every_row(monkeypatch):
    prepared = counting(monkeypatch, pairgap.pipeline, "prepare")
    cfg = build_config(preset="h1", overrides=("run.population_floor=0.99",))
    rows = sweep_t0(cfg, [1e-3, 2e-3, -1e-3]).rows
    assert len(prepared) == 1
    with pytest.raises(ValueError) as failed:
        run_experiment(replace(cfg, plan=TrotterPlan(1e-3, cfg.plan.k)))
    assert "population floor" in str(failed.value)
    assert [str(r) for _, _, _, r in rows[:2]] == [str(failed.value)] * 2
    assert all(isinstance(r, ValueError) for _, _, _, r in rows)
    with pytest.raises(ValueError) as bad:
        TrotterPlan(-1e-3, cfg.plan.k)
    assert str(rows[2][3]) == str(bad.value)
    assert all(line.split(",")[3:9] == ["", "", "", "", "", "0"] for line in sweep_rows_to_csv(rows).splitlines()[1:])


def test_run_builds_each_distinct_pulse_once(monkeypatch):
    # the table builds its pulses in stacked batches: record every pulse a
    # batch is handed
    built = []
    batch = EventTable._pulse_unitaries

    def recording(self, pulses):
        built.extend(pulses)
        return batch(self, pulses)

    monkeypatch.setattr(EventTable, "_pulse_unitaries", recording)
    cfg = build_config(preset="h1", overrides=("run.method=w1", "run.pulse_mode=finite"))
    steps = cfg.schedule_steps
    programs = [
        compile_trotter_step(cfg.model.with_coupling_scale(s / steps), TrotterPlan(cfg.t_ad, cfg.plan.k), "w1", cfg.machine)
        for s in range(steps + 1)
    ] + [compile_trotter_step(cfg.model, cfg.plan, "w1", cfg.machine)]
    per_program = [{ev for ev in p.events if isinstance(ev, RfPulse) and ev.angle != 0.0} for p in programs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
        first = list(built)
        assert len(first) == len(set(first))
        assert set(first) == set().union(*per_program)
        # the programs share pulses, so one table builds fewer than one per program
        assert len(first) < sum(len(p) for p in per_program)
        # no table outlives its run: a second run builds them all again
        built.clear()
        run_experiment(cfg)
    assert built == first


@pytest.mark.parametrize("evolver", ["nmr", "trotter"])
def test_compiled_run_decomposes_its_pulses_in_one_eigh_per_batch(monkeypatch, evolver):
    # the ramp's stacked eigh, then one per event-table batch: the compiled
    # preparation hands over its S + 1 programs' events together, the step
    # its one program's
    solved = counting(monkeypatch, np.linalg, "eigh")
    cfg = build_config(
        preset="h1", overrides=("run.method=w2", "run.pulse_mode=finite", f"schedule.evolver={evolver}")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    ramp = (cfg.schedule_steps + 1, 3, 3)
    batches = 2 if evolver == "nmr" else 1
    assert [h.shape for h in solved][0] == ramp
    assert len(solved) == 1 + batches <= 3
    assert all(h.ndim == 3 and h.shape[1:] == (8, 8) for h in solved[1:])


def test_run_compiles_each_step_once_on_one_compiler(monkeypatch):
    compiled = counting(monkeypatch, pairgap.nmr.StepCompiler, "compile")
    cfg = build_config(preset="h1", overrides=("run.method=w2", "run.pulse_mode=finite"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    # the S + 1 ramp steps, then the one acquisition step, on one compiler
    assert len(compiled) == cfg.schedule_steps + 2
    assert len({id(compiler) for compiler in compiled}) == 1


def fresh_compiles(monkeypatch):
    """Record every call of compile_trotter_step, through any pairgap module
    that binds it."""
    calls = []
    original = pairgap.nmr.compile_trotter_step

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pairgap" and getattr(module, "compile_trotter_step", None) is original:
            monkeypatch.setattr(module, "compile_trotter_step", recording)
    return calls


@pytest.mark.parametrize(
    "method, evolver, compilers",
    [(m, e, 1) for m in ("w1", "w2") for e in ("default", "exact", "trotter", "nmr")]
    + [("ideal", "nmr", 1), ("ideal", "exact", 0)],
)
def test_a_run_compiles_on_one_step_compiler_per_method(monkeypatch, method, evolver, compilers):
    built = counting(monkeypatch, pairgap.nmr.StepCompiler, "__init__")
    fresh = fresh_compiles(monkeypatch)
    mode = "finite" if method == "w2" else "delta"
    cfg = build_config(
        preset="h1", overrides=(f"run.method={method}", f"run.pulse_mode={mode}", f"schedule.evolver={evolver}")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    assert len(built) == compilers
    assert fresh == []


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
def test_compiled_t0_sweep_compiles_every_point_on_one_step_compiler(monkeypatch):
    built = counting(monkeypatch, pairgap.nmr.StepCompiler, "__init__")
    compiled = counting(monkeypatch, pairgap.nmr.StepCompiler, "compile")
    fresh = fresh_compiles(monkeypatch)
    cfg = build_config(preset="h1", overrides=("run.method=w2", "run.pulse_mode=finite"))
    result = sweep_t0(cfg, [0.5e-3, 1e-3, 2e-3])
    assert len(built) == 1
    # the S + 1 ramp steps once, then one acquisition step per t0
    assert len(compiled) == cfg.schedule_steps + 1 + 3
    assert fresh == []
    assert_standalone_rows(cfg, result.rows)


def test_backend_leaves_compiling_and_building_to_the_table():
    tree = ast.parse(inspect.getsource(pairgap.backend))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"StepCompiler", "compile_trotter_step"}
    assert not [attr for attr in attrs if attr.startswith("_")]
