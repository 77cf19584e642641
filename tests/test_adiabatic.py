import math
import warnings

import numpy as np
import pytest

import pairgap.backend
import pairgap.exact
import pairgap.nmr
import pairgap.pipeline
from pairgap.adiabatic import (
    AdiabaticityWarning,
    AdiabaticSchedule,
    prepare,
    sector_population_report,
)
from pairgap.backend import Backend
from pairgap.config import build_config
from pairgap.exact import Ramp, computational_state, reachable_gap
from pairgap.hamiltonian import sector_basis
from pairgap.nmr import RfPulse, compile_trotter_step, simulate_program
from pairgap.pipeline import report_to_csv, run_experiment
from pairgap.presets import pairing_model, spin_system
from pairgap.trotter import TrotterPlan

H1 = pairing_model("h1")
H2 = pairing_model("h2")
INIT = computational_state(3, 3)  # |011>


def fast_schedule(backend=None, k=1, steps=4, t_ad=1 / 700):
    return AdiabaticSchedule(steps, t_ad, backend, k)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AdiabaticSchedule(0, 1e-3)
    with pytest.raises(ValueError):
        AdiabaticSchedule(4, -1e-3)
    with pytest.raises(ValueError):
        AdiabaticSchedule(4, 1e-3, Backend(), k=0)
    assert AdiabaticSchedule(4, 0.0).steps == 4
    with pytest.raises(ValueError, match="machine"):
        Backend("w1")
    with pytest.raises(ValueError, match="method"):
        Backend("w3", spin_system())


def test_prepare_requires_normalized_state():
    with pytest.raises(ValueError):
        prepare(H1, np.ones(8), fast_schedule(), check_adiabaticity=False)


def test_prepare_stays_in_sector():
    psi = prepare(H1, INIT, fast_schedule(), check_adiabaticity=False)
    outside = np.delete(np.arange(8), sector_basis(3, 2))
    assert np.max(np.abs(psi[outside])) < 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_prepare_h1_populations_frozen():
    psi = prepare(H1, INIT, fast_schedule(), check_adiabaticity=False)
    pops = [p for _, _, p in sector_population_report(H1, 2, psi)]
    want = [0.353667074372997, 0.589629281220753, 0.0567036444062517]
    assert np.allclose(pops, want, atol=1e-12)


def test_prepare_h2_leaves_decoupled_level_empty():
    psi = prepare(H2, INIT, fast_schedule(), check_adiabaticity=False)
    pops = [p for _, _, p in sector_population_report(H2, 2, psi)]
    assert np.allclose(pops, [0.675400947196885, 0.0, 0.324599052803114], atol=1e-12)
    assert pops[1] < 1e-12


def test_deliberately_fast_ramp_warns():
    with pytest.warns(AdiabaticityWarning):
        prepare(H1, INIT, fast_schedule())


def test_slow_ramp_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prepare(H1, INIT, fast_schedule(steps=200, t_ad=0.02))


def test_ground_population_grows_with_steps():
    grounds = []
    for s in (4, 8, 16, 32, 64):
        psi = prepare(H1, INIT, fast_schedule(steps=s), check_adiabaticity=False)
        grounds.append(sector_population_report(H1, 2, psi)[0][2])
    assert all(a < b for a, b in zip(grounds, grounds[1:]))
    assert grounds[0] < 0.4
    # a genuinely slow ramp pins the ground state
    psi = prepare(H1, INIT, fast_schedule(steps=200, t_ad=0.02), check_adiabaticity=False)
    assert sector_population_report(H1, 2, psi)[0][2] > 0.99


def test_zero_duration_schedule_is_identity():
    for backend in (None, Backend(), Backend("w1", spin_system())):
        psi = prepare(H1, INIT, fast_schedule(backend, t_ad=0.0), check_adiabaticity=False)
        assert np.allclose(psi, INIT, atol=1e-12)


def test_trotter_evolver_tracks_exact():
    exact = prepare(H1, INIT, fast_schedule(), check_adiabaticity=False)
    fids = []
    for k in (1, 4, 16):
        approx = prepare(H1, INIT, fast_schedule(Backend(), k), check_adiabaticity=False)
        fids.append(abs(np.vdot(exact, approx)) ** 2)
    assert all(a < b for a, b in zip(fids, fids[1:]))
    assert fids[0] > 0.97
    assert fids[-1] > 0.9999


def test_nmr_evolver_matches_trotter_with_delta_pulses():
    a = prepare(H1, INIT, fast_schedule(Backend()), check_adiabaticity=False)
    b = prepare(H1, INIT, fast_schedule(Backend("w1", spin_system())), check_adiabaticity=False)
    assert abs(np.vdot(a, b)) ** 2 > 1 - 1e-12


def test_compiled_preparation_applies_programs_event_by_event():
    # composing each program's unitary first rounds differently, which would
    # move the prepared state's last bits and so the run's artifacts
    machine = spin_system()
    psi = prepare(H1, INIT, fast_schedule(Backend("w1", machine, "finite"), k=2), check_adiabaticity=False)
    want = INIT
    for s in range(5):
        program = compile_trotter_step(H1.with_coupling_scale(s / 4), TrotterPlan(1 / 700, 2), "w1", machine)
        want, _ = simulate_program(program, machine, want, "finite")
    assert np.array_equal(psi, want)


def test_population_report_is_a_distribution():
    psi = prepare(H1, INIT, fast_schedule(), check_adiabaticity=False)
    rows = sector_population_report(H1, 2, psi)
    assert len(rows) == 3
    assert math.isclose(sum(p for _, _, p in rows), 1.0, rel_tol=1e-12)
    energies = [e for _, e, p in rows]
    assert energies == sorted(energies)
    with pytest.raises(ValueError):
        sector_population_report(H1, 2, np.ones(4))


def test_report_csv_layout():
    rows = [(0, -1.5, 0.25), (1, 2.0, 0.75)]
    text = report_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "eigenindex,energy_rad_per_s,population"
    assert lines[1] == "0,-1.5,0.25"


def test_shared_ramp_gives_the_fresh_results():
    ramp = Ramp(H1, 4, 2)
    psi = prepare(H1, INIT, fast_schedule(), check_adiabaticity=False, ramp=ramp)
    assert np.array_equal(psi, prepare(H1, INIT, fast_schedule(), check_adiabaticity=False))
    nmr = fast_schedule(Backend("w1", spin_system()))
    with pytest.warns(AdiabaticityWarning) as shared:
        a = prepare(H1, INIT, nmr, ramp=ramp)
    with pytest.warns(AdiabaticityWarning) as fresh:
        b = prepare(H1, INIT, nmr)
    assert np.array_equal(a, b)
    assert str(shared[0].message) == str(fresh[0].message)
    assert reachable_gap(H1, 2, psi, ramp=ramp) == reachable_gap(H1, 2, psi)
    assert sector_population_report(H1, 2, a, ramp) == sector_population_report(H1, 2, a)


def test_ramp_of_another_model_sector_or_length_raises():
    ramp = Ramp(H1, 4, 2)
    with pytest.raises(ValueError, match="another model or pair sector"):
        prepare(H2, INIT, fast_schedule(), ramp=ramp)
    with pytest.raises(ValueError, match="another model or pair sector"):
        reachable_gap(H1, 1, computational_state(3, 1), ramp=ramp)
    with pytest.raises(ValueError, match="another schedule length"):
        prepare(H1, INIT, fast_schedule(steps=8), ramp=ramp)


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
def test_run_realizes_each_ramp_hamiltonian_once(monkeypatch, method):
    realized = counting(monkeypatch, pairgap.exact, "realize")
    cfg = build_config(preset="h1", overrides=(f"run.method={method}",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    assert len(realized) == cfg.schedule_steps + 1


def test_run_builds_each_distinct_pulse_once(monkeypatch):
    built = counting(monkeypatch, pairgap.nmr, "_pulse_unitary")
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


def test_run_compiles_each_template_once(monkeypatch):
    # the ramp's s = 0 step is on-site only and its s >= 1 steps share one
    # coupling pattern: two preparation templates, plus one for acquisition
    templates = counting(monkeypatch, pairgap.nmr.StepCompiler, "_template")
    compiled = counting(monkeypatch, pairgap.nmr, "compile_trotter_step")
    monkeypatch.setattr(pairgap.backend, "compile_trotter_step", pairgap.nmr.compile_trotter_step)
    cfg = build_config(preset="h1", overrides=("run.method=w2", "run.pulse_mode=finite"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        run_experiment(cfg)
    assert len(templates) == 3
    assert len(compiled) == 1
