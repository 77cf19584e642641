"""Acceptance gate: one test per shipped criterion.

Each test records a PASS/FAIL line for the terminal summary (see conftest) and
then asserts. The palindromic step's effective generator is even in t0, so its
spectral line sits t0^2/k^2 from the exact gap, one order below the step's
O(t0^3/k^2) unitary defect; criterion 6 checks that order. Its XX/YY factors
individually transfer pair number, so the composed step conserves the sector
exactly only when the coupling blocks commute (h2); for h1 the step clause of
criterion 8 checks that the leak is a Trotter-order defect. Criterion 4 fails
by design and reports its numbers instead of being weakened: at the default
(t0, k) = (2 ms, 2) the pipeline reproduces the step's own line, and that
line's Trotter shift is wider than one Fourier bin.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np

from pairgap.config import build_config
from pairgap.exact import Ramp, propagator, sector_gap
from pairgap.hamiltonian import realize
from pairgap.nmr import compile_trotter_step, program_unitary
from pairgap.pipeline import run_experiment, sweep_t0
from pairgap.presets import pairing_model, spin_system
from pairgap.resources import feasibility, max_feasible_n
from pairgap.spectroscopy import TimeSeries, dft, epsilon_ft, fit_damped_sinusoid
from pairgap.trotter import TrotterPlan, convergence_sweep, symmetric3_step

from conftest import number_operator, record_criterion, sector_leak_exponents, step_line

TWO_PI = 2 * math.pi


def _fidelity_deficit(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - abs(np.trace(a.conj().T @ b)) / a.shape[0]


def _finite_w1_offset(t_pi: float) -> tuple[float, float]:
    cfg = build_config(
        preset="h2",
        overrides=("run.method=w1", "run.pulse_mode=finite", f"machine.t_pi_s={t_pi!r}"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(cfg)
    return result.systematic_offset, result.delta_exact


def test_criterion_1_exact_gap_oracle():
    ok, detail = False, "did not complete"
    try:
        h1 = pairing_model("h1")
        gap_h1_hz = sector_gap(h1, 2, "first") / TWO_PI
        runtime = min(
            (lambda s: (sector_gap(h1, 2, "first"), time.perf_counter() - s)[1])(time.perf_counter())
            for _ in range(50)
        )
        gap_h2_hz = sector_gap(pairing_model("h2"), 2, 2) / TWO_PI
        gap_h2_f1_hz = sector_gap(replace(pairing_model("h2"), convention_factor=1.0), 2, 2) / TWO_PI
        ok = (
            216.5 <= gap_h1_hz <= 218.5
            and runtime < 1e-3
            and 449.0 <= gap_h2_hz <= 453.0
            and abs(gap_h2_f1_hz - 225.4) < 0.05
        )
        detail = (
            f"h1 gap/2pi = {gap_h1_hz:.4f} Hz in [216.5, 218.5], solve time "
            f"{runtime * 1e6:.0f} us < 1 ms; h2 connected gap/2pi = {gap_h2_hz:.4f} Hz "
            f"in [449, 453] (factor 1: {gap_h2_f1_hz:.4f} Hz)"
        )
    finally:
        record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_step_error_exponents():
    ok, detail = False, "did not complete"
    try:
        sweep = convergence_sweep(
            pairing_model("h1"), [0.25e-3, 0.5e-3, 1e-3, 2e-3], [1, 2, 4]
        )
        ok = abs(sweep.p - 3.0) <= 0.3 and abs(sweep.q - 2.0) <= 0.3
        detail = f"step error exponents p = {sweep.p:.4f} (want 3 +- 0.3), q = {sweep.q:.4f} (want 2 +- 0.3)"
    finally:
        record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_fourier_precision_values():
    ok, detail = False, "did not complete"
    try:
        trios = (
            (400, 1e-3, 2.5 * TWO_PI),
            (200, 2e-3, 2.5 * TWO_PI),
            (200, 0.5e-3, 10.0 * TWO_PI),
        )
        got = [epsilon_ft(q, t0) for q, t0, _ in trios]
        ok = all(g == want for g, (_, _, want) in zip(got, trios))
        detail = "epsilon_ft exact at (400, 1 ms), (200, 2 ms) -> 2.5*2pi and (200, 0.5 ms) -> 10*2pi rad/s"
        if not ok:
            detail += f"; got {[g / TWO_PI for g in got]}*2pi"
    finally:
        record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_ideal_pipeline_offset_within_bin():
    ok, detail = False, "did not complete"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(build_config(preset="h1"))
        ok = abs(result.systematic_offset) <= result.epsilon_ft
        cfg = result.config
        pairs = cfg.init_bits.count("1")
        line = step_line(cfg.model, symmetric3_step(cfg.model, cfg.plan), cfg.plan.t0, pairs)
        shift = line - result.delta_exact
        detail = (
            f"|offset| = {abs(result.systematic_offset) / TWO_PI:.4f}*2pi rad/s vs "
            f"epsilon_ft = {result.epsilon_ft / TWO_PI:.4f}*2pi rad/s; pipeline vs step "
            f"line |delta_exp - line| = {abs(result.delta_exp - line) / TWO_PI:.4f}*2pi rad/s, "
            f"Trotter shift line - exact = {shift / TWO_PI:.4f}*2pi rad/s "
            f"({abs(shift) / result.epsilon_ft:.2f} bins at t0 = {cfg.plan.t0 * 1e3:g} ms, "
            f"k = {cfg.plan.k})"
        )
    finally:
        record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_control_error_direction():
    ok, detail = False, "did not complete"
    try:
        off_w1, delta = _finite_w1_offset(20e-6)
        cfg_w2 = build_config(
            preset="h2", overrides=("run.method=w2", "run.pulse_mode=finite")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res_w2 = run_experiment(cfg_w2)
        off_w2 = res_w2.systematic_offset
        ordering = abs(off_w1) > abs(off_w2)
        w2_accurate = abs(off_w2) <= 2 * res_w2.epsilon_ft
        big_shift_t_pi = next(
            (t for t in (20e-6, 30e-6, 40e-6, 10e-6) if abs(_finite_w1_offset(t)[0]) >= delta / 10),
            None,
        )
        ok = ordering and w2_accurate and big_shift_t_pi is not None
        detail = (
            f"|offset| W1 = {abs(off_w1):.2f} > W2 = {abs(off_w2):.2f} rad/s, W2 within "
            f"2*epsilon_ft = {2 * res_w2.epsilon_ft:.2f}; W1 shift >= gap/10 at "
            f"t_pi = {big_shift_t_pi if big_shift_t_pi is None else big_shift_t_pi * 1e6:.0f} us"
        )
    finally:
        record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_offset_scaling_with_t0():
    ok, detail = False, "did not complete"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_t0(
                build_config(preset="h1"), [0.25e-3, 0.5e-3, 1e-3, 2e-3]
            )
        ok = sweep.offset_exponent is not None and abs(sweep.offset_exponent - 2.0) <= 0.5
        detail = (
            f"offset exponent = {sweep.offset_exponent:.4f} (want 2 +- 0.5); the "
            f"palindromic step is even in t0, so its line moves as t0^2/k^2"
        )
    finally:
        record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_resource_bounds():
    ok, detail = False, "did not complete"
    try:
        n_tight = max_feasible_n(100.0, 1.0)
        wide = feasibility(10, 1.0, 1.0)
        ok = n_tight == 4 and wide.feasible
        detail = (
            f"max feasible n = {n_tight} at eps = gap/100 (want 4); n = 10 at eps = gap "
            f"uses {wide.time_in_tau:.3f} of the coherence budget"
        )
    finally:
        record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_property_battery():
    ok, detail = False, "did not complete"
    try:
        failures = []
        machine = spin_system()
        rng = np.random.default_rng(5)

        for name in ("h1", "h2"):
            model = pairing_model(name)
            plan = TrotterPlan(2e-3 if name == "h1" else 0.5e-3, 2)
            u = symmetric3_step(model, plan)
            if np.linalg.norm(u.conj().T @ u - np.eye(8)) > 1e-9:
                failures.append(f"{name} step not unitary")
            h = realize(model)
            if np.linalg.norm(h - h.conj().T) > 1e-12:
                failures.append(f"{name} Hamiltonian not Hermitian")
            hs = realize(Ramp(model, 4, 2).step_model(1))
            if np.linalg.norm(hs - hs.conj().T) > 1e-12:
                failures.append(f"{name} ramp Hamiltonian not Hermitian")
            num = number_operator(model.n)
            if np.abs(h @ num - num @ h).max() > 1e-10:
                failures.append(f"{name} Hamiltonian changes pair number")
            psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi /= np.linalg.norm(psi)
            weights = np.array([bin(i).count("1") for i in range(8)])
            before = [np.sum(np.abs(psi[weights == w]) ** 2) for w in range(4)]
            evolved = propagator(h, 1.7e-3) @ psi
            after = [np.sum(np.abs(evolved[weights == w]) ** 2) for w in range(4)]
            if np.abs(np.array(after) - np.array(before)).max() > 1e-10:
                failures.append(f"{name} exact propagator leaks between sectors")
            # h2's single coupling makes its XX and YY blocks commute, so the
            # palindrome cancels the pair transfer of the XX factor exactly.
            leak = np.linalg.norm(u @ num - num @ u)
            if name == "h2" and leak > 1e-9:
                failures.append(f"h2 step moves pair number across sectors: |[U, N]| = {leak:.3e}")

        # h1's three couplings do not commute, so its step leaks pair number;
        # the leak must be a Trotter-order defect with criterion 2's exponents.
        h1 = pairing_model("h1")
        leak_p, leak_q = sector_leak_exponents(
            lambda t0, k: symmetric3_step(h1, TrotterPlan(t0, k)),
            h1.n, [0.25e-3, 0.5e-3, 1e-3, 2e-3], [1, 2, 4],
        )
        if abs(leak_p - 3.0) > 0.3 or abs(leak_q - 2.0) > 0.3:
            failures.append(
                f"h1 step leak |[U, N]| ~ t0^{leak_p:.4f} k^-{leak_q:.4f} "
                f"(want 3 +- 0.3 and 2 +- 0.3)"
            )

        y = rng.uniform(-1.0, 1.0, 64)
        spec = dft(TimeSeries(1e-3, tuple(y), 1e-3))
        # one-sided: bins 1..31 stand for their mirrors, DC and Nyquist for themselves
        power = np.abs(spec.amp) ** 2
        if not math.isclose(float(np.sum(y**2)), float(power[0] + 2 * np.sum(power[1:-1]) + power[-1]) / 64, rel_tol=1e-12):
            failures.append("Parseval identity broken")

        t = 1e-3 * np.arange(256)
        amp, rate, omega, phase = 0.8, 55.0, 1350.0, 0.4
        clean = amp * np.exp(-rate * t) * np.cos(omega * t + phase)
        fit = fit_damped_sinusoid(dft(TimeSeries(1e-3, tuple(clean), 1e-3)), seed=1300.0)
        recovered = (fit.amplitude, 1.0 / fit.tau_e, fit.delta_exp, fit.phase)
        for got, want in zip(recovered, (amp, rate, omega, phase)):
            if abs(got - want) > 1e-6 * abs(want):
                failures.append(f"fit drifts from generator: {got!r} vs {want!r}")

        plan = TrotterPlan(2e-3, 2)
        ideal = symmetric3_step(h1, plan)
        program = compile_trotter_step(h1, plan, "w1", machine)
        if _fidelity_deficit(ideal, program_unitary(program, machine, "delta")) > 1e-9:
            failures.append("delta-pulse W1 differs from the ideal step")
        sharp = replace(machine, t_pi=1e-10)
        prog_sharp = compile_trotter_step(h1, plan, "w1", sharp)
        if _fidelity_deficit(ideal, program_unitary(prog_sharp, sharp, "finite")) > 1e-9:
            failures.append("t_pi -> 0 finite W1 differs from the ideal step")

        zero = replace(machine, t_pi=0.0)
        w1 = compile_trotter_step(h1, plan, "w1", zero)
        w2 = compile_trotter_step(h1, plan, "w2", zero)
        if w1.events != w2.events:
            failures.append("W2 != W1 at t_pi = 0")

        ok = not failures
        detail = (
            "unitarity, Hermiticity, sector conservation (h2 step exact, h1 step leak "
            f"~ t0^{leak_p:.2f} k^-{leak_q:.2f}), Parseval, fit recovery, "
            "delta/narrow-pulse equivalence, W2 = W1 at t_pi = 0"
            if ok else "; ".join(failures)
        )
    finally:
        record_criterion(8, ok, detail)
    assert ok, detail


def test_criterion_9_damping_self_consistency():
    ok, detail = False, "did not complete"
    try:
        cfg = build_config(preset="h1", overrides=("run.damping=on", "run.method=w1"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
        t2 = cfg.machine.t2[cfg.observed_spin - 1]
        implied = t2 * cfg.plan.t0 / result.spectrum.series.wall_per_step
        ratio = result.fit.tau_e / implied
        ok = result.fit.converged and 0.8 <= ratio <= 1.25
        detail = (
            f"fitted tau_e = {result.fit.tau_e * 1e3:.2f} ms vs implied "
            f"{implied * 1e3:.2f} ms (ratio {ratio:.4f} in [0.8, 1.25])"
        )
    finally:
        record_criterion(9, ok, detail)
    assert ok, detail
