"""End-to-end gap estimation: prepare, step, measure, transform, fit; and the
one writer of every artifact the CLI produces.

The run record always carries both the fitted gap and the exact oracle gap of
the level the preparation actually populated, so systematic offsets can be
read off without re-running anything. Every CSV header and row format, the
JSON layout and the atomic file write live at the end of this module; the
compute modules return data only.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .adiabatic import AdiabaticSchedule, prepare, sector_population_report
from .backend import step
from .config import ConfigError, ExperimentConfig, with_plan
from .exact import Ramp, computational_state, reachable_gap
from .nmr import Delay, EventTable, PulseProgram, wall_time
from .resources import feasibility, gate_count
from .spectroscopy import (
    FitResult,
    Spectrum,
    TimeSeries,
    acquire,
    dft,
    epsilon_ft,
    fit_damped_sinusoid,
    peak_pick,
    systematic_offset,
)
from .trotter import _log_slope

# Offsets below this (rad/s) are treated as numerically zero in exponent fits.
_OFFSET_FLOOR = 1e-9


@dataclass(frozen=True)
class RunResult:
    """One run's gaps, fit, series (t0, Q, wall step), spectrum, populations and clamp warnings."""

    config: ExperimentConfig
    delta_exact: float
    reachable_level: int
    delta_exp: float
    epsilon_ft: float
    systematic_offset: float
    fit: FitResult
    series: TimeSeries
    spectrum: Spectrum
    populations: list[tuple[int, float, float]]
    clamp_warnings: tuple[str, ...]

    @property
    def wall_total(self) -> float:
        return (self.series.q - 1) * self.series.wall_per_step


@dataclass(frozen=True)
class _Preparation:
    """What a preparation hands the measurement: the run's pulse table, the
    prepared state, its population report, its reachable level and that
    level's exact gap."""

    table: EventTable
    state: np.ndarray
    populations: list[tuple[int, float, float]]
    level: int
    delta_exact: float


def _prepare(cfg: ExperimentConfig) -> _Preparation:
    """Prepare once with ``schedule.evolver`` and take the reachable level
    and its exact gap from that state. Neither t0 nor Q enters, so the points
    of a t0 sweep share one preparation."""
    init = computational_state(cfg.model.n, cfg.init_index)
    # One pulse-event table and one ramp serve every stage of this run; the
    # table first, so a model above its qubit limit fails before the ramp's
    # eigensolve.
    table = EventTable(cfg.machine, cfg.pulse_mode)
    ramp = Ramp(cfg.model, cfg.schedule_steps, cfg.pairs)
    schedule = AdiabaticSchedule(cfg.t_ad, cfg.preparation_method, cfg.plan.k)
    prepared = prepare(ramp, init, schedule, table=table)
    level, delta_exact = reachable_gap(ramp, prepared, cfg.population_floor)
    return _Preparation(table, prepared, sector_population_report(ramp, prepared), level, delta_exact)


def _measure(cfg: ExperimentConfig, prep: _Preparation) -> RunResult:
    """Acquire, transform and fit from a preparation of ``cfg``'s model,
    schedule and initial state."""
    u, wall_per_step, clamp_warnings = step(cfg.model, cfg.plan, cfg.method, prep.table)
    t2 = cfg.machine.t2[cfg.observed_spin - 1] if cfg.damping else None
    series = acquire(prep.state, u, wall_per_step, cfg.q, cfg.plan.t0, cfg.observed_spin, t2)

    if cfg.noise_amplitude > 0:
        rng = np.random.default_rng(cfg.noise_seed)
        noisy = series.values + rng.uniform(-cfg.noise_amplitude, cfg.noise_amplitude, cfg.q)
        series = TimeSeries(series.t0, np.clip(noisy, -1.0, 1.0), wall_per_step)

    spectrum = dft(series)
    fit = fit_damped_sinusoid(spectrum, peak_pick(spectrum)[0])
    return RunResult(
        config=cfg,
        delta_exact=prep.delta_exact,
        reachable_level=prep.level,
        delta_exp=fit.delta_exp,
        epsilon_ft=epsilon_ft(cfg.q, cfg.plan.t0),
        systematic_offset=systematic_offset(fit.delta_exp, prep.delta_exact),
        fit=fit,
        series=series,
        spectrum=spectrum,
        populations=prep.populations,
        clamp_warnings=clamp_warnings,
    )


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Prepare once with ``schedule.evolver``, take the reachable level and
    its exact gap from that prepared state, then acquire, transform and fit."""
    return _measure(cfg, _prepare(cfg))


def result_record(result: RunResult) -> dict:
    """The result.json record: the fit's fields first, then the run's."""
    cfg, fit = result.config, result.fit
    return {
        "delta_exp_rad_s": fit.delta_exp,
        "delta_exp_over_2pi_hz": fit.delta_exp / (2 * math.pi),
        "tau_e_s": fit.tau_e,
        "amplitude": fit.amplitude,
        "phase_rad": fit.phase,
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "delta_exact_rad_s": result.delta_exact,
        "delta_exact_over_2pi_hz": result.delta_exact / (2 * math.pi),
        "reachable_level": result.reachable_level,
        "epsilon_ft_rad_s": result.epsilon_ft,
        "systematic_offset_rad_s": result.systematic_offset,
        "method": cfg.method,
        "pulse_mode": cfg.pulse_mode,
        "evolver": cfg.evolver,
        "t0_s": cfg.plan.t0,
        "k": cfg.plan.k,
        "q": cfg.q,
        "observed_spin": cfg.observed_spin,
        "damping": cfg.damping,
        "init": cfg.init_bits,
        "schedule_steps": cfg.schedule_steps,
        "t_ad_s": cfg.t_ad,
        "convention_factor": cfg.model.convention_factor,
        "wall_per_step_s": result.series.wall_per_step,
        "wall_total_s": result.wall_total,
        "clamp_warnings": list(result.clamp_warnings),
    }


@dataclass(frozen=True)
class SweepT0Result:
    rows: tuple[tuple[float, int, int | None, RunResult | Exception], ...]
    offset_exponent: float | None


def sweep_t0(
    cfg: ExperimentConfig, t0_values: list[float], hold_epsilon_ft: bool = True
) -> SweepT0Result:
    """Run the pipeline across sampling steps t0.

    With hold_epsilon_ft the sample count Q is co-varied to keep the Fourier
    precision of the base config, isolating the systematic offset. The
    exponent is the log-log slope of |offset| against t0 over the points
    that ran (None if fewer than two). Each row is (t0, k, q, the point's
    RunResult or the error it raised); a failure does not stop the sweep.
    The points share one preparation, which neither t0 nor Q enters; when it
    fails, every point whose plan is valid gets its error.
    """
    if not t0_values:
        raise ConfigError("sweep: need at least one t0 value")
    eps_ref = epsilon_ft(cfg.q, cfg.plan.t0)
    try:
        prep: _Preparation | Exception = _prepare(cfg)
    except Exception as exc:  # noqa: BLE001 - a failed preparation fails every row
        prep = exc
    rows = []
    for t0 in t0_values:
        q = None if hold_epsilon_ft else cfg.q
        try:
            if hold_epsilon_ft and t0 != 0 and not math.isnan(t0):  # no Q holds eps at 0 or nan: q None
                q = int(round(2 * math.pi / (eps_ref * t0)))
            point = with_plan(cfg, t0, q=q)
            result = prep if isinstance(prep, Exception) else _measure(point, prep)
        except Exception as exc:  # noqa: BLE001 - per-point failures become rows
            result = exc
        rows.append((t0, cfg.plan.k, q, result))
    done = [(t0, abs(r.systematic_offset)) for t0, _, _, r in rows if isinstance(r, RunResult)]
    return SweepT0Result(tuple(rows), _log_slope([t for t, _ in done], [o for _, o in done], _OFFSET_FLOOR))


# Artifacts. Each file has one row format over plain Python values (numpy
# arrays go through .tolist() first, which also keeps abs() of a complex bin
# to the last bit of the per-element value).


def write_text(path: str, body: str) -> None:
    """Write body as UTF-8 in one os.write (mode 0o666 less the umask) to a
    sibling .tmp file and os.replace it, so no reader sees a partial file."""
    tmp = path + ".tmp"
    data = memoryview(body.encode())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


def json_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _error_cell(message: str) -> str:
    """A per-row error, quoted, with its own double quotes made single."""
    return '"' + message.replace('"', "'") + '"'


def write_run_artifacts(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write timeseries.csv, spectrum.csv, populations.csv and result.json;
    returns the paths. Output bytes are a pure function of the config."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "timeseries": os.path.join(out_dir, "timeseries.csv"),
        "spectrum": os.path.join(out_dir, "spectrum.csv"),
        "populations": os.path.join(out_dir, "populations.csv"),
        "result": os.path.join(out_dir, "result.json"),
    }
    write_text(paths["timeseries"], series_to_csv(result.series))
    write_text(paths["spectrum"], spectrum_to_csv(result.spectrum))
    write_text(paths["populations"], report_to_csv(result.populations))
    write_text(paths["result"], json_text(result_record(result)))
    return paths


def series_to_csv(series: TimeSeries) -> str:
    """Rows k, t_s = k t0, value, wall_s = k wall_per_step; wall_s reuses
    t_s's strings when wall_per_step == t0 (every ideal run)."""
    t = list(map(repr, series.times.tolist()))
    w = series.wall_per_step
    walls = t if w == series.t0 else map(repr, (np.arange(series.q) * w).tolist())
    rows = zip(map(str, range(series.q)), t, map(repr, series.values.tolist()), walls)
    return _csv("k,t_s,value,wall_s", map(",".join, rows))


def _negated(s: str) -> str:
    """repr(-x) from repr(x) for a float x (repr drops the sign of a NaN)."""
    return s[1:] if s[0] == "-" else s if s == "nan" else "-" + s


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Rows omega, re, im, |X| for j in (-Q/2, Q/2]: the omega >= 0 rows are
    the spectrum's bins, and each omega < 0 row is bin -j = conj X[j], written
    as bin j's text with omega and im negated."""
    rows = [(repr(x), repr(c.real), repr(c.imag), repr(abs(c))) for x, c in zip(spectrum.omega.tolist(), spectrum.amp.tolist())]
    mirrored = [(_negated(x), re, _negated(im), mag) for x, re, im, mag in rows[(spectrum.series.q - 1) // 2 : 0 : -1]]
    return _csv("omega_rad_s,re,im,abs", map(",".join, mirrored + rows))


def report_to_csv(rows: list[tuple[int, float, float]]) -> str:
    return _csv("eigenindex,energy_rad_per_s,population", (f"{i},{e!r},{p!r}" for i, e, p in rows))


def sweep_rows_to_csv(rows: tuple[tuple[float, int, int | None, RunResult | Exception], ...]) -> str:
    """t0-sweep table: one row per (t0, k, q, its run or the error it raised);
    a q of None is an empty cell. Every number goes through float():
    fit.tau_e is an np.float64, whose repr under numpy 2 is np.float64(...)."""

    def row(t0: float, k: int, q: int | None, r: RunResult | Exception) -> str:
        if isinstance(r, Exception):
            return f"{float(t0)!r},{k},{'' if q is None else q},,,,,,0,{_error_cell(str(r))}"
        cells = (r.delta_exact, r.delta_exp, r.epsilon_ft, r.systematic_offset, r.fit.tau_e)
        return f"{float(t0)!r},{k},{q},{','.join(repr(float(x)) for x in cells)},{int(r.fit.converged)},"

    header = "t0_s,k,q,delta_exact_rad_s,delta_exp_rad_s,epsilon_ft_rad_s,systematic_offset_rad_s,tau_e_s,converged,error"
    return _csv(header, (row(*r) for r in rows))


def sweep_points_to_csv(points: list[tuple[str, RunResult | Exception]]) -> str:
    """Generic sweep table: one row per (point, its run or the error it raised)."""

    def row(p: str, r: RunResult | Exception) -> str:
        if isinstance(r, Exception):
            return f"{p},,,,0,{_error_cell(str(r))}"
        return f"{p},{r.delta_exact!r},{r.delta_exp!r},{r.systematic_offset!r},{int(r.fit.converged)},"

    return _csv("point,delta_exact_rad_s,delta_exp_rad_s,systematic_offset_rad_s,converged,error",
                (row(p, r) for p, r in points))


def grid_to_csv(n_list: list[int], eps_over_delta_list: list[float], t_g_over_tau: float, budget_in_tau: float) -> str:
    """Feasibility table over (n, epsilon/delta); delta scales out of the
    gate count, so only the ratio matters."""
    rows = []
    for n in n_list:
        for ratio in eps_over_delta_list:
            gates = gate_count(n, 1.0, ratio)
            fz = feasibility(n, 1.0, ratio, t_g_over_tau, budget_in_tau)
            rows.append(f"{n},{float(ratio)!r},{gates!r},{fz.time_in_tau!r},{int(fz.feasible)}")
    return _csv("n,eps_over_delta,gates,time_in_tau,feasible", rows)


def program_to_text(program: PulseProgram, t_pi: float) -> str:
    """Line format: DELAY <s> | RF <spins> <phase_rad> <angle_rad>,
    closed by WALL <s> computed at the given t_pi."""
    lines = []
    for ev in program.events:
        if isinstance(ev, Delay):
            lines.append(f"DELAY {ev.duration!r}")
        else:
            spins = ",".join(str(t) for t in ev.targets)
            lines.append(f"RF {spins} {ev.phase!r} {ev.angle!r}")
    lines.append(f"WALL {wall_time(program, t_pi)!r}")
    return "\n".join(lines) + "\n"
