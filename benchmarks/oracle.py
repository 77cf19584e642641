"""Independent correctness oracle and the per-op output checks.

The reference numbers are built here from (nu, V) with bit arithmetic and
numpy's eigensolver, never asked of pairgap. pairgap is called only to get
the outputs under test: its ideal step, compared with the oracle's, and its
delta-pulse programs, compared with its ideal step.

Tolerances:
    eigenvalues and gaps   1e-9 of the spectral scale
    ideal step unitary     1e-10 in operator norm
    program vs ideal step  1e-9 fidelity deficit (as the acceptance suite)
    fitted gap             WINDOW_BINS Fourier bins around the exact gap
"""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import combinations

import numpy as np

from workloads import J_HZ, Model, Op

EIG_RTOL = 1e-9
STEP_TOL = 1e-10
PROGRAM_TOL = 1e-9
# The widest offset at the benchmark's inputs is about 6 bins (finite-pulse
# w1 control error on h2, and the aliased t0 = 4 ms sweep point); a wrong
# operator moves the line by tens of bins.
WINDOW_BINS = 10.0
_DEGENERACY_RTOL = 1e-8


def _bit(state: int, m: int, n: int) -> int:
    """Occupation of mode m (0-based); mode 1 is the most significant bit."""
    return (state >> (n - 1 - m)) & 1


def _onsite(model: Model, state: int) -> float:
    n = model.n
    return -0.5 * model.factor * sum(model.nu[m] * (1 - 2 * _bit(state, m, n)) for m in range(n))


def sector_block(model: Model, pairs: int) -> np.ndarray:
    """H restricted to Hamming weight `pairs`, built at dimension C(n, pairs):
    diagonal -sum nu_m Z_m / 2, and V_ml between states that differ by a
    01 <-> 10 swap on modes (m, l)."""
    n = model.n
    states = [sum(1 << (n - 1 - m) for m in occ) for occ in combinations(range(n), pairs)]
    states.sort()
    index = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for i, s in enumerate(states):
        h[i, i] = _onsite(model, s)
        for m in range(n):
            for l in range(m + 1, n):
                v = model.coupling[m][l]
                if v != 0.0 and _bit(s, m, n) != _bit(s, l, n):
                    h[i, index[s ^ (1 << (n - 1 - m)) ^ (1 << (n - 1 - l))]] = model.factor * v
    return h


def grouped_levels(values: np.ndarray) -> list[float]:
    """Mean energy of each degenerate cluster, ascending."""
    tol = _DEGENERACY_RTOL * max(1.0, float(np.abs(values).max()))
    groups = [[float(values[0])]]
    for v in values[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [sum(g) / len(g) for g in groups]


def _full_parts(model: Model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """On-site diagonal, XX and YY coupling parts on the full 2^n space."""
    n = model.n
    dim = 2**n
    diag = np.array([_onsite(model, s) for s in range(dim)])
    xx = np.zeros((dim, dim))
    yy = np.zeros((dim, dim))
    for m in range(n):
        for l in range(m + 1, n):
            half = 0.5 * model.factor * model.coupling[m][l]
            if half == 0.0:
                continue
            flip = (1 << (n - 1 - m)) | (1 << (n - 1 - l))
            for s in range(dim):
                xx[s ^ flip, s] += half
                # Y Y takes |01> <-> |10> with +1 and |00> <-> |11> with -1.
                yy[s ^ flip, s] += half if _bit(s, m, n) != _bit(s, l, n) else -half
    return diag, xx, yy


def _expm(h: np.ndarray, t: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values * t)) @ vectors.T


def ideal_step(model: Model, t0: float, k: int) -> np.ndarray:
    """[A(tau/2) B(tau/2) C(tau) B(tau/2) A(tau/2)]^k with tau = t0 / k."""
    diag, xx, yy = _full_parts(model)
    tau = t0 / k
    ua = np.diag(np.exp(-1j * diag * tau / 2))
    ub = _expm(xx, tau / 2)
    rep = ua @ ub @ _expm(yy, tau) @ ub @ ua
    return np.linalg.matrix_power(rep, k)


def exact_unitary(model: Model, t: float) -> np.ndarray:
    diag, xx, yy = _full_parts(model)
    return _expm(np.diag(diag) + xx + yy, t)


def _log_slope(xs: list[float], ys: list[float]) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def convergence_reference(model: Model, t0_values, k_values) -> tuple[list, float, float]:
    """Rows (t0, k, ||U_step - U_exact||_2) and the mean log-log exponents
    along each axis."""
    rows = []
    for t0 in t0_values:
        exact = exact_unitary(model, t0)
        for k in k_values:
            rows.append((t0, k, float(np.linalg.norm(ideal_step(model, t0, k) - exact, ord=2))))
    p = np.mean([_log_slope([r[0] for r in rows if r[1] == k], [r[2] for r in rows if r[1] == k]) for k in k_values])
    q = np.mean([-_log_slope([r[1] for r in rows if r[0] == t0], [r[2] for r in rows if r[0] == t0]) for t0 in t0_values])
    return rows, float(p), float(q)


def folded(omega: float, t0: float) -> float:
    """Where a line at omega appears after sampling every t0 (aliasing)."""
    period = 2 * math.pi / t0
    r = omega % period
    return min(r, period - r)


class Checker:
    """Checks every op's outputs against the oracle. References depend only
    on the op's inputs, so each is computed once per distinct op."""

    def __init__(self, pairgap_modules):
        self._pg = pairgap_modules
        self._levels: dict[tuple, np.ndarray] = {}
        self._step_ok: dict[Op, str] = {}
        self._conv: dict[Op, tuple] = {}

    def _sector(self, model: Model, pairs: int) -> np.ndarray:
        key = (model, pairs)
        if key not in self._levels:
            self._levels[key] = np.linalg.eigvalsh(sector_block(model, pairs))
        return self._levels[key]

    def _close(self, got: float, want: float, scale: float) -> bool:
        return math.isfinite(got) and abs(got - want) <= EIG_RTOL * max(1.0, scale)

    def _level_gap(self, op: Op, level: int) -> float:
        levels = grouped_levels(self._sector(op.model, op.pairs))
        if not 1 <= level < len(levels):
            raise ValueError(f"reachable level {level} outside 1..{len(levels) - 1}")
        return levels[level] - levels[0]

    def _pg_model(self, model: Model):
        return self._pg.hamiltonian.PairingModel(model.nu, np.array(model.coupling), model.factor)

    def _step_check(self, op: Op) -> str:
        """'' when pairgap's ideal step matches the oracle and, for
        delta-pulse programs, the compiled program matches pairgap's step."""
        if op not in self._step_ok:
            pg = self._pg
            model = self._pg_model(op.model)
            plan = pg.trotter.TrotterPlan(op.t0, op.k)
            ideal = pg.trotter.symmetric3_step(model, plan)
            problem = ""
            if np.linalg.norm(ideal - ideal_step(op.model, op.t0, op.k), ord=2) > STEP_TOL:
                problem = "symmetric3_step differs from the oracle step"
            elif op.method != "ideal" and op.pulse_mode == "delta":
                # w2 shortens delays by the pulse width, so it equals the ideal
                # step only for zero-width pulses; w1 does at any width.
                t_pi = op.t_pi if op.method == "w1" else 0.0
                machine = pg.nmr.SpinSystem(np.array(J_HZ), t_pi, (0.25,) * 3)
                program = pg.nmr.compile_trotter_step(model, plan, op.method, machine)
                u = pg.nmr.program_unitary(program, machine, "delta")
                deficit = 1.0 - abs(np.trace(ideal.conj().T @ u)) / u.shape[0]
                if deficit > PROGRAM_TOL:
                    problem = f"delta-pulse {op.method} program differs from symmetric3_step ({deficit:.2e})"
            self._step_ok[op] = problem
        return self._step_ok[op]

    def check(self, op: Op, outcome, out_dir: str) -> dict:
        """Returns {"error": str} on failure, else the run's accuracy facts."""
        try:
            if op.kind == "run":
                return self._check_run(op, outcome, out_dir)
            if op.kind == "sweep":
                return self._check_sweep(op, outcome, out_dir)
            if op.kind == "gap-exact":
                return self._check_gap(op, outcome, out_dir)
            return self._check_convergence(op, outcome)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _check_run(self, op: Op, rc, out_dir: str) -> dict:
        if rc not in (0, 3):
            return {"error": f"exit code {rc}"}
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["converged"] is not (rc == 0):
            return {"error": f"exit code {rc} disagrees with converged={rec['converged']}"}
        echoed = (rec["t0_s"], rec["k"], rec["q"], rec["method"], rec["pulse_mode"])
        if echoed != (op.t0, op.k, op.q, op.method, op.pulse_mode):
            return {"error": f"result echoes {echoed}, op asked for {(op.t0, op.k, op.q, op.method, op.pulse_mode)}"}
        values = self._sector(op.model, op.pairs)
        scale = float(np.abs(values).max())
        delta_exact = rec["delta_exact_rad_s"]
        if not self._close(delta_exact, self._level_gap(op, rec["reachable_level"]), scale):
            return {"error": f"delta_exact {delta_exact!r} disagrees with the oracle"}
        eps = 2 * math.pi / (op.q * op.t0)
        if abs(rec["epsilon_ft_rad_s"] - eps) > 1e-12 * eps:
            return {"error": "epsilon_ft is not 2 pi / (Q t0)"}
        offset_bins = abs(rec["delta_exp_rad_s"] - delta_exact) / eps
        if not offset_bins <= WINDOW_BINS:
            return {"error": f"delta_exp is {offset_bins:.2f} bins from delta_exact"}
        self._check_csvs(op, out_dir, values, scale)
        problem = self._step_check(op)
        if problem:
            return {"error": problem}
        return {"converged": rc == 0, "offset_bins": offset_bins}

    def _check_csvs(self, op: Op, out_dir: str, values: np.ndarray, scale: float) -> None:
        def rows(name):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
                return [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]

        series = rows("timeseries.csv")
        if len(series) != op.q or any(abs(r[2]) > 1 + 1e-9 for r in series):
            raise ValueError("timeseries.csv: wrong length or value outside [-1, 1]")
        if len(rows("spectrum.csv")) != op.q:
            raise ValueError("spectrum.csv: wrong length")
        pops = rows("populations.csv")
        energies = np.array([r[1] for r in pops])
        if len(pops) != len(values) or np.abs(energies - values).max() > EIG_RTOL * max(1.0, scale):
            raise ValueError("populations.csv: energies disagree with the oracle")
        weights = [r[2] for r in pops]
        if min(weights) < -1e-12 or sum(weights) > 1 + 1e-9:
            raise ValueError("populations.csv: populations are not a sub-distribution")

    def _check_sweep(self, op: Op, rc, out_dir: str) -> dict:
        if rc != 0:
            return {"error": f"exit code {rc}"}
        with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "sweep_summary.json"), encoding="utf-8") as fh:
            exponent = json.load(fh)["offset_exponent"]
        if not isinstance(exponent, float):
            return {"error": f"offset_exponent is {exponent!r}"}
        if [float(r["t0_s"]) for r in rows] != list(op.t0_values):
            return {"error": "sweep.csv rows do not follow the t0 grid"}
        values = self._sector(op.model, op.pairs)
        levels = grouped_levels(values)
        gaps = [g - levels[0] for g in levels[1:]]
        eps_ref = 2 * math.pi / (op.q * op.t0)
        for r in rows:
            t0 = float(r["t0_s"])
            if r["error"] or int(r["q"]) != round(2 * math.pi / (eps_ref * t0)):
                return {"error": f"sweep row t0={t0}: error {r['error']!r} or wrong Q"}
            delta_exact = float(r["delta_exact_rad_s"])
            if not any(self._close(delta_exact, g, float(np.abs(values).max())) for g in gaps):
                return {"error": f"sweep row t0={t0}: delta_exact is no oracle gap"}
            bins = abs(float(r["delta_exp_rad_s"]) - folded(delta_exact, t0)) / float(r["epsilon_ft_rad_s"])
            if not bins <= WINDOW_BINS:
                return {"error": f"sweep row t0={t0}: delta_exp is {bins:.2f} bins from the aliased exact gap"}
        return {}

    def _check_gap(self, op: Op, rc, out_dir: str) -> dict:
        if rc != 0:
            return {"error": f"exit code {rc}"}
        with open(os.path.join(out_dir, "gap.json"), encoding="utf-8") as fh:
            rec = json.load(fh)
        values = self._sector(op.model, op.pairs)
        scale = float(np.abs(values).max())
        got = np.array(rec["sector_eigenvalues_rad_s"])
        if rec["pairs"] != op.pairs or got.shape != values.shape:
            return {"error": "gap.json: wrong sector"}
        if np.abs(got - values).max() > EIG_RTOL * max(1.0, scale):
            return {"error": "gap.json: sector eigenvalues disagree with the oracle"}
        if not self._close(rec["gap_first_rad_s"], float(values[1] - values[0]), scale):
            return {"error": "gap.json: gap_first disagrees with the oracle"}
        if not self._close(rec["reachable_gap_rad_s"], self._level_gap(op, rec["reachable_level"]), scale):
            return {"error": "gap.json: reachable gap disagrees with the oracle"}
        return {}

    def _check_convergence(self, op: Op, result) -> dict:
        if isinstance(result, Exception):
            return {"error": f"{type(result).__name__}: {result}"}
        if op not in self._conv:
            self._conv[op] = convergence_reference(op.model, op.t0_values, op.k_values)
        rows, p, q = self._conv[op]
        if len(result.rows) != len(rows):
            return {"error": "convergence_sweep: wrong row count"}
        for (t0, k, err), (rt0, rk, rerr) in zip(rows, result.rows):
            if (t0, k) != (rt0, rk) or abs(rerr - err) > 1e-6 * err + 1e-12:
                return {"error": f"convergence_sweep row ({t0}, {k}): error {rerr!r}, oracle {err!r}"}
        if abs(result.p - p) > 1e-6 or abs(result.q - q) > 1e-6:
            return {"error": f"convergence_sweep exponents ({result.p}, {result.q}), oracle ({p}, {q})"}
        return {}
