"""Check that two source trees of pairgap give byte-identical CLI results.

For every op of the benchmark workloads at one seed, plus a fixed grid of
runs (h1/h2 x ideal/w1/w2 x delta/finite x every preparation evolver, a t0
sweep and gap-exact on both presets; an ideal run and gap-exact on two
fixed chains with no preset, at 5 and 8 modes; run and gap-exact on a
4-mode chain without run.init, which a model with no preset and n != 3
requires; four compiled runs the presets miss, at 4 modes, with clamped
delays and with zero-angle pulses; a compiled t0 sweep, h1 w2 finite) and
of every other artifact the CLI writes (a t0 sweep without held
epsilon_ft, a t0 sweep and a generic sweep each with an error row, compile,
estimate), a t0 sweep whose held Q is not finite, one whose eps_ref * t0
underflows to zero, a run refused for a bad per-spin T2, a run on h2's
spectator spin 3, whose series is flat, and run and gap-exact on h1 with a
population floor no excited level reaches, both trees run
`python -m pairgap.cli <argv> --out <dir>` in a fresh process.
The exit code, stdout, stderr and the bytes of every file written must
agree. Each side's output directory reads `<out>` and its source
directory `<src>` in both streams, so a message that names a path of either
tree compares across trees.

    python tools/compare_outputs.py --base ../parent --seed 5151

`--base` is another checkout of this repository (for example made with
`git archive <commit>`); this checkout is the other side. BLAS runs on one
thread in both, as in the benchmark. Exit status is 0 when every case agrees.

Under each case that differs, the tool names what differs (exit code, stdout,
stderr, artifact files); for each differing CSV artifact, how many rows
differ and the largest |cell change|, and for spectrum.csv whether every
differing row lies at omega < 0; and, from both sides' result.json,
sweep.csv and sweep_summary.json, how far the fit moved: the largest
|delta_exp change| in units of epsilon_ft (in rad/s on generic sweeps, which
record no epsilon_ft), the relative change of residual_norm, the change of
the offset exponent, every flip of `converged`, a run's reachable level on
both sides with the change of its exact gap, and how far gap-exact's
gap.json moved: the largest |change| in rad/s over its sector eigenvalues,
first gap and reachable gap.
The last line sums up every differing case: the worst delta_exp move in
units of epsilon_ft, the worst offset-exponent move, the worst gap.json
move and the worst CSV cell move, each with its case, and how many exit
codes, converged flags, reachable levels and stderr streams changed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "benchmarks"))

from workloads import generate  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Nearest-neighbour chains as (nu/2pi in Hz, V_m,m+1/2pi in Hz, t0 in s): the
# init is half filled, 0101..., and t0 keeps every line of that pair sector
# below Nyquist (widest 837 Hz at 5 modes and 1371 Hz at 8).
CHAINS = (
    ("120,250,330,410,560", (60, 90, -120, 150), 0.5e-3),
    ("110,170,240,300,360,430,500,570", (80, -60, 120, 100, -90, 140, 70), 0.3e-3),
)

# Compiled runs the preset grid misses: a 4-mode chain (J proportional to
# V, so one shared delay realizes every coupling) with w2 finite and w1
# delta pulses; h1 w2 finite with pulses so wide that six compensated
# delays clamp to zero; h1 w1 finite with nu_2 = 0, whose zero-angle
# pulses are the identity.
_CHAIN4 = ("model.nu_hz=120,250,330,410", "model.v_1_2_hz=60", "model.v_2_3_hz=90", "model.v_3_4_hz=-120",
           "machine.j_1_2_hz=120", "machine.j_2_3_hz=180", "machine.j_3_4_hz=-240", "run.init=0101",
           "plan.t0_s=5e-4")
COMPILED = (
    ((), _CHAIN4 + ("run.method=w2", "run.pulse_mode=finite")),
    ((), _CHAIN4 + ("run.method=w1", "run.pulse_mode=delta")),
    (("--preset", "h1"), ("run.method=w2", "run.pulse_mode=finite", "machine.t_pi_s=3e-3")),
    (("--preset", "h1"), ("run.method=w1", "run.pulse_mode=finite", "model.nu_hz=150,0,50")),
)

Outcome = tuple[int, str, str, dict[str, bytes]]  # exit code, stdout, stderr, file bytes by name


def grid() -> list[tuple[str, ...]]:
    cases = []
    for preset in ("h1", "h2"):
        for method, modes in (("ideal", ("delta",)), ("w1", ("delta", "finite")), ("w2", ("delta", "finite"))):
            for mode in modes:
                for evolver in ("exact", "trotter", "nmr"):
                    items = [f"run.method={method}", f"run.pulse_mode={mode}", f"schedule.evolver={evolver}", "run.damping=on"]
                    argv = ["run", "--preset", preset]
                    for item in items:
                        argv += ["--override", item]
                    cases.append(tuple(argv))
        cases.append(("sweep", "--preset", preset, "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3"))
        cases.append(("gap-exact", "--preset", preset))
    for nu, couplings, t0 in CHAINS:
        n = len(couplings) + 1
        items = [f"model.nu_hz={nu}", f"run.init={('01' * n)[:n]}", f"plan.t0_s={t0!r}"]
        items += [f"model.v_{m}_{m + 1}_hz={v}" for m, v in enumerate(couplings, start=1)]
        overrides = tuple(arg for item in items for arg in ("--override", item))
        cases += [("run", *overrides), ("gap-exact", *overrides)]
    cases += [(command, "--override", _CHAIN4[0]) for command in ("run", "gap-exact")]
    for preset, items in COMPILED:
        cases.append(("run", *preset, *(arg for item in items for arg in ("--override", item))))
    cases += [
        ("sweep", "--preset", "h1", "--override", "run.method=w2", "--override", "run.pulse_mode=finite",
         "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3", "--no-hold-epsilon-ft"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=1e-3,-1e-3,2e-3"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=1e-3,1e-320"),
        ("sweep", "--preset", "h1", "--override", "plan.t0_s=1e300", "--vary", "plan.t0_s=1e-3,1e-30"),
        ("run", "--preset", "h1", "--override", "machine.t2_1_s=0"),
        ("run", "--preset", "h2", "--override", "run.observed_spin=3"),
        ("run", "--preset", "h1", "--override", "run.population_floor=0.99"),
        ("gap-exact", "--preset", "h1", "--override", "run.population_floor=0.99"),
        ("sweep", "--preset", "h2", "--vary", "plan.k=1,2,x"),
        ("compile", "--preset", "h1", "--override", "run.method=w1"),
        ("compile", "--preset", "h2", "--override", "run.method=w2"),
        ("estimate",),
        ("estimate", "--n", "3,4,5", "--eps-over-delta", "1,0.01,1e-4"),
    ]
    return cases


def run(src: Path, argv: tuple[str, ...]) -> Outcome:
    src = src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "pairgap.cli", *argv, "--out", out],
            capture_output=True, text=True, env=env,
        )
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(Path(out).rglob("*")) if p.is_file()}

    def scrub(text: str) -> str:
        return text.replace(out, "<out>").replace(str(src), "<src>")

    return proc.returncode, scrub(proc.stdout), scrub(proc.stderr), files


def _number(cell: str) -> float:
    """A CSV cell as a float; nan for a cell that is not a number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _cell_move(b: str, h: str) -> float:
    """|change| of one CSV cell: 0 for equal text, inf unless both sides are
    numbers that differ by a number."""
    move = 0.0 if b == h else abs(_number(h) - _number(b))
    return math.inf if math.isnan(move) else move


def _csv_move(body_b: bytes, body_h: bytes) -> tuple[int, float, bool]:
    """How a CSV artifact moved: how many rows differ (a row on one side only
    counts), the largest |cell change| (inf for a row on one side only, a
    changed row length or a changed non-number) and whether every differing
    row has a negative first cell on both sides (spectrum.csv's omega < 0)."""
    b_rows = list(csv.reader(io.StringIO(body_b.decode())))
    h_rows = list(csv.reader(io.StringIO(body_h.decode())))
    rows = abs(len(b_rows) - len(h_rows))
    move = math.inf if rows else 0.0
    negative = not rows
    for b, h in zip(b_rows, h_rows):
        if b == h:
            continue
        rows += 1
        move = max(move, *map(_cell_move, b, h), math.inf if len(b) != len(h) else 0.0)
        negative = negative and all(r and _number(r[0]) < 0 for r in (b, h))
    return rows, move, negative


def _csv_moves(base: dict[str, bytes], head: dict[str, bytes]) -> list[tuple[str, int, float, bool]]:
    """(name, rows that differ, largest |cell change|, all at omega < 0) for
    every *.csv artifact that both sides wrote and that differs."""
    names = sorted(n for n in set(base) & set(head) if n.endswith(".csv") and base[n] != head[n])
    return [(name, *_csv_move(base[name], head[name])) for name in names]


def _sweep_rows(body: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(body.decode())))


def _gap_move(base: dict[str, bytes], head: dict[str, bytes]) -> float | None:
    """Largest |change| in rad/s over gap.json's sector eigenvalues, first gap
    and reachable gap; None unless both sides wrote gap.json."""
    if "gap.json" not in base or "gap.json" not in head:
        return None
    b, h = json.loads(base["gap.json"]), json.loads(head["gap.json"])
    pairs = list(zip(b["sector_eigenvalues_rad_s"], h["sector_eigenvalues_rad_s"]))
    pairs += [(b[key], h[key]) for key in ("gap_first_rad_s", "reachable_gap_rad_s")]
    return max(abs(y - x) for x, y in pairs)


def _fit_moves(base: dict[str, bytes], head: dict[str, bytes]) -> list[str]:
    """How far the fitted quantities moved between the two sides' artifacts."""
    moves = []
    if "result.json" in base and "result.json" in head:
        b, h = json.loads(base["result.json"]), json.loads(head["result.json"])
        shift = abs(h["delta_exp_rad_s"] - b["delta_exp_rad_s"]) / b["epsilon_ft_rad_s"]
        moves.append(f"|d delta_exp|/eps_ft {shift:.2e}")
        if b["residual_norm"]:
            change = (h["residual_norm"] - b["residual_norm"]) / b["residual_norm"]
            moves.append(f"residual_norm {change:+.2e} rel")
        if h["converged"] != b["converged"]:
            moves.append(f"converged {b['converged']} -> {h['converged']}")
        moves.append(f"reachable_level {b['reachable_level']} -> {h['reachable_level']}")
        moves.append(f"|d delta_exact| {abs(h['delta_exact_rad_s'] - b['delta_exact_rad_s']):.2e} rad/s")
    if "sweep.csv" in base and "sweep.csv" in head:
        b_rows, h_rows = _sweep_rows(base["sweep.csv"]), _sweep_rows(head["sweep.csv"])
        shifts, flips = [], []
        for b, h in zip(b_rows, h_rows):
            if b["delta_exp_rad_s"] and h["delta_exp_rad_s"]:
                shift = abs(float(h["delta_exp_rad_s"]) - float(b["delta_exp_rad_s"]))
                eps = b.get("epsilon_ft_rad_s")
                shifts.append(shift / float(eps) if eps else shift)
            if h["converged"] != b["converged"]:
                key = "t0_s" if "t0_s" in b else "point"
                flips.append(f"{key} {b[key]}: converged {b['converged']} -> {h['converged']}")
        if shifts:
            unit = "/eps_ft" if "epsilon_ft_rad_s" in b_rows[0] else " rad/s"
            moves.append(f"max |d delta_exp|{unit} {max(shifts):.2e}")
        moves += flips
    if "sweep_summary.json" in base and "sweep_summary.json" in head:
        b, h = json.loads(base["sweep_summary.json"]), json.loads(head["sweep_summary.json"])
        if b["offset_exponent"] is not None and h["offset_exponent"] is not None:
            moves.append(f"d offset_exponent {h['offset_exponent'] - b['offset_exponent']:+.2e}")
    gap = _gap_move(base, head)
    if gap is not None:
        moves.append(f"max |d gap.json| {gap:.2e} rad/s")
    return moves


def _tally(
    base: dict[str, bytes], head: dict[str, bytes]
) -> tuple[list[float], list[float], list[float], list[float], int, int]:
    """What the summary line counts for one case: every |delta_exp change| in
    units of epsilon_ft (result.json and t0-sweep rows), every |change| of
    the offset exponent, the gap.json move in rad/s, the largest |cell
    change| of each differing CSV artifact, and the number of converged
    flips and of reachable-level changes (result.json and gap.json)."""
    shifts, exponents, flips, levels = [], [], 0, 0
    gap = _gap_move(base, head)
    gaps = [] if gap is None else [gap]
    cells = [move for _, _, move, _ in _csv_moves(base, head)]
    for name in ("result.json", "gap.json"):
        if name in base and name in head:
            b, h = json.loads(base[name]), json.loads(head[name])
            levels += b["reachable_level"] != h["reachable_level"]
            if name == "result.json":
                shifts.append(abs(h["delta_exp_rad_s"] - b["delta_exp_rad_s"]) / b["epsilon_ft_rad_s"])
                flips += b["converged"] != h["converged"]
    if "sweep.csv" in base and "sweep.csv" in head:
        for b, h in zip(_sweep_rows(base["sweep.csv"]), _sweep_rows(head["sweep.csv"])):
            flips += b["converged"] != h["converged"]
            if b["delta_exp_rad_s"] and h["delta_exp_rad_s"] and b.get("epsilon_ft_rad_s"):
                shift = abs(float(h["delta_exp_rad_s"]) - float(b["delta_exp_rad_s"]))
                shifts.append(shift / float(b["epsilon_ft_rad_s"]))
    if "sweep_summary.json" in base and "sweep_summary.json" in head:
        b, h = json.loads(base["sweep_summary.json"]), json.loads(head["sweep_summary.json"])
        if b["offset_exponent"] is not None and h["offset_exponent"] is not None:
            exponents.append(abs(h["offset_exponent"] - b["offset_exponent"]))
    return shifts, exponents, gaps, cells, flips, levels


def summarize(differing: list[tuple[str, Outcome, Outcome]]) -> str:
    """One line over every differing (label, base, head) case: the worst
    |delta_exp change|/epsilon_ft, the worst |offset exponent change|, the
    worst gap.json move in rad/s and the worst |CSV cell change|, each with
    its case, and how many exit codes, converged flags, reachable levels and
    stderr streams changed."""
    worst = {"|d delta_exp|/eps_ft": (0.0, ""), "|d offset_exponent|": (0.0, ""), "|d gap.json|": (0.0, ""),
             "|d csv cell|": (0.0, "")}
    units = {"|d gap.json|": " rad/s"}
    exits = flips = levels = stderrs = 0
    for label, base, head in differing:
        shifts, exponents, gaps, cells, case_flips, case_levels = _tally(base[3], head[3])
        for key, values in zip(worst, (shifts, exponents, gaps, cells)):
            if values and max(values) > worst[key][0]:
                worst[key] = (max(values), label)
        exits += base[0] != head[0]
        stderrs += base[2] != head[2]
        flips += case_flips
        levels += case_levels
    parts = [
        f"worst {key} {value:.2e}{units.get(key, '')}" + (f" ({label})" if label else "")
        for key, (value, label) in worst.items()
    ]
    parts.append(f"changed: exit {exits}, converged {flips}, reachable_level {levels}, stderr {stderrs}")
    return f"summary of {len(differing)} differing: " + "; ".join(parts)


def describe(base: Outcome, head: Outcome) -> list[str]:
    """Lines saying what differs between two outcomes of the same case."""
    lines = []
    if base[0] != head[0]:
        lines.append(f"exit {base[0]} -> {head[0]}")
    if base[1] != head[1]:
        lines.append("stdout differs")
    if base[2] != head[2]:
        lines.append("stderr differs")
    names = sorted(set(base[3]) | set(head[3]))
    changed = [n for n in names if base[3].get(n) != head[3].get(n)]
    if changed:
        lines.append("files differ: " + ", ".join(changed))
    for name, rows, move, negative in _csv_moves(base[3], head[3]):
        where = (", all at omega < 0" if negative else ", not all at omega < 0") if name == "spectrum.csv" else ""
        lines.append(f"{name}: rows differing {rows}, max |d cell| {move:.2e}{where}")
    moves = _fit_moves(base[3], head[3])
    if moves:
        lines.append("; ".join(moves))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", nargs="+", default=["ideal-spectro", "pulse-program"])
    args = parser.parse_args()
    cases = []
    for workload in args.workload:
        cycle, warmup = generate(workload, args.seed)
        cases += [(f"{workload}: {op.label}", op.argv) for op in cycle + warmup if op.argv]
    cases += [(" ".join(argv), argv) for argv in grid()]
    differing = []
    for label, argv in cases:
        base = run(args.base / "src", argv)
        head = run(HERE / "src", argv)
        same = base == head
        print(f"{'same  ' if same else 'DIFFER'} exit {head[0]} files {len(head[3])}  {label}")
        if not same:
            differing.append((label, base, head))
            for line in describe(base, head):
                print(f"        {line}")
    print(f"{len(cases) - len(differing)} of {len(cases)} cases byte-identical")
    print(summarize(differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
