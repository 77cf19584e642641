"""pairgap benchmark driver.

    python3 benchmarks/run.py --workload ideal-spectro --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

One process runs one workload as a closed loop with one client: the next op
starts when the previous one returns. An op is one user-level call,
pairgap.cli.main(argv) in-process for run, sweep and gap-exact, and
trotter.convergence_sweep for the convergence case. The loop repeats whole
cycles of the workload's op list until --seconds have passed, and checks
every op's outputs against an independent oracle between ops.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced cycles and reports per-layer metrics from the traced ones. The last
line of standard output is the result as JSON; the lines before it give every
metric by name with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("ideal-spectro", "pulse-program", "oracle-scale")
SETUP_PROBES = 5
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _cap_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread, and return the number of cores this
    process may use. Must run before numpy is imported. On a few shared cores
    a second BLAS thread waits on the host's scheduler: a 32 x 32 eigh then
    takes up to a hundred times its one-thread time."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def _clear(directory: Path) -> None:
    for entry in os.scandir(directory):
        os.unlink(entry.path)


def _dir_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory))


class Bench:
    """One workload's op cycle, its output slots, the checker and, for
    traced runs, the tracer."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import numpy as np
        import pairgap
        import pairgap.cli
        from oracle import Checker
        from workloads import generate

        if Path(pairgap.__file__).resolve().parent != (src / "pairgap").resolve():
            raise ImportError(f"pairgap was imported from {pairgap.__file__}, not from {src}")
        self.np = np
        self.pg = pairgap
        self.cycle, self.warmup = generate(workload, seed)
        self.checker = Checker(pairgap)
        self.tracer = None
        # Program-side models for the direct convergence_sweep calls.
        self.models = {
            op: pairgap.hamiltonian.PairingModel(op.model.nu, np.array(op.model.coupling), op.model.factor)
            for op in self.cycle + self.warmup if op.kind == "convergence"
        }
        self.slots = []
        for i in range(len(self.cycle)):
            self.slots.append(work_dir / f"op{i:02d}")
            self.slots[-1].mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []  # failed timed ops
        self.problems: list[str] = []  # failed warm-up ops and trace checks
        self.runs: list[dict] = []
        for op in self.warmup:
            self._execute(op, self.slots[0], traced=False, timed=False)

    def _call(self, op, out_dir: Path):
        if op.kind == "convergence":
            try:
                return self.pg.trotter.convergence_sweep(self.models[op], list(op.t0_values), list(op.k_values))
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                return exc
        return self.pg.cli.main(list(op.argv) + ["--out", str(out_dir)])

    def _execute(self, op, out_dir: Path, traced: bool, timed: bool = True) -> float:
        _clear(out_dir)
        sink = io.StringIO()
        if traced:
            self.tracer.op_id += 1
            self.tracer.active = True
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = self._call(op, out_dir)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.active = False
            self.tracer.end_op(_dir_bytes(out_dir))
        verdict = self.checker.check(op, outcome, str(out_dir))
        if "error" in verdict:
            (self.failures if timed else self.problems).append(f"{op.label}: {verdict['error']}")
        if timed:
            self.attempted += 1
            if op.kind == "run" and "error" not in verdict:
                self.runs.append(verdict)
        return elapsed

    def run_cycle(self, traced: bool = False) -> list[float]:
        """Run the op list once; returns each op's seconds, in list order."""
        return [self._execute(op, slot, traced) for op, slot in zip(self.cycle, self.slots)]


def _best(cycles: list[list[float]]) -> list[float]:
    """Each op's best (lowest) time over the cycles. The host's speed drifts
    by tens of percent within a minute, and an op's best time is the
    statistic that drift disturbs least."""
    return [min(times) for times in zip(*cycles)]


def _host_loop_s() -> float:
    """Seconds for a fixed pure-Python loop. Its best and median over a run
    show how fast the host ran while the run was measured."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its being ready for the
    first timed op: interpreter start, imports, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def _environment(bench: Bench, args, nproc: int) -> dict:
    blas = bench.np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": bench.np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "ops_per_cycle": len(bench.cycle),
    }


def _print_table(rows: list[tuple]) -> None:
    for name, value, unit, better, note in rows:
        print(f"{name:<44} {value:>14.6g} {unit:<6} {better:<7} {note}")


def _measure(bench: Bench, args) -> tuple[dict, list[tuple], dict]:
    start = time.perf_counter()
    cycles, host = [], []
    while not cycles or time.perf_counter() - start < args.seconds:
        cycles.append(bench.run_cycle())
        host.append(_host_loop_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(_probe_setup(args) for _ in range(SETUP_PROBES))
    best = _best(cycles)
    ops, m = len(best), len(cycles)
    raw = [t for cycle in cycles for t in cycle]
    tail, pct = _tail(raw)
    values = {
        "ops_per_s": ops / sum(best),
        "op_ms.p50": 1e3 * statistics.median(best),
        "op_ms.tail": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    of = f"{ops} ops, each best of {m}"
    notes = {
        "ops_per_s": f"op list of {ops} at best times; {ops * m} ops run",
        "op_ms.p50": of,
        "op_ms.tail": f"p{pct:.2f} of all {len(raw)} op times",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "peak_rss_mb": "this process",
    }
    rows = [(name, values[name], unit, better, notes[name]) for name, unit, better in END_TO_END]
    rows.append(("op_ms.p50_all", 1e3 * statistics.median(raw), "ms", "lower", f"all {len(raw)} op times"))
    n = bench.attempted
    rows.append(("error_frac", len(bench.failures) / n, "ratio", "lower", f"{len(bench.failures)}/{n}"))
    if bench.runs:
        converged = sum(r["converged"] for r in bench.runs)
        rows.append(("fit_converged_frac", converged / len(bench.runs), "ratio", "higher",
                     f"{converged}/{len(bench.runs)} run ops exit 0"))
        rows.append(("offset_bins.max", max(r["offset_bins"] for r in bench.runs), "bins", "lower",
                     "max |delta_exp - delta_exact| / eps_ft"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    host_env = {"host_loop_ms_best": round(1e3 * min(host), 3),
                "host_loop_ms_median": round(1e3 * statistics.median(host), 3)}
    return metrics, rows, host_env


def _measure_traced(bench: Bench, args) -> tuple[dict, list[tuple], dict]:
    from tracing import LAYER_METRICS, Tracer, layer_metrics, repeatable_counts

    bench.tracer = tracer = Tracer()
    untraced, traced, records = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run_cycle())
        tracer.install()
        tracer.start_cycle()
        traced.append(bench.run_cycle(traced=True))
        records.append(tracer.end_cycle())
        tracer.remove()
        if len(records) >= 2 and time.perf_counter() - start >= args.seconds:
            break
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    counts = [repeatable_counts(r) for r in records]
    if any(c != counts[0] for c in counts[1:]):
        bench.problems.append("traced cycles of one op list gave different counts")
    overhead = sum(_best(traced)) / sum(_best(untraced)) - 1.0
    values = layer_metrics(records, overhead)
    rows = [(name, values[name], unit, better, "") for name, unit, better in LAYER_METRICS]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    return metrics, rows + [("cycles", len(records), "count", "-", "traced; as many untraced")], {}


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    nproc = _cap_blas_threads()
    work_dir = WORK / f"run-{os.getpid()}"
    if not (ROOT / "src" / "pairgap" / "__init__.py").is_file():
        print(f"error: no pairgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        measure = _measure_traced if args.trace else _measure
        metrics, rows, extra_env = measure(bench, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = bench.attempted
    failed = len(bench.failures)
    for problem in (bench.failures + bench.problems)[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    env = _environment(bench, args, nproc)
    env.update(extra_env, ops=attempted, failed=failed)
    print("env " + json.dumps(env, sort_keys=True))
    _print_table(rows)
    print(json.dumps({"correct": not (bench.failures or bench.problems), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
