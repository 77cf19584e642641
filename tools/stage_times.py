"""Per-stage times of one benchmark workload's cycle, measured in-process.

    python tools/stage_times.py --workload pulse-program --seed 4242 --repeat 7
    python tools/stage_times.py --workload ideal-spectro --seed 4242 --src ../parent/src

Runs every run and sweep op of the workload's cycle (benchmarks/workloads.py)
through `pairgap.cli.main` in this process, writing into a scratch
directory, with BLAS on one thread as in the benchmark. Each stage is a
pairgap function wrapped in a timer that charges a call its own time, less
the time of the timed calls inside it:

    compile              nmr.StepCompiler.compile
    build                nmr.EventTable._build_all (the stacked event build)
    ramp apply           nmr.simulate_program (a compiled preparation, event by event)
    acquisition compose  nmr.program_unitary (the compiled step's unitary)
    ideal step           trotter.symmetric3_step
    ramp eigensolve      exact.Ramp.__init__
    acquire, dft, fit    spectroscopy.acquire, .dft, .fit_damped_sinusoid
    artifacts            pipeline.write_run_artifacts

"other" is the rest of the cycle: config, CLI, the preparation's
projection and the level pick. Each figure is the best over --repeat
cycles, in ms per cycle; the last line of output is the result as JSON.
`--src` times another checkout's package (for a before and after split);
every name above exists in both.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent.parent
STAGES = (
    ("compile", "nmr", "StepCompiler.compile"),
    ("build", "nmr", "EventTable._build_all"),
    ("ramp apply", "nmr", "simulate_program"),
    ("acquisition compose", "nmr", "program_unitary"),
    ("ideal step", "trotter", "symmetric3_step"),
    ("ramp eigensolve", "exact", "Ramp.__init__"),
    ("acquire", "spectroscopy", "acquire"),
    ("dft", "spectroscopy", "dft"),
    ("fit", "spectroscopy", "fit_damped_sinusoid"),
    ("artifacts", "pipeline", "write_run_artifacts"),
)


class StageTimer:
    """Own-time totals per stage; a timed call inside another is charged to
    its own stage only."""

    def __init__(self):
        self.totals = {name: 0.0 for name, _, _ in STAGES}
        self._inner: list[float] = []

    def wrap(self, stage: str, fn):
        totals, inner = self.totals, self._inner

        def timed(*args, **kwargs):
            inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                totals[stage] += spent - inner.pop()
                if inner:
                    inner[-1] += spent

        return timed

    def install(self) -> None:
        """Wrap every stage where it is defined and in every pairgap module
        that imported it by name."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pairgap"]
        for stage, module_name, qualname in STAGES:
            module = importlib.import_module(f"pairgap.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            timed = self.wrap(stage, original)
            setattr(owner, attr, timed)
            if not owner_name:
                for other in modules:
                    if getattr(other, attr, None) is original:
                        setattr(other, attr, timed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pulse-program", "ideal-spectro"), default="pulse-program")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--repeat", type=int, default=7, help="cycles to time; each figure is the best of them")
    parser.add_argument("--src", type=Path, default=HERE / "src", help="source directory of the package to time")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(HERE / "benchmarks"))
    import pairgap.cli
    from workloads import generate

    cycle, warmup = generate(args.workload, args.seed)
    ops = [op for op in cycle if op.kind in ("run", "sweep")]
    timer = StageTimer()
    timer.install()
    best: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as out:

        def run(op) -> None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = pairgap.cli.main(list(op.argv) + ["--out", out])
            if code not in (0, 3):  # 3: the fit did not converge, a timed outcome
                raise SystemExit(f"{op.label}: exit {code}")

        for op in warmup + ops:
            run(op)
        for _ in range(args.repeat):
            for name in timer.totals:
                timer.totals[name] = 0.0
            start = time.perf_counter()
            for op in ops:
                run(op)
            cycle_s = time.perf_counter() - start
            split = dict(timer.totals, other=cycle_s - sum(timer.totals.values()), cycle=cycle_s)
            for name, seconds in split.items():
                best[name] = min(best.get(name, seconds), seconds)

    ms = {name: round(1e3 * seconds, 3) for name, seconds in best.items()}
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops a cycle, best of {args.repeat} cycles, ms per cycle")
    for name, value in ms.items():
        print(f"  {name:<20} {value:10.3f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "repeat": args.repeat, "ops": len(ops),
                      "src": str(args.src), "best_ms": ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
