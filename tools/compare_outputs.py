"""Check that two source trees of pairgap give byte-identical CLI results.

For every op of the benchmark workloads at one seed, plus a fixed grid of
runs (h1/h2 x ideal/w1/w2 x delta/finite x every preparation evolver, and two
sweeps), both trees run `python -m pairgap.cli <argv> --out <dir>` in a fresh
process. The exit code, stdout and the bytes of every file written must agree.

    python tools/compare_outputs.py --base ../parent --seed 5151

`--base` is another checkout of this repository (for example made with
`git archive <commit>`); this checkout is the other side. BLAS runs on one
thread in both, as in the benchmark. Exit status is 0 when every case agrees.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "benchmarks"))

from workloads import generate  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    return cases


def run(src: Path, argv: tuple[str, ...]) -> tuple[int, str, dict[str, bytes]]:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "pairgap.cli", *argv, "--out", out],
            capture_output=True, text=True, env=env,
        )
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout.replace(out, "<out>"), files


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
    differ = 0
    for label, argv in cases:
        base = run(args.base / "src", argv)
        head = run(HERE / "src", argv)
        same = base == head
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'} exit {head[0]} files {len(head[2])}  {label}")
    print(f"{len(cases) - differ} of {len(cases)} cases byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
