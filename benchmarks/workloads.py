"""Seeded op lists for the three benchmark workloads.

Each workload is a fixed cycle of ops that the driver repeats in a closed
loop. The seed decides every input the program sees: noise levels and noise
seeds, dephasing times, pulse widths, random models, and the order of the
cycle. The cycle's composition (how many ops of each kind and size) does not
depend on the seed, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PI = math.pi

WORKLOADS = ("ideal-spectro", "pulse-program", "oracle-scale")


@dataclass(frozen=True)
class Model:
    """Pairing model as the oracle sees it: on-site frequencies nu_m and the
    coupling matrix V_ml in rad/s, times an overall convention factor."""

    nu: tuple[float, ...]
    coupling: tuple[tuple[float, ...], ...]
    factor: float = 1.0

    @property
    def n(self) -> int:
        return len(self.nu)


# The bundled instances, restated from the package documentation so that the
# oracle never reads its reference data from pairgap itself.
J_HZ = ((0.0, 224.0, 50.0), (224.0, 0.0, -311.0), (50.0, -311.0, 0.0))
_NU = (150 * PI, 100 * PI, 50 * PI)
PRESETS = {
    "h1": Model(_NU, tuple(tuple(PI * j for j in row) for row in J_HZ), 1.0),
    "h2": Model(_NU, ((0.0, 224 * PI, 0.0), (224 * PI, 0.0, 0.0), (0.0, 0.0, 0.0)), 2.0),
}
PRESET_PLAN = {"h1": (2e-3, 2), "h2": (0.5e-3, 2)}
PRESET_PAIRS = 2  # default run.init is |011>

# The t0 sweep on h1 at held Fourier precision, so Q goes 800, 400, 200, 100.
SWEEP_T0 = (0.5e-3, 1e-3, 2e-3, 4e-3)
# Convergence grid on the small random models.
CONV_T0 = (0.25e-3, 0.5e-3, 1e-3)
CONV_K = (1, 2, 4)
# One gap-exact op per size. n = 9 takes about 2 s per op, so a 30 s run
# would time it only about ten times; n = 10 takes about 11 s.
ORACLE_SIZES = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Op:
    """One user-level call. CLI ops carry their argv (the driver appends
    --out); convergence ops call trotter.convergence_sweep directly."""

    kind: str  # run | sweep | gap-exact | convergence
    label: str
    model: Model
    pairs: int
    argv: tuple[str, ...] = ()
    t0: float = 0.0
    k: int = 0
    q: int = 0
    method: str = "ideal"
    pulse_mode: str = "delta"
    t_pi: float = 20e-6
    t0_values: tuple[float, ...] = ()
    k_values: tuple[int, ...] = ()


def _overrides(items: list[str]) -> tuple[str, ...]:
    out: list[str] = []
    for item in items:
        out += ["--override", item]
    return tuple(out)


def _preset_run(preset: str, label: str, items: list[str], q: int = 200, method: str = "ideal",
                pulse_mode: str = "delta", t_pi: float = 20e-6) -> Op:
    t0, k = PRESET_PLAN[preset]
    items = [f"run.q={q}", f"run.method={method}", f"run.pulse_mode={pulse_mode}"] + items
    return Op(
        kind="run", label=f"{preset} {label}", model=PRESETS[preset], pairs=PRESET_PAIRS,
        argv=("run", "--preset", preset) + _overrides(items), t0=t0, k=k, q=q, method=method, pulse_mode=pulse_mode, t_pi=t_pi,
    )


def _ideal_spectro(rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    ops = []
    for preset in ("h1", "h2"):
        for damping in ("off", "on"):
            for q in (200, 400):
                items = [f"run.damping={damping}"]
                if damping == "on":
                    items.append(f"machine.t2_s={rng.uniform(0.2, 0.3)!r}")
                ops.append(_preset_run(preset, f"damping={damping} q={q}", items, q=q))
    for preset, damping in (("h1", "on"), ("h1", "off"), ("h2", "on"), ("h2", "off")):
        items = [
            f"run.damping={damping}",
            f"noise.amplitude={rng.uniform(0.005, 0.02)!r}",
            f"noise.seed={int(rng.integers(2**31))}",
        ]
        ops.append(_preset_run(preset, f"damping={damping} noise", items))
    t0, k = PRESET_PLAN["h1"]
    ops.append(Op(
        kind="sweep", label="h1 sweep t0", model=PRESETS["h1"], pairs=PRESET_PAIRS,
        argv=("sweep", "--preset", "h1", "--vary", "plan.t0_s=" + ",".join(f"{x:g}" for x in SWEEP_T0)),
        t0=t0, k=k, q=200, t0_values=SWEEP_T0,
    ))
    warmup = [_preset_run("h2", "warm-up", ["run.damping=on"])]
    return ops, warmup


def _pulse_program(rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    def run(preset: str, method: str, mode: str, extra: list[str], tag: str) -> Op:
        t_pi = float(rng.uniform(16e-6, 24e-6))
        items = ["run.damping=on", f"machine.t_pi_s={t_pi!r}", f"machine.t2_s={rng.uniform(0.2, 0.3)!r}"]
        return _preset_run(preset, f"{method} {mode}{tag}", items + extra, method=method,
                           pulse_mode=mode, t_pi=t_pi)

    ops = [
        run(preset, method, mode, [], "")
        for preset in ("h1", "h2") for method in ("w1", "w2") for mode in ("delta", "finite")
    ]
    ops += [
        run(preset, method, "finite", ["schedule.evolver=nmr"], " evolver=nmr")
        for preset in ("h1", "h2") for method in ("w1", "w2")
    ]
    warmup = [run("h2", "w1", "delta", [], " warm-up"), run("h2", "w1", "finite", [], " warm-up")]
    return ops, warmup


def random_model(rng: np.random.Generator, n: int) -> Model:
    """Dense random pairing model with preset-like scales: nu/2pi in
    [20, 80] Hz and every V_ml/2pi in [10, 60] Hz."""
    nu = tuple(float(x) for x in 2 * PI * rng.uniform(20.0, 80.0, n))
    v = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = v[j, i] = 2 * PI * rng.uniform(10.0, 60.0)
    return Model(nu, tuple(tuple(float(x) for x in row) for row in v))


def _gap_exact(rng: np.random.Generator, model: Model, tag: str) -> Op:
    n = model.n
    pairs = n // 2
    filled = set(int(i) for i in rng.choice(n, size=pairs, replace=False))
    init = "".join("1" if i in filled else "0" for i in range(n))
    items = ["model.nu_rad_s=" + ",".join(repr(x) for x in model.nu), f"run.init={init}"]
    items += [
        f"model.v_{i + 1}_{j + 1}_rad_s={model.coupling[i][j]!r}"
        for i in range(n) for j in range(i + 1, n)
    ]
    return Op(kind="gap-exact", label=f"gap-exact n={n}{tag}", model=model, pairs=pairs,
              argv=("gap-exact",) + _overrides(items))


def _convergence(model: Model, tag: str) -> Op:
    return Op(kind="convergence", label=f"convergence n={model.n}{tag}", model=model, pairs=0,
              t0_values=CONV_T0, k_values=CONV_K)


def _oracle_scale(rng: np.random.Generator) -> tuple[list[Op], list[Op]]:
    ops = []
    for n in ORACLE_SIZES:
        model = random_model(rng, n)
        ops.append(_gap_exact(rng, model, ""))
        if n <= 6:
            ops.append(_convergence(model, ""))
    small = random_model(rng, 4)
    warmup = [_gap_exact(rng, small, " warm-up"), _convergence(small, " warm-up")]
    return ops, warmup


_BUILDERS = {
    "ideal-spectro": _ideal_spectro,
    "pulse-program": _pulse_program,
    "oracle-scale": _oracle_scale,
}


def generate(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(cycle, warm-up ops) for one workload; the cycle is shuffled by the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops, warmup = _BUILDERS[workload](rng)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], warmup
