"""Batch driver.

Subcommands:
    presets     list built-in instances and their default parameters
    gap-exact   exact sector eigenvalues and gaps for a configured model
    run         full pipeline; writes timeseries/spectrum/populations/result
    sweep       repeat run over one varied key; writes combined CSV + summary
    estimate    resource-scaling table over (n, epsilon/delta)
    compile     dump the pulse program for the configured step

Exit codes: 0 success, 2 configuration error, 3 fit did not converge,
4 internal contract violation, 5 the prepared state holds no excited level
above run.population_floor.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

from . import presets
from .adiabatic import prepare, sector_population_report
from .config import ConfigError, ExperimentConfig, build_config, check_key
from .exact import LineIdentityError, Ramp, computational_state, reachable_gap
from .nmr import compile_trotter_step, wall_time
from .pipeline import (
    grid_to_csv,
    json_text,
    program_to_text,
    result_record,
    run_experiment,
    sweep_points_to_csv,
    sweep_rows_to_csv,
    sweep_t0,
    write_run_artifacts,
    write_text,
)
from .resources import max_feasible_n

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4
EXIT_LINE = 5


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--preset", choices=presets.PRESET_NAMES, help="built-in instance")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config entry overriding file and preset (repeatable)",
    )
    sub.add_argument("--out", help="output directory (default: current directory)")


def _config_text(args: argparse.Namespace) -> str | None:
    if not args.config:
        return None
    try:
        with open(args.config, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {args.config}: {exc}") from None


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    return build_config(args.preset, _config_text(args), tuple(args.override))


def _emit(args: argparse.Namespace, filename: str, body: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, filename), body)
    else:
        sys.stdout.write(body)


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in presets.PRESET_NAMES:
        model = presets.pairing_model(name)
        d = presets.DEFAULTS[name]
        nu_hz = ", ".join(f"{x / (2 * math.pi):g}" for x in model.nu)
        print(f"{name}: n={model.n}, nu/2pi = [{nu_hz}] Hz, convention_factor={model.convention_factor:g}")
        couplings = [
            f"V{i + 1}{j + 1}/2pi={model.coupling[i, j] / (2 * math.pi):g} Hz"
            for i in range(model.n)
            for j in range(i + 1, model.n)
            if model.coupling[i, j] != 0.0
        ]
        print(f"  couplings: {', '.join(couplings)}")
        print(
            f"  defaults: t0={d['t0']:g} s, k={d['k']}, Q={ExperimentConfig.q}, "
            f"S={presets.SCHEDULE_STEPS}, t_ad={presets.SCHEDULE_T_AD:g} s, "
            f"init=|{presets.INIT_BITS}>, observed spin {presets.OBSERVED_SPIN}"
        )
    return EXIT_OK


def _cmd_gap_exact(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ramp = Ramp(cfg.model, cfg.schedule_steps, cfg.pairs)
    init = computational_state(cfg.model.n, cfg.init_index)
    prepared = prepare(ramp, init, cfg.t_ad, check_adiabaticity=False)
    values = ramp.values[-1]
    level, gap = reachable_gap(sector_population_report(ramp, prepared), cfg.population_floor)
    record = {
        "pairs": ramp.pairs,
        "sector_eigenvalues_rad_s": [float(v) for v in values],
        "gap_first_rad_s": float(values[1] - values[0]),
        "gap_first_over_2pi_hz": float(values[1] - values[0]) / (2 * math.pi),
        "reachable_level": level,
        "reachable_gap_rad_s": gap,
        "reachable_gap_over_2pi_hz": gap / (2 * math.pi),
        "convention_factor": cfg.model.convention_factor,
    }
    _emit(args, "gap.json", json_text(record))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg)
    out_dir = args.out or "."
    write_run_artifacts(result, out_dir)
    record = result_record(result)
    print(
        f"delta_exp/2pi = {record['delta_exp_over_2pi_hz']:.4f} Hz, "
        f"delta_exact/2pi = {record['delta_exact_over_2pi_hz']:.4f} Hz, "
        f"offset = {record['systematic_offset_rad_s'] / (2 * math.pi):+.4f} * 2pi rad/s, "
        f"epsilon_ft = {record['epsilon_ft_rad_s'] / (2 * math.pi):.4f} * 2pi rad/s"
    )
    return EXIT_OK if result.fit.converged else EXIT_NO_CONVERGENCE


def _parse_vary(vary: str) -> tuple[str, list[str]]:
    if "=" not in vary:
        raise ConfigError("--vary: expected KEY=V1,V2,...")
    key, _, values = vary.partition("=")
    key = key.strip()
    points = [v.strip() for v in values.split(",") if v.strip()]
    if not points:
        raise ConfigError("--vary: empty value grid")
    return key, points


def _cmd_sweep(args: argparse.Namespace) -> int:
    key, points = _parse_vary(args.vary)
    check_key(key)
    base_text = _config_text(args)
    cfg = build_config(args.preset, base_text, tuple(args.override))
    if key == "plan.t0_s":
        try:
            t0_values = [float(p) for p in points]
        except ValueError:
            raise ConfigError("--vary: plan.t0_s values must be numbers") from None
        result = sweep_t0(cfg, t0_values, hold_epsilon_ft=not args.no_hold_epsilon_ft)
        _emit(args, "sweep.csv", sweep_rows_to_csv(result.rows))
        summary = {
            "varied": key,
            "offset_exponent": result.offset_exponent,
            "hold_epsilon_ft": not args.no_hold_epsilon_ft,
        }
        _emit(args, "sweep_summary.json", json_text(summary))
        return EXIT_OK
    # Generic axis: rebuild the config per point through the override path.
    runs = []
    for p in points:
        try:
            point_cfg = build_config(args.preset, base_text, tuple(args.override) + (f"{key}={p}",))
            runs.append((p, run_experiment(point_cfg)))
        except Exception as exc:  # noqa: BLE001 - recorded per row
            runs.append((p, exc))
    _emit(args, "sweep.csv", sweep_points_to_csv(runs))
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    try:
        n_list = [int(x) for x in args.n.split(",")]
        ratios = [float(x) for x in args.eps_over_delta.split(",")]
        body = grid_to_csv(n_list, ratios, args.t_g_over_tau, args.budget)
        n_max = [max_feasible_n(1.0, ratio, args.t_g_over_tau, args.budget) for ratio in ratios]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"estimate: {exc}") from None
    _emit(args, "resources.csv", body)
    for ratio, n in zip(ratios, n_max):
        print(f"eps/delta = {ratio:g}: max feasible n = {n}")
    return EXIT_OK


def _cmd_compile(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    method = cfg.compile_method
    program = compile_trotter_step(cfg.model, cfg.plan, method, cfg.machine)
    body = program_to_text(program, cfg.machine.t_pi)
    _emit(args, "program.txt", body)
    for warning in program.clamp_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"{method} program: {len(program.events)} events, "
        f"wall = {wall_time(program, cfg.machine.t_pi):.6g} s",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairgap", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("presets", help="list built-in instances")

    for name, fn_help in (
        ("gap-exact", "exact sector spectrum and gaps"),
        ("run", "full estimation pipeline"),
        ("compile", "dump the compiled pulse program"),
    ):
        sub = subs.add_parser(name, help=fn_help)
        _add_config_flags(sub)

    sweep = subs.add_parser("sweep", help="run over a parameter grid")
    _add_config_flags(sweep)
    sweep.add_argument("--vary", required=True, metavar="KEY=V1,V2,...")
    sweep.add_argument(
        "--no-hold-epsilon-ft",
        action="store_true",
        help="do not co-vary run.q to keep the Fourier precision fixed on t0 sweeps",
    )

    est = subs.add_parser("estimate", help="resource scaling table")
    est.add_argument("--n", default="1,2,3,4,5,6,7,8,9,10", help="comma list of qubit counts")
    est.add_argument("--eps-over-delta", default="1,0.01", help="comma list of precision ratios")
    est.add_argument("--t-g-over-tau", type=float, default=1e-5)
    est.add_argument("--budget", type=float, default=1.0)
    est.add_argument("--out")
    return parser


_COMMANDS = {
    "presets": _cmd_presets,
    "gap-exact": _cmd_gap_exact,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "compile": _cmd_compile,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process: a parse copies the --override default list."""
    return build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per warning, as clamp warnings are printed: no source
    path or line, so stderr does not depend on where the warning was raised."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # The warning filters still decide what shows: by default each
        # distinct warning once per invocation.
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LineIdentityError as exc:
        print(f"line error: {exc}", file=sys.stderr)
        return EXIT_LINE
    except Exception as exc:  # noqa: BLE001 - contract violations exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
