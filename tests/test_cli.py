"""End-to-end CLI checks through subprocess, including exit codes."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pairgap.cli as cli
from pairgap.cli import main
from pairgap.config import build_config
from pairgap.nmr import compile_trotter_step
from pairgap.pipeline import program_to_text


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "pairgap.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


def test_presets_lists_both_instances():
    proc = run_cli("presets")
    assert proc.returncode == 0
    assert "h1" in proc.stdout and "h2" in proc.stdout
    assert "convention_factor" in proc.stdout


def test_run_prints_the_adiabaticity_warning_as_one_line(tmp_path):
    # Printed like a clamp warning: no source path or line, so stderr does
    # not move when the code that warns does.
    proc = run_cli("run", "--preset", "h1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: AdiabaticityWarning: minimum schedule gap ")
    assert ".py:" not in proc.stderr


def test_gap_exact_h1(tmp_path):
    proc = run_cli("gap-exact", "--preset", "h1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "gap.json").read_text())
    assert record["pairs"] == 2
    assert record["reachable_gap_over_2pi_hz"] == pytest.approx(217.46429804970757, rel=1e-12)
    assert record["gap_first_over_2pi_hz"] == pytest.approx(217.46429804970757, rel=1e-12)
    assert len(record["sector_eigenvalues_rad_s"]) == 3


def test_gap_exact_h2_skips_dark_level(tmp_path):
    proc = run_cli("gap-exact", "--preset", "h2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "gap.json").read_text())
    # first excited level carries no signal; the usable gap is the second one
    assert record["reachable_level"] == 2
    assert record["reachable_gap_over_2pi_hz"] == pytest.approx(450.78154354409861, rel=1e-12)
    assert record["gap_first_over_2pi_hz"] == pytest.approx(300.39077177204927, rel=1e-12)
    assert record["gap_first_over_2pi_hz"] < record["reachable_gap_over_2pi_hz"]


def test_gap_exact_lists_the_gap_a_run_reads_on_h1(tmp_path):
    # one decomposition of the model: gap-exact's first gap and reachable gap
    # and the run's exact gap are the same float
    assert main(["gap-exact", "--preset", "h1", "--out", str(tmp_path / "gap")]) == 0
    assert main(["run", "--preset", "h1", "--out", str(tmp_path / "run")]) == 0
    gap = json.loads((tmp_path / "gap" / "gap.json").read_text())
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert gap["reachable_level"] == result["reachable_level"] == 1
    assert gap["gap_first_rad_s"] == gap["reachable_gap_rad_s"] == result["delta_exact_rad_s"]


def test_run_default_h1_converges_on_rate_bound_exit_0(tmp_path):
    proc = run_cli("run", "--preset", "h1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("timeseries.csv", "spectrum.csv", "populations.csv", "result.json"):
        assert (tmp_path / name).exists(), name
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["converged"] is True
    # undamped series: the decay rate ends on its rate >= 0 bound
    assert record["tau_e_s"] == 1e12
    assert record["delta_exp_over_2pi_hz"] == pytest.approx(217.46, abs=6.0)
    assert "delta_exp/2pi" in proc.stdout

    ts = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "k,t_s,value,wall_s"
    assert len(ts) == 201


def test_run_damped_h1_exit_0(tmp_path):
    proc = run_cli("run", "--preset", "h1", "--override", "run.damping=on",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["converged"] is True
    assert record["damping"] is True
    assert record["tau_e_s"] > 0


def test_run_artifacts_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        proc = run_cli("run", "--preset", "h2", "--override", "run.damping=on",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    for name in ("timeseries.csv", "spectrum.csv", "populations.csv", "result.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bad_config_exit_2_names_key(tmp_path):
    proc = run_cli("run", "--preset", "h1", "--override", "plan.t0_s=-1",
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "plan.t0" in proc.stderr


def test_run_q_below_the_fit_minimum_exit_2(tmp_path, capsys):
    # the fit takes at least MIN_FIT_SAMPLES samples; fewer is a config error,
    # not an internal one after the acquisition
    assert main(["run", "--preset", "h1", "--override", "run.q=5", "--out", str(tmp_path / "five")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.q:") and "8" in err
    assert not (tmp_path / "five").exists()
    # eight samples run to the end; on h1 the fit then does not converge
    assert main(["run", "--preset", "h1", "--override", "run.q=8", "--out", str(tmp_path / "eight")]) == 3
    assert json.loads((tmp_path / "eight" / "result.json").read_text())["q"] == 8


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-1"])
def test_non_finite_or_negative_noise_amplitude_exit_2(tmp_path, capsys, amplitude):
    argv = ["run", "--preset", "h1", "--override", f"noise.amplitude={amplitude}", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "noise.amplitude: must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_noise_amplitude_with_an_infinite_range_exit_2(tmp_path, capsys):
    # 1e308 is finite, but the draw's range [-a, a] is 2e308 wide; at 8e307
    # it is finite and the run ends normally
    argv = ["run", "--preset", "h1", "--override", "noise.amplitude=1e308", "--out", str(tmp_path / "wide")]
    assert main(argv) == 2
    assert "noise.amplitude: must be finite and non-negative, and 2 * amplitude finite" in capsys.readouterr().err
    assert not (tmp_path / "wide").exists()
    argv = ["run", "--preset", "h1", "--override", "noise.amplitude=8e307", "--out", str(tmp_path / "ok")]
    assert main(argv) == 0
    assert (tmp_path / "ok" / "result.json").exists()


@pytest.mark.parametrize("overrides, message", [
    (("machine.t2_4_s=0.01",), "machine.t2_4_s: spin index must lie within 1..3"),
    (("machine.t2_1_s=0.01", "machine.t2_01_s=0.01"), "machine.t2_1_s: give machine.t2_1_s or machine.t2_01_s, not both"),
])
def test_per_spin_t2_key_off_the_register_or_given_twice_exit_2(tmp_path, capsys, overrides, message):
    argv = ["run", "--preset", "h1", "--override", "run.damping=on", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")
def test_per_spin_t2_key_with_a_leading_zero_damps_its_spin(tmp_path):
    records = []
    for key in ("machine.t2_1_s", "machine.t2_01_s"):
        out = tmp_path / key
        assert main(["run", "--preset", "h1", "--override", "run.damping=on", "--override", f"{key}=0.05",
                     "--out", str(out)]) == 0
        records.append((out / "result.json").read_text())
    assert records[0] == records[1]
    assert json.loads(records[0])["tau_e_s"] < 0.1  # the 0.25 s default fits about 0.26 s


def test_negative_noise_seed_exit_2(tmp_path, capsys):
    argv = ["run", "--preset", "h2", "--override", "noise.amplitude=0.01", "--override", "noise.seed=-1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "config error: noise.seed: must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_unknown_key_exit_2():
    proc = run_cli("gap-exact", "--preset", "h1", "--override", "model.mass=3")
    assert proc.returncode == 2
    assert "model.mass" in proc.stderr


def test_removed_exclude_dc_key_exit_2(capsys):
    assert main(["run", "--preset", "h1", "--override", "run.exclude_dc=on"]) == 2
    assert "run.exclude_dc: unknown configuration key" in capsys.readouterr().err


def test_run_on_a_spin_that_never_moves_exit_4(tmp_path):
    # h2's spin 3 is a spectator: its series is -1 to rounding and has no
    # tone, so the fit refuses it instead of reporting a converged 3e14 Hz
    proc = run_cli("run", "--preset", "h2", "--override", "run.observed_spin=3", "--out", str(tmp_path))
    assert proc.returncode == 4
    assert proc.stderr.startswith("internal error: ValueError: degenerate flat series")
    assert not (tmp_path / "result.json").exists()


def test_unrealizable_coupling_exit_4(tmp_path):
    cfgfile = tmp_path / "bare.cfg"
    cfgfile.write_text(
        "model.nu_hz = 75, 50\n"
        "model.v_1_2_hz = 30\n"
        "run.init = 01\n"
        "run.method = w1\n"
        "run.q = 16\n"
        "plan.t0_s = 1e-3\n"
    )
    proc = run_cli("run", "--config", str(cfgfile), "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "internal error" in proc.stderr and "unrealizable coupling" in proc.stderr


def test_coupled_spectator_pair_exit_4(tmp_path):
    cfgfile = tmp_path / "spectators.cfg"
    cfgfile.write_text(
        "model.nu_hz = 75, 50, 25, 37.5\n"
        "model.v_1_2_hz = 112\n"
        "machine.j_1_2_hz = 224\n"
        "machine.j_3_4_hz = 150\n"
        "run.init = 0101\n"
        "run.method = w1\n"
        "run.q = 16\n"
        "plan.t0_s = 0.5e-3\n"
    )
    proc = run_cli("run", "--config", str(cfgfile), "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "spectator spins 3,4" in proc.stderr


def test_coupled_pair_without_v_but_with_j_exit_4(tmp_path):
    cfgfile = tmp_path / "open_pair.cfg"
    cfgfile.write_text(
        "model.nu_hz = 75, 50, 25\n"
        "model.v_1_2_hz = 112\n"
        "model.v_2_3_hz = -155.5\n"
        "machine.j_1_2_hz = 224\n"
        "machine.j_2_3_hz = -311\n"
        "machine.j_1_3_hz = 50\n"
        "run.init = 011\n"
        "run.method = w1\n"
        "run.q = 16\n"
    )
    proc = run_cli("run", "--config", str(cfgfile), "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "coupled spins 1,3" in proc.stderr


def test_run_above_twelve_modes_exit_4(tmp_path):
    # one pair on a 13-mode chain: the pair sector is small, but the step and
    # the pulse table would be 2^13 x 2^13, so the run refuses before either
    n = 13
    cfgfile = tmp_path / "chain13.cfg"
    cfgfile.write_text(
        "model.nu_hz = " + ", ".join(str(100 + 10 * m) for m in range(n)) + "\n"
        + "".join(f"model.v_{m}_{m + 1}_hz = 20\n" for m in range(1, n))
        + "run.init = 1" + "0" * (n - 1) + "\n"
        "run.q = 16\n"
    )
    proc = run_cli("run", "--config", str(cfgfile), "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "internal error" in proc.stderr and "12" in proc.stderr


@pytest.mark.parametrize("command", ["run", "gap-exact"])
@pytest.mark.parametrize("model, bits", [
    (("--override", "model.nu_hz=120,250,330,410", "--override", "run.init=0000"), "0000"),
    (("--preset", "h1", "--override", "run.init=111"), "111"),
])
def test_init_in_a_one_state_sector_exit_2(command, model, bits, tmp_path, capsys):
    assert main([command, *model, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run.init: {bits} lies in a one-state pair sector"), err
    assert not list(tmp_path.iterdir())


def test_one_state_init_fails_sweep_rows_and_not_compile(tmp_path, capsys):
    chain = ("--override", "model.nu_hz=120,250,330,410", "--override", "run.init=0000")
    assert main(["sweep", *chain, "--vary", "plan.t0_s=1e-3,2e-3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all('"run.init: 0000 lies in a one-state pair sector' in row for row in rows)
    assert main(["compile", *chain, "--out", str(tmp_path)]) == 0


def test_presetless_model_without_init_fails_every_command_that_prepares(tmp_path, capsys):
    # a 4-mode model has no preset's init to fall back on; compile needs none
    chain = ("--override", "model.nu_hz=120,250,330,410")
    message = "run.init: required for a model without a preset unless n = 3"
    for command in ("run", "gap-exact"):
        assert main([command, *chain, "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any((tmp_path / command).glob("*"))
    assert main(["sweep", *chain, "--vary", "plan.t0_s=1e-3,2e-3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(f',"{message}"') for row in rows)
    assert main(["compile", *chain, "--out", str(tmp_path)]) == 0


def test_estimate_table_and_summary(tmp_path):
    proc = run_cli("estimate", "--n", "4,10", "--eps-over-delta", "0.01,1",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "resources.csv").read_text().splitlines()
    assert lines[0] == "n,eps_over_delta,gates,time_in_tau,feasible"
    table = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
    assert table[("4", "0.01")][-1] == "1"
    assert table[("10", "0.01")][-1] == "0"
    assert table[("10", "1.0")][-1] == "1"
    assert "eps/delta = 0.01: max feasible n = 4" in proc.stdout
    assert "eps/delta = 1: max feasible n = 13" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3,x"], "invalid literal for int()"),
        (["--eps-over-delta", "0"], "epsilon must be positive"),
        (["--n", "0"], "n must be >= 1"),
        (["--t-g-over-tau", "0"], "must be positive"),
        (["--eps-over-delta", "inf"], "every qubit count fits"),
        (["--n", "1" + "0" * 80], "too large to convert to float"),
    ],
)
def test_estimate_bad_input_exit_2(argv, message, capsys):
    assert main(["estimate", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("factor", ["0", "-0.0", "-1", "nan"])
@pytest.mark.parametrize("model", [("--preset", "h1"), ("--override", "model.nu_hz=10,20", "--override", "run.init=01")])
def test_invalid_convention_factor_exit_2(model, factor, capsys):
    assert main(["gap-exact", *model, "--override", f"model.convention_factor={factor}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "model.convention_factor" in err


def test_compile_program_round_trips(tmp_path):
    proc = run_cli("compile", "--preset", "h2", "--override", "run.method=w2",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "w2 program" in proc.stderr
    cfg = build_config(preset="h2", overrides=("run.method=w2",))
    program = compile_trotter_step(cfg.model, cfg.plan, "w2", cfg.machine)
    assert program.events
    assert (tmp_path / "program.txt").read_text() == program_to_text(program, cfg.machine.t_pi)


def test_sweep_t0_writes_exponent(tmp_path):
    # keep Nyquist pi/t0 above the 217 Hz line; t0 = 4 ms would fold the peak
    proc = run_cli(
        "sweep", "--preset", "h1", "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["varied"] == "plan.t0_s"
    assert summary["hold_epsilon_ft"] is True
    # palindromic step: frequency offset shrinks quadratically with t0
    assert summary["offset_exponent"] == pytest.approx(1.970199271530155, rel=1e-9)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("t0_s,")
    assert len(lines) == 4


@pytest.mark.parametrize("t0, cells", [
    ("0", "0.0,2,"), ("nan", "nan,2,"),  # no Q holds epsilon_ft: the q cell is empty
    ("-1e-3", "-0.001,2,-400"), ("inf", "inf,2,0"),
])
def test_sweep_t0_that_is_not_positive_and_finite_is_an_error_row(t0, cells, tmp_path):
    assert main(["sweep", "--preset", "h1", "--vary", f"plan.t0_s=1e-3,{t0}", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith("0.001,2,400,1366.") and rows[1].endswith(",1,")
    assert rows[2] == cells + ',,,,,,0,"plan.t0: must be positive and finite"'


def test_sweep_generic_axis(tmp_path):
    proc = run_cli(
        "sweep", "--preset", "h1", "--vary", "plan.k=1,2",
        "--override", "run.damping=on", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "point"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[4] == "1"  # converged flag


def test_sweep_unknown_vary_key_exit_2(tmp_path, capsys):
    assert main(["sweep", "--preset", "h1", "--vary", "foo=1,2", "--out", str(tmp_path)]) == 2
    assert "foo: unknown configuration key" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_bad_value_of_a_known_key_is_an_error_row(tmp_path):
    argv = ["sweep", "--preset", "h2", "--vary", "plan.k=1,x", "--override", "run.q=32", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("1,") and lines[1].endswith(",")
    assert lines[2] == "x,,,,0,\"plan.k: not an integer: 'x'\""


def test_both_nu_keys_exit_2(capsys):
    argv = ["gap-exact", "--preset", "h1", "--override", "model.nu_hz=1,2,3", "--override", "model.nu_rad_s=1,2,3"]
    assert main(argv) == 2
    assert "model.nu_hz or model.nu_rad_s" in capsys.readouterr().err


def test_preset_flag_conflicting_with_model_preset_exit_2(tmp_path, capsys):
    argv = ["run", "--preset", "h1", "--override", "model.preset=h2", "--override", "run.q=32", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "preset argument is h1 but model.preset = h2" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.filterwarnings("ignore::pairgap.adiabatic.AdiabaticityWarning")  # h1's default ramp
def test_sweep_over_model_preset_records_the_conflicting_point(tmp_path):
    argv = ["sweep", "--preset", "h1", "--vary", "model.preset=h1,h2", "--override", "run.q=32", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("h1,") and lines[1].endswith(",")
    assert lines[2] == 'h2,,,,0,"model.preset: the preset argument is h1 but model.preset = h2; give one"'


def test_main_builds_the_parser_once(monkeypatch, capsys):
    assert main(["presets"]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["presets"]) == 0
    parser = cli._parser()
    assert parser.parse_args(["run", "--override", "a=1", "--override", "b=2"]).override == ["a=1", "b=2"]
    assert parser.parse_args(["run"]).override == []


def test_missing_vary_value_exit_2():
    proc = run_cli("sweep", "--preset", "h1", "--vary", "plan.t0_s=")
    assert proc.returncode == 2
    assert "--vary" in proc.stderr


@pytest.mark.skipif(
    shutil.which("pairgap") is None,
    reason="no pairgap console script on PATH; it exists after pip install -e .",
)
def test_console_script_matches_module(tmp_path):
    script = subprocess.run(["pairgap", "presets"], capture_output=True, text=True)
    module = run_cli("presets")
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


def test_console_script_entry_point_matches_module():
    # Checks what the installed script would run without needing an install:
    # the [project.scripts] target, called the way the generated wrapper
    # calls it, prints what `python -m pairgap.cli` prints.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pairgap"]
    assert entry == "pairgap.cli:main"
    module_name, func = entry.split(":")
    wrapper = (
        f"import sys; from {module_name} import {func}; "
        f"sys.argv = ['pairgap', 'presets']; sys.exit({func}())"
    )
    script = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
    module = run_cli("presets")
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout
