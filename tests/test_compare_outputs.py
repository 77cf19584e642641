"""The difference report of tools/compare_outputs.py on hand-made outcomes."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def describe(tool):
    return tool.describe


def test_grid_covers_gap_exact_on_both_presets(tool):
    cases = tool.grid()
    assert ("gap-exact", "--preset", "h1") in cases
    assert ("gap-exact", "--preset", "h2") in cases
    assert len(cases) == len(set(cases)) == 53


def test_grid_covers_every_artifact_writer(tool):
    cases = tool.grid()
    for case in [
        ("compile", "--preset", "h1", "--override", "run.method=w1"),
        ("compile", "--preset", "h2", "--override", "run.method=w2"),
        ("estimate",),
        ("estimate", "--n", "3,4,5", "--eps-over-delta", "1,0.01,1e-4"),
        ("sweep", "--preset", "h2", "--vary", "plan.k=1,2,x"),
        ("run", "--override", "model.nu_hz=120,250,330,410"),
        ("gap-exact", "--override", "model.nu_hz=120,250,330,410"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3", "--no-hold-epsilon-ft"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=1e-3,-1e-3,2e-3"),
        ("run", "--preset", "h2", "--override", "run.observed_spin=3"),
        ("sweep", "--preset", "h1", "--override", "run.method=w2", "--override", "run.pulse_mode=finite",
         "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3"),
    ]:
        assert case in cases, case


def result_json(delta, residual, converged, level=1, delta_exact=100.0):
    record = {"delta_exp_rad_s": delta, "epsilon_ft_rad_s": 2.0, "residual_norm": residual, "converged": converged,
              "reachable_level": level, "delta_exact_rad_s": delta_exact}
    return json.dumps(record).encode()


def sweep_csv(deltas, converged):
    rows = ["t0_s,delta_exp_rad_s,epsilon_ft_rad_s,converged"]
    rows += [f"{1e-3 * (i + 1)!r},{d!r},4.0,{c}" for i, (d, c) in enumerate(zip(deltas, converged))]
    return ("\n".join(rows) + "\n").encode()


def test_run_difference_names_files_shift_and_flip(describe):
    base = (3, "line\n", "", {"result.json": result_json(100.0, 2.0, False), "timeseries.csv": b"same"})
    head = (0, "line\n", "", {"result.json": result_json(100.001, 1.5, True), "timeseries.csv": b"same"})
    assert describe(base, head) == [
        "exit 3 -> 0",
        "files differ: result.json",
        "|d delta_exp|/eps_ft 5.00e-04; residual_norm -2.50e-01 rel; converged False -> True; "
        "reachable_level 1 -> 1; |d delta_exact| 0.00e+00 rad/s",
    ]


def test_run_difference_names_a_moved_reachable_level(describe):
    base = (0, "", "", {"result.json": result_json(100.0, 2.0, True)})
    head = (0, "", "", {"result.json": result_json(100.0, 2.0, True, level=2, delta_exact=250.5)})
    assert describe(base, head) == [
        "files differ: result.json",
        "|d delta_exp|/eps_ft 0.00e+00; residual_norm +0.00e+00 rel; "
        "reachable_level 1 -> 2; |d delta_exact| 1.50e+02 rad/s",
    ]


def test_sweep_difference_reports_the_largest_shift(describe):
    base = (0, "", "", {"sweep.csv": sweep_csv([10.0, 20.0], [0, 1])})
    head = (0, "", "", {"sweep.csv": sweep_csv([10.004, 20.0], [1, 1])})
    assert describe(base, head) == [
        "files differ: sweep.csv",
        "max |d delta_exp|/eps_ft 1.00e-03; t0_s 0.001: converged 0 -> 1",
    ]


def gap_json(level, values, reachable):
    record = {"reachable_level": level, "sector_eigenvalues_rad_s": values,
              "gap_first_rad_s": values[1] - values[0], "reachable_gap_rad_s": reachable}
    return json.dumps(record).encode()


def test_gap_difference_reports_the_largest_move(describe):
    base = (0, "", "", {"gap.json": gap_json(1, [-3.0, 1.0, 5.0], 4.0)})
    head = (0, "", "", {"gap.json": gap_json(1, [-3.0, 1.0 + 2e-13, 5.0], 4.0 + 2e-13)})
    assert describe(base, head) == ["files differ: gap.json", "max |d gap.json| 2.00e-13 rad/s"]


def test_missing_file_and_stdout_are_named(describe):
    base = (0, "a\n", "", {"gap.json": b"{}"})
    head = (0, "b\n", "", {})
    assert describe(base, head) == ["stdout differs", "files differ: gap.json"]


def test_stderr_difference_is_named(describe):
    base = (0, "", "w1 program: 77 events, wall = 0.0123 s\n", {})
    head = (0, "", "w1 program: 78 events, wall = 0.0123 s\n", {})
    assert describe(base, head) == ["stderr differs"]


def test_run_reads_the_source_and_output_paths_as_placeholders(tool):
    src = TOOL.parent.parent / "src"
    code, stdout, stderr, files = tool.run(src, ("run", "--preset", "h1", "--override", "run.q=32"))
    assert code == 0
    assert stderr.startswith("warning: AdiabaticityWarning: ")  # the quasiadiabatic ramp
    assert set(files) == {"populations.csv", "result.json", "spectrum.csv", "timeseries.csv"}
    code, _, stderr, files = tool.run(src, ("run", "--config", str(src / "missing.cfg")))
    assert code == 2 and "cannot read <src>/missing.cfg" in stderr
    assert str(src.resolve()) not in stderr and not files
    code, _, stderr, files = tool.run(src, ("compile", "--preset", "h1"))
    assert code == 0 and stderr.startswith("w1 program: ")
    assert list(files) == ["program.txt"]


def test_summary_line_names_the_worst_cases_and_counts_changes(tool):
    def summary_json(exponent):
        return json.dumps({"offset_exponent": exponent}).encode()

    differing = [
        ("run a", (0, "", "w\n", {"result.json": result_json(100.0, 2.0, True)}),
         (3, "", "v\n", {"result.json": result_json(100.001, 2.0, False, level=2)})),
        ("run b", (0, "", "", {"result.json": result_json(100.0, 2.0, True)}),
         (0, "", "", {"result.json": result_json(100.01, 2.0, True)})),
        ("sweep c", (0, "", "", {"sweep.csv": sweep_csv([10.0], [1]), "sweep_summary.json": summary_json(1.97)}),
         (0, "", "", {"sweep.csv": sweep_csv([10.0], [0]), "sweep_summary.json": summary_json(1.98)})),
        ("gap d", (0, "", "", {"gap.json": gap_json(1, [-3.0, 1.0, 5.0], 4.0)}),
         (0, "", "", {"gap.json": gap_json(2, [-3.0, 1.0, 5.0], 8.0)})),
        ("gap e", (0, "", "", {"gap.json": gap_json(1, [-3.0, 1.0, 5.0], 4.0)}),
         (0, "", "", {"gap.json": gap_json(1, [-3.0, 1.5, 5.0], 4.5)})),
    ]
    assert tool.summarize(differing) == (
        "summary of 5 differing: worst |d delta_exp|/eps_ft 5.00e-03 (run b); "
        "worst |d offset_exponent| 1.00e-02 (sweep c); worst |d gap.json| 4.00e+00 rad/s (gap d); "
        "changed: exit 1, converged 2, reachable_level 2, stderr 1"
    )
    assert tool.summarize([]) == (
        "summary of 0 differing: worst |d delta_exp|/eps_ft 0.00e+00; worst |d offset_exponent| 0.00e+00; "
        "worst |d gap.json| 0.00e+00 rad/s; changed: exit 0, converged 0, reachable_level 0, stderr 0"
    )
