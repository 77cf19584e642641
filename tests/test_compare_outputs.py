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
    assert len(cases) == len(set(cases)) == 40


def test_grid_covers_every_artifact_writer(tool):
    cases = tool.grid()
    for case in [
        ("compile", "--preset", "h1", "--override", "run.method=w1"),
        ("compile", "--preset", "h2", "--override", "run.method=w2"),
        ("estimate",),
        ("estimate", "--n", "3,4,5", "--eps-over-delta", "1,0.01,1e-4"),
        ("sweep", "--preset", "h2", "--vary", "plan.k=1,2,x"),
        ("sweep", "--preset", "h1", "--vary", "plan.t0_s=0.5e-3,1e-3,2e-3", "--no-hold-epsilon-ft"),
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
    assert "<src>/pairgap/pipeline.py:" in stderr  # the quasiadiabatic ramp's warning
    assert str(src.resolve()) not in stderr
    assert set(files) == {"populations.csv", "result.json", "spectrum.csv", "timeseries.csv"}
    code, _, stderr, files = tool.run(src, ("compile", "--preset", "h1"))
    assert code == 0 and stderr.startswith("w1 program: ")
    assert list(files) == ["program.txt"]
