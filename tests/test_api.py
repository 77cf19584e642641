"""Guards on what code outside the package relies on: the names the benchmark
tracer wraps, the call shapes of benchmarks/oracle.py and run.py, the
package's public names and the README's library example."""

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pairgap
from pairgap.hamiltonian import PairingModel
from pairgap.nmr import compile_trotter_step, program_unitary
from pairgap.presets import pairing_model, spin_system
from pairgap.trotter import TrotterPlan, convergence_sweep, symmetric3_step

ROOT = Path(__file__).resolve().parent.parent
MAX_EXPORTS = 33


def public_names() -> list[str]:
    return [n for n in dir(pairgap) if not n.startswith("_") and not inspect.ismodule(getattr(pairgap, n))]


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(mod, name) for mod, names in tracing.TRACED.items() for name in names]
    assert ("exact", "sector_matrix") in pairs and ("nmr", "simulate_program") in pairs
    for mod, name in pairs:
        assert callable(getattr(importlib.import_module(f"pairgap.{mod}"), name)), f"{mod}.{name}"


def test_benchmark_call_shapes():
    # as benchmarks/oracle.py and benchmarks/run.py call them, positionally
    h1 = pairing_model("h1")
    model = PairingModel(h1.nu, np.array(h1.coupling), h1.convention_factor)
    plan = TrotterPlan(1e-3, 2)
    ideal = symmetric3_step(model, plan)
    machine = spin_system()
    program = compile_trotter_step(model, plan, "w1", machine)
    u = program_unitary(program, machine, "delta")
    assert 1.0 - abs(np.trace(ideal.conj().T @ u)) / 8 < 1e-9
    result = convergence_sweep(model, [0.5e-3, 1e-3], [1, 2])
    assert len(result.rows) == 4 and result.p is not None and result.q is not None


def test_trotter_does_not_import_nmr():
    tree = ast.parse(inspect.getsource(pairgap.trotter))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert not [m for m in imported if m.split(".")[-1] == "nmr"], imported


def test_only_backend_realizes_a_step_both_ways():
    # a module that uses the ideal step and the pulse compiler or simulator
    # knows how a step becomes a unitary; re-exporting imports do not count
    compiled = {"compile_trotter_step", "StepCompiler", "program_unitary", "simulate_program"}
    both = []
    for path in sorted((ROOT / "src" / "pairgap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if "symmetric3_step" in used and used & compiled:
            both.append(path.name)
    assert both == ["backend.py"]


def readme_example_imports() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S).group(1)
    return [a.name for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom) for a in node.names]


def test_public_api_is_small_and_imports_every_module():
    assert len(public_names()) <= MAX_EXPORTS, public_names()
    modules = {p.stem for p in (ROOT / "src" / "pairgap").glob("*.py")} - {"__init__", "cli"}
    assert all(inspect.ismodule(getattr(pairgap, m, None)) for m in modules)


def test_every_public_name_has_a_caller_or_is_in_the_readme_example():
    # a public name is read by some package module other than __init__ (as
    # a Name or an Attribute; a definition does not count) or imported by
    # the README's library example
    used = set()
    for path in (ROOT / "src" / "pairgap").glob("*.py"):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(set(public_names()) - used - set(readme_example_imports())) == []


def test_readme_library_example_uses_exported_names():
    names = readme_example_imports()
    assert names and set(names) <= set(public_names())


def test_cli_run_imports_neither_scipy_nor_hypothesis(tmp_path):
    # the runtime needs numpy only; scipy and hypothesis serve the tests
    code = (
        "import sys, pairgap.cli\n"
        f"assert pairgap.cli.main(['run', '--preset', 'h1', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
