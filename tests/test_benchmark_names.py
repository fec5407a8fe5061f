"""The names of the library that the benchmark in perfbench/ imports,
patches or reads must exist: a deleted one fails here, under pytest,
rather than in a benchmark run.  The committed BENCH_*.json records must
name the workloads and metrics of BENCHMARK.json, so the trajectory stays
readable.  Nothing under perfbench/ and no BENCHMARK.json is written."""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("coxeter", "fibers", "matchings", "oracles", "posets", "reflection_orders",
           "springer", "verify")


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("gate", "inputs", "tracing", "workloads"):
        sys.modules.pop(name, None)


def test_benchmark_modules_import_and_the_tracer_installs(perfbench_path):
    import gate  # noqa: F401
    import inputs  # noqa: F401
    import tracing
    import workloads

    from coxmorse.coxeter import CoxeterSystem

    owners = [sys.modules[f"coxmorse.{mod}"] for mod in MODULES] + [CoxeterSystem]
    before = [dict(vars(owner)) for owner in owners]
    closure = CoxeterSystem.__dict__["bruhat"].func
    verify_convexity = workloads.fibers.verify_convexity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert workloads.fibers.verify_convexity is not verify_convexity
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
    assert CoxeterSystem.__dict__["bruhat"].func is closure


def test_every_library_name_the_benchmark_reads_exists():
    # ``from coxmorse.<mod> import <name>`` and ``<mod>.<name>`` for the
    # library modules in MODULES
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxmorse"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
            elif isinstance(node, ast.Attribute):
                # <mod>.<name>, also reached through another module (workloads.<mod>)
                owner = node.value
                mod = (owner.id if isinstance(owner, ast.Name)
                       else owner.attr if isinstance(owner, ast.Attribute) else None)
                if mod in MODULES:
                    module = importlib.import_module(f"coxmorse.{mod}")
                    if not hasattr(module, node.attr):
                        missing.append(f"{path.name}: {mod}.{node.attr}")
    assert not missing


def test_every_bench_file_reads_against_the_benchmark():
    # each committed BENCH_*.json parses, its end_to_end results are keyed
    # by workloads of BENCHMARK.json, and its claim, if any, names one of
    # those workloads and one of its end-to-end metrics
    root = PERFBENCH.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    paths = sorted(root.glob("BENCH_*.json"))
    assert len(paths) >= 12
    for path in paths:
        record = json.loads(path.read_text())
        assert set(record["end_to_end"]) <= workloads, path.name
        claim = record.get("claim")
        if claim:
            assert claim["workload"] in workloads and claim["metric"] in metrics, path.name
