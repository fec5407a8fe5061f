"""Tests of the benchmark itself, on tiny groups (A2/A3).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coxmorse import build_system, matchings  # noqa: E402
from coxmorse.errors import CyclicMatching  # noqa: E402
from coxmorse.matchings import AcyclicityReport, Matching  # noqa: E402


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == [HERE.name]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_run_emits_every_end_to_end_metric(name):
    result = run.measure(workloads.SMOKE[name], seed=3, seconds=0)
    assert result["correct"], result["messages"]
    assert list(result["metrics"]) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_traced_run_emits_every_per_layer_metric(name):
    result = run.measure_traced(workloads.SMOKE[name], seed=3, trace_path=None)
    assert result["correct"], result["messages"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [m[0] for m in tracing.PER_LAYER]
    assert 0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    assert metrics["coxeter.build_system.self_s"] > 0


def test_tracer_restores_the_library():
    originals = (matchings.labeled_interval, workloads.springer.pair_poset,
                 workloads.coxeter.CoxeterSystem.bruhat_leq)
    with tracing.Tracer():
        assert matchings.labeled_interval is not originals[0]
        assert workloads.springer.pair_poset is not originals[1]
    assert (matchings.labeled_interval, workloads.springer.pair_poset,
            workloads.coxeter.CoxeterSystem.bruhat_leq) == originals


def test_gate_counts_a_tampered_matching_as_failed():
    system = build_system("A3")
    order = inputs.random_orders(system, random.Random(5), 1)[0]
    li, results = workloads._interval_instance(system, 0, system.w0, [order])
    assert gate.interval_problems(li, results) == []

    m, shelling, summary = results[0]
    partner = list(m.partner)
    a = 0
    c = next(x for x in range(len(partner)) if x not in (a, partner[a]))
    partner[a], partner[c] = partner[c], partner[a]   # one partner swapped
    tampered = [(Matching(m.poset, tuple(partner)), shelling, summary)]

    meter = workloads.Meter()
    meter.call(lambda: None)
    meter.check(gate.interval_problems(li, tampered))
    assert (meter.attempted, meter.failed) == (1, 1)


def test_gate_counts_a_cyclic_matching_as_failed(monkeypatch):
    system = build_system("A3")
    poset = matchings.labeled_interval(system, 0, system.w0).poset
    up = {}
    for lo, hi, _ in poset.covers:
        up.setdefault(lo, set()).add(hi)
    # two elements x0, x1 both covered by y0 and y1: matching x0-y0 and
    # x1-y1 gives the directed cycle x0 -> y0 -> x1 -> y1 -> x0
    x0, x1, y0, y1 = next((a, b, *sorted(up[a] & up[b])[:2]) for a in up for b in up
                          if a < b and len(up[a] & up[b]) >= 2)
    partner = list(range(poset.n))
    partner[x0], partner[y0], partner[x1], partner[y1] = y0, x0, y1, x1
    cyclic = Matching(poset, tuple(partner))
    with pytest.raises(CyclicMatching):
        matchings.morse_counts(poset, cyclic)

    # a faulty is_acyclic that misses the cycle: the summary claims acyclic
    monkeypatch.setattr(matchings, "is_acyclic", lambda *_: AcyclicityReport(True))
    summary = matchings.morse_counts(poset, cyclic)
    assert summary.acyclic
    meter = workloads.Meter()
    meter.call(lambda: None)
    meter.check(gate.matching_problems(poset, cyclic, summary, None))
    assert meter.messages == ["matching has a directed cycle"]
    assert (meter.attempted, meter.failed) == (1, 1)


def test_inputs_follow_the_seed():
    system = build_system("A3")
    draw = [inputs.cover_walk_queries(system, random.Random(seed), 50, 3, 2)
            for seed in (7, 7, 8)]
    assert draw[0] == draw[1] != draw[2]
    for v, w, _ in draw[0]:
        assert system.bruhat_leq(v, w) and 1 <= system.len_of(w) - system.len_of(v) <= 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(5371) == 99.5
    assert run.tail_percentile(8000) == 99.5
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(897) == 98.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "h3-intervals",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
