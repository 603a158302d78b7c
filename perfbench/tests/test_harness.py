"""Tests of the benchmark's own code: oracles, percentiles, catalog, layers."""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import cases
import pytest
import run
import tracing
from quantiles import percentile

BENCH = run.HERE
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _record(case, unit, failed) -> dict:
    return {
        "digests": case.digests(unit),
        "failed": failed,
        "attempted": unit.attempted,
    }


@pytest.mark.parametrize(
    "case",
    [
        cases.ReplayGridCase("tiny-replay", "fig8", n_errors=4, workers=4, cache_mbs=(1.0,)),
        cases.DesGridCase("tiny-des", "fig10", n_errors=4, workers=2, cache_mbs=(0.25,)),
    ],
    ids=["replay", "des"],
)
def test_perturbed_row_raises_error_rate(case):
    points = case.setup(1)
    unit = case.run(points)
    assert case.check(points, unit, 1, 0) == []
    clean = _record(case, unit, [])
    assert run.count_failures(case.name, 1, [clean, clean]) == 0

    target = case.sample(len(points), 1, 0)[0]
    row = unit.outputs[target]
    unit.outputs[target] = replace(row, disk_reads=row.disk_reads + 1)
    flagged = case.check(points, unit, 1, 0)
    assert flagged == [target]
    perturbed = _record(case, unit, flagged)
    assert run.count_failures(case.name, 1, [clean, perturbed]) == 1


def test_golden_digests_catch_a_perturbed_row():
    golden = json.loads((BENCH / "golden.json").read_text())
    digests = golden["replay-grid"]["1"]
    record = {"digests": list(digests), "failed": [], "attempted": len(digests)}
    assert run.count_failures("replay-grid", 1, [record]) == 0
    record["digests"][7] = "0" * 16
    assert run.count_failures("replay-grid", 1, [record]) == 1


def test_advisor_oracle_flags_a_wrong_advice(monkeypatch):
    monkeypatch.setattr(cases, "ADVISOR_QUERIES", 8)
    monkeypatch.setattr(cases, "ADVISOR_SAMPLE", 2)
    case = cases.AdvisorCase()
    state = case.setup(5)
    unit = case.run(state)
    assert len(unit.op_ms) == 8
    assert [i for i, _ in state.captured] == [3, 7]
    assert case.check(state, unit, 5, 0) == []
    unit.outputs[7] = replace(unit.outputs[7], hit_ratio=unit.outputs[7].hit_ratio + 0.5)
    assert case.check(state, unit, 5, 0) == [7]
    state.queue.shed += 2
    assert run.count_failures(case.name, 5, [_record(case, unit, case.check(state, unit, 5, 0))]) == 3


def test_golden_file_covers_two_seeds_of_every_grid():
    golden = json.loads((BENCH / "golden.json").read_text())
    for name, case in cases.CASES.items():
        if isinstance(case, cases.GridCase):
            assert len(golden[name]) >= 2
            for seed, digests in golden[name].items():
                assert len(digests) == len(case.setup(int(seed)))


def test_percentile_refuses_a_thin_tail():
    assert percentile(list(range(200)), 0.95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(list(range(199)), 0.95)
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)
    assert percentile([float(i) for i in range(21)], 0.5) == 10.0


def test_every_metric_is_named_and_has_a_unit():
    catalog = run.CATALOG
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in catalog["end_to_end"] + catalog["per_layer"]]
    assert len(names) == len(set(names))
    for metric in catalog["end_to_end"] + catalog["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        assert metric["what"] and metric.get("moves", "-")
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert benchmark[section] == [
            {key: m[key] for key in keys} for m in catalog[section]
        ]
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(cases.CASES)


def test_traced_run_produces_exactly_the_per_layer_metrics():
    profiler = cProfile.Profile()
    profiler.enable()
    sum(range(10))
    profiler.disable()
    produced = set(tracing.traced_metrics(
        tracing.SpanRecorder("x"), {"counters": {}}, tracing.Captures(), {}
    ))
    produced |= set(tracing.profile_metrics(pstats.Stats(profiler)))
    produced.add("obs.overhead_frac")
    assert produced == {m["name"] for m in run.CATALOG["per_layer"]}


def test_layer_mapping():
    assert tracing.layer_of("/x/src/repro/sim/kernel.py") == "sim.kernel"
    assert tracing.layer_of("/x/src/repro/engine/stream.py") == "engine"
    assert tracing.layer_of("/x/src/repro/sim/controller.py") == "sim.controller"
    assert tracing.layer_of("/x/src/repro/sim/reconstruction.py") == "sim"
    assert tracing.layer_of("/x/src/repro/sim/cluster.py") == "sim.cluster"
    assert tracing.layer_of("/x/src/repro/core/fbf_cache.py") == "core.fbf_cache"
    assert tracing.layer_of("/x/src/repro/serve/__init__.py") == "serve"
    assert tracing.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_spans_nest_and_sum():
    recorder = tracing.SpanRecorder("x")
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    outer()
    totals = recorder.totals()
    assert set(totals) == {"outer", "inner"}
    assert totals["outer"] >= recorder.child_total("outer", "inner") > 0
    assert [span[4] for span in recorder.spans] == [None, 0, None, 2]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "replay-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
