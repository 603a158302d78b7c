"""The shared bench gate: one payload schema and one comparison for every kind."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gate import (
    RATIO_TOLERANCE,
    SCHEMA,
    compare,
    run_gate,
    self_problems,
)
from repro.cli import GATE_KINDS, main

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

SCHEMA_KEYS = {"schema", "kind", "git_rev", "params", "rows", "checks",
               "ratios", "floors", "timings", "detail"}


@pytest.fixture(params=GATE_KINDS)
def payload(request, gate_payload):
    return gate_payload(request.param)


def _baseline(payload: dict) -> dict:
    """``payload`` as a committed baseline.

    A one-round local measurement need not demonstrate a floor (a
    committed baseline must; :meth:`test_baseline_below_floor_fails`
    covers that), so the copy drops its floors.
    """
    baseline = copy.deepcopy(payload)
    baseline["floors"] = {}
    return baseline


def _fails(current: dict, baseline: dict, *needles: str, **kwargs) -> None:
    ok, message = compare(current, baseline, **kwargs)
    assert not ok, message
    for needle in needles:
        assert needle in message, message


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_committed_baseline_is_a_valid_baseline(kind):
    path = BENCHMARKS / f"BENCH_{kind}.json"
    baseline = json.loads(path.read_text(encoding="utf-8"))
    assert set(baseline) == SCHEMA_KEYS
    assert (baseline["schema"], baseline["kind"]) == (SCHEMA, kind)
    assert self_problems(baseline) == []


class TestPayload:
    def test_carries_every_schema_key(self, payload):
        assert set(payload) == SCHEMA_KEYS
        assert payload["schema"] == SCHEMA
        assert payload["kind"] in GATE_KINDS
        assert all(payload["checks"].values()), payload["checks"]
        assert all(value > 0 for value in payload["ratios"].values())
        assert all(value > 0 for value in payload["timings"].values())
        json.dumps(payload)  # the payload is what --out writes

    def test_self_comparison_passes(self, payload):
        ok, message = compare(payload, _baseline(payload))
        assert ok, message
        ok, message = compare(payload, _baseline(payload), time_tolerance=0.0)
        assert ok, message

    def test_kind_mismatch_fails(self, payload):
        baseline = _baseline(payload)
        baseline["kind"] = "other"
        _fails(payload, baseline, "kind", "'other'")

    def test_failed_check_fails(self, payload):
        current = copy.deepcopy(payload)
        name = next(iter(current["checks"]))
        current["checks"][name] = False
        _fails(current, _baseline(payload), f"check {name} does not hold")

    def test_missing_check_fails(self, payload):
        current = copy.deepcopy(payload)
        name = next(iter(current["checks"]))
        del current["checks"][name]
        _fails(current, _baseline(payload), f"check {name} missing")


@pytest.fixture(params=("kernel", "cluster"))
def with_rows(request, gate_payload):
    return gate_payload(request.param)


class TestRows:
    def test_tampered_value_fails(self, with_rows):
        current = copy.deepcopy(with_rows)
        key = next(iter(current["rows"]))
        field = next(f for f, v in current["rows"][key].items()
                     if isinstance(v, int) and not isinstance(v, bool))
        current["rows"][key][field] += 1
        _fails(current, _baseline(with_rows), f"row {key} diverged on {field}")

    @pytest.mark.parametrize(
        "kind, key, field",
        [("cluster", "ec/fbf/healthy", "cross_rack_bytes"),
         ("kernel", "fig10", "policy")],
    )
    def test_dropped_field_fails(self, gate_payload, kind, key, field):
        payload = gate_payload(kind)
        current = copy.deepcopy(payload)
        del current["rows"][key][field]
        _fails(current, _baseline(payload), f"row {key} lacks field {field}")

    def test_extra_field_fails(self, with_rows):
        current = copy.deepcopy(with_rows)
        key = next(iter(current["rows"]))
        current["rows"][key]["surprise"] = 0
        _fails(current, _baseline(with_rows),
               f"row {key} has field surprise the baseline lacks")

    def test_missing_row_fails(self, with_rows):
        current = copy.deepcopy(with_rows)
        key = next(iter(current["rows"]))
        del current["rows"][key]
        _fails(current, _baseline(with_rows),
               f"baseline row {key} missing from the current run")

    def test_extra_row_fails(self, with_rows):
        current = copy.deepcopy(with_rows)
        current["rows"]["surprise"] = {}
        _fails(current, _baseline(with_rows),
               "row surprise missing from the baseline")


@pytest.fixture(params=("kernel", "replay", "simlint"))
def with_ratios(request, gate_payload):
    return gate_payload(request.param)


class TestRatios:
    def test_ratio_within_tolerance_passes(self, with_ratios):
        baseline = _baseline(with_ratios)
        for name in baseline["ratios"]:
            baseline["ratios"][name] /= 1.0 - RATIO_TOLERANCE / 2
        ok, message = compare(with_ratios, baseline)
        assert ok, message

    def test_ratio_below_tolerance_fails(self, with_ratios):
        baseline = _baseline(with_ratios)
        name = next(iter(baseline["ratios"]))
        baseline["ratios"][name] /= 1.0 - 2 * RATIO_TOLERANCE
        _fails(with_ratios, baseline, f"ratio {name}", "fell below")

    def test_baseline_below_floor_fails(self, with_ratios):
        baseline = _baseline(with_ratios)
        name = next(iter(baseline["ratios"]))
        baseline["floors"][name] = 2 * baseline["ratios"][name]
        _fails(with_ratios, baseline, f"baseline ratio {name}", "floor")


@pytest.fixture(params=("replay", "simlint"))
def with_timings(request, gate_payload):
    return gate_payload(request.param)


class TestTimings:
    def test_slow_timing_fails_only_when_gated(self, with_timings):
        baseline = _baseline(with_timings)
        name = next(iter(baseline["timings"]))
        baseline["timings"][name] /= 2
        ok, message = compare(with_timings, baseline)
        assert ok, message
        _fails(with_timings, baseline, f"timing {name}", "exceeds",
               time_tolerance=0.02)


class TestRunGate:
    def test_check_exit_codes(self, gate_payload, tmp_path):
        payload = gate_payload("cluster")
        path = tmp_path / "BENCH_cluster.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run_gate(payload, check=str(path)) == 0
        tampered = copy.deepcopy(payload)
        tampered["rows"]["ec/fbf/healthy"]["cross_rack_bytes"] += 1
        assert run_gate(tampered, check=str(path)) == 1

    def test_out_refuses_a_failing_baseline_but_writes_it(
        self, gate_payload, tmp_path
    ):
        payload = copy.deepcopy(gate_payload("kernel"))
        payload["ratios"]["speedup"] = payload["floors"]["speedup"] / 2
        out = tmp_path / "BENCH_kernel.json"
        assert run_gate(payload, out=str(out)) == 1
        assert json.loads(out.read_text(encoding="utf-8")) == payload
        payload["ratios"]["speedup"] = payload["floors"]["speedup"]
        assert run_gate(payload, out=str(out)) == 0

    def test_cluster_refuses_rounds(self):
        assert main(["gate", "cluster", "--rounds", "2"]) == 2
