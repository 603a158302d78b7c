"""Tests for the exact expected-I/O model."""

import pytest

from repro.analysis import expected_reads, shape_table
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.workloads import ErrorTraceConfig, generate_errors


class TestShapeTable:
    def test_covers_every_shape(self, tip7):
        table = shape_table(tip7, "fbf")
        rows = tip7.rows
        expected_count = tip7.num_disks * sum(
            rows - length + 1 for length in range(1, rows + 1)
        )
        assert len(table) == expected_count

    def test_counts_consistent(self, tip7):
        for (disk, start, length), (unique, total) in shape_table(tip7, "fbf").items():
            assert 0 < unique <= total

    def test_typical_unique_equals_total(self, tip7):
        for unique, total in shape_table(tip7, "typical").values():
            assert unique == total


class TestExpectedReads:
    def test_fbf_expects_fewer_unique_reads(self, layout):
        fbf = expected_reads(layout, "fbf")
        typical = expected_reads(layout, "typical")
        assert fbf.expected_unique_reads <= typical.expected_unique_reads + 1e-9

    def test_greedy_is_best(self, tip7):
        greedy = expected_reads(tip7, "greedy")
        fbf = expected_reads(tip7, "fbf")
        assert greedy.expected_unique_reads <= fbf.expected_unique_reads + 1e-9

    def test_sharing_ratio_bounds(self, layout):
        exp = expected_reads(layout, "fbf")
        assert 0.0 <= exp.sharing_ratio < 1.0
        assert exp.expected_rereferences >= 0.0

    def test_typical_sharing_is_zero(self, tip7):
        assert expected_reads(tip7, "typical").sharing_ratio == 0.0

    def test_simulation_converges_to_expectation(self, tip7):
        """Sample-mean unique reads over a large trace approaches the
        exact expectation (validates generator + planner agreement)."""
        exp = expected_reads(tip7, "fbf")
        errors = generate_errors(
            tip7, ErrorTraceConfig(n_errors=2000, array_stripes=10**6, seed=0)
        )
        plans = PlanCache(XORBackend(tip7, "fbf"))
        mean_unique = sum(plans.get(e).source[0].unique_reads for e in errors) / len(errors)
        assert mean_unique == pytest.approx(exp.expected_unique_reads, rel=0.05)

    def test_infinite_cache_hit_ratio_matches_sharing_ratio(self, tip7):
        """With an unbounded cache, the measured hit ratio equals the
        model's sharing ratio (per-stripe rereference fraction)."""
        exp = expected_reads(tip7, "fbf")
        errors = generate_errors(
            tip7, ErrorTraceConfig(n_errors=1500, array_stripes=10**6, seed=1)
        )
        res = simulate_trace(
            XORBackend(tip7), errors, policy="lru", capacity_blocks=10**6, workers=1
        )
        assert res.hit_ratio == pytest.approx(exp.sharing_ratio, abs=0.02)
