"""Tests for field-calibrated error workloads."""

import numpy as np
import pytest

from repro.workloads import (
    FieldModel,
    expected_error_count,
    generate_field_trace,
)


class TestFieldModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldModel(lse_disk_fraction=0.0)
        with pytest.raises(ValueError):
            FieldModel(lse_disk_fraction=1.0)
        with pytest.raises(ValueError):
            FieldModel(study_months=0)
        with pytest.raises(ValueError):
            FieldModel(events_per_affected_disk=0.5)
        with pytest.raises(ValueError):
            FieldModel(spatial_locality=2.0)

    def test_rate_calibration(self):
        """P(>=1 onset over the study window) == lse_disk_fraction."""
        model = FieldModel(events_per_affected_disk=1.0)
        days = model.study_months * 30.44
        p = 1.0 - np.exp(-model.per_disk_event_rate_per_day * days)
        assert p == pytest.approx(model.lse_disk_fraction, rel=1e-9)

    def test_reoccurrence_scales_rate(self):
        base = FieldModel(events_per_affected_disk=1.0)
        triple = FieldModel(events_per_affected_disk=3.0)
        assert triple.per_disk_event_rate_per_day == pytest.approx(
            3 * base.per_disk_event_rate_per_day
        )


class TestExpectedErrorCount:
    def test_linear_in_disks_and_time(self):
        m = FieldModel()
        assert expected_error_count(m, 16, 100) == pytest.approx(
            2 * expected_error_count(m, 8, 100)
        )
        assert expected_error_count(m, 8, 200) == pytest.approx(
            2 * expected_error_count(m, 8, 100)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_error_count(FieldModel(), 0, 100)
        with pytest.raises(ValueError):
            expected_error_count(FieldModel(), 8, 0)


class TestGenerateFieldTrace:
    def test_deterministic(self, tip7):
        a = generate_field_trace(tip7, duration_days=400, seed=1)
        b = generate_field_trace(tip7, duration_days=400, seed=1)
        assert a == b

    def test_sorted_and_valid(self, tip7):
        errors = generate_field_trace(tip7, duration_days=2000, seed=2)
        times = [e.time for e in errors]
        assert times == sorted(times)
        for e in errors:
            e.cells(tip7)  # validates geometry

    def test_count_matches_expectation(self, tip7):
        """Over a long window the sampled count approaches the model's
        expectation (one long window ~ many short ones)."""
        model = FieldModel()
        days = 500_000.0  # expected ~430 events -> Poisson sigma ~ 4.8%
        errors = generate_field_trace(
            tip7, duration_days=days, array_stripes=10**7, model=model, seed=3
        )
        expected = expected_error_count(model, tip7.num_disks, days)
        assert len(errors) == pytest.approx(expected, rel=0.15)

    def test_spatial_locality_present(self, tip7):
        model = FieldModel(spatial_locality=0.9)
        errors = generate_field_trace(
            tip7, duration_days=300_000, array_stripes=10**6, model=model, seed=4
        )
        by_disk: dict[int, list[int]] = {}
        for e in errors:
            by_disk.setdefault(e.disk, []).append(e.stripe)
        near = total = 0
        for stripes in by_disk.values():
            for a, b in zip(stripes, stripes[1:]):
                total += 1
                if abs(a - b) <= model.neighbor_distance:
                    near += 1
        assert total > 20
        assert near / total > 0.5

    def test_one_error_per_stripe(self, tip7):
        errors = generate_field_trace(tip7, duration_days=50_000, seed=5)
        stripes = [e.stripe for e in errors]
        assert len(stripes) == len(set(stripes))

    def test_feeds_simulator(self, tip7):
        from repro.engine import XORBackend, simulate_trace

        errors = generate_field_trace(tip7, duration_days=30_000, seed=6)
        if errors:
            res = simulate_trace(XORBackend(tip7), errors, policy="fbf",
                                 capacity_blocks=32)
            assert res.requests > 0
