"""Tests for the parallel sweep engine (determinism contract + cache)."""

import json

import pytest

from repro.bench import (
    ENGINE_CACHE_VERSION,
    EngineConfig,
    GridPoint,
    ResultCache,
    Scale,
    SweepPoint,
    experiment_grid,
    rows_equivalent,
    run_grid,
    write_bench_json,
)
from repro.bench.engine import bench_payload

TINY = Scale(
    n_errors=8,
    workers=4,
    cache_mbs=(0.25, 1.0),
    seed=3,
    codes=("tip",),
    ps_main=(5,),
    ps_tip=(5,),
)


SERIAL = EngineConfig(workers=0)


def tiny_grid(name: str):
    return experiment_grid(name, TINY)


class TestGridPoint:
    def test_hashable_and_frozen(self):
        a = tiny_grid("fig8")[0]
        b = tiny_grid("fig8")[0]
        assert a == b and hash(a) == hash(b)

    def test_cache_key_stable_and_sensitive(self):
        a = tiny_grid("fig8")[0]
        assert a.cache_key() == a.cache_key()
        from dataclasses import replace

        assert a.cache_key() != replace(a, seed=a.seed + 1).cache_key()
        assert a.cache_key() != a.cache_key(salt="other-version")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GridPoint(kind="nope", experiment="x", code="tip", p=5,
                      policy="fbf", cache_mb=1.0)

    def test_demotion_requires_flag(self):
        with pytest.raises(ValueError, match="demote_on_hit"):
            GridPoint(kind="demotion", experiment="x", code="tip", p=5,
                      policy="fbf", cache_mb=1.0)


class TestEngineConfig:
    def test_auto_resolves_positive(self):
        assert EngineConfig(workers="auto").resolved_workers() >= 1

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=-1)
        with pytest.raises(ValueError):
            EngineConfig(workers="many")


class TestReplayBackendConfig:
    def test_sampled_row_independent_of_grid_composition(self):
        # With batching on, a one-cell group takes the same single-pass
        # replay as the cell does inside its full group.
        grid = tiny_grid("fig8")
        together = run_grid(grid, SERIAL).points
        for point, row in zip(grid, together):
            assert run_grid([point], SERIAL).points == [row]


class TestParallelSerialEquivalence:
    """engine(workers=N) must reproduce engine(workers=0) row for row."""

    @pytest.mark.parametrize(
        "experiment", ["fig8", "fig10", "ablation-scheme", "ablation-demotion"]
    )
    def test_each_family(self, experiment):
        grid = tiny_grid(experiment)
        serial = run_grid(grid, SERIAL)
        parallel = run_grid(grid, EngineConfig(workers=4))
        assert serial.workers == 0 and parallel.workers >= 1
        assert rows_equivalent(serial.points, parallel.points)
        # trace replays carry no measured columns -> fully identical
        if experiment != "fig10":
            assert serial.points == parallel.points

    def test_trace_rows_survive_pickle_equality(self):
        # regression: nan defaults must compare equal across transports
        grid = tiny_grid("fig8")[:1]
        import pickle

        row = run_grid(grid, SERIAL).points[0]
        assert pickle.loads(pickle.dumps(row)) == row


class TestBatchedDispatch:
    """batch=True groups hit-ratio cells into one interned-stream pass."""

    @pytest.mark.parametrize(
        "experiment", ["fig8", "fig9", "ablation-scheme", "ablation-demotion"]
    )
    def test_batched_rows_equal_golden(self, experiment):
        grid = tiny_grid(experiment)
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        batched = run_grid(grid, SERIAL)  # batch defaults to True
        assert golden.points == batched.points

    def test_parallel_batched_rows_equal_golden(self):
        grid = tiny_grid("fig8")
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        parallel = run_grid(grid, EngineConfig(workers=4))
        assert golden.points == parallel.points

    def test_des_points_stay_per_point(self):
        # fig10 rows carry measured wall-clock columns; the event-driven
        # simulation never joins a batch group but must still run.
        grid = tiny_grid("fig10")
        batched = run_grid(grid, SERIAL)
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        assert rows_equivalent(batched.points, golden.points)

    def test_batched_preserves_order_timings_and_progress(self):
        grid = tiny_grid("fig8")
        seen = []
        result = run_grid(
            grid, SERIAL, on_progress=lambda done, total: seen.append((done, total))
        )
        assert [(t.policy, t.cache_mb) for t in result.timings] == [
            (g.policy, g.cache_mb) for g in grid
        ]
        assert seen == [(i + 1, len(grid)) for i in range(len(grid))]
        assert all(t.seconds > 0 for t in result.timings)

    def test_batched_populates_result_cache(self, tmp_path):
        grid = tiny_grid("fig8")
        cold = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert cold.cache_misses == len(grid)
        warm = run_grid(
            grid, EngineConfig(workers=0, cache_dir=tmp_path, batch=False)
        )
        assert (warm.cache_hits, warm.cache_misses) == (len(grid), 0)
        assert warm.points == cold.points


class TestResultCache:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        grid = tiny_grid("fig8")
        cold = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, len(grid))
        warm = run_grid(grid, EngineConfig(workers=2, cache_dir=tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (len(grid), 0)
        assert warm.points == cold.points
        assert all(t.cached for t in warm.timings)

    def test_salt_bump_invalidates(self, tmp_path):
        grid = tiny_grid("fig8")[:2]
        run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        stale = ResultCache(tmp_path, salt=ENGINE_CACHE_VERSION + "-next")
        assert stale.get(grid[0]) is None

    def test_round_trip_preserves_row(self, tmp_path):
        grid = tiny_grid("fig10")[:1]
        result = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        cached = ResultCache(tmp_path).get(grid[0])
        assert cached == result.points[0]
        assert isinstance(cached, SweepPoint)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        grid = tiny_grid("fig8")[:1]
        cache = ResultCache(tmp_path)
        path = cache._path(grid[0].cache_key())
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(grid[0]) is None
        result = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert result.cache_misses == 1
        assert cache.get(grid[0]) == result.points[0]


class TestEngineResult:
    def test_canonical_order_and_stats(self):
        grid = tiny_grid("fig9")
        result = run_grid(grid, SERIAL)
        assert [(t.policy, t.cache_mb) for t in result.timings] == [
            (g.policy, g.cache_mb) for g in grid
        ]
        assert result.n_points == len(grid)
        assert result.compute_s > 0
        assert result.wall_s > 0

    def test_progress_callback(self):
        grid = tiny_grid("fig9")[:3]
        seen = []
        run_grid(grid, SERIAL, on_progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestPlanCacheSurfacing:
    def test_serial_run_reports_plan_activity(self):
        from repro.bench.engine import _reset_worker_state

        _reset_worker_state()
        result = run_grid(tiny_grid("fig8"), SERIAL)
        assert result.plan_cache_misses > 0
        # Second run in the same process hits the warm memo: no new
        # misses, and the delta honestly reports zero plan work.
        warm = run_grid(tiny_grid("fig8"), SERIAL)
        assert warm.plan_cache_misses == 0
        assert warm.points == result.points

    def test_payload_carries_plan_counts(self):
        from repro.bench.engine import _reset_worker_state

        _reset_worker_state()
        result = run_grid(tiny_grid("fig8"), SERIAL)
        payload = bench_payload("fig8", "quick", result)
        assert payload["plan_cache_misses"] == result.plan_cache_misses
        assert payload["plan_cache_hits"] == result.plan_cache_hits


class TestRemovedConfigKwarg:
    def test_config_kwarg_is_gone(self):
        grid = tiny_grid("fig9")[:2]
        with pytest.raises(TypeError):
            run_grid(grid, config=SERIAL)


class TestBenchJson:
    def test_payload_schema(self, tmp_path):
        grid = tiny_grid("fig9")[:2]
        result = run_grid(grid, SERIAL)
        payload = bench_payload("fig9", "quick", result, {"serial_identical": True})
        for key in (
            "schema", "experiment", "scale", "wall_s", "n_points", "workers",
            "cache_hits", "cache_misses", "speedup_estimate", "per_point",
            "engine_version", "git_rev",
        ):
            assert key in payload
        assert payload["serial_identical"] is True
        assert len(payload["per_point"]) == 2
        path = write_bench_json(tmp_path / "BENCH_fig9.json", "fig9", "quick", result)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["n_points"] == 2
