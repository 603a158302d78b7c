"""The advisor's core contract: advice IS the offline winner, bit for bit."""

from __future__ import annotations

import pytest

from repro.engine import make_backend, simulate_grid_pass
from repro.engine.stream import ReplayConfig
from repro.serve import ArraySpec, CacheAdvisor, ServeConfig, SyntheticSource, pick_winner
from repro.utils import parse_size


def _config(**overrides) -> ServeConfig:
    base = dict(
        code="tip",
        p=5,
        workers=4,
        cache_mbs=(2.0, 8.0),
        policies=("fbf", "lru", "arc"),
        window_events=48,
        batch_events=12,
        compact_factor=2,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _offline_rows(advisor: CacheAdvisor):
    """Recompute the window grid the offline way, from first principles."""
    config = advisor.config
    backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
    block = parse_size(config.chunk_size)
    grid = [
        ReplayConfig(
            policy=policy,
            capacity_blocks=int(mb * 1024 * 1024) // block,
            workers=config.workers,
            hint=config.hint,
        )
        for policy in config.policies
        for mb in config.cache_mbs
    ]
    return simulate_grid_pass(backend, advisor.window_events(), grid)


class TestAdviseMatchesOffline:
    def test_evaluate_rows_equal_offline_grid_pass(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        for batch in source.batches(5):
            advisor.ingest(batch)
        assert advisor.evaluate() == _offline_rows(advisor)

    def test_advice_is_the_offline_winner_bit_for_bit(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12, seed=7)
        for batch in source.batches(6):
            advisor.ingest(batch)
        advice = advisor.advise()
        winner = pick_winner(_offline_rows(advisor))
        assert advice.policy == winner.policy
        assert advice.capacity_blocks == winner.capacity_blocks
        assert advice.hit_ratio == winner.hit_ratio  # exact, not approx
        assert advice.evaluated == len(advisor.config.policies) * len(
            advisor.config.cache_mbs
        )

    def test_equality_survives_compaction(self):
        # compact_factor=2, window=48: feeding 120 events compacts twice.
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12, seed=3)
        for batch in source.batches(10):
            advisor.ingest(batch)
        assert advisor.interner.first_event > 0  # compaction really ran
        assert advisor.evaluate() == _offline_rows(advisor)

    def test_evaluation_memoized_until_window_moves(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        advisor.ingest(source.next_batch())
        first = advisor.evaluate()
        assert advisor.evaluate() is first
        assert advisor.evaluations == 1
        advisor.ingest(source.next_batch())
        assert advisor.evaluate() is not first
        assert advisor.evaluations == 2


class _InlinePool:
    """A two-worker pool stand-in: ``_evaluate_shard`` runs in-process."""

    def resolved_workers(self) -> int:
        return 2

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestPooledMatchesInProcess:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_out_of_order_ingest_rows_agree(self, seed):
        config = ServeConfig()
        in_process = CacheAdvisor(config)
        pooled = CacheAdvisor(config, pool=_InlinePool())
        source = SyntheticSource(
            config.code, config.p, seed=seed, chunk=config.batch_events
        )
        batches = list(source.batches(40))
        for i in range(0, len(batches), 2):
            for batch in (batches[i + 1], batches[i]):  # swapped pair
                in_process.ingest(batch)
                pooled.ingest(batch)
        assert in_process.out_of_order == 20
        assert pooled.evaluate() == in_process.evaluate()


class TestPickWinner:
    def test_ranking_prefers_hit_ratio_then_capacity_then_name(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        for batch in source.batches(4):
            advisor.ingest(batch)
        rows = advisor.evaluate()
        winner = pick_winner(rows)
        best = max(row.hit_ratio for row in rows)
        assert winner.hit_ratio == best
        contenders = [row for row in rows if row.hit_ratio == best]
        assert winner.capacity_blocks == min(
            row.capacity_blocks for row in contenders
        )

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            pick_winner([])


class TestGuards:
    def test_wrong_array_spec_rejected(self):
        advisor = CacheAdvisor(_config())
        advisor.ingest(SyntheticSource("tip", 5, chunk=12).next_batch())
        with pytest.raises(ValueError, match="advisor serves"):
            advisor.advise(ArraySpec(code="star", p=5))

    def test_undersized_capacity_rejected_eagerly(self):
        # 2 MB / 32KB = 64 blocks < 128 workers: every worker needs a slice.
        with pytest.raises(ValueError, match="fewer than"):
            CacheAdvisor(_config(workers=128, cache_mbs=(2.0,)))

    def test_out_of_order_batch_counted_but_accepted(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        first = source.next_batch()
        second = source.next_batch()
        advisor.ingest(second)
        advisor.ingest(first)  # older than the retained tail
        assert advisor.out_of_order == 1
        assert advisor.interner.events_seen == 24
