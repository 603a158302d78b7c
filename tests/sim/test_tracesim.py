"""Tests for the fast trace-driven cache simulator."""

import pytest

from repro.codes import make_code
from repro.core import PriorityDictionary, generate_plan
from repro.engine import PlanCache, XORBackend, run_timed_replay, simulate_trace
from repro.sim.reconstruction import SimConfig
from repro.workloads import ErrorTraceConfig, generate_errors


@pytest.fixture
def errors(tip7):
    return generate_errors(tip7, ErrorTraceConfig(n_errors=25, seed=4))


class TestPlanCache:
    def test_memoizes_by_shape(self, tip7, errors):
        pc = PlanCache(XORBackend(tip7, "fbf"))
        a = pc.get(errors[0])
        b = pc.get(errors[0])
        assert a is b

    def test_plans_match_direct_generation(self, tip7, errors):
        pc = PlanCache(XORBackend(tip7, "fbf"))
        for e in errors[:5]:
            plan, pd = pc.get(e).source
            direct = generate_plan(tip7, e.cells(tip7), "fbf")
            assert plan.request_sequence == direct.request_sequence
            assert dict(pd) == dict(PriorityDictionary(direct))

    def test_stats_counts_hits_misses_entries(self, tip7, errors):
        pc = PlanCache(XORBackend(tip7, "fbf"))
        assert pc.stats() == {"hits": 0, "misses": 0, "entries": 0}
        pc.get(errors[0])
        pc.get(errors[0])
        stats = pc.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == len(pc) == 1

    def test_shared_across_runs_accumulates(self, tip7, errors):
        """One PlanCache serving a whole sweep group: the second replay
        hits every shape the first one planned."""
        pc = PlanCache(XORBackend(tip7, "fbf"))
        simulate_trace(pc.backend, errors, policy="lru", capacity_blocks=32, plan_cache=pc)
        planned = pc.stats()["misses"]
        simulate_trace(pc.backend, errors, policy="fbf", capacity_blocks=64, plan_cache=pc)
        stats = pc.stats()
        assert stats["misses"] == planned  # no new shapes on the re-run
        assert stats["hits"] >= planned

    def test_max_entries_bounds_and_evicts_fifo(self, tip7, errors):
        distinct = []
        seen = set()
        for e in errors:
            if e.shape not in seen:
                seen.add(e.shape)
                distinct.append(e)
        assert len(distinct) >= 3
        pc = PlanCache(XORBackend(tip7, "fbf"), max_entries=2)
        pc.get(distinct[0])
        pc.get(distinct[1])
        pc.get(distinct[2])  # evicts distinct[0] (oldest)
        assert len(pc) == 2
        pc.get(distinct[0])  # re-planned, not served from memo
        assert pc.stats()["hits"] == 0
        assert pc.stats()["misses"] == 4

    def test_max_entries_validation(self, tip7):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(XORBackend(tip7, "fbf"), max_entries=0)


class TestSimulateCacheTrace:
    def test_request_count_matches_plans(self, tip7, errors):
        pc = PlanCache(XORBackend(tip7, "fbf"))
        expected = sum(pc.get(e).source[0].total_requests for e in errors)
        res = simulate_trace(
            pc.backend, errors, policy="lru", capacity_blocks=32, plan_cache=pc
        )
        assert res.requests == expected
        assert res.hits + res.disk_reads == res.requests

    def test_zero_capacity_all_misses(self, tip7, errors):
        res = simulate_trace(XORBackend(tip7), errors, policy="lru", capacity_blocks=0)
        assert res.hits == 0
        assert res.hit_ratio == 0.0

    def test_infinite_cache_hits_all_shared_reads(self, tip7, errors):
        pc = PlanCache(XORBackend(tip7, "fbf"))
        plans = [pc.get(e).source[0] for e in errors]
        shared = sum(plan.total_requests - plan.unique_reads for plan in plans)
        res = simulate_trace(
            pc.backend, errors, policy="lru", capacity_blocks=10**6, plan_cache=pc
        )
        assert res.hits == shared

    def test_validation(self, tip7, errors):
        with pytest.raises(ValueError):
            simulate_trace(XORBackend(tip7), errors, capacity_blocks=-1)
        with pytest.raises(ValueError):
            simulate_trace(XORBackend(tip7), errors, workers=0)

    def test_plan_cache_layout_mismatch_rejected(self, tip7, errors):
        other = make_code("star", 5)
        pc = PlanCache(XORBackend(other, "fbf"))
        with pytest.raises(ValueError, match="different backend"):
            simulate_trace(XORBackend(tip7), errors, plan_cache=pc)

    def test_worker_partitioning_changes_results(self, tip7, errors):
        one = simulate_trace(XORBackend(tip7), errors, capacity_blocks=64, workers=1)
        many = simulate_trace(XORBackend(tip7), errors, capacity_blocks=64, workers=8)
        assert one.requests == many.requests  # same streams, split differently

    def test_hint_validation(self, tip7, errors):
        with pytest.raises(ValueError, match="hint"):
            simulate_trace(XORBackend(tip7), errors, hint="frequency")

    def test_share_hint_feeds_raw_counts(self, tip7, errors):
        """With hint='share' and n_queues>3, requests land above Queue3
        on adjuster-free TIP only if counts exceed 3 (they don't), so the
        two hint modes agree there — but both run cleanly."""
        from repro.core.fbf_cache import FBFCache

        a = simulate_trace(
            XORBackend(tip7), errors, capacity_blocks=32, hint="priority",
            policy_factory=lambda cap: FBFCache(cap, n_queues=5),
        )
        b = simulate_trace(
            XORBackend(tip7), errors, capacity_blocks=32, hint="share",
            policy_factory=lambda cap: FBFCache(cap, n_queues=5),
        )
        assert a.requests == b.requests

    def test_typical_scheme_has_zero_hits(self, tip7, errors):
        """All-horizontal recovery shares nothing, so nothing can hit."""
        res = simulate_trace(
            XORBackend(tip7, "typical"), errors, policy="lru", capacity_blocks=64)
        assert res.hits == 0


class TestAgreementWithEventSim:
    def test_hit_counts_match_des(self, tip7, errors):
        """The untimed replay and the DES must agree on cache behaviour
        when chain reads are issued serially (same request order)."""
        capacity = 64
        workers = 4
        fast = simulate_trace(
            XORBackend(tip7), errors, policy="fbf", capacity_blocks=capacity, workers=workers
        )
        rep = run_timed_replay(
            XORBackend(tip7),
            errors,
            SimConfig(
                policy="fbf",
                cache_size=capacity * 32 * 1024,
                workers=workers,
                parallel_chain_reads=False,
            ),
        )
        assert rep.cache_hits == fast.hits
        assert rep.disk_reads == fast.disk_reads
