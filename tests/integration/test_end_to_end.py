"""Integration tests spanning codes, core, workloads, cache, and sim.

The key end-to-end check executes a recovery plan the way the RAID
controller would — fetching each selected chain's surviving chunks and
XORing them — on *real payloads*, proving that the scheme generator's
chains actually reconstruct the lost data, not just count I/Os.
"""

import numpy as np
import pytest

from repro.cache import make_policy
from repro.codes import Encoder, make_code, xor_cells
from repro.core import FBFCache, PriorityDictionary, generate_plan
from repro.engine import XORBackend, run_timed_replay, simulate_trace
from repro.sim import SimConfig
from repro.workloads import (
    ErrorTraceConfig,
    generate_errors,
    read_trace,
    write_trace,
)


class TestPayloadLevelRecovery:
    @pytest.mark.parametrize("mode", ["typical", "fbf", "greedy"])
    def test_plans_reconstruct_true_data(self, layout, rng, mode):
        """For every disk and a spread of error sizes, executing the plan's
        chain XORs reproduces the failed chunks exactly."""
        stripe = Encoder(layout).random_stripe(64, rng)
        for disk in range(layout.num_disks):
            max_len = layout.rows
            for length in {1, max_len // 2 or 1, max_len}:
                failed = [(r, disk) for r in range(length)]
                plan = generate_plan(layout, failed, mode)
                recovered = {}
                for a in plan.assignments:
                    value = xor_cells(stripe, a.chain.others(a.failed_cell))
                    recovered[a.failed_cell] = value
                for cell in failed:
                    r, c = cell
                    assert np.array_equal(recovered[cell], stripe[r, c]), (
                        mode,
                        disk,
                        length,
                        cell,
                    )


class TestTraceToSimulationPipeline:
    def test_trace_file_replay_matches_in_memory(self, tip7, tmp_path):
        errors = generate_errors(tip7, ErrorTraceConfig(n_errors=30, seed=21))
        path = tmp_path / "trace.txt"
        write_trace(path, errors)
        replayed = read_trace(path)
        a = simulate_trace(XORBackend(tip7), errors, policy="fbf", capacity_blocks=32)
        b = simulate_trace(XORBackend(tip7), replayed, policy="fbf", capacity_blocks=32)
        assert (a.hits, a.disk_reads) == (b.hits, b.disk_reads)


class TestCrossPolicyAccounting:
    def test_total_requests_policy_independent(self, tip7):
        """The recovery scheme fixes the request stream; policies only
        change the hit/miss split."""
        errors = generate_errors(tip7, ErrorTraceConfig(n_errors=25, seed=8))
        results = [
            simulate_trace(XORBackend(tip7), errors, policy=p, capacity_blocks=40)
            for p in ("fifo", "lru", "lfu", "arc", "fbf")
        ]
        assert len({r.requests for r in results}) == 1

    def test_des_reconstruction_time_reflects_misses(self, tip7):
        """More cache misses must not make reconstruction materially
        faster.  (Not strictly monotone: with parallel chain reads, a hit
        can re-phase disk queueing and shift the critical path by a
        request or two, so a small tolerance is allowed.)"""
        errors = generate_errors(tip7, ErrorTraceConfig(n_errors=15, seed=5))
        tight = run_timed_replay(XORBackend(tip7), errors, SimConfig(cache_size="128KB", workers=2))
        roomy = run_timed_replay(XORBackend(tip7), errors, SimConfig(cache_size="16MB", workers=2))
        assert tight.disk_reads >= roomy.disk_reads
        assert tight.reconstruction_time >= roomy.reconstruction_time * 0.97


class TestMixedWorkload:
    def test_app_requests_default_to_priority_one(self, tip7):
        """Foreground chunks (absent from the dictionary) enter Queue1 and
        never displace priority-3 recovery chunks."""
        from repro.workloads import AppWorkloadConfig, generate_app_requests

        plan = generate_plan(tip7, [(r, 0) for r in range(5)], "fbf")
        pd = PriorityDictionary(plan)
        cache = FBFCache(capacity=6)
        # warm the cache with the recovery stream
        for cell in plan.request_sequence:
            cache.request(("recovery", cell), priority=pd.lookup(cell))
        hot = [k for k in cache.queue_contents(2) + cache.queue_contents(3)]
        app = generate_app_requests(tip7, AppWorkloadConfig(n_requests=50, seed=2))
        for req in app:
            cache.request(("app", req.stripe, req.cell), priority=pd.lookup(req.cell))
        for key in hot:
            assert key in cache


class TestStarAdjusterPinning:
    def test_star_hit_ratio_exceeds_tip_at_same_cache(self):
        """Paper §IV-B-1: STAR shows higher hit ratios because its adjusters
        are referenced repeatedly and pinned at top priority."""
        star = make_code("star", 7)
        tip = make_code("tip", 7)
        cfg = ErrorTraceConfig(n_errors=40, seed=6)
        star_res = simulate_trace(
            XORBackend(star), generate_errors(star, cfg), policy="fbf",
            capacity_blocks=64, workers=4,
        )
        tip_res = simulate_trace(
            XORBackend(tip), generate_errors(tip, cfg), policy="fbf",
            capacity_blocks=64, workers=4,
        )
        assert star_res.hit_ratio > tip_res.hit_ratio
