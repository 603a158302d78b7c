"""Tests for the RAID controller's recovery logic."""

import pytest

from repro.cache import LRUCache
from repro.engine import PlanCache, XORBackend
from repro.sim.array import ArrayGeometry, DiskArray
from repro.sim.cache_sim import TimedBufferCache
from repro.sim.controller import RAIDController
from repro.sim.kernel import Environment
from repro.workloads import PartialStripeError


def _plans(layout):
    return PlanCache(XORBackend(layout, "fbf"))


@pytest.fixture
def stack(tip7):
    env = Environment()
    array = DiskArray(env, ArrayGeometry(layout=tip7, stripes=1000))
    controller = RAIDController(env, array, _plans(tip7))
    cache = TimedBufferCache(env, LRUCache(64), array)
    return env, array, controller, cache


def _error(**kw):
    defaults = dict(time=0.0, stripe=5, disk=0, start_row=0, length=3)
    defaults.update(kw)
    return PartialStripeError(**defaults)


class TestRecovery:
    def test_recovers_all_chunks(self, stack):
        env, array, controller, cache = stack
        env.run(env.process(controller.recover_error(_error(length=4), cache)))
        assert controller.chunks_recovered == 4
        assert controller.errors_recovered == 1

    def test_writes_one_spare_chunk_per_failed_chunk(self, stack):
        env, array, controller, cache = stack
        env.run(env.process(controller.recover_error(_error(length=3), cache)))
        assert array.total_writes == 3
        assert array.disks[0].stats.writes == 3  # spares live on the failed disk

    def test_never_reads_the_failed_chunks(self, stack, tip7):
        env, array, controller, cache = stack
        error = _error(length=tip7.rows)  # whole column segment
        env.run(env.process(controller.recover_error(error, cache)))
        # disk 0 should see only spare writes, never reads of lost chunks
        assert array.disks[0].stats.reads == 0

    def test_disk_reads_match_cache_misses(self, stack):
        env, array, controller, cache = stack
        env.run(env.process(controller.recover_error(_error(length=5), cache)))
        assert array.total_reads == cache.policy.stats.misses == cache.log.disk_reads

    def test_validation(self, stack, tip7):
        env, array, _, _ = stack
        with pytest.raises(ValueError):
            RAIDController(env, array, _plans(tip7), xor_time_per_chunk=-1)


class TestPlanMemoization:
    def test_same_shape_reuses_plan(self, stack):
        env, array, controller, cache = stack
        a = _error(stripe=1)
        b = _error(stripe=2)  # same shape, different stripe
        env.run(env.process(controller.recover_error(a, cache)))
        env.run(env.process(controller.recover_error(b, cache)))
        assert len(controller.overhead.samples) == 1
        assert controller.overhead.plan_cache_hits == 1

    def test_different_shapes_recompute(self, stack):
        env, array, controller, cache = stack
        env.run(env.process(controller.recover_error(_error(length=1), cache)))
        env.run(env.process(controller.recover_error(_error(length=2), cache)))
        assert len(controller.overhead.samples) == 2

    def test_overhead_is_positive(self, stack):
        env, array, controller, cache = stack
        env.run(env.process(controller.recover_error(_error(), cache)))
        assert controller.overhead.mean > 0
        assert controller.overhead.total >= controller.overhead.mean


class TestSerialVsParallelReads:
    def test_parallel_chain_reads_are_faster(self, tip7):
        def run(parallel):
            env = Environment()
            array = DiskArray(env, ArrayGeometry(layout=tip7, stripes=100))
            controller = RAIDController(
                env, array, _plans(tip7), parallel_chain_reads=parallel
            )
            cache = TimedBufferCache(env, LRUCache(64), array)
            env.run(env.process(controller.recover_error(_error(length=3), cache)))
            return env.now

        assert run(parallel=True) < run(parallel=False)

    def test_same_read_counts_either_way(self, tip7):
        def reads(parallel):
            env = Environment()
            array = DiskArray(env, ArrayGeometry(layout=tip7, stripes=100))
            controller = RAIDController(
                env, array, _plans(tip7), parallel_chain_reads=parallel
            )
            cache = TimedBufferCache(env, LRUCache(64), array)
            env.run(env.process(controller.recover_error(_error(length=3), cache)))
            return array.total_reads

        assert reads(True) == reads(False)
