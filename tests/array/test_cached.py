"""Tests for the cached functional array."""

import numpy as np
import pytest

from repro.array import CachedRAIDArray, RAIDArray
from repro.cache import LRUCache
from repro.core import FBFCache


@pytest.fixture
def stack(tip7):
    array = RAIDArray(tip7, chunk_size=16, stripes=2)
    rng = np.random.default_rng(0)
    for i in range(array.capacity_chunks):
        array.write(i, rng.integers(0, 256, 16, dtype=np.uint8))
    return array, CachedRAIDArray(array, FBFCache(16))


class TestReadThrough:
    def test_second_read_hits(self, stack):
        array, cached = stack
        a = cached.read(0)
        reads_after_first = cached.disk_reads
        b = cached.read(0)
        assert np.array_equal(a, b)
        assert cached.disk_reads == reads_after_first
        assert cached.policy.stats.hits == 1

    def test_cached_payload_matches_disk(self, stack):
        array, cached = stack
        for i in range(8):
            assert np.array_equal(cached.read(i), array.read(i))

    def test_write_refreshes_cache(self, stack):
        array, cached = stack
        cached.read(0)
        fresh = np.full(16, 9, dtype=np.uint8)
        cached.write(0, fresh)
        assert np.array_equal(cached.read(0), fresh)
        assert array.scrub().clean


class TestCachedRepair:
    def test_repair_correct_and_counts_hits(self, tip7):
        array = RAIDArray(tip7, chunk_size=16, stripes=1)
        rng = np.random.default_rng(1)
        golden = {}
        for i in range(array.chunks_per_stripe):
            payload = rng.integers(0, 256, 16, dtype=np.uint8)
            array.write(i, payload)
            golden[i] = payload
        for row in range(5):
            array.disks[0].fail_chunks(array._offset(0, (row, 0)))
        cached = CachedRAIDArray(array, FBFCache(8))
        report = cached.repair_partial_stripe(0, mode="fbf")
        assert len(report.repaired_cells) == 5
        assert array.scrub().clean
        for i in range(array.chunks_per_stripe):
            assert np.array_equal(array.read(i), golden[i])
        # shared chain chunks hit instead of rereading
        assert cached.policy.stats.hits > 0
        assert cached.disk_reads == report.chunks_read - cached.policy.stats.hits

    def test_repair_disk_reads_match_trace_sim(self, tip7):
        """The functional cached repair and the untimed trace simulator
        count exactly the same disk reads for the same plan and policy."""
        from repro.engine import XORBackend, simulate_trace
        from repro.workloads import PartialStripeError

        error = PartialStripeError(time=0, stripe=0, disk=0, start_row=0, length=5)

        array = RAIDArray(tip7, chunk_size=8, stripes=1)
        for row in range(5):
            array.disks[0].fail_chunks(array._offset(0, (row, 0)))
        cached = CachedRAIDArray(array, FBFCache(8))
        cached.repair_partial_stripe(0, mode="fbf")

        sim = simulate_trace(
            XORBackend(tip7), [error], policy="fbf", capacity_blocks=8, workers=1
        )
        assert cached.disk_reads == sim.disk_reads
        assert cached.policy.stats.hits == sim.hits

    def test_fbf_cache_beats_lru_on_repair(self, tip7):
        def repair_reads(policy):
            array = RAIDArray(tip7, chunk_size=8, stripes=1)
            for row in range(5):
                array.disks[0].fail_chunks(array._offset(0, (row, 0)))
            cached = CachedRAIDArray(array, policy)
            cached.repair_partial_stripe(0, mode="fbf")
            return cached.disk_reads

        assert repair_reads(FBFCache(8)) <= repair_reads(LRUCache(8))

    def test_repair_clean_stripe_noop(self, stack):
        array, cached = stack
        report = cached.repair_partial_stripe(0)
        assert report.repaired_cells == ()


class TestCoherence:
    def test_evicted_blocks_drop_their_payloads(self, tip7):
        from repro.cache import LRUCache

        array = RAIDArray(tip7, chunk_size=8, stripes=2)
        cached = CachedRAIDArray(array, LRUCache(2))
        for i in range(6):
            cached.read(i)
        # payload store never outgrows the policy's residency
        assert len(cached._contents) <= 2
        for key in cached._contents:
            assert key in cached.policy

    def test_degraded_read_falls_back_uncached(self, tip7):
        array = RAIDArray(tip7, chunk_size=8, stripes=1)
        p = np.random.default_rng(0).integers(0, 256, 8, dtype=np.uint8)
        array.write(0, p)
        cached = CachedRAIDArray(array, FBFCache(4))
        stripe, cell = array._cell_of(0)
        array.disks[cell[1]].fail_chunks(array._offset(stripe, cell))
        assert np.array_equal(cached.read(0), p)
