"""Tests for disk-oriented reconstruction (DOR)."""

import pytest

from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.sim.dor import run_reconstruction_dor
from repro.workloads import ErrorTraceConfig, generate_errors


@pytest.fixture
def errors(tip7):
    return generate_errors(tip7, ErrorTraceConfig(n_errors=20, seed=9))


class TestDOR:
    def test_rejects_empty(self, tip7):
        with pytest.raises(ValueError):
            run_reconstruction_dor(tip7, [])

    def test_recovers_everything(self, tip7, errors):
        rep = run_reconstruction_dor(tip7, errors, SimConfig(cache_size="2MB"))
        assert rep.n_errors == len(errors)
        assert rep.chunks_recovered == sum(e.length for e in errors)
        assert rep.disk_writes == rep.chunks_recovered
        assert rep.cache_hits + rep.cache_misses == rep.total_requests
        assert rep.disk_reads == rep.cache_misses

    def test_deterministic(self, tip7, errors):
        a = run_reconstruction_dor(tip7, errors, SimConfig(cache_size="2MB"))
        b = run_reconstruction_dor(tip7, errors, SimConfig(cache_size="2MB"))
        assert a.reconstruction_time == b.reconstruction_time
        assert a.cache_hits == b.cache_hits

    def test_faster_than_serial_sor(self, tip7, errors):
        """DOR's per-disk pipelining beats a single SOR worker."""
        cfg_shared = dict(cache_size="2MB", policy="fbf")
        dor = run_reconstruction_dor(tip7, errors, SimConfig(**cfg_shared))
        serial = run_timed_replay(
            XORBackend(tip7), errors,
            SimConfig(workers=1, parallel_chain_reads=False, **cfg_shared),
        )
        assert dor.reconstruction_time < serial.reconstruction_time

    def test_same_request_count_as_sor(self, tip7, errors):
        """The recovery scheme fixes the request stream; organizations
        only reorder it."""
        dor = run_reconstruction_dor(tip7, errors, SimConfig(cache_size="2MB"))
        sor = run_timed_replay(XORBackend(tip7), errors, SimConfig(cache_size="2MB", workers=4))
        assert dor.total_requests == sor.total_requests
        assert dor.disk_writes == sor.disk_writes

    def test_shared_cache_can_beat_partitioned(self, tip7, errors):
        """With the same total cache, DOR's shared cache sees at least the
        hits of a 16-way partitioned SOR at tight sizes."""
        dor = run_reconstruction_dor(
            tip7, errors, SimConfig(cache_size="1MB", policy="fbf")
        )
        sor = run_timed_replay(
            XORBackend(tip7), errors, SimConfig(cache_size="1MB", policy="fbf", workers=16)
        )
        assert dor.cache_hits >= sor.cache_hits

    def test_fbf_beats_lru_under_dor(self, tip7, errors):
        fbf = run_reconstruction_dor(
            tip7, errors, SimConfig(cache_size="512KB", policy="fbf")
        )
        lru = run_reconstruction_dor(
            tip7, errors, SimConfig(cache_size="512KB", policy="lru")
        )
        assert fbf.hit_ratio >= lru.hit_ratio

    def test_payload_verification(self, tip7, errors):
        rep = run_reconstruction_dor(
            tip7, errors, SimConfig(cache_size="2MB", verify_payloads=True)
        )
        assert rep.payload_mismatches == 0
        assert rep.payload_chunks_verified == rep.chunks_recovered

    def test_disk_stats_reported(self, tip7, errors):
        rep = run_reconstruction_dor(tip7, errors, SimConfig(cache_size="2MB"))
        assert len(rep.disk_stats) == tip7.num_disks
        assert sum(n for _, _, n in rep.disk_stats) == rep.disk_reads + rep.disk_writes

    def test_hdd_model_with_scan_scheduler(self, tip7, errors):
        rep = run_reconstruction_dor(
            tip7, errors,
            SimConfig(cache_size="2MB", disk_model="hdd", disk_scheduler="scan"),
        )
        assert rep.chunks_recovered == sum(e.length for e in errors)


class TestSimConfigDiskKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(disk_model="ssd")
        with pytest.raises(ValueError):
            SimConfig(disk_scheduler="magic")

    def test_sor_with_hdd_and_sstf(self, tip7, errors):
        rep = run_timed_replay(
            XORBackend(tip7), errors,
            SimConfig(workers=4, disk_model="hdd", disk_scheduler="sstf"),
        )
        assert rep.chunks_recovered == sum(e.length for e in errors)

    def test_hdd_differs_from_fixed(self, tip7, errors):
        fixed = run_timed_replay(XORBackend(tip7), errors, SimConfig(workers=4))
        hdd = run_timed_replay(
            XORBackend(tip7), errors, SimConfig(workers=4, disk_model="hdd")
        )
        assert fixed.reconstruction_time != hdd.reconstruction_time
