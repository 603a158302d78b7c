"""Exact-value response-time accounting on hand-built scenarios.

The figure benchmarks check relative shapes; these tests pin the DES's
arithmetic on scenarios small enough to compute by hand with the paper's
constants (0.5 ms hit, 10 ms disk).
"""

import pytest

from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.workloads import PartialStripeError

HIT = 0.0005
DISK = 0.010


def _one_chunk_error(stripe=0, disk=0, row=0):
    return PartialStripeError(time=0.0, stripe=stripe, disk=disk,
                              start_row=row, length=1)


class TestSingleChunkRecovery:
    def test_serial_reads_total_time(self, tip7):
        """One failed data chunk, serial chain reads, huge cache: the H
        chain has 5 surviving reads (TIP p=7 row chain minus the failed
        cell) + XOR + 1 spare write, all cold misses."""
        cfg = SimConfig(
            policy="lru", cache_size="64MB", workers=1,
            parallel_chain_reads=False, scheme_mode="typical",
            xor_time_per_chunk=0.0,
        )
        rep = run_timed_replay(XORBackend(tip7, cfg.scheme_mode), [_one_chunk_error()], cfg)
        n_reads = rep.total_requests
        assert n_reads == 5  # 4 surviving data cells + row parity
        assert rep.reconstruction_time == pytest.approx(n_reads * DISK + DISK)
        assert rep.avg_response_time == pytest.approx(DISK)

    def test_parallel_reads_total_time(self, tip7):
        """Parallel chain reads hit 5 distinct disks: one disk-time for
        all reads, then the spare write."""
        cfg = SimConfig(
            policy="lru", cache_size="64MB", workers=1,
            parallel_chain_reads=True, scheme_mode="typical",
            xor_time_per_chunk=0.0,
        )
        rep = run_timed_replay(XORBackend(tip7, cfg.scheme_mode), [_one_chunk_error()], cfg)
        assert rep.reconstruction_time == pytest.approx(DISK + DISK)

    def test_second_identical_error_hits_nothing_across_stripes(self, tip7):
        """Same shape on a different stripe: zero reuse, exactly double."""
        cfg = SimConfig(policy="lru", cache_size="64MB", workers=1,
                        parallel_chain_reads=False, scheme_mode="typical",
                        xor_time_per_chunk=0.0)
        errors = [_one_chunk_error(stripe=0), _one_chunk_error(stripe=1)]
        rep = run_timed_replay(XORBackend(tip7, cfg.scheme_mode), errors, cfg)
        assert rep.cache_hits == 0
        assert rep.reconstruction_time == pytest.approx(2 * (5 * DISK + DISK))


class TestHitTiming:
    def test_rereferenced_chunk_costs_hit_time(self, tip7):
        """Under the FBF scheme a shared chunk's second reference is a
        cache hit costing exactly 0.5 ms."""
        cfg = SimConfig(policy="fbf", cache_size="64MB", workers=1,
                        parallel_chain_reads=False, scheme_mode="fbf",
                        xor_time_per_chunk=0.0)
        error = PartialStripeError(time=0.0, stripe=0, disk=0,
                                   start_row=0, length=5)
        rep = run_timed_replay(XORBackend(tip7, cfg.scheme_mode), [error], cfg)
        assert rep.cache_hits > 0
        expected = (
            rep.cache_misses * DISK        # cold reads
            + rep.cache_hits * HIT         # rereferences
            + 5 * DISK                     # five spare writes
        )
        assert rep.reconstruction_time == pytest.approx(expected)
        assert rep.avg_response_time == pytest.approx(
            (rep.cache_misses * DISK + rep.cache_hits * HIT) / rep.total_requests
        )

    def test_custom_constants_respected(self, tip7):
        cfg = SimConfig(policy="lru", cache_size="64MB", workers=1,
                        parallel_chain_reads=False, scheme_mode="typical",
                        hit_time=0.001, disk_latency=0.02,
                        xor_time_per_chunk=0.0)
        rep = run_timed_replay(XORBackend(tip7, cfg.scheme_mode), [_one_chunk_error()], cfg)
        assert rep.avg_response_time == pytest.approx(0.02)
        assert rep.reconstruction_time == pytest.approx(5 * 0.02 + 0.02)

    def test_xor_time_charged_per_chain_member(self, tip7):
        base = SimConfig(policy="lru", cache_size="64MB", workers=1,
                         parallel_chain_reads=False, scheme_mode="typical",
                         xor_time_per_chunk=0.0)
        with_xor = SimConfig(policy="lru", cache_size="64MB", workers=1,
                             parallel_chain_reads=False, scheme_mode="typical",
                             xor_time_per_chunk=0.001)
        backend = XORBackend(tip7, base.scheme_mode)
        t0 = run_timed_replay(backend, [_one_chunk_error()], base)
        t1 = run_timed_replay(backend, [_one_chunk_error()], with_xor)
        assert t1.reconstruction_time - t0.reconstruction_time == pytest.approx(
            0.001 * 5
        )
