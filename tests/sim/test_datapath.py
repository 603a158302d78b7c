"""Tests for the payload-verifying data path and failure injection."""

import numpy as np
import pytest

from repro.core import generate_plan
from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.sim.datapath import PayloadOracle, VerifyingDataPath
from repro.workloads import ErrorTraceConfig, generate_errors


@pytest.fixture
def oracle(tip7):
    return PayloadOracle(tip7, payload_size=32, seed=5)


class TestPayloadOracle:
    def test_validation(self, tip7):
        with pytest.raises(ValueError):
            PayloadOracle(tip7, payload_size=0)
        with pytest.raises(ValueError):
            PayloadOracle(tip7, max_cached_stripes=0)

    def test_deterministic(self, tip7):
        a = PayloadOracle(tip7, payload_size=32, seed=5)
        b = PayloadOracle(tip7, payload_size=32, seed=5)
        assert np.array_equal(a.chunk(42, (0, 0)), b.chunk(42, (0, 0)))

    def test_distinct_stripes_distinct_payloads(self, oracle):
        assert not np.array_equal(oracle.chunk(1, (0, 0)), oracle.chunk(2, (0, 0)))

    def test_stripes_are_valid_codewords(self, oracle, tip7):
        """Every chain of an oracle stripe XORs to zero."""
        for chain in tip7.chains:
            acc = np.zeros(32, dtype=np.uint8)
            for cell in chain.cells:
                acc ^= oracle.chunk(7, cell)
            assert not acc.any(), chain.chain_id

    def test_cache_bounded(self, tip7):
        oracle = PayloadOracle(tip7, payload_size=8, max_cached_stripes=4)
        for s in range(20):
            oracle.chunk(s, (0, 0))
        assert len(oracle._stripes) <= 4

    def test_evicted_stripe_regenerates_identically(self, tip7):
        oracle = PayloadOracle(tip7, payload_size=8, max_cached_stripes=2)
        first = oracle.chunk(0, (1, 1)).copy()
        for s in range(1, 10):
            oracle.chunk(s, (0, 0))  # evict stripe 0
        assert np.array_equal(oracle.chunk(0, (1, 1)), first)

    def test_chunk_returns_copy(self, oracle):
        a = oracle.chunk(3, (0, 0))
        a[:] = 0
        assert oracle.chunk(3, (0, 0)).any()


class TestVerifyingDataPath:
    def test_clean_rebuild_verifies(self, tip7, oracle):
        dp = VerifyingDataPath(oracle)
        plan = generate_plan(tip7, [(r, 0) for r in range(3)], "fbf")
        for a in plan.assignments:
            rebuilt = dp.rebuild(9, a)
            assert np.array_equal(rebuilt, oracle.chunk(9, a.failed_cell))
        assert dp.chunks_verified == 3
        assert dp.mismatches == 0

    def test_corruption_detected(self, tip7, oracle):
        dp = VerifyingDataPath(oracle)
        plan = generate_plan(tip7, [(0, 0)], "fbf")
        victim = plan.assignments[0].reads[0]
        dp.inject_corruption(9, victim)
        dp.rebuild(9, plan.assignments[0])
        assert dp.mismatches == 1
        assert dp.mismatch_log == [(9, (0, 0))]

    def test_clear_corruption(self, tip7, oracle):
        dp = VerifyingDataPath(oracle)
        plan = generate_plan(tip7, [(0, 0)], "fbf")
        dp.inject_corruption(9, plan.assignments[0].reads[0])
        dp.clear_corruption()
        dp.rebuild(9, plan.assignments[0])
        assert dp.mismatches == 0

    def test_unrelated_corruption_harmless(self, tip7, oracle):
        dp = VerifyingDataPath(oracle)
        plan = generate_plan(tip7, [(0, 0)], "fbf")
        dp.inject_corruption(9, (5, 5))  # not in the selected chain
        used = plan.assignments[0].chain.cells
        if (5, 5) not in used:
            dp.rebuild(9, plan.assignments[0])
            assert dp.mismatches == 0


class TestEndToEndVerification:
    def test_full_reconstruction_verifies_every_chunk(self, tip7):
        errors = generate_errors(tip7, ErrorTraceConfig(n_errors=15, seed=3))
        rep = run_timed_replay(
            XORBackend(tip7), errors, SimConfig(workers=4, verify_payloads=True)
        )
        assert rep.payload_chunks_verified == rep.chunks_recovered
        assert rep.payload_mismatches == 0

    def test_all_codes_all_schemes_verify(self, layout):
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=6, seed=1))
        for scheme in ("typical", "fbf", "greedy"):
            rep = run_timed_replay(
                XORBackend(layout, scheme),
                errors,
                SimConfig(workers=2, verify_payloads=True, scheme_mode=scheme),
            )
            assert rep.payload_mismatches == 0, scheme

    def test_verification_off_by_default(self, tip7):
        errors = generate_errors(tip7, ErrorTraceConfig(n_errors=5, seed=2))
        rep = run_timed_replay(XORBackend(tip7), errors, SimConfig(workers=2))
        assert rep.payload_chunks_verified == 0
