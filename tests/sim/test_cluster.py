"""Tests for the cross-rack recovery scenario (`repro.sim.cluster`).

The acceptance criteria under test: the degenerate one-node topology
reproduces the golden single-controller rows bit-identically, EC
recovery moves more cross-rack bytes than replication, and the whole
scenario is deterministic.
"""

from dataclasses import replace

import pytest

from repro.bench import QUICK, cluster_recovery
from repro.codes import make_code
from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig, TopologySpec
from repro.sim.cluster import ClusterSpec, run_cluster_recovery
from repro.workloads import ErrorTraceConfig, generate_errors


def _errors(layout, n=8, seed=3):
    return generate_errors(layout, ErrorTraceConfig(n_errors=n, seed=seed))


class TestDegenerateEquivalence:
    def test_one_node_topology_reproduces_golden_rows(self):
        layout = make_code("tip", 5)
        errors = _errors(layout)
        base = run_timed_replay(XORBackend(layout), errors, SimConfig(workers=4))
        topo = run_timed_replay(
            XORBackend(layout), errors, SimConfig(workers=4, topology=TopologySpec())
        )
        # Bit-identical simulated values; only the cluster snapshot and
        # the wall-clock measured fields may differ (DESIGN §9, §15).
        assert (base.simulated_dict(exclude=("cluster",))
                == topo.simulated_dict(exclude=("cluster",)))
        assert topo.cluster is not None
        assert topo.cluster.transfers == 0  # empty routes yield no events

    def test_quantile_toggle_does_not_perturb_timing(self):
        layout = make_code("tip", 5)
        errors = _errors(layout)
        base = run_timed_replay(XORBackend(layout), errors, SimConfig(workers=4))
        quant = run_timed_replay(
            XORBackend(layout), errors, SimConfig(workers=4, response_quantiles=True)
        )
        assert (base.simulated_dict(exclude=("p99_response_time",))
                == quant.simulated_dict(exclude=("p99_response_time",)))
        assert quant.p99_response_time is not None
        assert quant.p99_response_time >= 0.0


class TestScenario:
    def test_ec_moves_more_cross_rack_bytes_than_replication(self):
        ec = run_cluster_recovery(ClusterSpec(redundancy="ec", n_errors=6))
        rep = run_cluster_recovery(ClusterSpec(redundancy="rep", n_errors=6))
        assert ec.cross_rack_bytes > rep.cross_rack_bytes
        assert rep.hit_ratio == 0.0  # replication never decodes or caches
        assert ec.chunks_recovered == rep.chunks_recovered
        # the measured bottleneck is a network link, not a disk
        assert "uplink" in ec.bottleneck or "nic" in ec.bottleneck
        assert 0.0 < ec.bottleneck_utilization <= 1.0

    def test_limplock_degrades_tail_and_is_detected(self):
        healthy = run_cluster_recovery(ClusterSpec(n_errors=6))
        limp = run_cluster_recovery(ClusterSpec(n_errors=6, limplock=True))
        assert healthy.limplock_suspects == ()
        assert limp.limplock_suspects == (1,)
        assert limp.recovery_time > healthy.recovery_time
        assert limp.p99_response_time >= healthy.p99_response_time

    def test_deterministic(self):
        spec = ClusterSpec(n_errors=4, limplock=True)
        assert run_cluster_recovery(spec) == run_cluster_recovery(spec)
        rep_spec = ClusterSpec(redundancy="rep", n_errors=4)
        assert run_cluster_recovery(rep_spec) == run_cluster_recovery(rep_spec)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ClusterSpec(redundancy="raid")
        with pytest.raises(ValueError):
            ClusterSpec(racks=1, nodes_per_rack=1, limplock=True)


class TestBenchRunner:
    def test_cluster_recovery_rows(self):
        scale = replace(QUICK, n_errors=4)
        points = cluster_recovery(scale)
        assert len(points) == 8  # (fbf, lru, arc, rep) x (healthy, limplock)
        by_key = {(p.policy, p.redundancy, p.limplock) for p in points}
        assert ("rep", "rep", True) in by_key
        assert ("fbf", "ec", False) in by_key
        ec = [p for p in points if p.redundancy == "ec" and not p.limplock]
        rep = [p for p in points if p.redundancy == "rep" and not p.limplock]
        assert min(p.cross_rack_mb for p in ec) > max(p.cross_rack_mb for p in rep)
        for p in points:
            assert p.p99_response_time > 0.0
