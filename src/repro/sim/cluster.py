"""The cross-rack recovery scenario: EC vs replication on a rack cluster.

Rashmi et al.'s Facebook-warehouse study (PAPERS.md) measured that
erasure-coded recovery moves an order of magnitude more cross-rack bytes
than replication: repairing one lost chunk reads *k* surviving fragments
over the oversubscribed rack uplinks where replication reads one replica.
This module stages exactly that comparison on the rack-aware topology of
:mod:`repro.sim.topology`, with the paper's partial-stripe errors and
FBF/LRU/ARC caching on the EC side:

* **EC mode** — the full reconstruction stack
  (:func:`repro.engine.timed.run_timed_replay`) with a cluster topology
  threaded through the array: every chain read crosses the network from
  the disk's node to the controller node, charging nic and uplink
  bandwidth.
* **Replication mode** — the same failures repaired by copying one
  replica per lost chunk from a node in the *next* rack (copyset-style
  placement keeps replicas off the primary's rack), through the same
  links and disks, with no decode reads and no cache.

Both modes can **limplock** a node (fail-slow: disks and nic run
``limplock_factor`` slower while heartbeats keep answering) to show the
degraded-mode tail that p99 reporting exists for.

This module sits a layer above :mod:`repro.sim` in the import DAG
(``sim.cluster`` is layer 2, like the engine) because the EC path drives
the engine's timed replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..codes import make_code
from ..core.scheme import SchemeMode
from ..engine.backends import XORBackend
from ..engine.timed import run_timed_replay
from ..obs import runtime as _obs
from ..obs.metrics import Histogram
from ..utils import parse_size
from ..workloads.errors import ErrorTraceConfig, PartialStripeError, generate_errors
from .array import ArrayGeometry, DiskArray
from .disk import FixedLatencyModel
from .kernel import Environment
from .reconstruction import ClusterStats, SimConfig
from .topology import HeartbeatMonitor, TopologySpec, build_topology

__all__ = ["ClusterSpec", "ClusterReport", "run_cluster_recovery"]


@dataclass(frozen=True)
class ClusterSpec:
    """One cross-rack recovery experiment (hashable, cache-key friendly)."""

    #: "ec" repairs by decode (the paper's stack); "rep" copies replicas.
    redundancy: str = "ec"
    code: str = "tip"
    p: int = 7
    policy: str = "fbf"
    cache_size: int | str = "64MB"
    scheme_mode: SchemeMode = "fbf"
    n_errors: int = 48
    seed: int = 42
    workers: int = 8
    racks: int = 3
    nodes_per_rack: int = 3
    #: 1 MB chunks (not the in-array 32 KB) — the distributed-storage
    #: regime where network bytes, not disk seeks, dominate recovery.
    chunk_size: int | str = "1MB"
    array_stripes: int = 100_000
    nic_bandwidth: float = 1.25e9
    uplink_bandwidth: float = 1.25e8
    limplock: bool = False
    limplock_factor: float = 8.0
    heartbeat_period: float = 0.1
    disk_latency: float = 0.010
    hit_time: float = 0.0005

    def __post_init__(self) -> None:
        if self.redundancy not in ("ec", "rep"):
            raise ValueError(f"redundancy must be 'ec' or 'rep', got {self.redundancy!r}")
        if self.racks < 1 or self.nodes_per_rack < 1:
            raise ValueError("racks and nodes_per_rack must be >= 1")
        if self.limplock and self.num_nodes < 2:
            raise ValueError("limplock needs at least two nodes")

    @property
    def num_nodes(self) -> int:
        return self.racks * self.nodes_per_rack

    @property
    def chunk_bytes(self) -> int:
        return parse_size(self.chunk_size)

    def topology_spec(self) -> TopologySpec:
        """The cluster shape both modes run on (limplock on node 1)."""
        return TopologySpec(
            racks=self.racks,
            nodes_per_rack=self.nodes_per_rack,
            controller_node=0,
            nic_bandwidth=self.nic_bandwidth,
            uplink_bandwidth=self.uplink_bandwidth,
            limplock_node=1 if self.limplock else None,
            limplock_factor=self.limplock_factor if self.limplock else 1.0,
            heartbeat_period=self.heartbeat_period,
        )

    def errors(self) -> list[PartialStripeError]:
        layout = make_code(self.code, self.p)
        return generate_errors(
            layout,
            ErrorTraceConfig(
                n_errors=self.n_errors,
                array_stripes=self.array_stripes,
                seed=self.seed,
            ),
        )


@dataclass(frozen=True)
class ClusterReport:
    """What the cluster bench rows and BENCH_cluster.json read off a run."""

    redundancy: str
    policy: str
    code: str
    p: int
    n_errors: int
    chunks_recovered: int
    recovery_time: float
    avg_response_time: float
    p99_response_time: float
    hit_ratio: float
    disk_reads: int
    disk_writes: int
    cross_rack_bytes: int
    intra_rack_bytes: int
    #: busiest link and its utilization over the run — the measured
    #: recovery bottleneck.
    bottleneck: str
    bottleneck_utilization: float
    limplock: bool
    #: nodes the heartbeat RTT outlier test flags as fail-slow.
    limplock_suspects: tuple[int, ...] = ()

    @property
    def cross_rack_mb(self) -> float:
        return self.cross_rack_bytes / 1e6


def _damaged_cells(error: PartialStripeError) -> list[tuple[int, int]]:
    return [
        (row, error.disk)
        for row in range(error.start_row, error.start_row + error.length)
    ]


def _run_ec(spec: ClusterSpec) -> ClusterReport:
    """EC recovery: the paper's cached reconstruction over the topology."""
    layout = make_code(spec.code, spec.p)
    config = SimConfig(
        policy=spec.policy,
        cache_size=spec.cache_size,
        chunk_size=spec.chunk_size,
        scheme_mode=spec.scheme_mode,
        workers=spec.workers,
        hit_time=spec.hit_time,
        disk_latency=spec.disk_latency,
        array_stripes=spec.array_stripes,
        topology=spec.topology_spec(),
        response_quantiles=True,
    )
    report = run_timed_replay(
        XORBackend(layout, spec.scheme_mode), spec.errors(), config
    )
    stats = report.cluster
    assert stats is not None  # topology was configured
    name, util = ("", 0.0)
    if stats.link_utilization:
        name, util = max(stats.link_utilization, key=lambda nu: nu[1])
    return ClusterReport(
        redundancy="ec",
        policy=report.policy,
        code=report.code,
        p=report.p,
        n_errors=report.n_errors,
        chunks_recovered=report.chunks_recovered,
        recovery_time=report.reconstruction_time,
        avg_response_time=report.avg_response_time,
        p99_response_time=report.p99_response_time or 0.0,
        hit_ratio=report.hit_ratio,
        disk_reads=report.disk_reads,
        disk_writes=report.disk_writes,
        cross_rack_bytes=stats.cross_rack_bytes,
        intra_rack_bytes=stats.intra_rack_bytes,
        bottleneck=name,
        bottleneck_utilization=util,
        limplock=spec.limplock,
        limplock_suspects=stats.limplock_suspects,
    )


def _replica_repair(
    env: Environment,
    topology,
    array: DiskArray,
    errors: list[PartialStripeError],
    histogram: Histogram,
    counters: dict[str, int],
) -> Generator:
    """Worker process: repair each lost chunk from its next-rack replica.

    Copyset-style placement: the replica of a chunk on node *n* lives on
    the node one rack over in the same position, so every replica read is
    a cross-rack transfer — the quantity replication is thrifty with and
    EC decode multiplies by the chain length.
    """
    geometry = array.geometry
    n_nodes = len(topology.nodes)
    per_rack = len(topology.racks[0].nodes)
    home = array.home_node
    for error in errors:
        for cell in _damaged_cells(error):
            start = env.now
            primary = array.disk_of(cell)
            replica_node = (primary.node_id + per_rack) % n_nodes
            # the replica disk: same platter position, one rack over
            rdisks = topology.nodes[replica_node].disks
            rdisk = rdisks[0] if rdisks else primary
            yield from rdisk.access(
                "read", geometry.lba(error.stripe, cell), geometry.chunk_size
            )
            yield from topology.transfer(
                replica_node, home, geometry.chunk_size
            )
            histogram.observe(env.now - start)
            counters["disk_reads"] += 1
            yield from array.write_spare_chunk(error.stripe, cell)
            counters["chunks"] += 1
            if _obs.ENABLED:
                _obs.counter("cluster.replication.chunks_repaired").inc()


def _run_rep(spec: ClusterSpec) -> ClusterReport:
    """Replication recovery: one next-rack replica read per lost chunk."""
    layout = make_code(spec.code, spec.p)
    env = Environment()
    topo_spec = spec.topology_spec()
    topology = build_topology(env, topo_spec)
    heartbeats = None
    if topo_spec.heartbeat_period > 0:
        heartbeats = HeartbeatMonitor(
            topology,
            master=topo_spec.controller_node,
            period=topo_spec.heartbeat_period,
            miss_threshold=topo_spec.heartbeat_miss_threshold,
        )
        heartbeats.start()
    geometry = ArrayGeometry(
        layout, chunk_size=spec.chunk_bytes, stripes=spec.array_stripes
    )
    array = DiskArray(
        env, geometry,
        disk_model_factory=lambda i: FixedLatencyModel(spec.disk_latency),
        topology=topology, home_node=topo_spec.controller_node,
    )
    histogram = Histogram("cluster.replication.response_time")
    counters = {"disk_reads": 0, "chunks": 0}
    errors = spec.errors()
    workers = min(spec.workers, len(errors))
    procs = [
        env.process(
            _replica_repair(
                env, topology, array, errors[w::workers], histogram, counters
            ),
            name=f"rep-worker-{w}",
        )
        for w in range(workers)
    ]
    env.run(env.all_of(procs))
    recovery_time = env.now
    stats = ClusterStats(
        racks=len(topology.racks),
        nodes=len(topology.nodes),
        transfers=topology.transfers,
        cross_rack_bytes=topology.cross_rack_bytes,
        intra_rack_bytes=topology.intra_rack_bytes,
        link_utilization=topology.link_utilization(recovery_time),
        heartbeat_rtt_max=(
            tuple(sorted(heartbeats.rtt_max.items())) if heartbeats else ()
        ),
        limplock_suspects=topology.limplock_suspects(),
    )
    name, util = ("", 0.0)
    if stats.link_utilization:
        name, util = max(stats.link_utilization, key=lambda nu: nu[1])
    return ClusterReport(
        redundancy="rep",
        policy="rep",
        code=spec.code,
        p=spec.p,
        n_errors=len(errors),
        chunks_recovered=counters["chunks"],
        recovery_time=recovery_time,
        avg_response_time=histogram.mean,
        p99_response_time=histogram.quantile(0.99) if histogram.count else 0.0,
        hit_ratio=0.0,
        disk_reads=counters["disk_reads"],
        disk_writes=array.total_writes,
        cross_rack_bytes=stats.cross_rack_bytes,
        intra_rack_bytes=stats.intra_rack_bytes,
        bottleneck=name,
        bottleneck_utilization=util,
        limplock=spec.limplock,
        limplock_suspects=stats.limplock_suspects,
    )


def run_cluster_recovery(spec: ClusterSpec = ClusterSpec()) -> ClusterReport:
    """Run one cross-rack recovery scenario and report its traffic.

    Deterministic: same spec → identical report (all virtual-time).
    """
    if spec.redundancy == "rep":
        return _run_rep(spec)
    return _run_ec(spec)
