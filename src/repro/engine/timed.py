"""The timed replay over the event kernel: the one place a timed run is built.

Serial/SOR batch reconstruction for any
:class:`~repro.engine.backend.CodeBackend`: the backend supplies the
array geometry (XOR codes map cells onto a ``rows x disks`` grid, LRC
blocks onto a flat one-block-per-disk layout), the recovery plans and
the optional verifying datapath; the event kernel, disks, timed buffer
cache and controller come from :mod:`repro.sim`.

The paper extends Stripe-Oriented Reconstruction (SOR) to partial stripe
recovery: multiple worker processes each repair a subset of the failed
stripes, and "each process is allocated with a small part of cache" — so
the total buffer cache is partitioned evenly across workers.  Workers
contend for the shared disks, which the event kernel resolves through the
per-disk FIFO queues.

The other timed scenarios (DOR, online recovery) pick their kernel and
buffer cache through :func:`make_environment` and :func:`make_cache`, so
every timed run honours ``SimConfig.sanitize`` and ``kernel_pooling``
the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from ..cache.base import CachePolicy
from ..cache.registry import make_policy
from ..sim.array import DiskArray
from ..sim.cache_sim import TimedBufferCache
from ..sim.controller import RAIDController
from ..sim.kernel import Environment
from ..sim.reconstruction import (
    ClusterStats,
    ReconstructionReport,
    SimConfig,
    build_array,
)
from ..sim.topology import HeartbeatMonitor, build_topology
from .backend import CodeBackend
from .tracesim import PlanCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import Histogram

__all__ = ["run_timed_replay", "make_environment", "make_cache"]


def make_environment(config: SimConfig) -> Environment:
    """The event kernel for a run under ``config``: sanitized when
    ``config.sanitize``, with ``config.kernel_pooling``."""
    if config.sanitize:
        # Imported here: loading repro.checks pulls in the whole linter.
        from ..checks.sanitizer import SanitizedEnvironment

        return SanitizedEnvironment(pooling=config.kernel_pooling)
    return Environment(pooling=config.kernel_pooling)


def make_cache(
    env: Environment,
    policy: CachePolicy,
    array: DiskArray,
    config: SimConfig,
    response_histogram: Histogram | None = None,
) -> TimedBufferCache:
    """A timed buffer cache over ``array``, sanitized when ``config.sanitize``."""
    return TimedBufferCache(
        env, policy, array, hit_time=config.hit_time, sanitize=config.sanitize,
        response_histogram=response_histogram,
    )


def _worker(
    env: Environment,
    controller: RAIDController,
    cache: TimedBufferCache,
    events: Sequence[Any],
    respect_arrival_times: bool,
) -> Generator:
    recover = controller.recover_error
    if not respect_arrival_times:
        # Batch mode repairs back-to-back: no arrival check per event.
        for event in events:
            yield from recover(event, cache)
        return
    timeout = env.timeout
    for event in events:
        # Only wait for arrivals still in the future — an arrival time at
        # or before ``now`` must not cost a redundant zero-delay event.
        delay = event.time - env.now
        if delay > 0:
            yield timeout(delay)
        yield from recover(event, cache)


def run_timed_replay(
    backend: CodeBackend,
    events: Sequence[Any],
    config: SimConfig | None = None,
    policy_factory: Callable[[int], CachePolicy] | None = None,
) -> ReconstructionReport:
    """Simulate timed recovery of ``events`` under ``config`` via ``backend``.

    ``policy_factory`` overrides the registry lookup (useful for custom
    policies); it receives the per-worker capacity in blocks.  The
    backend's scheme label wins over ``config.scheme_mode``: an XOR run
    builds its backend as ``XORBackend(layout, config.scheme_mode)``.
    """
    if config is None:
        config = SimConfig()
    if not events:
        raise ValueError("no events to recover")
    events = sorted(events)
    env = make_environment(config)
    geometry = backend.make_geometry(
        chunk_size=config.chunk_bytes, stripes=config.array_stripes
    )
    topology = None
    heartbeats = None
    if config.topology is not None:
        topology = build_topology(env, config.topology)
        if config.topology.heartbeat_period > 0:
            heartbeats = HeartbeatMonitor(
                topology,
                master=config.topology.controller_node,
                period=config.topology.heartbeat_period,
                miss_threshold=config.topology.heartbeat_miss_threshold,
            )
            heartbeats.start()
    array = build_array(env, geometry, config, topology=topology)
    response_histogram = None
    if config.response_quantiles:
        from ..obs.metrics import Histogram

        # One histogram shared across all worker caches, so the report's
        # p99 covers every chunk request of the run.
        response_histogram = Histogram("sim.cache.response_time")
    datapath = None
    if config.verify_payloads:
        datapath = backend.make_datapath(
            payload_size=config.payload_size, seed=config.payload_seed
        )
    controller = RAIDController(
        env,
        array,
        PlanCache(backend),
        xor_time_per_chunk=config.xor_time_per_chunk,
        parallel_chain_reads=config.parallel_chain_reads,
        datapath=datapath,
    )

    per_worker_blocks = config.cache_blocks_per_worker
    caches: list[TimedBufferCache] = []
    procs = []
    workers = min(config.workers, len(events))
    for w in range(workers):
        if policy_factory is not None:
            policy = policy_factory(per_worker_blocks)
        else:
            policy = make_policy(config.policy, per_worker_blocks, **config.policy_kwargs)
        cache = make_cache(env, policy, array, config, response_histogram)
        caches.append(cache)
        mine = events[w::workers]  # SOR round-robin stripe assignment
        procs.append(
            env.process(
                _worker(env, controller, cache, mine, config.respect_arrival_times),
                name=f"sor-worker-{w}",
            )
        )
    env.run(env.all_of(procs))
    recon_time = env.now
    if config.respect_arrival_times:
        recon_time -= min(e.time for e in events)

    hits = sum(c.policy.stats.hits for c in caches)
    misses = sum(c.policy.stats.misses for c in caches)
    cluster_stats = None
    if topology is not None:
        cluster_stats = ClusterStats(
            racks=len(topology.racks),
            nodes=len(topology.nodes),
            transfers=topology.transfers,
            cross_rack_bytes=topology.cross_rack_bytes,
            intra_rack_bytes=topology.intra_rack_bytes,
            link_utilization=topology.link_utilization(recon_time),
            heartbeat_rtt_max=(
                tuple(sorted(heartbeats.rtt_max.items())) if heartbeats else ()
            ),
            nodes_declared_dead=(
                tuple(sorted(heartbeats.detected_at.items())) if heartbeats else ()
            ),
            limplock_suspects=topology.limplock_suspects(),
        )
    return ReconstructionReport(
        policy=config.policy if policy_factory is None else getattr(
            caches[0].policy, "name", "custom"
        ),
        scheme_mode=backend.scheme_label,
        code=backend.code_label,
        p=backend.p,
        n_errors=len(events),
        chunks_recovered=controller.chunks_recovered,
        reconstruction_time=recon_time,
        avg_response_time=(
            sum(c.log.total for c in caches) / max(1, sum(c.log.count for c in caches))
        ),
        max_response_time=max(c.log.max for c in caches),
        total_requests=sum(c.log.count for c in caches),
        cache_hits=hits,
        cache_misses=misses,
        disk_reads=sum(c.log.disk_reads for c in caches),
        disk_writes=array.total_writes,
        overhead_mean_s=controller.overhead.mean,
        overhead_total_s=controller.overhead.total,
        plan_cache_hits=controller.overhead.plan_cache_hits,
        payload_chunks_verified=datapath.chunks_verified if datapath else 0,
        payload_mismatches=datapath.mismatches if datapath else 0,
        disk_stats=tuple(
            (d.stats.busy_time, d.stats.queue_wait, d.stats.accesses)
            for d in array.disks
        ),
        p99_response_time=(
            response_histogram.quantile(0.99) if response_histogram is not None else None
        ),
        cluster=cluster_stats,
    )
