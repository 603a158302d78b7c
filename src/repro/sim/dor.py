"""Disk-Oriented Reconstruction (DOR) for partial stripe recovery.

The paper (§III-B, after Holland & Gibson) contrasts two parallel
reconstruction organizations: SOR (stripe-oriented — workers own stripes;
:func:`repro.engine.timed.run_timed_replay`) and DOR (disk-oriented — one
process per surviving disk streams *all* the reads that disk owes the
recovery, while per-chunk XOR/write completions are driven by barriers).

DOR properties this model reproduces:

* each disk serves its recovery reads back-to-back (no idle gaps waiting
  for other disks), so disk utilization is higher than serial SOR;
* a chunk lives on exactly one disk, so repeated references to a shared
  chunk arrive at the same reader in order — the second reference hits
  the (shared) buffer cache if it survived, exactly the FBF scenario;
* spare writes contend with reads in the failed disk's queue.

The buffer cache is *shared* under DOR (one controller-side cache rather
than SOR's per-worker partitions).  The module drives the engine's plan
cache and timed-run helpers, so it sits in the engine's layer of the
import DAG.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.registry import make_policy
from ..codes.layout import CodeLayout
from ..engine.backends import XORBackend
from ..engine.timed import make_cache, make_environment
from ..engine.tracesim import PlanCache
from .controller import RAIDController
from .kernel import Event
from .reconstruction import ReconstructionReport, SimConfig, build_array

__all__ = ["run_reconstruction_dor"]


def run_reconstruction_dor(
    layout: CodeLayout,
    errors: Sequence,
    config: SimConfig = SimConfig(),
) -> ReconstructionReport:
    """Simulate DOR recovery of ``errors``; same report type as SOR.

    ``config.workers`` is ignored (parallelism is one process per disk);
    the whole ``cache_size`` backs one shared cache.  DOR is modelled on
    a single controller, so a ``config.topology`` raises ``ValueError``.
    """
    if not errors:
        raise ValueError("no errors to recover")
    if config.topology is not None:
        raise ValueError("DOR does not model a cluster topology")
    errors = sorted(errors)
    backend = XORBackend(layout, config.scheme_mode)
    env = make_environment(config)
    geometry = backend.make_geometry(
        chunk_size=config.chunk_bytes, stripes=config.array_stripes
    )
    array = build_array(env, geometry, config)
    datapath = None
    if config.verify_payloads:
        datapath = backend.make_datapath(
            payload_size=config.payload_size, seed=config.payload_seed
        )
    controller = RAIDController(env, array, PlanCache(backend),
                                xor_time_per_chunk=config.xor_time_per_chunk)
    policy = make_policy(config.policy, config.cache_blocks_total,
                         **config.policy_kwargs)
    cache = make_cache(env, policy, array, config)

    # ---- task graph -------------------------------------------------------
    # per-disk ordered read queues; per-assignment completion barriers.
    read_queues: list[list[tuple[int, tuple, int, Event]]] = [
        [] for _ in range(layout.num_disks)
    ]
    steps: list[tuple[int, object, list[Event]]] = []
    chunks_total = 0
    for error in errors:
        plan = controller.plan_for(error)
        for step in plan.steps:
            done_events: list[Event] = []
            for cell in step.reads:
                done = env.event()
                read_queues[geometry.disk_index(cell)].append(
                    (error.stripe, cell, plan.priority_of(cell), done)
                )
                done_events.append(done)
            steps.append((error.stripe, step, done_events))
            chunks_total += 1

    # ---- processes ----------------------------------------------------------
    def reader(disk_tasks):
        for stripe, cell, priority, done in disk_tasks:
            yield from cache.get_chunk(stripe, cell, priority)
            done.succeed()

    def rebuilder(stripe, step, done_events):
        if done_events:
            yield env.all_of(done_events)
        yield env.timeout(config.xor_time_per_chunk * len(step.reads))
        if datapath is not None:
            datapath.rebuild(stripe, step.detail)
        yield from array.write_spare_chunk(stripe, step.target)

    procs = [
        env.process(reader(queue), name=f"dor-reader-{d}")
        for d, queue in enumerate(read_queues)
        if queue
    ]
    procs.extend(
        env.process(rebuilder(stripe, s, evs), name="dor-rebuild")
        for stripe, s, evs in steps
    )
    env.run(env.all_of(procs))

    return ReconstructionReport(
        policy=config.policy,
        scheme_mode=config.scheme_mode,
        code=layout.name,
        p=layout.p,
        n_errors=len(errors),
        chunks_recovered=chunks_total,
        reconstruction_time=env.now,
        avg_response_time=cache.log.mean,
        max_response_time=cache.log.max,
        total_requests=cache.log.count,
        cache_hits=policy.stats.hits,
        cache_misses=policy.stats.misses,
        disk_reads=cache.log.disk_reads,
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
    )
