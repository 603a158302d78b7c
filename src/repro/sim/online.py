"""Online recovery: foreground I/O served *during* reconstruction.

The paper's conclusion claims FBF "is considered to be effective for
parallel and online recovery as well"; this module tests that claim
head-on.  Errors arrive over time; reconstruction workers repair them in
the background; an application read stream runs concurrently.  A read of
a currently-failed chunk becomes a *degraded read*: the controller
fetches the chunk's horizontal chain through the buffer cache and XORs it
on the fly — the latency penalty the window of vulnerability inflicts on
real traffic.

Cache interplay (the FBF-relevant part): background recovery, degraded
reads, and normal foreground reads all share one buffer cache, so the
replacement policy decides whether recovery's shared chunks survive the
foreground churn.  The module drives the engine's plan cache and
timed-run helpers, so it sits in the engine's layer of the import DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

if TYPE_CHECKING:  # annotation-only: sim stays level with workloads' consumers
    from ..workloads.app_io import AppRequest
    from ..workloads.errors import PartialStripeError

from ..cache.registry import make_policy
from ..codes.layout import CodeLayout, Direction
from ..engine.backends import XORBackend
from ..engine.timed import make_cache, make_environment
from ..engine.tracesim import PlanCache
from .controller import RAIDController
from .kernel import Resource, Store
from .reconstruction import SimConfig, build_array

__all__ = ["OnlineReport", "run_online_recovery"]


@dataclass
class OnlineReport:
    """Foreground and recovery outcomes of one online-recovery run."""

    policy: str
    code: str
    p: int
    n_errors: int
    #: simulated time from the first error to the last spare write.
    recovery_makespan: float
    app_requests: int
    degraded_reads: int
    normal_total_time: float = 0.0
    degraded_total_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    disk_reads: int = 0
    #: per-error seconds from occurrence to detection (0 when immediate).
    detection_latencies: list[float] = field(default_factory=list)
    #: errors first discovered by a foreground access, not the scrubber.
    access_detections: int = 0

    @property
    def mean_detection_latency(self) -> float:
        return (
            sum(self.detection_latencies) / len(self.detection_latencies)
            if self.detection_latencies
            else 0.0
        )

    @property
    def normal_reads(self) -> int:
        return self.app_requests - self.degraded_reads

    @property
    def normal_mean_response(self) -> float:
        return self.normal_total_time / self.normal_reads if self.normal_reads else 0.0

    @property
    def degraded_mean_response(self) -> float:
        return (
            self.degraded_total_time / self.degraded_reads
            if self.degraded_reads
            else 0.0
        )

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def run_online_recovery(
    layout: CodeLayout,
    errors: Sequence[PartialStripeError],
    app_requests: Sequence[AppRequest],
    config: SimConfig = SimConfig(),
    detection: str = "immediate",
    scrub_scan_time: float = 0.01,
    scrub_cycle: int = 1024,
) -> OnlineReport:
    """Simulate concurrent foreground reads and background recovery.

    The cache is shared (not partitioned): ``config.workers`` background
    workers pull repair jobs from a queue as errors are detected.

    ``detection`` selects how errors are found (paper Figure 4):

    * ``"immediate"`` — the moment they occur (an ideal detector);
    * ``"scrub"`` — by a background scrubber sweeping stripes cyclically
      (``scrub_scan_time`` seconds per stripe over a ``scrub_cycle``-stripe
      region), or earlier if a foreground read trips over the failed
      chunk.  Detection latency per error is recorded.

    Online recovery is modelled on a single controller, so a
    ``config.topology`` raises ``ValueError``.
    """
    if detection not in ("immediate", "scrub"):
        raise ValueError(f"detection must be 'immediate' or 'scrub', got {detection!r}")
    if scrub_scan_time <= 0 or scrub_cycle < 1:
        raise ValueError("scrub_scan_time must be > 0 and scrub_cycle >= 1")
    if not errors:
        raise ValueError("no errors given")
    if config.topology is not None:
        raise ValueError("online recovery does not model a cluster topology")
    errors = sorted(errors)
    app_requests = sorted(app_requests)
    backend = XORBackend(layout, config.scheme_mode)
    env = make_environment(config)
    geometry = backend.make_geometry(
        chunk_size=config.chunk_bytes, stripes=config.array_stripes
    )
    array = build_array(env, geometry, config)
    controller = RAIDController(
        env, array, PlanCache(backend),
        xor_time_per_chunk=config.xor_time_per_chunk,
        parallel_chain_reads=config.parallel_chain_reads,
    )
    policy = make_policy(config.policy, config.cache_blocks_total, **config.policy_kwargs)
    cache = make_cache(env, policy, array, config)

    failed_now: set[tuple[int, tuple[int, int]]] = set()
    jobs: Store = Store(env)
    report = OnlineReport(
        policy=config.policy,
        code=layout.name,
        p=layout.p,
        n_errors=len(errors),
        recovery_makespan=0.0,
        app_requests=0,
        degraded_reads=0,
    )
    last_repair = [0.0]

    pool = Resource(env, capacity=config.workers)
    dispatched: set[int] = set()  # stripes whose repair has been queued
    error_by_stripe = {e.stripe: e for e in errors}

    def dispatch(error: PartialStripeError, via_access: bool = False) -> None:
        if error.stripe in dispatched:
            return
        dispatched.add(error.stripe)
        report.detection_latencies.append(env.now - error.time)
        if via_access:
            report.access_detections += 1
        jobs.put(error)

    def scrub_detect_time(error: PartialStripeError) -> float:
        """Next time the cyclic scrubber pass covers the error's stripe."""
        slot = error.stripe % scrub_cycle
        k0 = int(error.time / scrub_scan_time)
        delta = (slot - (k0 % scrub_cycle)) % scrub_cycle
        if delta == 0:
            return error.time  # the scrubber is on this stripe right now
        return (k0 + delta) * scrub_scan_time

    def injector() -> Generator:
        for error in errors:
            if env.now < error.time:
                yield env.timeout(error.time - env.now)
            for cell in error.cells(layout):
                failed_now.add((error.stripe, cell))
            if detection == "immediate":
                dispatch(error)
            else:
                env.process(scrub_watch(error), name="scrub-watch")

    def scrub_watch(error: PartialStripeError) -> Generator:
        when = scrub_detect_time(error)
        if env.now < when:
            yield env.timeout(when - env.now)
        dispatch(error)

    def repair_one(error: PartialStripeError) -> Generator:
        req = pool.request()
        yield req
        try:
            yield from controller.recover_error(error, cache)
        finally:
            pool.release(req)
        for cell in error.cells(layout):
            failed_now.discard((error.stripe, cell))
        last_repair[0] = env.now

    def dispatcher() -> Generator:
        for _ in range(len(errors)):
            error = yield jobs.get()
            env.process(repair_one(error), name="repair")

    def degraded_read(stripe: int, cell) -> Generator:
        """Rebuild a failed chunk on demand via its horizontal chain."""
        chains = [
            ch for ch in layout.chains_for(cell)
            if ch.direction is Direction.HORIZONTAL
        ] or list(layout.chains_for(cell))
        chain = chains[0]
        fetches = [
            env.process(cache.get_chunk(stripe, other, None))
            for other in sorted(chain.others(cell))
            if (stripe, other) not in failed_now
        ]
        if fetches:
            yield env.all_of(fetches)
        yield env.timeout(config.xor_time_per_chunk * max(1, len(fetches)))

    def application() -> Generator:
        for req in app_requests:
            if env.now < req.time:
                yield env.timeout(req.time - env.now)
            start = env.now
            report.app_requests += 1
            if (req.stripe, req.cell) in failed_now:
                # access-triggered detection (paper Figure 4: errors are
                # "discovered when particular chunks are accessed")
                error = error_by_stripe.get(req.stripe)
                if error is not None:
                    dispatch(error, via_access=True)
                report.degraded_reads += 1
                yield from degraded_read(req.stripe, req.cell)
                report.degraded_total_time += env.now - start
            else:
                yield from cache.get_chunk(req.stripe, req.cell, None)
                report.normal_total_time += env.now - start

    env.process(injector(), name="error-injector")
    env.process(dispatcher(), name="dispatcher")
    env.process(application(), name="application")
    env.run()  # quiescence: app stream done and every repair written
    report.recovery_makespan = (
        last_repair[0] - errors[0].time if last_repair[0] else 0.0
    )
    report.cache_hits = policy.stats.hits
    report.cache_misses = policy.stats.misses
    report.disk_reads = cache.log.disk_reads
    return report
