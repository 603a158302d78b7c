"""The benchmark's workloads: inputs from a seed, one timed unit, the oracle.

Each workload is driven only through the program's public entry points
(``repro.api.v2``; the DES oracle also uses ``run_timed_replay`` and
``SimConfig``).  A unit runs in a fresh single-threaded process (see
``unit.py``): the engine pool is off (``engine_workers=0``), the result
cache is off and no socket is opened.
"""

from __future__ import annotations

import hashlib
import random
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.v2.bench import (
    FULL,
    GridRequest,
    Scale,
    SweepPoint,
    experiment_grid,
    run_grid,
)
from repro.api.v2.replay import ReplayConfig, make_backend, simulate_grid_pass
from repro.api.v2.serve import (
    BoundedIngestQueue,
    CacheAdvisor,
    ServeConfig,
    SyntheticSource,
    pick_winner,
    record_lines,
)
from repro.engine.timed import run_timed_replay
from repro.sim.reconstruction import SimConfig
from repro.utils import parse_size

#: Cells of one golden-path recompute sample, per process.
GRID_SAMPLE = 6
#: Advisor queries per process, and how many of them the oracle replays.
ADVISOR_QUERIES = 40
ADVISOR_SAMPLE = 4


@dataclass
class Unit:
    """What one timed unit produced (timings, outputs, layer counts)."""

    wall_s: float
    cpu_s: float
    op_ms: list[float]
    events: int
    event_s: float
    attempted: int
    outputs: list[Any]
    layer: dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def row_digest(row) -> str:
    """Digest of a SweepPoint's simulated columns (MEASURED_FIELDS excluded)."""
    return hashlib.sha256(repr(row.simulated_key()).encode()).hexdigest()[:16]


class GridCase:
    """A figure-shaped grid executed serially through ``run_grid``."""

    def __init__(self, name: str, experiment: str, **scale: Any):
        self.name = name
        self.experiment = experiment
        self.scale = scale

    def setup(self, seed: int) -> list:
        """The grid, each (code, p) group replaying its own failure trace.

        Group ``g`` gets ``GridPoint.seed = 1000 * seed + g``: the unit's
        total work then averages over a dozen independent traces, so it
        varies little from one run seed to the next.
        """
        groups: dict[tuple[str, int], int] = {}
        return [
            replace(p, seed=1000 * seed + groups.setdefault((p.code, p.p), len(groups)))
            for p in experiment_grid(self.experiment, Scale(seed=seed, **self.scale))
        ]

    def run(self, points: list) -> Unit:
        request = GridRequest(points=tuple(points), engine_workers=0)
        t0, c0 = time.perf_counter(), time.process_time()
        result = run_grid(request)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Unit(
            wall_s=wall,
            cpu_s=cpu,
            op_ms=[t.seconds * 1e3 for t in result.timings],
            events=sum(p.n_errors for p in points),
            event_s=wall,
            attempted=len(points),
            outputs=result.points,
            layer={
                "bench.overhead_s": result.wall_s - result.compute_s,
                "bench.points": result.n_points,
                "core.plan_cache.hits": result.plan_cache_hits,
                "core.plan_cache.misses": result.plan_cache_misses,
            },
        )

    def digests(self, unit: Unit) -> list[str]:
        return [row_digest(row) for row in unit.outputs]

    def sample(self, n_points: int, seed: int, index: int) -> list[int]:
        """Cells this process recomputes; differs per process of a run."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return sorted(rng.sample(range(n_points), GRID_SAMPLE))

    def recompute(self, points: list) -> list:
        """Golden-path rows for ``points`` (overridden per grid kind)."""
        raise NotImplementedError

    def check(self, points: list, unit: Unit, seed: int, index: int) -> list[int]:
        """Indices of sampled cells whose golden-path row differs."""
        chosen = self.sample(len(points), seed, index)
        golden = self.recompute([points[i] for i in chosen])
        return [
            i for i, row in zip(chosen, golden)
            if row != unit.outputs[i].simulated_key()
        ]


class ReplayGridCase(GridCase):
    def recompute(self, points: list) -> list:
        """The per-point golden path (``batch=False``: one simulate_trace per cell)."""
        result = run_grid(GridRequest(points=tuple(points), engine_workers=0, batch=False))
        return [row.simulated_key() for row in result.points]


class DesGridCase(GridCase):
    def recompute(self, points: list) -> list:
        """Each cell re-simulated on the sanitized, unpooled stepwise kernel."""
        keys = []
        for point in points:
            backend = make_backend(point.code, point.p, scheme_mode=point.scheme_mode)
            events = backend.generate_events(point.n_errors, point.seed)
            report = run_timed_replay(backend, events, SimConfig(
                policy=point.policy,
                cache_size=int(point.cache_mb * 1024 * 1024),
                chunk_size=point.chunk_size,
                scheme_mode=point.scheme_mode,
                workers=point.sor_workers,
                sanitize=True,
                kernel_pooling=False,
            ))
            row = SweepPoint(
                experiment=point.experiment,
                code=report.code,
                p=point.p,
                policy=point.policy,
                cache_mb=point.cache_mb,
                hit_ratio=report.hit_ratio,
                disk_reads=report.disk_reads,
                avg_response_time=report.avg_response_time,
                reconstruction_time=report.reconstruction_time,
                scheme_mode=point.scheme_mode,
            )
            keys.append(row.simulated_key())
        return keys


@dataclass
class AdvisorState:
    config: Any
    advisor: Any
    queue: Any
    batches: list[list[str]]
    evaluations: int
    plan_counts: tuple[int, int]
    captured: list = field(default_factory=list)


class AdvisorCase:
    """A closed loop with one client: ingest one batch, then ``advise()``."""

    name = "advisor-stream"

    def setup(self, seed: int) -> AdvisorState:
        config = ServeConfig()
        advisor = CacheAdvisor(config)
        source = SyntheticSource(config.code, config.p, seed=seed, chunk=config.batch_events)
        fill = -(-config.window_events // config.batch_events)
        batches = [
            record_lines(batch).splitlines()
            for batch in source.batches(fill + ADVISOR_QUERIES)
        ]
        queue = BoundedIngestQueue(config.queue_limit)
        for lines in batches[:fill]:
            _ingest(queue, advisor, lines)
        advisor.advise()  # the window is full and the plan memo warm
        return AdvisorState(
            config, advisor, queue, batches[fill:], advisor.evaluations,
            advisor.interner.plan_cache.counts(),
        )

    def run(self, state: AdvisorState) -> Unit:
        advisor, queue = state.advisor, state.queue
        every = ADVISOR_QUERIES // ADVISOR_SAMPLE
        op_ms: list[float] = []
        advices = []
        ingest_s = 0.0
        records = 0
        clock = time.perf_counter
        t0, c0 = clock(), time.process_time()
        for i, lines in enumerate(state.batches):
            start = clock()
            _ingest(queue, advisor, lines)
            asked = clock()
            advice = advisor.advise()
            done = clock()
            ingest_s += asked - start
            op_ms.append((done - asked) * 1e3)
            advices.append(advice)
            records += len(lines)
            if i % every == every - 1:
                state.captured.append((i, advisor.window_events()))
        wall, cpu = clock() - t0, time.process_time() - c0
        hits, misses = advisor.interner.plan_cache.counts()
        return Unit(
            wall_s=wall,
            cpu_s=cpu,
            op_ms=op_ms,
            events=records,
            event_s=ingest_s,
            attempted=records + len(advices),
            outputs=advices,
            layer={
                "serve.evaluations": advisor.evaluations - state.evaluations,
                "core.plan_cache.hits": hits - state.plan_counts[0],
                "core.plan_cache.misses": misses - state.plan_counts[1],
            },
        )

    def digests(self, unit: Unit) -> list[str]:
        return [
            hashlib.sha256(repr(sorted(a.to_dict().items())).encode()).hexdigest()[:16]
            for a in unit.outputs
        ]

    def check(self, state: AdvisorState, unit: Unit, seed: int, index: int) -> list[int]:
        """Failed operations: shed or invalid records, and sampled advices
        that differ from the offline ``pick_winner(simulate_grid_pass(...))``."""
        config = state.config
        block = parse_size(config.chunk_size)
        grid = [
            ReplayConfig(
                policy=policy,
                capacity_blocks=int(mb * 1024 * 1024) // block,
                workers=config.workers,
                hint=config.hint,
            )
            for policy in config.policies
            for mb in config.cache_mbs
        ]
        backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
        failed = [-1] * (state.queue.shed + state.queue.invalid)
        for i, window in state.captured:
            winner = pick_winner(simulate_grid_pass(backend, window, grid))
            advice = unit.outputs[i]
            if (winner.policy, winner.capacity_blocks, winner.hit_ratio) != (
                advice.policy, advice.capacity_blocks, advice.hit_ratio
            ):
                failed.append(i)
        return failed


def _ingest(queue, advisor, lines: list[str]) -> None:
    """One client batch: wire lines -> parse_record -> bounded queue -> advisor."""
    for line in lines:
        queue.push_line(line)
    advisor.ingest(queue.drain(len(queue)))


CASES: dict[str, Any] = {
    # 0.5 MB leaves each of the 8 SOR workers 2 blocks (well below the
    # recovery working set), 4 MB is where the policies differ most and
    # 64 MB saturates even P=13.
    "des-recovery": DesGridCase(
        "des-recovery", "fig10", n_errors=16, workers=8, cache_mbs=(0.5, 4.0, 64.0),
    ),
    # The FULL fig8 axes; 150 errors per group keep interning and
    # stepping, not per-cell set-up, dominant while a unit stays near 2 s.
    "replay-grid": ReplayGridCase(
        "replay-grid", "fig8", n_errors=150, workers=FULL.workers, cache_mbs=FULL.cache_mbs,
    ),
    "advisor-stream": AdvisorCase(),
}
