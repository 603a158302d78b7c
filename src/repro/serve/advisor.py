"""The cache advisor: a sliding-window grid replay answering ``advise``.

The advisor owns a :class:`~repro.engine.stream.StreamInterner` over the
live event log and a candidate (policy x capacity) grid.  Each query
replays the most recent ``window_events`` events through
:func:`~repro.engine.stream.simulate_grid_pass` — the *same* function,
on the same interned representation, that the offline bench engine uses
— so an advisor recommendation is bit-for-bit the offline winner for
that window, and :func:`pick_winner` is the single ranking both sides
share.  The window replays in arrival order.  For an in-order window
(every source here emits time-monotone batches) that is sorted order,
so ``simulate_grid_pass(backend, window_events(), configs)`` offline
and :meth:`CacheAdvisor.evaluate` return identical rows; after an
out-of-order batch the offline call, which sorts, may differ.

Evaluations are memoized per window position, so a burst of ``advise``
queries between ingest batches costs one replay.  With an
:class:`~repro.bench.engine.EnginePool`, the candidate grid is sharded
across pool workers (row-identical: every cell is an independent
deterministic replay); without one, the whole grid rides a single
interned pass in-process.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..engine.registry import make_backend
from ..engine.stream import ReplayConfig, StreamInterner, simulate_grid_pass
from ..engine.tracesim import TraceSimResult
from ..obs import runtime as _obs
from ..utils import parse_size
from ..workloads import PartialStripeError
from .config import Advice, ArraySpec, ServeConfig

__all__ = ["CacheAdvisor", "pick_winner"]


def pick_winner(rows: Sequence[TraceSimResult]) -> TraceSimResult:
    """The canonical ranking: best hit ratio, cheapest capacity, name.

    Shared by the advisor and the offline comparison in tests — the
    acceptance contract is that both rank *identical* rows, so the rule
    lives in exactly one place.
    """
    if not rows:
        raise ValueError("cannot pick a winner from zero rows")
    return min(
        rows, key=lambda r: (-r.hit_ratio, r.capacity_blocks, r.policy)
    )


def _confidence(fill: float, lead: float) -> float:
    """``fill * (1 - 1/(1 + 100*lead))`` — see :class:`Advice`."""
    return fill * (1.0 - 1.0 / (1.0 + 100.0 * max(lead, 0.0)))


def _evaluate_shard(payload: tuple) -> list[dict]:
    """Pool entry point: replay one shard of the candidate grid.

    Backends and plan caches come from the bench engine's per-process
    memos, so a long-lived :class:`~repro.bench.engine.EnginePool`
    worker pays the setup once across every window it evaluates.  The
    records are interned in arrival order, as the in-process evaluation
    replays them.  Rows travel back as dicts (dataclass fields), keeping
    the payload plain.
    """
    from dataclasses import asdict

    from ..bench.engine import _backend_for, _plans_for

    code, p, scheme_mode, hint, records, specs = payload
    backend = _backend_for(code, p, scheme_mode)
    events = [PartialStripeError(**r) for r in records]
    configs = [
        ReplayConfig(
            policy=policy, capacity_blocks=capacity, workers=workers, hint=hint
        )
        for policy, capacity, workers in specs
    ]
    interner = StreamInterner(backend, hint, _plans_for(code, p, scheme_mode))
    interner.extend(events)
    rows = simulate_grid_pass(
        backend,
        events,
        configs,
        plan_cache=interner.plan_cache,
        stream=interner.snapshot(),
    )
    return [asdict(row) for row in rows]


class CacheAdvisor:
    """Sliding-window policy/capacity advisor for one array deployment."""

    def __init__(self, config: ServeConfig, pool=None):
        self.config = config
        self.pool = pool
        self.backend = make_backend(
            config.code, config.p, scheme_mode=config.scheme_mode
        )
        self.interner = StreamInterner(self.backend, hint=config.hint)
        self.block_size = parse_size(config.chunk_size)
        # Eager validation: every candidate capacity must give each SOR
        # worker at least one block, or evaluation would raise later.
        for mb in config.cache_mbs:
            blocks = self._blocks(mb)
            if 0 < blocks < config.workers:
                raise ValueError(
                    f"cache_mb={mb} is {blocks} blocks — fewer than "
                    f"workers={config.workers}; every SOR worker needs a "
                    "non-empty slice"
                )
        self.batches = 0
        self.evaluations = 0
        self.out_of_order = 0
        self._grids: dict[int, list[ReplayConfig]] = {}
        self._memo: tuple[tuple[int, int, int], list[TraceSimResult]] | None = None

    # -- geometry -----------------------------------------------------------

    def _blocks(self, cache_mb: float) -> int:
        return int(cache_mb * 1024 * 1024) // self.block_size

    def grid(self, workers: int) -> list[ReplayConfig]:
        """The candidate grid at one SOR fan-out (memoized)."""
        cached = self._grids.get(workers)
        if cached is None:
            cached = self._grids[workers] = [
                ReplayConfig(
                    policy=policy,
                    capacity_blocks=self._blocks(mb),
                    workers=workers,
                    hint=self.config.hint,
                )
                for policy in self.config.policies
                for mb in self.config.cache_mbs
            ]
        return cached

    def window_bounds(self) -> tuple[int, int]:
        """Current evaluation window as ``[start, stop)`` log positions."""
        stop = self.interner.events_seen
        start = max(
            self.interner.first_event, stop - self.config.window_events
        )
        return start, stop

    def window_events(self) -> list[PartialStripeError]:
        """The events the next evaluation will replay (offline comparator)."""
        start, stop = self.window_bounds()
        return self.interner.events_slice(start, stop)

    # -- ingest -------------------------------------------------------------

    def ingest(self, events: Sequence[PartialStripeError]) -> int:
        """Append one batch (sorted); returns how many events landed.

        Batches are sorted before interning; an event older than the
        retained log's tail is counted (``out_of_order``) but still
        accepted in arrival position — replay order is arrival order.
        """
        batch = sorted(events)
        if not batch:
            return 0
        tail = self.interner.events_slice(
            max(self.interner.events_seen - 1, self.interner.first_event)
        )
        if tail and batch[0] < tail[-1]:
            self.out_of_order += 1
            if _obs.ENABLED:
                _obs.counter("serve.ingest.out_of_order").inc()
        n = self.interner.extend(batch)
        self.batches += 1
        self._memo = None
        cap = self.config.compact_factor * self.config.window_events
        if self.interner.events_seen - self.interner.first_event > cap:
            self.interner.compact(self.config.window_events)
        if _obs.ENABLED:
            start, stop = self.window_bounds()
            _obs.counter("serve.ingest.batches").inc()
            _obs.gauge("serve.window.events").set(stop - start)
            _obs.gauge("serve.window.blocks").set(self.interner.n_blocks)
        return n

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, workers: int | None = None) -> list[TraceSimResult]:
        """Replay the current window over the candidate grid.

        Returns one row per grid cell, replayed in arrival order: for an
        in-order window, bit-for-bit equal to the offline
        ``simulate_grid_pass(backend, window_events(), grid(workers))``.
        Pooled and in-process evaluation agree on every window.
        Memoized until the next ingest batch moves the window.
        """
        workers = workers if workers is not None else self.config.workers
        start, stop = self.window_bounds()
        key = (start, stop, workers)
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        configs = self.grid(workers)
        t0 = time.perf_counter()
        if self.pool is not None and self.pool.resolved_workers() > 1:
            rows = self._evaluate_pooled(start, stop, workers, configs)
        else:
            rows = simulate_grid_pass(
                self.backend,
                self.interner.events_slice(start, stop),
                configs,
                plan_cache=self.interner.plan_cache,
                stream=self.interner.window(start, stop),
            )
        self.evaluations += 1
        self._memo = (key, rows)
        if _obs.ENABLED:
            _obs.counter("serve.evaluate.count").inc()
            _obs.histogram("serve.evaluate.seconds").observe(
                time.perf_counter() - t0
            )
        return rows

    def _evaluate_pooled(
        self, start: int, stop: int, workers: int, configs: list[ReplayConfig]
    ) -> list[TraceSimResult]:
        """Shard the grid across the engine pool; row order preserved."""
        from .loadgen import records_for

        n_shards = min(self.pool.resolved_workers(), len(configs))
        records = records_for(self.interner.events_slice(start, stop))
        shards: list[list[tuple]] = [[] for _ in range(n_shards)]
        for i, config in enumerate(configs):
            shards[i % n_shards].append(
                (config.policy, config.capacity_blocks, config.workers)
            )
        payloads = [
            (
                self.config.code,
                self.config.p,
                self.config.scheme_mode,
                self.config.hint,
                records,
                shard,
            )
            for shard in shards
        ]
        shard_rows = list(self.pool.map(_evaluate_shard, payloads))
        rows: list[TraceSimResult | None] = [None] * len(configs)
        for s, result in enumerate(shard_rows):
            for j, row in enumerate(result):
                rows[s + j * n_shards] = TraceSimResult(**row)
        return [row for row in rows if row is not None]

    # -- the query ----------------------------------------------------------

    def advise(self, spec: ArraySpec | None = None) -> Advice:
        """Answer "what policy/capacity should this array run?"."""
        t0 = time.perf_counter()
        if spec is None:
            spec = ArraySpec(code=self.config.code, p=self.config.p)
        if spec.code != self.config.code or spec.p != self.config.p:
            raise ValueError(
                f"advisor serves {self.config.code} p={self.config.p}, "
                f"not {spec.code} p={spec.p}"
            )
        workers = spec.workers if spec.workers is not None else self.config.workers
        rows = self.evaluate(workers)
        winner = pick_winner(rows)
        runners = [r.hit_ratio for r in rows if r is not winner]
        lead = winner.hit_ratio - max(runners) if runners else winner.hit_ratio
        start, stop = self.window_bounds()
        fill = min(1.0, (stop - start) / self.config.window_events)
        advice = Advice(
            policy=winner.policy,
            cache_mb=winner.capacity_blocks * self.block_size / (1024 * 1024),
            capacity_blocks=winner.capacity_blocks,
            hit_ratio=winner.hit_ratio,
            confidence=_confidence(fill, lead),
            window_events=stop - start,
            window_start=start,
            evaluated=len(rows),
            workers=winner.workers,
        )
        if _obs.ENABLED:
            latency = time.perf_counter() - t0
            _obs.counter("serve.advise.count").inc()
            hist = _obs.histogram("serve.advise.latency")
            hist.observe(latency)
            p99 = hist.quantile(0.99)
            if p99 == p99:  # skip the empty-histogram NaN
                _obs.gauge("serve.advise.latency.p99").set(p99)
        return advice

    # -- checkpoint payload ---------------------------------------------------

    def state(self) -> dict:
        """Replay state for checkpointing (events + counters + positions)."""
        from .loadgen import records_for

        return {
            "fingerprint": self.config.fingerprint(),
            "dropped": self.interner.first_event,
            "events": records_for(
                self.interner.events_slice(self.interner.first_event)
            ),
            "batches": self.batches,
            "evaluations": self.evaluations,
            "out_of_order": self.out_of_order,
        }

    @classmethod
    def from_state(
        cls, config: ServeConfig, state: dict, pool=None
    ) -> "CacheAdvisor":
        """Rebuild an advisor whose replay state matches the checkpoint.

        Re-interning the retained events reproduces the interner arrays
        bit for bit (interning is a pure function of the event sequence,
        and ``compact`` leaves exactly the state a fresh interner fed the
        suffix would hold), so a restored advisor's next evaluation
        equals the pre-crash one.
        """
        if state.get("fingerprint") != config.fingerprint():
            raise ValueError(
                "checkpoint fingerprint does not match this ServeConfig; "
                "refusing to resume replay state for a different deployment"
            )
        advisor = cls(config, pool=pool)
        events = [PartialStripeError(**r) for r in state.get("events", ())]
        advisor.interner.extend(events)
        advisor.interner._dropped = int(state.get("dropped", 0))
        advisor.batches = int(state.get("batches", 0))
        advisor.evaluations = int(state.get("evaluations", 0))
        advisor.out_of_order = int(state.get("out_of_order", 0))
        return advisor
