"""The unified fast trace replay (no event clock), one per repo.

Hit ratio and disk-read counts (paper Figures 8 and 9) depend only on
the request *sequence*, not on timing, so this module replays recovery
request streams directly against a replacement policy — orders of
magnitude faster than the event simulation, which is reserved for the
timing metrics (Figures 10 and 11).

This is the single implementation behind every code: the
:class:`~repro.engine.backend.CodeBackend` supplies plans and events,
the replay supplies SOR worker partitioning, plan memoization, hint
models, the sanitizer hook and the result row.  The per-world replays
(``repro.lrc.tracesim``, ``repro.sim.tracesim``) are gone: XOR callers
pass an :class:`~repro.engine.backends.XORBackend`.

Worker partitioning matches the paper's SOR extension: events are dealt
round-robin to ``workers`` policies, each sized ``capacity // workers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Any, Callable, Hashable, Sequence

from ..cache.base import CachePolicy
from ..cache.registry import make_policy
from ..obs import runtime as _obs
from .backend import CodeBackend, EnginePlan, make_priority_model

__all__ = [
    "TraceSimResult",
    "PlanCache",
    "simulate_trace",
    "effective_partition",
]


@dataclass
class TraceSimResult:
    """Counters from one trace replay — any code backend, one schema."""

    policy: str
    scheme_mode: str
    code: str
    p: int
    capacity_blocks: int
    workers: int
    per_worker_blocks: int
    n_errors: int
    requests: int
    hits: int
    disk_reads: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def n_events(self) -> int:
        """Alias of ``n_errors`` (LRC batches are "events", not errors)."""
        return self.n_errors


class PlanCache:
    """Key-memoized recovery plans for one backend (shared across runs).

    One instance per backend is meant to be *shared* across every run
    that uses it — all cache sizes and policies of a sweep group, and all
    trace replays of one engine worker — since plans are deterministic
    functions of the backend's :meth:`~repro.engine.backend.CodeBackend.
    plan_key`.  ``max_entries`` bounds the memo (FIFO eviction of the
    oldest key) for long-lived sharing; the distinct-key count is small
    (``O(disks x rows^2)`` for the XOR codes), so the default is
    unbounded.
    """

    def __init__(self, backend: CodeBackend, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.backend = backend
        self.max_entries = max_entries
        self._memo: dict[Hashable, EnginePlan] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, event: Any) -> EnginePlan:
        key = self.backend.plan_key(event)
        plan = self._memo.get(key)
        if plan is None:
            self._misses += 1
            plan = self.backend.build_plan(event)
            if self.max_entries is not None and len(self._memo) >= self.max_entries:
                # FIFO: drop the oldest key (dict preserves insertion
                # order, so eviction is deterministic).
                del self._memo[next(iter(self._memo))]
            self._memo[key] = plan
        else:
            self._hits += 1
        return plan

    def stats(self) -> dict[str, int]:
        """Lifetime counters: plan-memo hits/misses and live entries."""
        return {"hits": self._hits, "misses": self._misses, "entries": len(self._memo)}

    def counts(self) -> tuple[int, int]:
        """``(hits, misses)`` — the cheap snapshot obs deltas are made of."""
        return self._hits, self._misses


def effective_partition(
    capacity_blocks: int, workers: int, n_events: int
) -> tuple[int, int]:
    """Resolve the SOR partition: ``(effective workers, blocks per worker)``.

    The effective worker count is capped at the event count (a worker
    with no events contributes nothing and would skew the capacity
    split).  A partition where every worker gets a zero-block slice of a
    *non-zero* cache is a configuration error, not a degenerate cache —
    it silently measures nothing — so it raises instead of truncating.
    """
    if capacity_blocks < 0:
        raise ValueError(f"capacity_blocks must be >= 0, got {capacity_blocks}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    eff_workers = min(workers, n_events) or 1
    if 0 < capacity_blocks < eff_workers:
        raise ValueError(
            f"workers={eff_workers} exceeds capacity_blocks={capacity_blocks}: "
            "every SOR worker would get a zero-block cache slice; lower "
            "workers or raise the cache size"
        )
    return eff_workers, capacity_blocks // eff_workers


def simulate_trace(
    backend: CodeBackend,
    events: Sequence[Any],
    policy: str = "fbf",
    capacity_blocks: int = 64,
    workers: int = 1,
    policy_factory: Callable[[int], CachePolicy] | None = None,
    plan_cache: PlanCache | None = None,
    policy_kwargs: dict | None = None,
    hint: str = "priority",
    sanitize: bool = False,
) -> TraceSimResult:
    """Replay the recovery request stream of ``events`` through a cache.

    ``capacity_blocks`` is the *total* cache in chunks; with ``workers > 1``
    it is partitioned evenly (integer division, like the paper's per-process
    cache slices) by :func:`effective_partition`, which raises
    :class:`ValueError` when the effective worker count exceeds a non-zero
    capacity (every worker would silently get a zero-block cache).  The
    resolved slice is recorded on ``TraceSimResult.per_worker_blocks``.  ``hint`` selects the :class:`~repro.engine.backend.
    PriorityModel` accompanying each request: ``"priority"`` (the paper's
    1..3 value) or ``"share"`` (the raw chain share count, for many-queue
    FBF variants).  ``sanitize`` wraps every policy in
    :class:`repro.checks.SimSanitizer`, which raises
    :class:`repro.checks.InvariantViolation` the moment a cache invariant
    (FBF single-residency, demotion order, capacity accounting) breaks.

    With :mod:`repro.obs` enabled the call is wrapped in an
    ``engine.simulate_trace`` span and publishes replay/request counters
    plus the plan-cache hit/miss delta; disabled, the only added cost is
    this one flag test.
    """
    if _obs.ENABLED:
        if plan_cache is None:
            plan_cache = PlanCache(backend)
        before_hits, before_misses = plan_cache.counts()
        with _obs.span(
            "engine.simulate_trace",
            {
                "code": backend.code_label,
                "policy": policy if policy_factory is None else "custom",
                "capacity_blocks": capacity_blocks,
                "workers": workers,
            },
        ):
            result = _simulate_trace_impl(
                backend,
                events,
                policy=policy,
                capacity_blocks=capacity_blocks,
                workers=workers,
                policy_factory=policy_factory,
                plan_cache=plan_cache,
                policy_kwargs=policy_kwargs,
                hint=hint,
                sanitize=sanitize,
            )
        after_hits, after_misses = plan_cache.counts()
        _obs.counter("engine.replays").inc()
        _obs.counter("engine.requests").inc(result.requests)
        _obs.counter("engine.cache_hits").inc(result.hits)
        _obs.counter("engine.plan_cache.hits").inc(after_hits - before_hits)
        _obs.counter("engine.plan_cache.misses").inc(after_misses - before_misses)
        _obs.gauge("engine.plan_cache.entries").set(len(plan_cache))
        return result
    return _simulate_trace_impl(
        backend,
        events,
        policy=policy,
        capacity_blocks=capacity_blocks,
        workers=workers,
        policy_factory=policy_factory,
        plan_cache=plan_cache,
        policy_kwargs=policy_kwargs,
        hint=hint,
        sanitize=sanitize,
    )


def _simulate_trace_impl(
    backend: CodeBackend,
    events: Sequence[Any],
    policy: str = "fbf",
    capacity_blocks: int = 64,
    workers: int = 1,
    policy_factory: Callable[[int], CachePolicy] | None = None,
    plan_cache: PlanCache | None = None,
    policy_kwargs: dict | None = None,
    hint: str = "priority",
    sanitize: bool = False,
) -> TraceSimResult:
    """The replay body — identical with obs on or off (row equality)."""
    model = make_priority_model(hint)
    if plan_cache is None:
        plan_cache = PlanCache(backend)
    elif plan_cache.backend is not backend:
        raise ValueError("plan_cache was built for a different backend")

    events = sorted(events)
    workers, per_worker = effective_partition(capacity_blocks, workers, len(events))
    kwargs = policy_kwargs or {}
    if policy_factory is not None:
        policies = [policy_factory(per_worker) for _ in range(workers)]
    else:
        policies = [make_policy(policy, per_worker, **kwargs) for _ in range(workers)]
    if sanitize:
        # Imported here: repro.checks imports the event kernel, which
        # would cycle through repro.sim at module import time.
        from ..checks.sanitizer import SimSanitizer

        policies = [SimSanitizer(p) for p in policies]

    # Hot loop: the (unit, hint) pairs are precomputed once per plan
    # shape (cached on the EnginePlan), so the per-request work is one
    # tuple build and one policy call.
    get_plan = plan_cache.get
    sequence = model.sequence
    for event, cache in zip(events, cycle(policies)):
        stripe = event.stripe
        request = cache.request
        for unit, hint_value in sequence(get_plan(event)):
            request((stripe, unit), priority=hint_value)

    hits = sum(p.stats.hits for p in policies)
    misses = sum(p.stats.misses for p in policies)
    return TraceSimResult(
        policy=policy if policy_factory is None else getattr(policies[0], "name", "custom"),
        scheme_mode=backend.scheme_label,
        code=backend.code_label,
        p=backend.p,
        capacity_blocks=capacity_blocks,
        workers=workers,
        per_worker_blocks=per_worker,
        n_errors=len(events),
        requests=hits + misses,
        hits=hits,
        disk_reads=misses,
    )
