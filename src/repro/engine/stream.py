"""Interned request streams and the single-pass grid replay.

The hit-ratio grids (Figures 8/9, the ablations, the LRC footnote) sweep
many (policy x capacity x workers) configurations over the *same*
recovery request stream.  Per-point :func:`~repro.engine.tracesim.
simulate_trace` decodes that stream from scratch every time: plan lookup
per event, ``(stripe, unit)`` tuple build per request, nested-tuple
hashing inside every policy dict.  This module decodes **once**:

* :class:`StreamInterner` is the one interning loop: it materializes
  ``event -> plan -> (unit, hint)`` into an :class:`InternedStream` —
  block keys mapped to dense ints in first-seen order, hints in a
  parallel array — reusing the shared
  :class:`~repro.engine.tracesim.PlanCache`.  :func:`intern_stream`
  runs it once over a whole sorted trace; the advisor extends it batch
  by batch;
* :func:`simulate_grid_pass` steps every configuration over the decoded
  stream and returns the same :class:`~repro.engine.tracesim.
  TraceSimResult` rows as the per-point loop, bit for bit;
* plain-LRU configurations skip stepping entirely: a Mattson
  reuse-distance profile (:mod:`repro.engine.stackdist`) yields the
  exact LRU hit count at *every* capacity from one pass per worker
  substream.

Interning is exact, not approximate: every policy keys its bookkeeping
dicts on the request key's identity and never iterates them in hash
order (enforced by simlint's DET002/DET003), so a bijective key renaming
cannot change a single hit/miss decision.  Likewise the SOR round-robin
deal makes worker caches fully independent, so replaying each worker's
substream contiguously is decision-for-decision identical to the
interleaved order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..cache.base import CachePolicy
from ..cache.registry import make_policy
from ..obs import runtime as _obs
from .backend import CodeBackend, make_priority_model
from .stackdist import StackDistanceProfile
from .tracesim import PlanCache, TraceSimResult, effective_partition

__all__ = [
    "InternedStream",
    "intern_stream",
    "StreamInterner",
    "ReplayConfig",
    "simulate_grid_pass",
]

#: Registry policies whose decisions ignore the priority hint entirely —
#: their substream replay can drop the hint argument from the hot call.
#: Only FBF (and arbitrary factories) consume hints.
HINT_FREE_POLICIES = frozenset(
    {"fifo", "lru", "lfu", "arc", "lru2", "2q", "lrfu", "fbr", "mq", "lirs"}
)

#: Policies that admit every missed key and never displace a resident
#: block before the cache is full (verified per algorithm).  For these, a
#: worker whose capacity covers its substream's whole working set never
#: evicts, so its hit count is policy-independent: requests minus
#: distinct blocks.  2Q/LIRS-style policies bound internal segments below
#: total capacity and are excluded.
SATURATION_SAFE_POLICIES = frozenset({"fifo", "lru", "lfu", "arc", "fbf"})


class InternedStream:
    """One decoded request stream: dense block ids + parallel hint array.

    Requests are stored flat as machine-int ``array('i')`` buffers
    (``bids``/``hints``), roughly 4x smaller than the per-event tuples of
    boxed ints they replaced, with ``offsets[i]:offsets[i+1]`` delimiting
    event *i*'s slice.  ``keys[bid]`` recovers the original
    ``(stripe, unit)`` key for block id ``bid``.  :meth:`worker_substreams`
    deals events round-robin into per-worker flat ``(bids, hints)``
    parallel ``array('i')`` pairs — still the ``Sequence[int]`` the
    policies' ``request_many`` consumes — memoized per worker count,
    since a sweep group replays the same deal for every policy and
    capacity.
    """

    __slots__ = ("backend", "hint", "keys", "bids", "hints", "offsets",
                 "total_requests", "_worker_split")

    def __init__(
        self,
        backend: CodeBackend,
        hint: str,
        keys: tuple[Any, ...],
        bids: array,
        hints: array,
        offsets: array,
    ):
        if len(bids) != len(hints):
            raise ValueError("bids and hints must be parallel arrays")
        if len(offsets) == 0 or offsets[-1] != len(bids):
            raise ValueError("offsets must cover the request arrays")
        self.backend = backend
        self.hint = hint
        self.keys = keys
        self.bids = bids
        self.hints = hints
        self.offsets = offsets
        self.total_requests = len(bids)
        self._worker_split: dict[int, list[tuple[array, array]]] = {}

    @property
    def n_events(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_blocks(self) -> int:
        """Distinct blocks touched by the stream."""
        return len(self.keys)

    def worker_substreams(self, workers: int) -> list[tuple[array, array]]:
        """Per-worker ``(block_ids, hints)`` parallel arrays (round-robin).

        Event *i* goes to worker ``i % workers`` — the SOR deal of
        :func:`~repro.engine.tracesim.simulate_trace`.  Worker caches are
        independent, so each worker's contiguous substream replays to the
        same decisions as the interleaved original.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        cached = self._worker_split.get(workers)
        if cached is None:
            all_bids, all_hints, offsets = self.bids, self.hints, self.offsets
            n_events = len(offsets) - 1
            cached = []
            for w in range(workers):
                bids = array("i")
                hints = array("i")
                for i in range(w, n_events, workers):
                    start, stop = offsets[i], offsets[i + 1]
                    bids += all_bids[start:stop]
                    hints += all_hints[start:stop]
                cached.append((bids, hints))
            self._worker_split[workers] = cached
        return cached


class StreamInterner:
    """Incremental interning over an event log: the one interning loop.

    :func:`intern_stream` feeds a complete, already-known trace through
    a fresh interner in one :meth:`extend`.  A long-lived advisor
    instead sees events *arrive*: it appends each batch as it lands and
    replays a sliding window of the most recent events.  This class
    keeps the interning state (the block-key index, the flat
    ``bids``/``hints``/``offsets`` arrays, the shared
    :class:`~repro.engine.tracesim.PlanCache`) alive across appends, so
    each batch costs one plan decode per *new* plan rather than a full
    re-intern of the window.

    Equivalence contract: when events are appended in globally sorted
    order (the serve ingest path sorts each batch, and the synthetic /
    trace sources emit monotonically increasing times),
    ``interner.window(start, stop)`` is bit-for-bit identical to
    ``intern_stream(backend, events[start:stop])`` — same keys, same
    dense ids, same hints — because dense ids are assigned in first-seen
    order within the window either way (property-tested in
    ``tests/engine/test_stream_interner.py``).

    Memory is bounded by :meth:`compact`, which drops a consumed prefix
    and rebases the retained suffix exactly as :meth:`window` does.
    ``events_seen`` keeps counting across compactions, so window indices
    are stable log positions, not buffer offsets.
    """

    __slots__ = ("backend", "hint", "plan_cache", "_model", "_index",
                 "_bids", "_hints", "_offsets", "_events", "_dropped")

    def __init__(
        self,
        backend: CodeBackend,
        hint: str = "priority",
        plan_cache: PlanCache | None = None,
    ):
        if plan_cache is None:
            plan_cache = PlanCache(backend)
        elif plan_cache.backend is not backend:
            raise ValueError("plan_cache was built for a different backend")
        self.backend = backend
        self.hint = hint
        self.plan_cache = plan_cache
        self._model = make_priority_model(hint)
        self._index: dict[Any, int] = {}
        self._bids = array("i")
        self._hints = array("i")
        self._offsets = array("i", [0])
        self._events: list[Any] = []
        self._dropped = 0  #: events removed from the left by compact()

    @property
    def events_seen(self) -> int:
        """Total events ever appended (stable log length, survives compact)."""
        return self._dropped + len(self._events)

    @property
    def n_blocks(self) -> int:
        return len(self._index)

    @property
    def first_event(self) -> int:
        """Log index of the oldest retained event."""
        return self._dropped

    def extend(self, events: Iterable[Any]) -> int:
        """Intern ``events`` in the given order; returns how many arrived.

        The caller owns ordering: the serve batcher sorts each batch and
        feeds batches in arrival order, which keeps the log globally
        sorted for time-monotone sources.
        """
        index = self._index
        bids, hints, offsets = self._bids, self._hints, self._offsets
        get_plan, sequence = self.plan_cache.get, self._model.sequence
        n = 0
        for event in events:
            stripe = event.stripe
            for unit, hint_value in sequence(get_plan(event)):
                key = (stripe, unit)
                bid = index.get(key)
                if bid is None:
                    bid = index[key] = len(index)
                bids.append(bid)
                hints.append(hint_value)
            offsets.append(len(bids))
            self._events.append(event)
            n += 1
        return n

    def events_slice(self, start: int, stop: int | None = None) -> list[Any]:
        """The retained events for log positions ``[start, stop)``."""
        lo = start - self._dropped
        if lo < 0:
            raise ValueError(
                f"event {start} was compacted away (oldest retained: "
                f"{self._dropped})"
            )
        hi = None if stop is None else stop - self._dropped
        return self._events[lo:hi]

    def window(self, start: int, stop: int | None = None) -> InternedStream:
        """An :class:`InternedStream` over log positions ``[start, stop)``.

        Dense ids are rebased to first-seen order *within the window*, so
        the result equals a fresh ``intern_stream`` of the same slice.
        """
        lo = start - self._dropped
        if lo < 0:
            raise ValueError(
                f"event {start} was compacted away (oldest retained: "
                f"{self._dropped})"
            )
        hi = len(self._events) if stop is None else stop - self._dropped
        if not 0 <= lo <= hi <= len(self._events):
            raise ValueError(
                f"window [{start}, {stop}) outside the retained log "
                f"[{self._dropped}, {self.events_seen})"
            )
        offsets = self._offsets
        req_lo, req_hi = offsets[lo], offsets[hi]
        old_bids = self._bids
        remap: dict[int, int] = {}
        new_keys: list[Any] = []
        bids = array("i")
        append = bids.append
        # key_of is materialized lazily: only ids first seen in the
        # window need their (stripe, unit) key recovered.
        key_of: tuple[Any, ...] | None = None
        for i in range(req_lo, req_hi):
            old = old_bids[i]
            new = remap.get(old)
            if new is None:
                if key_of is None:
                    key_of = tuple(self._index)
                new = remap[old] = len(new_keys)
                new_keys.append(key_of[old])
            append(new)
        new_offsets = array("i", (offsets[i] - req_lo for i in range(lo, hi + 1)))
        return InternedStream(
            self.backend,
            self.hint,
            tuple(new_keys),
            bids,
            self._hints[req_lo:req_hi],
            new_offsets,
        )

    def compact(self, keep_last: int) -> int:
        """Drop all but the last ``keep_last`` events; returns how many went.

        Rebases the retained suffix through :meth:`window`'s machinery, so
        every later ``window``/``snapshot`` call sees exactly the state a
        fresh interner fed only the suffix would hold.  The block-key
        index is rebuilt from the suffix, releasing keys only the dropped
        prefix touched.
        """
        excess = len(self._events) - max(keep_last, 0)
        if excess <= 0:
            return 0
        rebased = self.window(self._dropped + excess)
        self._index = {key: i for i, key in enumerate(rebased.keys)}
        self._bids = rebased.bids
        self._hints = rebased.hints
        self._offsets = rebased.offsets
        self._events = self._events[excess:]
        self._dropped += excess
        return excess

    def snapshot(self) -> InternedStream:
        """The whole retained log as one :class:`InternedStream`."""
        return InternedStream(
            self.backend,
            self.hint,
            tuple(self._index),
            array("i", self._bids),
            array("i", self._hints),
            array("i", self._offsets),
        )


def intern_stream(
    backend: CodeBackend,
    events: Sequence[Any],
    hint: str = "priority",
    plan_cache: PlanCache | None = None,
) -> InternedStream:
    """Decode ``events`` once into an :class:`InternedStream`.

    Events are sorted exactly as :func:`~repro.engine.tracesim.
    simulate_trace` sorts them, then fed through one fresh
    :class:`StreamInterner`: plans come from the shared ``plan_cache``
    memo and block keys are interned to dense ints in first-seen order
    (deterministic: a function of the sorted event stream alone).
    """
    interner = StreamInterner(backend, hint, plan_cache)
    plan_cache = interner.plan_cache

    obs_on = _obs.ENABLED
    if obs_on:
        before_hits, before_misses = plan_cache.counts()
        decode_span = _obs.span(
            "engine.intern_stream", {"code": backend.code_label, "hint": hint}
        )
        decode_span.__enter__()

    interner.extend(sorted(events))
    stream = interner.snapshot()
    if obs_on:
        decode_span["events"] = stream.n_events
        decode_span["blocks"] = stream.n_blocks
        decode_span.__exit__(None, None, None)
        after_hits, after_misses = plan_cache.counts()
        _obs.counter("engine.streams_interned").inc()
        _obs.counter("engine.stream.events").inc(stream.n_events)
        _obs.counter("engine.stream.requests").inc(stream.total_requests)
        _obs.counter("engine.plan_cache.hits").inc(after_hits - before_hits)
        _obs.counter("engine.plan_cache.misses").inc(after_misses - before_misses)
        _obs.gauge("engine.plan_cache.entries").set(len(plan_cache))
    return stream


@dataclass
class ReplayConfig:
    """One grid cell: the replay parameters of a ``simulate_trace`` call."""

    policy: str = "fbf"
    capacity_blocks: int = 64
    workers: int = 1
    policy_factory: Callable[[int], CachePolicy] | None = None
    policy_kwargs: dict | None = None
    hint: str = "priority"
    sanitize: bool = False


def _is_plain_lru(config: ReplayConfig) -> bool:
    """Eligible for the stack-distance fast path: exactly registry LRU.

    Anything that could perturb decisions or needs the stepped machinery
    (a custom factory, constructor kwargs, the sanitizer wrapper) takes
    the stepped path; FBF/ARC/LFU and friends lack LRU's inclusion
    property and always step.
    """
    return (
        config.policy == "lru"
        and config.policy_factory is None
        and not config.policy_kwargs
        and not config.sanitize
    )


def _replay_stepped(
    stream: InternedStream,
    config: ReplayConfig,
    worker_distincts: Sequence[int] | None = None,
) -> TraceSimResult:
    """Step one configuration over the decoded stream (any policy).

    ``worker_distincts`` (per-worker working-set sizes, only passed for
    :func:`_is_saturation_eligible` configs) lets individual workers skip
    the replay when their outcome is forced: a worker whose slice covers
    its whole working set never evicts, and one with zero reuse never
    hits — both give exactly ``hits = requests - distinct``.
    """
    workers, per_worker = effective_partition(
        config.capacity_blocks, config.workers, stream.n_events
    )
    kwargs = config.policy_kwargs or {}
    if config.policy_factory is not None:
        factory = config.policy_factory
    else:
        factory = lambda cap: make_policy(config.policy, cap, **kwargs)
    if config.sanitize:
        # Imported here for the same reason as simulate_trace: repro.checks
        # imports the event kernel, which cycles through repro.sim.
        from ..checks.sanitizer import SimSanitizer

        base_factory = factory
        factory = lambda cap: SimSanitizer(base_factory(cap))

    hint_free = (
        config.policy_factory is None
        and not config.sanitize
        and config.policy in HINT_FREE_POLICIES
    )
    hits = misses = 0
    policies: list[CachePolicy] = []
    for w, (bids, hints) in enumerate(stream.worker_substreams(workers)):
        if worker_distincts is not None:
            distinct = worker_distincts[w]
            if (0 < per_worker and distinct <= per_worker) or distinct == len(bids):
                hits += len(bids) - distinct
                misses += distinct
                continue
        cache = factory(per_worker)
        policies.append(cache)
        # One batch call per worker: the policy's request_many replays
        # its substream in a single inlined loop over the interned ids;
        # hint-free policies skip the hint array entirely.
        cache.request_many(bids, None if hint_free else hints)

    if not policies:
        # every worker was skipped; a probe instance supplies the label
        policies.append(factory(per_worker))
    hits += sum(p.stats.hits for p in policies)
    misses += sum(p.stats.misses for p in policies)
    return TraceSimResult(
        policy=(
            config.policy
            if config.policy_factory is None
            else getattr(policies[0], "name", "custom")
        ),
        scheme_mode=stream.backend.scheme_label,
        code=stream.backend.code_label,
        p=stream.backend.p,
        capacity_blocks=config.capacity_blocks,
        workers=workers,
        per_worker_blocks=per_worker,
        n_errors=stream.n_events,
        requests=hits + misses,
        hits=hits,
        disk_reads=misses,
    )


def _replay_lru_fast(
    stream: InternedStream,
    config: ReplayConfig,
    profiles: dict[int, list[StackDistanceProfile]],
) -> TraceSimResult:
    """LRU via reuse distances: hits at any capacity, no stepping."""
    workers, per_worker = effective_partition(
        config.capacity_blocks, config.workers, stream.n_events
    )
    per_worker_profiles = profiles.get(workers)
    if per_worker_profiles is None:
        per_worker_profiles = profiles[workers] = [
            StackDistanceProfile(bids)
            for bids, _ in stream.worker_substreams(workers)
        ]
    hits = sum(p.hits_at(per_worker) for p in per_worker_profiles)
    requests = stream.total_requests
    return TraceSimResult(
        policy="lru",
        scheme_mode=stream.backend.scheme_label,
        code=stream.backend.code_label,
        p=stream.backend.p,
        capacity_blocks=config.capacity_blocks,
        workers=workers,
        per_worker_blocks=per_worker,
        n_errors=stream.n_events,
        requests=requests,
        hits=hits,
        disk_reads=requests - hits,
    )


def _is_saturation_eligible(config: ReplayConfig) -> bool:
    """Known admit-all/evict-only-full registry policy, unwrapped."""
    return (
        config.policy in SATURATION_SAFE_POLICIES
        and config.policy_factory is None
        and not config.policy_kwargs
        and not config.sanitize
    )


def simulate_grid_pass(
    backend: CodeBackend,
    events: Sequence[Any],
    configs: Iterable[ReplayConfig],
    plan_cache: PlanCache | None = None,
    stream: InternedStream | None = None,
    lru_fast_path: bool = True,
) -> list[TraceSimResult]:
    """Replay every configuration over one decoded stream, in one pass.

    Returns one :class:`~repro.engine.tracesim.TraceSimResult` per
    config, in config order, each bit-for-bit equal to the row the
    per-point ``simulate_trace(backend, events, ...)`` call would
    produce.  The stream is decoded once per distinct hint model (block
    ids are hint-independent, so the LRU reuse-distance profiles and
    per-worker working-set sizes are shared across hints); pass
    ``stream`` to reuse an already-interned stream for its hint.

    Two exact fast paths skip stepping (``lru_fast_path=False`` disables
    both — the equivalence tests' lever):

    * plain LRU at any capacity, via the Mattson reuse-distance profile;
    * *saturated* cells of any :data:`SATURATION_SAFE_POLICIES` policy —
      when every worker's capacity slice covers its substream's whole
      working set, no policy ever evicts and the hit count is exactly
      requests minus distinct blocks.

    Every other cell is stepped: one ``request_many`` call per worker
    substream, which the fifo/lru/lfu/arc/fbf policies override with an
    inlined loop.  Every row is exact.
    """
    configs = list(configs)
    obs_on = _obs.ENABLED
    if obs_on:
        pass_span = _obs.span(
            "engine.grid_pass",
            {"code": backend.code_label, "n_configs": len(configs)},
        )
        pass_span.__enter__()
        n_lru_fast = n_stepped = 0
    streams: dict[str, InternedStream] = {}
    if stream is not None:
        if stream.backend is not backend:
            raise ValueError("stream was interned for a different backend")
        streams[stream.hint] = stream

    def stream_for(hint: str) -> InternedStream:
        cached = streams.get(hint)
        if cached is None:
            cached = streams[hint] = intern_stream(
                backend, events, hint=hint, plan_cache=plan_cache
            )
        return cached

    # workers -> per-worker-substream reuse-distance profiles, shared by
    # every plain-LRU config in the group (ids are hint-independent).
    lru_profiles: dict[int, list[StackDistanceProfile]] = {}
    # workers -> per-worker distinct-block counts (the saturation check).
    worker_distincts: dict[int, list[int]] = {}
    results: list[TraceSimResult] = []
    for config in configs:
        st = stream_for(config.hint)
        if lru_fast_path and _is_plain_lru(config):
            results.append(_replay_lru_fast(st, config, lru_profiles))
            if obs_on:
                n_lru_fast += 1
            continue
        distincts = None
        if lru_fast_path and _is_saturation_eligible(config):
            workers, _ = effective_partition(
                config.capacity_blocks, config.workers, st.n_events
            )
            distincts = worker_distincts.get(workers)
            if distincts is None:
                distincts = worker_distincts[workers] = [
                    len(set(bids)) for bids, _ in st.worker_substreams(workers)
                ]
        results.append(_replay_stepped(st, config, worker_distincts=distincts))
        if obs_on:
            n_stepped += 1
    if obs_on:
        pass_span["lru_fast_rows"] = n_lru_fast
        pass_span["stepped_rows"] = n_stepped
        pass_span.__exit__(None, None, None)
        _obs.counter("engine.grid.passes").inc()
        _obs.counter("engine.grid.configs").inc(len(configs))
        _obs.counter("engine.grid.lru_fast_rows").inc(n_lru_fast)
        _obs.counter("engine.grid.stepped_rows").inc(n_stepped)
    return results
