"""Replacement-policy interface shared by every cache in the package.

Lives in ``repro.core`` (layer 0) so both the concrete policies in
``repro.cache`` and FBF itself in ``repro.core.fbf_cache`` can depend on
it without an upward import; ``repro.cache.base`` re-exports it for the
historical import path.

A policy manages a fixed number of *block slots* (capacity counted in
chunks, matching the paper's cache-size axis divided by the 32 KB chunk
size).  The single entry point is :meth:`CachePolicy.request`: present a
block key, learn whether it hit, and let the policy update its state —
installing the block on a miss and evicting if needed.

``priority`` is an optional per-request hint carrying FBF's priority value
(the number of parity chains sharing the chunk, capped at 3).  Classic
policies ignore it, which is exactly the paper's point of comparison.

Keys are arbitrary hashables; the simulators use ``(stripe, row, column)``
tuples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

__all__ = ["CacheStats", "CachePolicy", "SimpleCachePolicy"]

Key = Hashable


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters for one policy instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over requests; 0.0 before any request."""
        total = self.requests
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


class CachePolicy(ABC):
    """Abstract replacement policy over ``capacity`` block slots."""

    __slots__ = ("capacity", "stats")

    #: registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()

    @abstractmethod
    def request(self, key: Key, priority: int | None = None) -> bool:
        """Access ``key``; return True on hit.  On miss the block is
        fetched and installed (evicting if the cache is full)."""

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> None:
        """Replay a batch of requests; only the stats are observable after.

        The batched hot path: the grid replay calls it once per worker
        substream for every cell no exact shortcut answers.  This
        generic version just loops :meth:`request`; fifo/lru/lfu/arc/fbf
        override it with the same per-request logic inlined into one
        tight loop, which roughly halves the grid pass's CPU time.  The
        overrides are decision-for-decision identical:
        ``tests/engine/test_grid_pass.py`` pins every grid-pass row to
        the per-point :func:`~repro.engine.tracesim.simulate_trace` row.
        """
        request = self.request
        if priorities is None:
            for key in keys:
                request(key)
        else:
            for key, priority in zip(keys, priorities):
                request(key, priority)

    @abstractmethod
    def __contains__(self, key: Key) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    def reset(self) -> None:
        """Drop all cached blocks and zero the statistics."""
        self.stats.reset()
        self._clear()

    @abstractmethod
    def _clear(self) -> None: ...

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(capacity={self.capacity}, len={len(self)})"


class SimpleCachePolicy(CachePolicy):
    """Template for policies without ghost state.

    Subclasses implement ``_lookup``/``_on_hit``/``_admit``/``_evict``;
    the request flow, capacity-zero handling, and stats accounting live
    here once.
    """

    __slots__ = ()

    def request(self, key: Key, priority: int | None = None) -> bool:
        if key in self:
            self.stats.hits += 1
            self._on_hit(key)
            return True
        self.stats.misses += 1
        if self.capacity == 0:
            return False
        if len(self) >= self.capacity:
            self._evict()
            self.stats.evictions += 1
        self._admit(key, priority)
        return False

    @abstractmethod
    def _on_hit(self, key: Key) -> None: ...

    @abstractmethod
    def _admit(self, key: Key, priority: int | None) -> None: ...

    @abstractmethod
    def _evict(self) -> Key:
        """Remove and return one victim block."""
