"""Mattson stack-distance profiling: LRU hit counts at every capacity.

LRU has the *inclusion* property (Mattson et al., IBM Systems Journal
1970): the content of a C-block LRU cache is always a subset of a
(C+1)-block one, so a request hits at capacity C iff its reuse distance —
the number of **distinct** blocks referenced since the previous access to
the same block — is strictly less than C.  One pass over the request
stream therefore yields the exact hit count for *all* capacities at once,
which is what the grid replay's LRU fast path exploits: the hit-ratio
axis of Figures 8/9 collapses from one replay per cache size to one
reuse-distance profile per worker substream.

Distinct-count queries use the classic Fenwick-tree (binary indexed
tree) formulation: keep a 0/1 marker at each block's *latest* access
position; the number of distinct blocks between two accesses of a block
is the number of markers strictly between those positions, an
O(log n) prefix-sum query.  Total cost is O(n log n) for an n-request
stream, independent of how many capacities the grid sweeps.

The profile is exact (there is no sampled variant; replay is a small
share of a reproduction, so no trace here needs one).  The per-request
distances themselves are public as :func:`repro.analysis.reuse_distances`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["StackDistanceProfile"]


class StackDistanceProfile:
    """One-pass LRU hit counts for a request stream at every capacity.

    ``hits_at(c)`` is exactly the hit count of replaying the stream
    through a c-block LRU cache: a request hits iff its reuse distance is
    finite and ``< c``.  The cumulative histogram saturates at the
    stream's maximum finite distance, so any larger capacity is a cheap
    clamp, and capacity 0 is always 0 hits (matching the degenerate
    zero-capacity replay).
    """

    __slots__ = ("requests", "_cum")

    def __init__(self, stream: Sequence[int]):
        n = self.requests = len(stream)
        hist: dict[int, int] = {}
        # Fenwick walks inlined (profiles sit on the grid replay's
        # critical path; a tree class's method dispatch costs ~40% here).
        tree = [0] * (n + 1)
        last: dict[int, int] = {}
        get_last = last.get
        get_hist = hist.get
        for t, block in enumerate(stream, 1):
            prev = get_last(block)
            if prev is not None:
                d = 0
                i = t - 1
                while i > 0:
                    d += tree[i]
                    i -= i & -i
                i = prev
                while i > 0:
                    d -= tree[i]
                    i -= i & -i
                hist[d] = get_hist(d, 0) + 1
                i = prev
                while i <= n:
                    tree[i] -= 1
                    i += i & -i
            last[block] = t
            i = t
            while i <= n:
                tree[i] += 1
                i += i & -i
        # _cum[c] = hits at capacity c = #requests with distance < c.
        max_d = max(hist) if hist else -1
        cum = [0] * (max_d + 2)
        running = 0
        for d in range(max_d + 1):
            running += hist.get(d, 0)
            cum[d + 1] = running
        self._cum = cum

    def hits_at(self, capacity: int) -> int:
        """Exact LRU hit count for a ``capacity``-block cache."""
        if capacity <= 0:
            return 0
        cum = self._cum
        return cum[min(capacity, len(cum) - 1)]

