"""Unit tests for the Mattson stack-distance profile.

The profile's one claim — ``hits_at(c)`` equals the hit count of a
stepped c-block LRU replay, for every c — is checked against the real
:class:`LRUCache`.  The per-request distances are tested as
:func:`repro.analysis.reuse_distances` in ``tests/analysis``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.engine.stackdist import StackDistanceProfile

streams = st.lists(st.integers(min_value=0, max_value=12), max_size=120)


class TestStackDistanceProfile:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=streams,
        capacity=st.integers(min_value=0, max_value=16),
    )
    def test_matches_stepped_lru(self, stream, capacity):
        cache = LRUCache(capacity)
        for block in stream:
            cache.request(block)
        profile = StackDistanceProfile(stream)
        assert profile.hits_at(capacity) == cache.stats.hits

    def test_all_capacities_from_one_profile(self):
        stream = [1, 2, 3, 1, 2, 3, 4, 1]
        profile = StackDistanceProfile(stream)
        for capacity in range(0, 10):
            cache = LRUCache(capacity)
            for block in stream:
                cache.request(block)
            assert profile.hits_at(capacity) == cache.stats.hits, capacity

    def test_huge_capacity_clamps(self):
        profile = StackDistanceProfile([1, 2, 1, 2])
        assert profile.hits_at(10**9) == 2

    def test_empty_stream(self):
        profile = StackDistanceProfile([])
        assert profile.requests == 0
        assert profile.hits_at(4) == 0
