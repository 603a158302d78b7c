"""Tests for the runtime sanitizer (SimSanitizer + SanitizedEnvironment).

Positive direction: full sanitized simulations across every code finish
with zero invariant violations (the acceptance bar for the reproduction).
Negative direction: deliberately broken policy subclasses must trip the
matching invariant immediately.
"""

from __future__ import annotations

import heapq

import pytest

from repro.cache.registry import available_policies, make_policy
from repro.checks import InvariantViolation, SanitizedEnvironment, SimSanitizer
from repro.codes.registry import available_codes, make_code
from repro.core.fbf_cache import FBFCache
from repro.engine import XORBackend, run_timed_replay, simulate_trace
from repro.sim import SimConfig
from repro.workloads import ErrorTraceConfig, generate_errors


class TestSanitizedSimulations:
    """Acceptance: sanitizer-enabled runs are violation-free on all codes."""

    @pytest.mark.parametrize("code", available_codes())
    def test_event_simulation_clean(self, code):
        layout = make_code(code, 7)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=30, seed=11))
        plain = run_timed_replay(XORBackend(layout), errors, SimConfig(workers=4))
        checked = run_timed_replay(
            XORBackend(layout), errors, SimConfig(workers=4, sanitize=True)
        )
        # The sanitizer must observe, never perturb.
        assert checked.hit_ratio == plain.hit_ratio
        assert checked.disk_reads == plain.disk_reads
        assert checked.reconstruction_time == plain.reconstruction_time

    @pytest.mark.parametrize("code", available_codes())
    def test_trace_simulation_clean(self, code):
        layout = make_code(code, 7)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=50, seed=5))
        plain = simulate_trace(
            XORBackend(layout), errors, policy="fbf", capacity_blocks=48, workers=3
        )
        checked = simulate_trace(
            XORBackend(layout), errors, policy="fbf", capacity_blocks=48, workers=3,
            sanitize=True,
        )
        assert checked.hits == plain.hits
        assert checked.disk_reads == plain.disk_reads

    @pytest.mark.parametrize("policy", sorted(available_policies()))
    def test_generic_checks_pass_for_every_policy(self, policy):
        layout = make_code("tip", 5)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=25, seed=2))
        result = simulate_trace(
            XORBackend(layout), errors, policy=policy, capacity_blocks=16, workers=2,
            sanitize=True,
        )
        assert result.requests > 0


class TestSanitizerProxy:
    def test_drop_in_surface(self):
        inner = FBFCache(8)
        wrapped = SimSanitizer(inner)
        assert wrapped.name == "fbf"
        assert wrapped.capacity == 8
        assert wrapped.stats is inner.stats
        wrapped.request(("a", 1), priority=3)
        assert ("a", 1) in wrapped and len(wrapped) == 1
        wrapped.reset()
        assert len(wrapped) == 0 and wrapped.stats.requests == 0

    def test_nonstrict_collects_instead_of_raising(self):
        wrapped = SimSanitizer(_NoDemoteFBF(4), strict=False)
        wrapped.request("x", priority=3)
        wrapped.request("x", priority=3)  # hit: should demote but won't
        assert wrapped.violations
        assert "Queue2" in wrapped.violations[0]


class _NoDemoteFBF(FBFCache):
    """Hits refresh recency but never demote — breaks Algorithm 1."""

    def request(self, key, priority=None):
        if key in self._queue_of:
            self.stats.hits += 1
            self._queues[self._queue_of[key]].move_to_end(key)
            return True
        return super().request(key, priority)


class _DoubleResidentFBF(FBFCache):
    """Admission leaks a stray copy into the next queue up."""

    def _attach(self, key, queue):
        super()._attach(key, queue)
        if queue < self.n_queues:
            self._queues[queue + 1][key] = None


class _NoEvictFBF(FBFCache):
    """Admits past capacity without evicting."""

    def request(self, key, priority=None):
        if key in self._queue_of:
            return super().request(key, priority)
        self.stats.misses += 1
        self._attach(key, self._normalize_priority(priority))
        return False


class _SilentEvictFBF(FBFCache):
    """Evicts without counting it — accounting drift."""

    def _evict(self):
        victim = super()._evict()
        self.stats.evictions -= 1
        return victim


class _DoubleCountFBF(FBFCache):
    """Counts every hit twice."""

    def request(self, key, priority=None):
        hit = super().request(key, priority)
        if hit:
            self.stats.hits += 1
        return hit


class TestBrokenPoliciesAreCaught:
    def test_missing_demotion(self):
        wrapped = SimSanitizer(_NoDemoteFBF(4))
        wrapped.request("x", priority=3)
        with pytest.raises(InvariantViolation, match="Queue2"):
            wrapped.request("x", priority=3)

    def test_double_residency(self):
        wrapped = SimSanitizer(_DoubleResidentFBF(4))
        with pytest.raises(InvariantViolation, match="simultaneously|occupancy"):
            wrapped.request("x", priority=1)

    def test_capacity_overflow(self):
        wrapped = SimSanitizer(_NoEvictFBF(2))
        wrapped.request("a")
        wrapped.request("b")
        with pytest.raises(InvariantViolation, match="capacity|evicted"):
            wrapped.request("c")

    def test_eviction_accounting_drift(self):
        wrapped = SimSanitizer(_SilentEvictFBF(2))
        wrapped.request("a")
        wrapped.request("b")
        with pytest.raises(InvariantViolation, match="evicted"):
            wrapped.request("c")

    def test_stats_drift(self):
        wrapped = SimSanitizer(_DoubleCountFBF(4))
        wrapped.request("x")
        with pytest.raises(InvariantViolation, match="stats accounting"):
            wrapped.request("x")

    def test_demotion_stops_at_queue1(self):
        """Queue1 hits must refresh recency, not demote further."""
        wrapped = SimSanitizer(FBFCache(4))
        wrapped.request("x", priority=2)
        wrapped.request("x", priority=2)  # demote 2 -> 1
        assert wrapped.policy.queue_of("x") == 1
        wrapped.request("x", priority=2)  # stays in Queue1, MRU refresh
        assert wrapped.policy.queue_of("x") == 1

    def test_sticky_mode_checked_too(self):
        wrapped = SimSanitizer(FBFCache(4, demote_on_hit=False))
        wrapped.request("x", priority=3)
        wrapped.request("x", priority=3)
        assert wrapped.policy.queue_of("x") == 3


class TestSanitizedEnvironment:
    def test_normal_run_is_clean(self):
        env = SanitizedEnvironment()

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(0.0)  # same-timestamp events
            yield env.timeout(0.0)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert env.events_checked > 0
        assert env.violations == []

    def test_same_timestamp_order_violation_detected(self):
        env = SanitizedEnvironment()
        first = env.event()
        second = env.event()
        # Bypass _schedule to plant a counter inversion at one timestamp.
        heapq.heappush(env._heap, (0.0, 7, first))
        first.triggered = True
        env.step()
        heapq.heappush(env._heap, (0.0, 3, second))
        second.triggered = True
        with pytest.raises(InvariantViolation, match="ordering"):
            env.step()

    def test_time_reversal_detected(self):
        env = SanitizedEnvironment(initial_time=10.0)
        ev = env.event()
        heapq.heappush(env._heap, (5.0, 1, ev))
        ev.triggered = True
        with pytest.raises(InvariantViolation, match="backwards"):
            env.step()

    def test_full_reconstruction_under_sanitized_env(self):
        layout = make_code("star", 5)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=15, seed=9))
        report = run_timed_replay(
            XORBackend(layout), errors, SimConfig(workers=3, sanitize=True)
        )
        assert report.chunks_recovered > 0


class TestSanitizedKernelResource:
    def test_resource_contention_under_sanitizer(self):
        """FIFO resource grants stay deterministic under the checked kernel."""
        from repro.sim.kernel import Resource

        env = SanitizedEnvironment()
        resource = Resource(env, capacity=2)
        order: list[int] = []

        def worker(env, i):
            req = resource.request()
            yield req
            order.append(i)
            yield env.timeout(1.0)
            resource.release(req)

        for i in range(6):
            env.process(worker(env, i))
        env.run()
        assert order == list(range(6))
        assert env.violations == []
