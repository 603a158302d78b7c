"""The DES-kernel bench: pooled fast-lane dispatch as a CI gate.

Measures raw event-dispatch throughput of the production
:class:`~repro.sim.kernel.Environment` (free-list pools + same-time fast
lane + inlined run loop, DESIGN.md §16) against
:class:`ReferenceEnvironment` — the pre-overhaul kernel frozen in this
module: heap-only scheduling, stepwise dispatch, no pooling (the shape
``benchmarks/test_microbench.py::test_kernel_stepwise_throughput``
tracks).  Four microbench workloads cover the kernel's hot paths
(timeout chains, resource grant hand-offs, store hand-offs, container
token flow), and both kernels must dispatch *exactly* the same number of
events per workload.

On top of the throughput axis, the bench re-runs the paper's timed rows
end to end — fig10 (response time, online arrivals), fig11
(reconstruction time, batch), and the rack-aware cluster scenario — and
asserts they are **bit-identical** across pooling on/off, sanitize
on/off, and obs on/off.  All row quantities are virtual time or traffic,
so the committed ``benchmarks/BENCH_kernel.json`` baseline is
machine-independent and CI compares rows bit-exactly; the speedup ratio
carries a :data:`SPEEDUP_FLOOR` that the committed baseline must
demonstrate, and a fresh run is held to the shared ratio tolerance
(:mod:`repro.bench.gate`).

Run: ``repro-fbf gate kernel --out BENCH_kernel.json`` or
``repro-fbf gate kernel --check benchmarks/BENCH_kernel.json`` (CI).
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from heapq import heappop, heappush
from typing import Callable

from ..codes import make_code
from ..engine import XORBackend, run_timed_replay
from ..obs import runtime as _obs
from ..sim import SimConfig, TopologySpec
from ..sim.kernel import Container, Environment, Event, Resource, Store
from ..workloads import ErrorTraceConfig, generate_errors
from .gate import best_of, make_payload

__all__ = ["ReferenceEnvironment", "run_kernel_bench"]

#: Minimum acceptable event-throughput speedup over the reference kernel
#: (the tentpole's acceptance floor).
SPEEDUP_FLOOR = 1.5


class ReferenceEnvironment(Environment):
    """The pre-overhaul event kernel, frozen as the bench baseline.

    Semantics are bit-identical to :class:`~repro.sim.kernel.Environment`
    — same ``(when, counter)`` total order, same values — but every
    schedule is a ``heappush``, every dispatch a ``heappop`` through the
    stepwise ``run`` loop, and no event object is ever recycled.  The
    property suite drives random workloads through both kernels and
    asserts identical traces, so this class is the executable definition
    of "the fast lane and the pools change nothing".
    """

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time, pooling=False)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._counter = counter = self._counter + 1
        heappush(self._heap, (self.now + delay, counter, event))

    def step(self) -> None:
        when, _, event = heappop(self._heap)
        self.now = when
        event._process()

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")


# ---------------------------------------------------------------------------
# Throughput workloads.  Each builds a process population on a fresh env;
# the driver runs it to quiescence and reads the dispatched-event count
# off the schedule counter (at quiescence every scheduled event has been
# processed, so the counter *is* the dispatch count).
# ---------------------------------------------------------------------------


def _wl_callback_chain(env: Environment) -> None:
    """Pure kernel dispatch through the heap: no generators, each fired
    timeout's callback schedules the next.  Isolates schedule + dispatch
    + recycle — the cost the pools exist to cut."""
    remaining = [40_000]

    def fire(ev: Event) -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            env.timeout(1.0).callbacks.append(fire)

    env.timeout(1.0).callbacks.append(fire)


def _wl_succeed_chain(env: Environment) -> None:
    """Pure kernel dispatch through the fast lane: a zero-delay callback
    chain via ``schedule_now`` — deque hand-offs, no heap at all."""
    remaining = [40_000]

    def fire(ev: Event) -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            env.schedule_now().callbacks.append(fire)

    env.schedule_now().callbacks.append(fire)


def _wl_timeout_chain(env: Environment) -> None:
    """Pure heap/pool traffic: many processes sleeping in lockstep.

    The workload generators hoist bound methods into locals so the
    timed region is kernel dispatch, not user-code attribute lookups
    (the same user code runs on both kernels either way).
    """
    timeout = env.timeout

    def proc():
        for _ in range(400):
            yield timeout(1.0)

    for _ in range(48):
        env.process(proc())


def _wl_grant_chain(env: Environment) -> None:
    """Resource hand-offs: release → FIFO grant chains (fast lane)."""
    res = Resource(env, capacity=4)
    request = res.request
    release = res.release
    timeout = env.timeout

    def proc():
        for _ in range(150):
            req = request()
            yield req
            yield timeout(1.0)
            release(req)

    for _ in range(32):
        env.process(proc())


def _wl_store_handoff(env: Environment) -> None:
    """Producer/consumer hand-offs through an unbounded FIFO channel."""
    store = Store(env)
    put = store.put
    get = store.get
    timeout = env.timeout

    def producer():
        for i in range(4000):
            put(i)
            yield timeout(1.0)

    def consumer():
        for _ in range(2000):
            yield get()

    env.process(producer())
    env.process(consumer())
    env.process(consumer())


def _wl_container_flow(env: Environment) -> None:
    """Container token flow: blocked getters drained by putters."""
    tank = Container(env, capacity=8.0, init=0.0)
    put = tank.put
    get = tank.get
    timeout = env.timeout

    def putter():
        for _ in range(1500):
            yield put(2.0)
            yield timeout(1.0)

    def getter():
        for _ in range(1500):
            yield get(1.0)
            yield timeout(1.0)

    env.process(putter())
    env.process(getter())
    env.process(getter())


WORKLOADS: tuple[tuple[str, Callable[[Environment], None]], ...] = (
    ("callback-chain", _wl_callback_chain),
    ("succeed-chain", _wl_succeed_chain),
    ("timeout-chain", _wl_timeout_chain),
    ("grant-chain", _wl_grant_chain),
    ("store-handoff", _wl_store_handoff),
    ("container-flow", _wl_container_flow),
)


def _drive(make_env: Callable[[], Environment], build) -> int:
    """Build + run one workload to quiescence; return events dispatched."""
    env = make_env()
    build(env)
    env.run()
    return env._counter


def _paired_best_of(build, rounds: int) -> tuple[float, float]:
    """Min-of-N wall times for (reference, optimized), interleaved.

    Alternating the two kernels inside one loop means a quiet scheduling
    window benefits both, and min-of-N discards the slices a busy machine
    steals — the stable estimator for sub-100ms loops.  The GC is paused
    around the timed region so collection pauses land on neither side.
    """
    import gc

    ref_s = opt_s = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            ref_s = min(ref_s, best_of(
                lambda: _drive(ReferenceEnvironment, build), 1))
            opt_s = min(opt_s, best_of(lambda: _drive(Environment, build), 1))
    finally:
        if gc_was_enabled:
            gc.enable()
    return ref_s, opt_s


def _measure_throughput(rounds: int) -> dict:
    workloads = []
    total_events = 0
    ref_total = 0.0
    opt_total = 0.0
    counts_match = True
    for name, build in WORKLOADS:
        ref_events = _drive(ReferenceEnvironment, build)
        opt_events = _drive(Environment, build)
        counts_match &= ref_events == opt_events
        ref_s, opt_s = _paired_best_of(build, rounds)
        workloads.append(
            {
                "name": name,
                "events": opt_events,
                "reference_events": ref_events,
                "reference_s": ref_s,
                "optimized_s": opt_s,
                "speedup": ref_s / opt_s if opt_s > 0 else 0.0,
                "events_per_s": opt_events / opt_s if opt_s > 0 else 0.0,
            }
        )
        total_events += opt_events
        ref_total += ref_s
        opt_total += opt_s
    return {
        "workloads": workloads,
        "total_events": total_events,
        "reference_s": ref_total,
        "optimized_s": opt_total,
        "speedup": ref_total / opt_total if opt_total > 0 else 0.0,
        "events_per_s": total_events / opt_total if opt_total > 0 else 0.0,
        "event_counts_match": counts_match,
    }


# ---------------------------------------------------------------------------
# End-to-end rows: the timed figures re-run across the kernel's A/B axes.
# ---------------------------------------------------------------------------


def _row(report) -> dict:
    """A report as a JSON-normalized row, wall-clock columns dropped."""
    row = asdict(report)
    for field in report.MEASURED_FIELDS:
        row.pop(field, None)
    return json.loads(json.dumps(row))


def _row_configs() -> dict[str, SimConfig]:
    return {
        # fig10: per-chunk response time with online arrivals — exercises
        # the timed worker's arrival-skip path.
        "fig10": SimConfig(
            cache_size="2MB", workers=8, respect_arrival_times=True
        ),
        # fig11: batch reconstruction time, serial chain reads included.
        "fig11": SimConfig(cache_size="4MB", workers=4),
        # cluster: the rack-aware scenario — topology transfers, container
        # bandwidth tokens, heartbeats and the p99 histogram all on.
        "cluster": SimConfig(
            cache_size="8MB",
            workers=8,
            topology=TopologySpec(
                racks=3,
                nodes_per_rack=3,
                limplock_node=1,
                limplock_factor=8.0,
                heartbeat_period=0.1,
            ),
            response_quantiles=True,
        ),
    }


def _identity_rows(n_errors: int, seed: int) -> tuple[dict, dict]:
    layout = make_code("tip", 7)
    errors = generate_errors(
        layout, ErrorTraceConfig(n_errors=n_errors, seed=seed)
    )
    rows: dict[str, dict] = {}
    checks = {
        "rows_pooling_invariant": True,
        "rows_sanitize_invariant": True,
        "rows_obs_invariant": True,
    }
    for name, config in _row_configs().items():
        backend = XORBackend(layout, config.scheme_mode)
        base = _row(run_timed_replay(backend, errors, config))
        rows[name] = base
        unpooled = _row(
            run_timed_replay(
                backend, errors, replace(config, kernel_pooling=False)
            )
        )
        checks["rows_pooling_invariant"] &= unpooled == base
        sanitized = _row(
            run_timed_replay(backend, errors, replace(config, sanitize=True))
        )
        checks["rows_sanitize_invariant"] &= sanitized == base
        _obs.enable(fresh=True)
        try:
            observed = _row(run_timed_replay(backend, errors, config))
        finally:
            _obs.disable()
        checks["rows_obs_invariant"] &= observed == base
    return rows, checks


def run_kernel_bench(rounds: int = 3, n_errors: int = 12) -> dict:
    """Measure throughput + row identity; return the schema-2 payload."""
    from .experiments import QUICK

    throughput = _measure_throughput(rounds)
    rows, checks = _identity_rows(n_errors, QUICK.seed)
    checks["event_counts_match"] = throughput.pop("event_counts_match")
    return make_payload(
        "kernel",
        params={"rounds": rounds, "n_errors": n_errors, "seed": QUICK.seed},
        rows=rows,
        checks=checks,
        ratios={"speedup": throughput["speedup"]},
        floors={"speedup": SPEEDUP_FLOOR},
        detail={"throughput": throughput},
    )
