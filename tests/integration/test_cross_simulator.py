"""Cross-simulator consistency: three independent engines, one truth.

The untimed trace replay, the SOR event simulation, and the DOR event
simulation all execute the same recovery plans, so structural quantities
(total requests, spare writes, chunks recovered) must agree exactly, and
behavioural ones (hit counts) must agree wherever the request *order* is
identical.  Hypothesis drives random traces through all three.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import make_code
from repro.engine import XORBackend, run_timed_replay, simulate_trace
from repro.sim import SimConfig
from repro.sim.dor import run_reconstruction_dor
from repro.workloads import ErrorTraceConfig, generate_errors

LAYOUTS = {p: make_code("tip", p) for p in (5, 7)}


@st.composite
def traces(draw):
    p = draw(st.sampled_from(sorted(LAYOUTS)))
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**31))
    layout = LAYOUTS[p]
    return layout, generate_errors(layout, ErrorTraceConfig(n_errors=n, seed=seed))


@given(traces(), st.integers(0, 64))
@settings(max_examples=25, deadline=None)
def test_structural_quantities_agree(trace, capacity):
    layout, errors = trace
    fast = simulate_trace(XORBackend(layout), errors, policy="fbf",
                          capacity_blocks=capacity, workers=1)
    sor = run_timed_replay(
        XORBackend(layout), errors,
        SimConfig(policy="fbf", cache_size=capacity * 32 * 1024, workers=1,
                  parallel_chain_reads=False),
    )
    dor = run_reconstruction_dor(
        layout, errors,
        SimConfig(policy="fbf", cache_size=capacity * 32 * 1024),
    )
    assert fast.requests == sor.total_requests == dor.total_requests
    assert sor.disk_writes == dor.disk_writes == sum(e.length for e in errors)
    # serial SOR executes the exact request order of the trace replay
    assert sor.cache_hits == fast.hits


@given(traces())
@settings(max_examples=15, deadline=None)
def test_infinite_cache_equalizes_all_engines(trace):
    """With an unbounded cache, hit counts are order-independent, so all
    three engines agree exactly."""
    layout, errors = trace
    cap = 10**6
    fast = simulate_trace(XORBackend(layout), errors, policy="lru",
                          capacity_blocks=cap, workers=1)
    sor = run_timed_replay(
        XORBackend(layout), errors,
        SimConfig(policy="lru", cache_size=cap * 32 * 1024, workers=1),
    )
    dor = run_reconstruction_dor(
        layout, errors, SimConfig(policy="lru", cache_size=cap * 32 * 1024)
    )
    assert fast.hits == sor.cache_hits == dor.cache_hits


@given(traces())
@settings(max_examples=10, deadline=None)
def test_dor_never_slower_than_serial(trace):
    layout, errors = trace
    cfg = dict(policy="fbf", cache_size="2MB")
    dor = run_reconstruction_dor(layout, errors, SimConfig(**cfg))
    serial = run_timed_replay(
        XORBackend(layout), errors,
        SimConfig(workers=1, parallel_chain_reads=False, **cfg),
    )
    assert dor.reconstruction_time <= serial.reconstruction_time + 1e-9
