"""The grid-replay microbench: batched single pass vs. per-point replay.

Times the Figure 8 hit-ratio grid (the paper's policies over the FULL
cache-size axis) through :func:`~repro.engine.stream.simulate_grid_pass`
and through per-point :func:`~repro.engine.simulate_trace`, on one core,
for every code family.  The resulting ``BENCH_replay.json`` is committed
as the perf baseline; CI re-runs the bench and fails when

* the batched speedup falls more than 10% below the committed baseline
  (a ratio of two single-core timings from the same machine and run, so
  the check is machine-independent), or
* any row differs between the paths — the equivalence contract.

A separate identity sweep covers *every* registry policy (including the
stepped-only ones) and both states of the LRU stack-distance lever, at a
smaller scale, so exactness is re-proven where the timed grid does not
reach.

Run: ``repro-fbf gate replay --out BENCH_replay.json`` or
``repro-fbf gate replay --check benchmarks/BENCH_replay.json`` (CI).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from ..cache.registry import PAPER_BASELINES, available_policies
from ..engine import (
    PlanCache,
    make_backend,
    simulate_grid_pass,
    simulate_trace,
)
from ..engine.stream import ReplayConfig
from .experiments import FULL
from .gate import best_of, make_payload

__all__ = [
    "DEFAULT_CODES",
    "ReplayGroupResult",
    "run_replay_bench",
]

#: One representative geometry per code family (Figure 8's five codes).
DEFAULT_CODES = (
    ("tip", 7),
    ("hdd1", 11),
    ("star", 13),
    ("triple-star", 11),
    ("lrc(12,2,2)", 0),
)

_CHUNK = 32 * 1024  # the paper's 32 KB chunk size


def _full_capacities() -> tuple[int, ...]:
    """FULL-scale Figure 8 cache axis in blocks (8 MB .. 2048 MB)."""
    return tuple(int(mb * 1024 * 1024) // _CHUNK for mb in FULL.cache_mbs)


@dataclass(frozen=True)
class ReplayGroupResult:
    """One (code, p) group: timings + the row-equality verdict."""

    code: str
    p: int
    n_configs: int
    batched_s: float
    per_point_s: float
    rows_identical: bool

    @property
    def speedup(self) -> float:
        return self.per_point_s / self.batched_s if self.batched_s > 0 else 0.0


def _bench_group(
    code: str,
    p: int,
    policies: Sequence[str],
    capacities: Sequence[int],
    workers: int,
    n_errors: int,
    seed: int,
    rounds: int,
) -> ReplayGroupResult:
    backend = make_backend(code, p)
    events = backend.generate_events(n_errors, seed)
    plans = PlanCache(backend)
    for event in sorted(events):  # warm: measure replay, not planning
        plans.get(event)
    configs = [
        ReplayConfig(policy=policy, capacity_blocks=cap, workers=workers)
        for policy in policies
        for cap in capacities
    ]

    def batched():
        # no pre-interned stream: the batched timing pays for interning
        return simulate_grid_pass(backend, events, configs, plan_cache=plans)

    def per_point():
        return [
            simulate_trace(
                backend,
                events,
                policy=c.policy,
                capacity_blocks=c.capacity_blocks,
                workers=c.workers,
                plan_cache=plans,
            )
            for c in configs
        ]

    reference = per_point()
    identical = batched() == reference
    return ReplayGroupResult(
        code=backend.code_label,
        p=p,
        n_configs=len(configs),
        batched_s=best_of(batched, rounds),
        per_point_s=best_of(per_point, rounds),
        rows_identical=identical,
    )


def _verify_identity(
    codes: Sequence[tuple[str, int]],
    workers: int = 32,
    n_errors: int = 24,
    seed: int = 7,
    capacities: Sequence[int] = (32, 64, 512),
) -> dict:
    """Exactness sweep: every registry policy, both fast-path states."""
    policies = sorted(available_policies())
    all_identical = True
    lru_fast_identical = True
    for code, p in codes:
        backend = make_backend(code, p)
        events = backend.generate_events(n_errors, seed)
        configs = [
            ReplayConfig(policy=policy, capacity_blocks=cap, workers=workers)
            for policy in policies
            for cap in capacities
        ]
        fast = simulate_grid_pass(backend, events, configs)
        stepped = simulate_grid_pass(backend, events, configs, lru_fast_path=False)
        expected = [
            simulate_trace(
                backend,
                events,
                policy=c.policy,
                capacity_blocks=c.capacity_blocks,
                workers=c.workers,
            )
            for c in configs
        ]
        all_identical = all_identical and fast == expected
        lru_fast_identical = lru_fast_identical and fast == stepped
    return {
        "codes": [code for code, _ in codes],
        "policies": policies,
        "workers": workers,
        "n_errors": n_errors,
        "capacities_blocks": list(capacities),
        "rows_identical": all_identical,
        "lru_fast_path_identical": lru_fast_identical,
    }


def run_replay_bench(
    codes: Sequence[tuple[str, int]] = DEFAULT_CODES,
    policies: Sequence[str] = PAPER_BASELINES + ("fbf",),
    capacities: Sequence[int] | None = None,
    workers: int = 128,
    n_errors: int = 400,
    seed: int = 42,
    rounds: int = 2,
) -> dict:
    """Run the replay microbench and return the schema-2 payload."""
    if capacities is None:
        capacities = _full_capacities()
    groups = [
        _bench_group(
            code, p, policies, capacities, workers, n_errors, seed, rounds
        )
        for code, p in codes
    ]
    batched_s = sum(g.batched_s for g in groups)
    per_point_s = sum(g.per_point_s for g in groups)
    identity = _verify_identity(codes)
    return make_payload(
        "replay",
        params={
            "workers": workers,
            "n_errors": n_errors,
            "seed": seed,
            "rounds": rounds,
            "policies": list(policies),
            "capacities_blocks": list(capacities),
        },
        checks={
            "batched_rows_identical": all(g.rows_identical for g in groups),
            "identity_rows_identical": identity["rows_identical"],
            "lru_fast_path_identical": identity["lru_fast_path_identical"],
        },
        ratios={
            "speedup": per_point_s / batched_s if batched_s > 0 else 0.0,
        },
        # batched + per-point seconds: the obs zero-overhead contract
        # (instrumentation disabled must cost nothing), gated by CI with
        # --time-tolerance on comparable hardware.
        timings={"aggregate_s": batched_s + per_point_s},
        detail={
            "groups": [
                {**asdict(g), "speedup": g.speedup} for g in groups
            ],
            "batched_s": batched_s,
            "per_point_s": per_point_s,
            "identity": identity,
        },
    )
