"""Sensitivity: error-size distribution (paper footnote 2).

"FBF can be proved under other distributions as well" — verify it: the
uniform distribution the paper evaluates, a geometric distribution skewed
to small errors (the empirically common case for latent sector errors),
and worst/best-case fixed sizes.  FBF must dominate the baselines under
all of them, though the absolute gains shrink for small errors (fewer
chains, less overlap to exploit).
"""

import dataclasses

import pytest

from repro.codes import make_code
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.workloads import ErrorTraceConfig, SizeDistribution, generate_errors

DISTRIBUTIONS = {
    "uniform": SizeDistribution("uniform"),
    "geometric": SizeDistribution("geometric", parameter=2.0),
    "fixed-1": SizeDistribution("fixed", parameter=1),
    "fixed-max": SizeDistribution("fixed", parameter=6),
}
POLICIES = ("fifo", "lru", "lfu", "arc", "fbf")


@pytest.mark.benchmark(group="sensitivity")
def test_distribution_sensitivity(benchmark, save_report):
    layout = make_code("tip", 7)
    blocks, workers = 256, 32

    def run():
        table = {}
        for dist_name, dist in DISTRIBUTIONS.items():
            errors = generate_errors(
                layout,
                ErrorTraceConfig(n_errors=80, seed=42, size=dist),
            )
            plans = PlanCache(XORBackend(layout, "fbf"))
            for policy in POLICIES:
                table[(dist_name, policy)] = simulate_trace(
                    plans.backend, errors, policy=policy, capacity_blocks=blocks,
                    workers=workers, plan_cache=plans,
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Sensitivity: error-size distribution (TIP p=7, hit ratio) =="]
    header = f"{'distribution':>14} " + " ".join(f"{p:>8}" for p in POLICIES)
    lines.append(header)
    for dist_name in DISTRIBUTIONS:
        row = [f"{dist_name:>14}"]
        for policy in POLICIES:
            row.append(f"{table[(dist_name, policy)].hit_ratio:>8.4f}")
        lines.append(" ".join(row))
    save_report("sensitivity_distribution", "\n".join(lines))

    for dist_name in DISTRIBUTIONS:
        fbf = table[(dist_name, "fbf")].hit_ratio
        for policy in POLICIES[:-1]:
            assert fbf >= table[(dist_name, policy)].hit_ratio - 1e-9, (
                dist_name,
                policy,
            )

    # single-chunk errors produce no sharing under the direction loop:
    # one failed chunk, one chain, zero rereferences
    assert table[("fixed-1", "fbf")].hit_ratio == 0.0
    # whole-column errors produce the most sharing
    assert (
        table[("fixed-max", "fbf")].hit_ratio
        > table[("geometric", "fbf")].hit_ratio
    )
