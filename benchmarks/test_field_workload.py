"""Extension experiment: the headline comparison on field-calibrated errors.

The paper's trace is synthetic with stated parameters; this bench reruns
the policy comparison on errors sampled from the *calibrated* model
(rates and locality from the cited LSE studies, sizes uniform) — the
closest thing to "what a real array-decade of errors looks like".
"""

import pytest

from repro.codes import make_code
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.workloads import FieldModel, generate_field_trace

POLICIES = ("fifo", "lru", "lfu", "arc", "fbf")
BLOCKS = (32, 64, 128, 256)


@pytest.mark.benchmark(group="field")
def test_field_calibrated_comparison(benchmark, save_report):
    layout = make_code("tip", 11)
    # enough array-decades to accumulate a few hundred errors
    errors = generate_field_trace(
        layout, duration_days=600_000, array_stripes=10**6,
        model=FieldModel(), seed=42,
    )
    assert len(errors) > 100
    plans = PlanCache(XORBackend(layout, "fbf"))

    def run():
        return {
            (blocks, policy): simulate_trace(
                plans.backend, errors, policy=policy, capacity_blocks=blocks,
                workers=16, plan_cache=plans,
            )
            for blocks in BLOCKS
            for policy in POLICIES
        }

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"== Field-calibrated workload ({len(errors)} errors, TIP p=11, hit ratio) =="
    ]
    lines.append(f"{'blocks':>7} " + " ".join(f"{p:>8}" for p in POLICIES))
    for blocks in BLOCKS:
        row = [f"{blocks:>7}"]
        for policy in POLICIES:
            row.append(f"{table[(blocks, policy)].hit_ratio:>8.4f}")
        lines.append(" ".join(row))
    save_report("field_workload", "\n".join(lines))

    for blocks in BLOCKS:
        fbf = table[(blocks, "fbf")].hit_ratio
        for policy in POLICIES[:-1]:
            assert fbf >= table[(blocks, policy)].hit_ratio - 1e-9, (blocks, policy)
    # material win somewhere in the sweep
    assert any(
        table[(b, "fbf")].hit_ratio
        > 1.5 * max(table[(b, p)].hit_ratio for p in POLICIES[:-1]) > 0
        for b in BLOCKS
    )
