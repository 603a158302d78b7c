"""Sensitivity: chunk (stripe unit) size.

The paper fixes 32 KB chunks ("the stripe size is more than 256KB in an
array, hence chunk size is set to 32KB").  At a fixed cache *byte*
budget, smaller chunks mean more cache slots; the recovery request
pattern per stripe is unchanged.  FBF must dominate at every chunk size,
with everyone improving as slots multiply.
"""

import pytest

from repro.codes import make_code
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.utils import parse_size
from repro.workloads import ErrorTraceConfig, generate_errors

CHUNK_SIZES = ("8KB", "16KB", "32KB", "64KB", "128KB")
POLICIES = ("fifo", "lru", "lfu", "arc", "fbf")
CACHE_BYTES = parse_size("16MB")
WORKERS = 32


@pytest.mark.benchmark(group="sensitivity")
def test_chunk_size_sensitivity(benchmark, save_report):
    layout = make_code("tip", 11)
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=60, seed=42))
    plans = PlanCache(XORBackend(layout, "fbf"))

    def run():
        table = {}
        for chunk in CHUNK_SIZES:
            blocks = CACHE_BYTES // parse_size(chunk)
            for policy in POLICIES:
                table[(chunk, policy)] = simulate_trace(
                    plans.backend, errors, policy=policy, capacity_blocks=blocks,
                    workers=WORKERS, plan_cache=plans,
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Sensitivity: chunk size (TIP p=11, 16MB cache, hit ratio) =="]
    lines.append(f"{'chunk':>7} {'blocks/worker':>14} " +
                 " ".join(f"{p:>8}" for p in POLICIES))
    for chunk in CHUNK_SIZES:
        per_worker = CACHE_BYTES // parse_size(chunk) // WORKERS
        row = [f"{chunk:>7}", f"{per_worker:>14}"]
        for policy in POLICIES:
            row.append(f"{table[(chunk, policy)].hit_ratio:>8.4f}")
        lines.append(" ".join(row))
    save_report("sensitivity_chunk_size", "\n".join(lines))

    for chunk in CHUNK_SIZES:
        fbf = table[(chunk, "fbf")].hit_ratio
        for policy in POLICIES[:-1]:
            assert fbf >= table[(chunk, policy)].hit_ratio - 1e-9, (chunk, policy)
    # smaller chunks (more slots) never hurt FBF
    ratios = [table[(c, "fbf")].hit_ratio for c in CHUNK_SIZES]
    assert ratios[0] >= ratios[-1] - 1e-9
