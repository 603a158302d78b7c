#!/usr/bin/env python
"""Trace files and mixed recovery/application workloads.

Part 1 writes a partial-stripe-error trace to disk, reads it back, and
replays it — the workflow for evaluating FBF on externally supplied error
traces.

Part 2 interleaves foreground application reads (Zipf-popular stripes)
with the recovery stream and shows that FBF keeps its high-priority
recovery chunks resident: application chunks default to priority 1 and
are evicted first.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import FBFCache, PriorityDictionary, generate_plan, make_code
from repro.engine import XORBackend, simulate_trace
from repro.workloads import (
    AppWorkloadConfig,
    ErrorTraceConfig,
    generate_app_requests,
    generate_errors,
    read_trace,
    write_trace,
)


def part1_trace_files(layout) -> None:
    print("--- part 1: trace files ---")
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=50, seed=99))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "errors.trace"
        write_trace(path, errors, metadata={"code": layout.name, "p": str(layout.p)})
        print(f"wrote {len(errors)} errors to {path.name} "
              f"({path.stat().st_size} bytes)")
        replayed = read_trace(path)
    res = simulate_trace(XORBackend(layout), replayed, policy="fbf",
                               capacity_blocks=64, workers=8)
    print(f"replay: {res.requests} requests, hit ratio {res.hit_ratio:.2%}, "
          f"{res.disk_reads} disk reads\n")


def part2_mixed_workload(layout) -> None:
    print("--- part 2: recovery + application I/O ---")
    plan = generate_plan(layout, [(r, 0) for r in range(5)], "fbf")
    pd = PriorityDictionary(plan)
    app = generate_app_requests(
        layout, AppWorkloadConfig(n_requests=60, seed=4, working_set=16)
    )

    cache = FBFCache(capacity=10)
    # Warm the cache with the first half of the recovery stream, so some
    # shared (priority 2/3) chunks are resident with rereferences pending.
    stream = plan.request_sequence
    half = len(stream) // 2
    for cell in stream[:half]:
        cache.request(("rec", cell), priority=pd.lookup(cell))
    hot = cache.queue_contents(2) + cache.queue_contents(3)
    print(f"after half the recovery stream, high-priority residents: {list(hot)}")

    # A burst of foreground reads arrives mid-recovery ...
    app_hits = 0
    for req in app:
        app_hits += cache.request(("app", req.stripe, req.cell))
    print(f"app burst: {app_hits}/{len(app)} hits "
          f"(cold Zipf reads, priority 1 by default)")

    # ... yet every pending high-priority recovery chunk survived it.
    survivors = [key for key in hot if key in cache]
    print(f"high-priority recovery chunks still resident: "
          f"{len(survivors)}/{len(hot)}")
    assert survivors == list(hot), \
        "FBF must not evict priority-2/3 chunks for priority-1 app traffic"

    # Finish recovery: the held chunks convert directly into hits.
    finish_hits = sum(
        cache.request(("rec", cell), priority=pd.lookup(cell))
        for cell in stream[half:]
    )
    print(f"second half of recovery: {finish_hits}/{len(stream) - half} hits ✓")


def main() -> None:
    layout = make_code("tip", 7)
    print(f"{layout.name} p=7 ({layout.num_disks} disks)\n")
    part1_trace_files(layout)
    part2_mixed_workload(layout)


if __name__ == "__main__":
    main()
