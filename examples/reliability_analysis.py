#!/usr/bin/env python
"""From cache policy to reliability: MTTDL impact of FBF.

Connects the pipeline end to end the way the paper's introduction argues:
partial stripe errors -> recovery time (window of vulnerability) -> mean
time to data loss.  Measures reconstruction time for FBF and LRU on the
simulator, converts the difference into an MTTDL statement with the
Markov model, and shows the analytic reuse-distance view of *why* FBF
wins.

Run:  python examples/reliability_analysis.py
"""

from repro import SimConfig, make_code
from repro.analysis import (
    expected_reads,
    lru_hit_curve,
    recovery_reuse_profile,
    wov_improvement,
)
from repro.core import generate_plan
from repro.engine import XORBackend, run_timed_replay
from repro.workloads import ErrorTraceConfig, generate_errors


def main() -> None:
    layout = make_code("tip", 11)
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=80, seed=3))

    # 1. Measure recovery speed under both policies (tight cache).
    reports = {}
    for policy in ("lru", "fbf"):
        reports[policy] = run_timed_replay(
            XORBackend(layout), errors, SimConfig(policy=policy, cache_size="4MB", workers=16)
        )
    lru_t = reports["lru"].reconstruction_time
    fbf_t = reports["fbf"].reconstruction_time
    print(f"reconstruction time: LRU {lru_t:.3f}s  FBF {fbf_t:.3f}s "
          f"({100 * (lru_t - fbf_t) / lru_t:.1f}% faster)\n")

    # 2. Convert into reliability: the batch stands in for a repair window.
    cmp = wov_improvement(
        n_disks=layout.num_disks,
        disk_mtbf_hours=1_000_000.0,
        baseline_repair_hours=lru_t / 3600.0 * 1e6,   # scale to a 1TB-disk-sized job
        improved_repair_hours=fbf_t / 3600.0 * 1e6,
    )
    print(f"window of vulnerability shrinks {cmp.wov_reduction_percent:.1f}%")
    print(f"MTTDL grows {cmp.mttdl_gain_factor:.2f}x "
          f"(3DFT MTTDL scales with the cube of the repair rate)\n")

    # 3. The analytic view: why FBF needs less cache than LRU.
    failed = [(r, 0) for r in range(layout.rows)]
    profile = recovery_reuse_profile(layout, failed, "fbf")
    print(f"one whole-column error on {layout.name} p={layout.p}:")
    print(f"  {profile.total_requests} requests, "
          f"{profile.rereferences} rereferences")
    print(f"  reuse distances by priority: "
          f"{ {k: sorted(v) for k, v in profile.distances_by_priority.items()} }")
    need = profile.min_lru_capacity_for_all_hits()
    pinned = sum(len(v) for k, v in profile.distances_by_priority.items())
    print(f"  LRU needs {need} blocks to catch every rereference; "
          f"FBF pins ~{pinned} blocks in Queue2/Queue3 instead")

    plan = generate_plan(layout, failed, "fbf")
    curve = lru_hit_curve(plan.request_sequence, [4, 8, 16, 32, need])
    print(f"  exact LRU hit curve for this stripe: "
          f"{ {c: round(h, 3) for c, h in curve.items()} }\n")

    # 4. The scheme-level expectation, independent of any cache.
    for mode in ("typical", "fbf", "greedy"):
        exp = expected_reads(layout, mode)
        print(f"  E[unique reads | {mode:8s}] = {exp.expected_unique_reads:6.2f} "
              f"(sharing ratio {exp.sharing_ratio:.3f})")


if __name__ == "__main__":
    main()
