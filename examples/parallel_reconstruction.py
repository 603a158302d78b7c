#!/usr/bin/env python
"""SOR-parallel reconstruction on the event-driven storage simulator.

Demonstrates the timing half of the reproduction: the same error batch is
repaired serially and with increasing SOR worker counts (cache partitioned
per worker, paper §III-B), offline and online (respecting error arrival
times), comparing FBF against LRU on reconstruction time and response
time, and dumping per-disk utilization.

Run:  python examples/parallel_reconstruction.py
"""

from repro import SimConfig, make_code
from repro.engine import XORBackend, run_timed_replay
from repro.workloads import ErrorTraceConfig, generate_errors


def report_line(tag, rep):
    print(f"  {tag:24s} recon={rep.reconstruction_time:7.2f}s "
          f"resp={rep.avg_response_time * 1000:7.2f}ms "
          f"hit={rep.hit_ratio:6.2%} reads={rep.disk_reads:5d} "
          f"overhead={rep.overhead_mean_s * 1000:.3f}ms/plan")


def main() -> None:
    layout = make_code("tip", 11)
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=80, seed=13))
    print(f"{layout.name} p=11 ({layout.num_disks} disks), "
          f"{len(errors)} partial stripe errors, 8MB cache, 32KB chunks\n")

    print("scaling SOR workers (offline batch recovery, FBF):")
    for workers in (1, 4, 16, 64):
        rep = run_timed_replay(
            XORBackend(layout), errors,
            SimConfig(policy="fbf", cache_size="8MB", workers=workers),
        )
        report_line(f"{workers:3d} worker(s)", rep)

    print("\nFBF vs LRU at 16 workers:")
    for policy in ("fbf", "lru"):
        rep = run_timed_replay(
            XORBackend(layout), errors,
            SimConfig(policy=policy, cache_size="8MB", workers=16),
        )
        report_line(policy, rep)

    print("\nonline recovery (errors repaired as they arrive):")
    rep = run_timed_replay(
        XORBackend(layout), errors,
        SimConfig(policy="fbf", cache_size="8MB", workers=16,
                  respect_arrival_times=True),
    )
    report_line("fbf online", rep)

    print("\nserial chain reads (no intra-chain parallelism):")
    rep = run_timed_replay(
        XORBackend(layout), errors,
        SimConfig(policy="fbf", cache_size="8MB", workers=16,
                  parallel_chain_reads=False),
    )
    report_line("fbf serial-reads", rep)


if __name__ == "__main__":
    main()
