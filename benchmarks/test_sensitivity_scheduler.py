"""Sensitivity: mechanical disk model and request scheduling.

The paper's evaluation uses a fixed 10 ms access time; real disks seek.
This bench reruns the recovery batch on the mechanical model under the
three queue disciplines — the sanity check that FBF's advantage is not an
artifact of the constant-latency model.
"""

import pytest

from repro.codes import make_code
from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.workloads import ErrorTraceConfig, generate_errors

SCHEDULERS = ("fcfs", "sstf", "scan")


@pytest.mark.benchmark(group="sensitivity")
def test_scheduler_sensitivity(benchmark, save_report):
    layout = make_code("tip", 7)
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=40, seed=42))

    def run():
        table = {}
        for scheduler in SCHEDULERS:
            for policy in ("lru", "fbf"):
                table[(scheduler, policy)] = run_timed_replay(
                    XORBackend(layout), errors,
                    SimConfig(policy=policy, cache_size="2MB", workers=8,
                              disk_model="hdd", disk_scheduler=scheduler),
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Sensitivity: mechanical disks + scheduling (TIP p=7) =="]
    lines.append(f"{'sched':>6} {'policy':>7} {'recon(s)':>9} {'resp(ms)':>9} {'hit':>7}")
    for (scheduler, policy), rep in table.items():
        lines.append(
            f"{scheduler:>6} {policy:>7} {rep.reconstruction_time:>9.3f} "
            f"{rep.avg_response_time * 1000:>9.2f} {rep.hit_ratio:>7.3f}"
        )
    save_report("sensitivity_scheduler", "\n".join(lines))

    for scheduler in SCHEDULERS:
        # FBF's hit-ratio edge survives the mechanical model
        assert (
            table[(scheduler, "fbf")].hit_ratio
            >= table[(scheduler, "lru")].hit_ratio - 1e-9
        ), scheduler
        # and its reconstruction is no slower
        assert (
            table[(scheduler, "fbf")].reconstruction_time
            <= table[(scheduler, "lru")].reconstruction_time * 1.02
        ), scheduler
    # hit ratios are scheduling-independent (same request streams)
    for policy in ("lru", "fbf"):
        ratios = {round(table[(s, policy)].hit_ratio, 9) for s in SCHEDULERS}
        assert len(ratios) == 1, policy
