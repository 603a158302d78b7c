"""Extension experiment: online recovery under foreground load.

The paper's conclusion claims FBF works for online recovery; this bench
runs background repair concurrently with a foreground read stream and
compares policies on recovery makespan, foreground latency, and degraded
reads — the window-of-vulnerability cost experienced by real traffic.
"""

import pytest

from repro.codes import make_code
from repro.sim import SimConfig
from repro.sim.online import run_online_recovery
from repro.workloads import (
    AppWorkloadConfig,
    ErrorTraceConfig,
    generate_app_requests,
    generate_errors,
)

POLICIES = ("fifo", "lru", "lfu", "arc", "fbf")


@pytest.mark.benchmark(group="online")
def test_online_recovery(benchmark, save_report):
    layout = make_code("tip", 7)
    errors = generate_errors(
        layout,
        ErrorTraceConfig(n_errors=25, seed=4, array_stripes=2000,
                         burst_gap=0.5, intra_burst_gap=0.05),
    )
    background = generate_app_requests(
        layout,
        AppWorkloadConfig(n_requests=600, seed=9, array_stripes=2000,
                          working_set=500, interarrival=0.004),
    )
    # Spatial locality of real traffic: some foreground reads land on the
    # erroring stripes right around detection time (the WOV overlap that
    # produces degraded reads).
    from repro.workloads import AppRequest

    hot = [
        AppRequest(time=e.time + 0.001 * (i + 1), stripe=e.stripe,
                   cell=(min(i, layout.rows - 1), e.disk))
        for e in errors
        for i in range(4)
    ]
    apps = sorted(background + hot)

    def run():
        return {
            policy: run_online_recovery(
                layout, errors, apps,
                SimConfig(policy=policy, cache_size="1MB", workers=4),
            )
            for policy in POLICIES
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Online recovery: background repair + foreground reads =="]
    lines.append(
        f"{'policy':>7} {'makespan(s)':>12} {'degraded':>9} "
        f"{'norm resp(ms)':>14} {'degr resp(ms)':>14} {'hit':>7}"
    )
    for policy, rep in reports.items():
        lines.append(
            f"{policy:>7} {rep.recovery_makespan:>12.3f} {rep.degraded_reads:>9d} "
            f"{rep.normal_mean_response * 1000:>14.2f} "
            f"{rep.degraded_mean_response * 1000:>14.2f} {rep.hit_ratio:>7.3f}"
        )
    save_report("online_recovery", "\n".join(lines))

    fbf = reports["fbf"]
    # FBF's shared-chunk pinning keeps its hit ratio at or above the field
    for policy in POLICIES[:-1]:
        assert fbf.hit_ratio >= reports[policy].hit_ratio - 0.02, policy
    # the WOV overlap produced degraded reads; counts legitimately differ
    # per policy because faster repair shrinks the exposure window
    assert all(rep.degraded_reads >= 0 for rep in reports.values())
    assert max(rep.degraded_reads for rep in reports.values()) > 0
    # FBF never suffers more degraded reads than the worst baseline
    assert fbf.degraded_reads <= max(
        rep.degraded_reads for p, rep in reports.items() if p != "fbf"
    )
    # every policy finished all repairs and served the whole app stream
    for rep in reports.values():
        assert rep.recovery_makespan > 0
        assert rep.app_requests == len(apps)
