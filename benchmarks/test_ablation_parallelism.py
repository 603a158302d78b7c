"""Ablation: reconstruction organization (serial vs SOR vs DOR).

The paper's §III-B extends FBF to SOR-parallel recovery with a
partitioned cache.  This bench quantifies the organizations against each
other on identical error batches: a single serial worker, SOR at several
worker counts (cache split per worker), and DOR (one reader per disk,
shared cache).
"""

import pytest

from repro.bench.experiments import Scale
from repro.codes import make_code
from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.sim.dor import run_reconstruction_dor
from repro.workloads import ErrorTraceConfig, generate_errors


@pytest.mark.benchmark(group="ablation")
def test_parallelism_ablation(benchmark, save_report):
    layout = make_code("tip", 11)
    errors = generate_errors(layout, ErrorTraceConfig(n_errors=60, seed=42))
    cache = "4MB"

    def run():
        rows = []
        serial = run_timed_replay(
            XORBackend(layout), errors,
            SimConfig(cache_size=cache, workers=1, parallel_chain_reads=False),
        )
        rows.append(("serial", serial))
        for workers in (4, 16, 64):
            rep = run_timed_replay(
                XORBackend(layout), errors, SimConfig(cache_size=cache, workers=workers)
            )
            rows.append((f"sor-{workers}", rep))
        rows.append(("dor", run_reconstruction_dor(
            layout, errors, SimConfig(cache_size=cache)
        )))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Ablation: reconstruction organization (TIP p=11, 4MB cache, FBF) =="]
    lines.append(f"{'mode':>10} {'recon(s)':>10} {'resp(ms)':>10} {'hit':>8} {'reads':>7}")
    for name, rep in rows:
        lines.append(
            f"{name:>10} {rep.reconstruction_time:>10.3f} "
            f"{rep.avg_response_time * 1000:>10.2f} {rep.hit_ratio:>8.3f} "
            f"{rep.disk_reads:>7d}"
        )
    save_report("ablation_parallelism", "\n".join(lines))

    by_name = dict(rows)
    serial_time = by_name["serial"].reconstruction_time
    # every parallel organization beats serial
    for name, rep in rows:
        if name != "serial":
            assert rep.reconstruction_time < serial_time, name
    # DOR (shared cache + per-disk pipelining) is the fastest organization
    assert by_name["dor"].reconstruction_time <= min(
        rep.reconstruction_time for name, rep in rows if name != "dor"
    )
    # over-parallelized SOR dilutes the per-worker cache: hit ratio falls
    # monotonically with worker count (the cost of the paper's partitioning)
    assert (
        by_name["sor-4"].hit_ratio
        >= by_name["sor-16"].hit_ratio
        >= by_name["sor-64"].hit_ratio
    )
    # identical request streams everywhere
    assert len({rep.total_requests for _, rep in rows}) == 1
