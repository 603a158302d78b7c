"""Extension experiment: whole-disk rebuild read savings (paper's ref [22]).

Xiang et al. cut RDP single-disk rebuild reads ~25% by mixing chain
directions; the FBF paper builds on that idea for partial stripes.  This
bench closes the loop: per-stripe unique reads for rebuilding each disk
of each code under the greedy scheme, plus a timed rebuild comparison.
"""

import pytest

from repro.codes import make_code
from repro.sim import SimConfig
from repro.sim.rebuild import rebuild_read_savings, run_disk_rebuild

CODES = ("tip", "hdd1", "triple-star", "star")


@pytest.mark.benchmark(group="rebuild")
def test_rebuild_savings_table(benchmark, save_report):
    def run():
        rows = []
        for code in CODES:
            layout = make_code(code, 11)
            for disk in range(layout.num_disks):
                rows.append(rebuild_read_savings(layout, disk, "greedy"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Disk rebuild: unique reads per stripe, greedy vs typical (p=11) =="]
    lines.append(f"{'code':>12} {'disk':>5} {'typical':>8} {'greedy':>8} {'saved':>7}")
    for s in rows:
        lines.append(
            f"{s.code:>12} {s.failed_disk:>5} {s.typical_unique_reads:>8} "
            f"{s.scheme_unique_reads:>8} {s.read_reduction:>7.1%}"
        )
    save_report("disk_rebuild_savings", "\n".join(lines))

    # savings exist for every code's disk 0 and stay within [0, 40%]
    by_code = {}
    for s in rows:
        by_code.setdefault(s.code, []).append(s.read_reduction)
    for code, reductions in by_code.items():
        assert max(reductions) > 0.05, code
        assert all(0.0 <= r <= 0.40 for r in reductions), code


@pytest.mark.benchmark(group="rebuild")
def test_rebuild_time_comparison(benchmark, save_report):
    layout = make_code("tip", 11)

    def run():
        return {
            scheme: run_disk_rebuild(
                layout, 0, stripes=20,
                config=SimConfig(workers=8, scheme_mode=scheme, cache_size="8MB"),
            )
            for scheme in ("typical", "fbf", "greedy")
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["== Disk rebuild: 20 stripes of TIP p=11, 8 workers, FBF cache =="]
    lines.append(f"{'scheme':>8} {'reads':>7} {'time(s)':>9} {'hit':>7}")
    for scheme, rep in reports.items():
        lines.append(
            f"{scheme:>8} {rep.disk_reads:>7d} {rep.reconstruction_time:>9.3f} "
            f"{rep.hit_ratio:>7.3f}"
        )
    save_report("disk_rebuild_time", "\n".join(lines))

    assert reports["greedy"].disk_reads < reports["typical"].disk_reads
    assert reports["fbf"].disk_reads < reports["typical"].disk_reads
    assert (
        reports["greedy"].reconstruction_time
        <= reports["typical"].reconstruction_time
    )
