"""The cluster-recovery bench: the rack-aware scenario as a CI gate.

Runs the quick-scale ``cluster`` grid — EC decode (FBF/LRU/ARC) vs
replication on a 3-rack cluster, healthy and with a limplocked node —
plus the degenerate-topology equivalence check, and emits
``BENCH_cluster.json``.  Every number in the payload is *virtual* time
or traffic (no wall clocks), so the committed baseline is
machine-independent and CI compares rows **bit-exactly**:

* the one-node topology must reproduce the golden single-controller
  rows identically (the refactor's safety contract, DESIGN §15);
* EC recovery must move more cross-rack bytes than replication (the
  Rashmi et al. traffic asymmetry the scenario exists to show);
* the measured bottleneck must be a network link, not a disk;
* the nic-counter detector must flag exactly the limplocked node;
* every row must equal the committed baseline's row.

Run: ``repro-fbf gate cluster --out BENCH_cluster.json`` or
``repro-fbf gate cluster --check benchmarks/BENCH_cluster.json`` (CI).
"""

from __future__ import annotations

from dataclasses import asdict, replace

from ..codes import make_code
from ..sim import SimConfig, TopologySpec, run_reconstruction
from ..sim.cluster import ClusterSpec, run_cluster_recovery
from ..workloads import ErrorTraceConfig, generate_errors
from .experiments import QUICK
from .gate import make_payload

__all__ = ["run_cluster_bench"]

#: The scenario axis: (redundancy, policy) per cluster state.
SCENARIOS = (("ec", "fbf"), ("ec", "lru"), ("ec", "arc"), ("rep", "rep"))


def _degenerate_identical(n_errors: int, seed: int) -> bool:
    """One-node topology == golden single-controller rows, bit for bit."""
    layout = make_code("tip", 7)
    errors = generate_errors(
        layout, ErrorTraceConfig(n_errors=n_errors, seed=seed)
    )
    config = SimConfig(workers=8)
    base = run_reconstruction(layout, errors, config)
    topo = run_reconstruction(
        layout, errors, replace(config, topology=TopologySpec())
    )
    return (base.simulated_dict(exclude=("cluster",))
            == topo.simulated_dict(exclude=("cluster",)))


def run_cluster_bench(n_errors: int = QUICK.n_errors) -> dict:
    """Run the scenario grid + invariant checks; return the payload."""
    seed = QUICK.seed
    rows = {}
    for limplock in (False, True):
        for redundancy, policy in SCENARIOS:
            spec = ClusterSpec(
                redundancy=redundancy,
                policy=policy if redundancy == "ec" else "fbf",
                n_errors=n_errors,
                seed=seed,
                workers=min(QUICK.workers, 8),
                limplock=limplock,
            )
            report = run_cluster_recovery(spec)
            row = asdict(report)
            row["cross_rack_mb"] = report.cross_rack_mb
            row["limplock_suspects"] = list(report.limplock_suspects)
            rows[_row_key(row)] = row

    def _rows(redundancy, limplock):
        return [r for r in rows.values()
                if r["redundancy"] == redundancy and r["limplock"] == limplock]

    ec_cross = min(r["cross_rack_bytes"] for r in _rows("ec", False))
    rep_cross = max(r["cross_rack_bytes"] for r in _rows("rep", False))
    checks = {
        "degenerate_identical": _degenerate_identical(n_errors, seed),
        # the traffic asymmetry: decode reads k survivors where
        # replication reads one replica
        "ec_exceeds_rep_cross_rack": ec_cross > rep_cross,
        "bottleneck_is_network": all(
            "nic" in r["bottleneck"] or "uplink" in r["bottleneck"]
            for r in rows.values()
        ),
        "limplock_detected": all(
            r["limplock_suspects"] == [1] if r["limplock"]
            else r["limplock_suspects"] == []
            for r in rows.values()
        ),
    }
    return make_payload(
        "cluster",
        params={"scale": "quick", "n_errors": n_errors, "seed": seed},
        rows=rows,
        checks=checks,
        detail={
            "ec_min_cross_rack_bytes": ec_cross,
            "rep_max_cross_rack_bytes": rep_cross,
            "traffic_ratio": ec_cross / rep_cross if rep_cross else None,
        },
    )


def _row_key(row: dict) -> str:
    """``redundancy/policy/limplock``, e.g. ``ec/fbf/healthy``."""
    state = "limplock" if row["limplock"] else "healthy"
    return f"{row['redundancy']}/{row['policy']}/{state}"
