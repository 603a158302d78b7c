"""Whole-disk rebuild: the classic recovery workload, via the same stack.

A full disk failure is the limiting case of partial stripe recovery —
every stripe loses its entire column.  Xiang et al. (the paper's [22])
showed that mixing chain directions cuts single-disk rebuild reads by up
to ~25% for RDP; our ``greedy`` scheme generalizes that idea to the 3DFT
codes, and this module measures it: rebuild all stripes of a failed disk
under any scheme/policy and report total reads and time.

This reuses :func:`repro.engine.timed.run_timed_replay` with synthetic
full-column errors, so caching, SOR parallelism, and the disk models all
apply unchanged.  Like :mod:`repro.sim.cluster`, the module drives the
engine, so it sits in the engine's layer of the import DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..codes.layout import CodeLayout
from ..core.scheme import generate_plan
from ..engine.backends import XORBackend
from ..engine.timed import run_timed_replay
from ..workloads.errors import PartialStripeError
from .reconstruction import ReconstructionReport, SimConfig
from .topology import TopologySpec

__all__ = ["RebuildSavings", "rebuild_errors", "run_disk_rebuild", "rebuild_read_savings"]


def rebuild_errors(
    layout: CodeLayout, failed_disk: int, stripes: int
) -> list[PartialStripeError]:
    """Full-column errors for every stripe of one failed disk."""
    if not 0 <= failed_disk < layout.num_disks:
        raise IndexError(
            f"disk {failed_disk} outside 0..{layout.num_disks - 1}"
        )
    if stripes < 1:
        raise ValueError(f"stripes must be >= 1, got {stripes}")
    return [
        PartialStripeError(
            time=0.0, stripe=s, disk=failed_disk, start_row=0, length=layout.rows
        )
        for s in range(stripes)
    ]


def run_disk_rebuild(
    layout: CodeLayout,
    failed_disk: int,
    stripes: int,
    config: SimConfig = SimConfig(),
    topology: TopologySpec | None = None,
) -> ReconstructionReport:
    """Simulate rebuilding every stripe of ``failed_disk``.

    ``topology`` rebuilds across a rack cluster instead of a single
    controller: disks attach to nodes, every chain read crosses the
    network to the controller node, and the report's ``cluster`` field
    carries the traffic snapshot.  Omitted (or a one-node spec), the run
    is the degenerate single-controller world.
    """
    if topology is not None:
        config = replace(config, topology=topology)
    errors = rebuild_errors(layout, failed_disk, stripes)
    return run_timed_replay(XORBackend(layout, config.scheme_mode), errors, config)


@dataclass(frozen=True)
class RebuildSavings:
    """Per-stripe read counts of one rebuild scheme vs the typical one."""

    code: str
    p: int
    failed_disk: int
    typical_unique_reads: int
    scheme_unique_reads: int
    scheme: str

    @property
    def read_reduction(self) -> float:
        """Fraction of per-stripe reads saved vs all-horizontal rebuild."""
        if self.typical_unique_reads == 0:
            return 0.0
        return 1.0 - self.scheme_unique_reads / self.typical_unique_reads


def rebuild_read_savings(
    layout: CodeLayout, failed_disk: int = 0, scheme: str = "greedy"
) -> RebuildSavings:
    """The [22]-style accounting: unique chunks read to rebuild one stripe
    of a failed disk, smart scheme vs typical."""
    failed = list(layout.cells_on_disk(failed_disk))
    typical = generate_plan(layout, failed, "typical")
    smart = generate_plan(layout, failed, scheme)
    return RebuildSavings(
        code=layout.name,
        p=layout.p,
        failed_disk=failed_disk,
        typical_unique_reads=typical.unique_reads,
        scheme_unique_reads=smart.unique_reads,
        scheme=scheme,
    )
