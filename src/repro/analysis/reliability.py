"""Reliability modelling: MTTDL and the window of vulnerability.

The paper motivates FBF through reliability: partial stripe errors
"contribute to the excessive mean time to data loss (MTTDL)", and slow
recovery "enlarges the window of vulnerability (WOV)".  This module makes
that argument quantitative with the standard Markov models:

* :func:`mttdl_birth_death` — expected absorption time of a birth-death
  chain with failure rates ``(n-k) * lam`` and repair rate ``mu`` per
  degraded state; data loss absorbs at ``m+1`` concurrent failures for an
  ``m``-failure-tolerant array.
* :func:`mttdl_3dft` — the 3DFT specialization (absorbs at 4 failures).
* :func:`wov_improvement` — how a faster reconstruction (e.g. FBF vs LRU,
  paper Figure 11) shrinks the window of vulnerability and scales MTTDL.

Rates are per hour, matching the usual MTBF bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mttdl_birth_death",
    "mttdl_3dft",
    "ReliabilityComparison",
    "wov_improvement",
]


def mttdl_birth_death(
    n_disks: int,
    disk_mtbf_hours: float,
    repair_hours: float,
    fault_tolerance: int = 3,
) -> float:
    """Expected hours to data loss for an ``fault_tolerance``-failure array.

    Transient states ``k = 0..fault_tolerance`` count concurrent failures;
    state ``fault_tolerance + 1`` (data loss) absorbs.  Failures arrive at
    ``(n - k) / mtbf``; repair completes at ``1 / repair_hours`` from any
    degraded state (single repair crew, the conservative assumption).
    MTTDL solves ``t_k = 1/r_k + sum_j P(k->j) t_j`` by a dense linear
    system — exact, no closed-form approximations.
    """
    if n_disks <= fault_tolerance:
        raise ValueError(
            f"need more than {fault_tolerance} disks, got {n_disks}"
        )
    if disk_mtbf_hours <= 0 or repair_hours <= 0:
        raise ValueError("mtbf and repair time must be positive")
    if fault_tolerance < 0:
        raise ValueError(f"fault_tolerance must be >= 0, got {fault_tolerance}")
    lam = 1.0 / disk_mtbf_hours
    mu = 1.0 / repair_hours
    m = fault_tolerance
    # Generator matrix over transient states 0..m.
    q = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        fail_rate = (n_disks - k) * lam
        out = fail_rate
        if k + 1 <= m:
            q[k, k + 1] = fail_rate
        if k > 0:
            q[k, k - 1] = mu
            out += mu
        q[k, k] = -out
    # E[absorption time] t solves Q t = -1.
    t = np.linalg.solve(q, -np.ones(m + 1))
    return float(t[0])


def mttdl_3dft(n_disks: int, disk_mtbf_hours: float, repair_hours: float) -> float:
    """MTTDL of a triple-disk-failure-tolerant array."""
    return mttdl_birth_death(n_disks, disk_mtbf_hours, repair_hours, fault_tolerance=3)


@dataclass(frozen=True)
class ReliabilityComparison:
    """MTTDL impact of one reconstruction-time improvement."""

    baseline_repair_hours: float
    improved_repair_hours: float
    baseline_mttdl_hours: float
    improved_mttdl_hours: float

    @property
    def wov_reduction_percent(self) -> float:
        return 100.0 * (
            1.0 - self.improved_repair_hours / self.baseline_repair_hours
        )

    @property
    def mttdl_gain_factor(self) -> float:
        return self.improved_mttdl_hours / self.baseline_mttdl_hours


def wov_improvement(
    n_disks: int,
    disk_mtbf_hours: float,
    baseline_repair_hours: float,
    improved_repair_hours: float,
    fault_tolerance: int = 3,
) -> ReliabilityComparison:
    """Quantify how a faster recovery shrinks the WOV and grows MTTDL.

    Feed it the reconstruction times of two cache policies (e.g. LRU and
    FBF from :func:`repro.engine.timed.run_timed_replay`) to convert the
    paper's Figure 11 into a reliability statement.
    """
    if improved_repair_hours > baseline_repair_hours:
        raise ValueError(
            "improved repair time exceeds baseline; swap the arguments"
        )
    return ReliabilityComparison(
        baseline_repair_hours=baseline_repair_hours,
        improved_repair_hours=improved_repair_hours,
        baseline_mttdl_hours=mttdl_birth_death(
            n_disks, disk_mtbf_hours, baseline_repair_hours, fault_tolerance
        ),
        improved_mttdl_hours=mttdl_birth_death(
            n_disks, disk_mtbf_hours, improved_repair_hours, fault_tolerance
        ),
    )
