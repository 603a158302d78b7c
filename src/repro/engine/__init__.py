"""The pluggable recovery-engine core (DESIGN.md §10).

One engine, N code backends: every simulator in this repo — the fast
untimed trace replay and the timed event-kernel replay — is written once
against the :class:`~repro.engine.backend.CodeBackend` protocol, and the
four XOR 3DFT codes plus the LRC code plug in as adapters.

* :mod:`repro.engine.backend` — the protocols: ``CodeBackend``,
  ``EnginePlan``/``RecoveryStep``, ``PriorityModel``.
* :mod:`repro.engine.backends` — the adapters: :class:`XORBackend`
  (TIP/HDD1/STAR/Triple-STAR over :func:`repro.core.generate_plan`),
  :class:`LRCBackend` (:func:`repro.lrc.plan_lrc_recovery`).
* :mod:`repro.engine.registry` — name -> backend resolution
  (``make_backend("tip", 7)``, ``make_backend("lrc(12,2,2)")``).
* :mod:`repro.engine.tracesim` — the untimed replay:
  :func:`simulate_trace`, :class:`PlanCache`, :class:`TraceSimResult`.
* :mod:`repro.engine.stream` — the single-pass grid replay (DESIGN.md
  §11): :func:`intern_stream`, :func:`simulate_grid_pass`, and the one
  interning loop, :class:`~repro.engine.stream.StreamInterner`.  It is
  the one batched replay path; per-point :func:`simulate_trace` is its
  golden oracle.
* :mod:`repro.engine.stackdist` — exact Mattson reuse-distance
  profiling (Fenwick), the LRU all-capacities fast path behind the grid
  replay.
* :mod:`repro.engine.timed` — the timed replay:
  :func:`run_timed_replay`.
"""

from .backend import (
    MAX_PRIORITY,
    CodeBackend,
    EnginePlan,
    PriorityModel,
    RecoveryStep,
    SharePriorityModel,
    TablePriorityModel,
    Unit,
    make_priority_model,
)
from .backends import LRCBackend, XORBackend
from .registry import available_backends, make_backend, register_backend
from .stackdist import StackDistanceProfile
from .stream import InternedStream, ReplayConfig, intern_stream, simulate_grid_pass
from .timed import run_timed_replay
from .tracesim import PlanCache, TraceSimResult, effective_partition, simulate_trace

__all__ = [
    "MAX_PRIORITY",
    "CodeBackend",
    "EnginePlan",
    "PriorityModel",
    "RecoveryStep",
    "SharePriorityModel",
    "TablePriorityModel",
    "Unit",
    "make_priority_model",
    "LRCBackend",
    "XORBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "run_timed_replay",
    "PlanCache",
    "TraceSimResult",
    "simulate_trace",
    "effective_partition",
    "InternedStream",
    "ReplayConfig",
    "intern_stream",
    "simulate_grid_pass",
    "StackDistanceProfile",
]
