"""``repro.api.v2.replay`` — single-trace and multi-config replay.

The simulation core of the public surface: backends and their
registries, the single-trace simulator, the interned-stream grid pass
(offline and incremental), and the exact stack-distance profile.  The
kwarg vocabulary is unchanged from v1:
``workers=`` is always the *simulated* SOR worker count.
"""

from __future__ import annotations

from ...cache.registry import PAPER_BASELINES, available_policies, make_policy
from ...codes.registry import available_codes, make_code
from ...engine.backend import CodeBackend, EnginePlan, PriorityModel
from ...engine.registry import available_backends, make_backend, register_backend
from ...engine.stackdist import StackDistanceProfile
from ...engine.stream import (
    InternedStream,
    ReplayConfig,
    StreamInterner,
    intern_stream,
    simulate_grid_pass,
)
from ...engine.tracesim import (
    PlanCache,
    TraceSimResult,
    effective_partition,
    simulate_trace,
)

__all__ = [
    # single-trace replay
    "simulate_trace",
    "TraceSimResult",
    "PlanCache",
    "effective_partition",
    # interned multi-config replay (offline and incremental)
    "intern_stream",
    "InternedStream",
    "StreamInterner",
    "ReplayConfig",
    "simulate_grid_pass",
    # stack-distance profile
    "StackDistanceProfile",
    # registries
    "available_codes",
    "make_code",
    "available_policies",
    "make_policy",
    "PAPER_BASELINES",
    "available_backends",
    "make_backend",
    "register_backend",
    "CodeBackend",
    "EnginePlan",
    "PriorityModel",
]
