"""The RAID controller: turns failure events into recovery I/O.

For each event the controller (paper Figure 4):

1. runs the *Recovery Method Generator* — the code backend's
   :meth:`~repro.engine.backend.CodeBackend.build_plan` — and derives the
   priorities (the wall clock spent here is FBF's *temporal overhead*,
   Table IV);
2. fetches every surviving read of each recovery step through the buffer
   cache (in parallel across disks, or serially);
3. charges XOR/decode computation time and writes the recovered chunk to
   the failed disk's spare area.

Recovery plans come from the engine's
:class:`~repro.engine.tracesim.PlanCache`, memoized by the backend's plan
key — the paper notes priorities "can be enumerated once a same format of
partial stripe error is detected again, and no more calculation is
required".  The controller only consumes plans: whoever builds the timed
run (:mod:`repro.engine.timed`) hands it the plan cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from .array import DiskArray
from .cache_sim import TimedBufferCache
from .datapath import VerifyingDataPath
from .kernel import Environment

if TYPE_CHECKING:  # annotation-only: the engine sits a layer above sim
    from ..engine.backend import EnginePlan
    from ..engine.tracesim import PlanCache

__all__ = ["OverheadLog", "RAIDController"]


@dataclass
class OverheadLog:
    """Wall-clock cost of plan + priority computation (Table IV)."""

    samples: list[float] = field(default_factory=list)
    plan_cache_hits: int = 0

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0


class RAIDController:
    """Drives failure recovery through a buffer cache."""

    def __init__(
        self,
        env: Environment,
        array: DiskArray,
        plans: PlanCache,
        *,
        xor_time_per_chunk: float = 1e-5,
        parallel_chain_reads: bool = True,
        datapath: VerifyingDataPath | None = None,
    ):
        if xor_time_per_chunk < 0:
            raise ValueError(f"xor_time_per_chunk must be >= 0, got {xor_time_per_chunk}")
        self.env = env
        self.array = array
        self.backend = plans.backend
        self.scheme_mode: str = self.backend.scheme_label
        self.xor_time_per_chunk = xor_time_per_chunk
        self.parallel_chain_reads = parallel_chain_reads
        self.datapath = datapath
        self.overhead = OverheadLog()
        self._plan_cache = plans
        self.errors_recovered = 0
        self.chunks_recovered = 0

    def plan_for(self, error: Any) -> EnginePlan:
        """The recovery plan for an event, via the plan cache; misses are
        timed."""
        plans = self._plan_cache
        size_before = len(plans)
        t0 = time.perf_counter()
        plan = plans.get(error)
        if len(plans) == size_before:  # memoized: no plan was built
            self.overhead.plan_cache_hits += 1
            return plan
        plan.priorities  # materialise inside the timed region (Table IV)
        self.overhead.samples.append(time.perf_counter() - t0)
        return plan

    def recover_error(self, error: Any, cache: TimedBufferCache) -> Generator:
        """Process generator: fully repair one failure event."""
        plan = self.plan_for(error)
        priority = plan.priority_of
        stripe = error.stripe
        # Everything below runs once per recovery step across a sweep, so
        # the bound methods are hoisted into locals and the parallel/serial
        # branch is lifted out of the loop.  The yielded event sequence is
        # untouched — the bit-identity contract (DESIGN.md §16).
        env = self.env
        spawn = env.process
        all_of = env.all_of
        timeout = env.timeout
        get_chunk = cache.get_chunk
        write_spare = self.array.write_spare_chunk
        xor_time = self.xor_time_per_chunk
        datapath = self.datapath
        if self.parallel_chain_reads:
            for step in plan.steps:
                reads = step.reads
                yield all_of(
                    [
                        spawn(get_chunk(stripe, unit, priority(unit)))
                        for unit in reads
                    ]
                )
                # XOR/decode of the fetched chain members rebuilds the chunk.
                yield timeout(xor_time * len(reads))
                if datapath is not None:
                    datapath.rebuild(stripe, step.detail)
                # Write the recovered chunk to the failed disk's spare area.
                yield from write_spare(stripe, step.target)
                self.chunks_recovered += 1
        else:
            for step in plan.steps:
                reads = step.reads
                for unit in reads:
                    yield from get_chunk(stripe, unit, priority(unit))
                yield timeout(xor_time * len(reads))
                if datapath is not None:
                    datapath.rebuild(stripe, step.detail)
                yield from write_spare(stripe, step.target)
                self.chunks_recovered += 1
        self.errors_recovered += 1
