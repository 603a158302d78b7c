"""The traced run's instruments: spans, obs counters and a profiler pass.

Spans are recorded from the benchmark's side only: :func:`install` wraps
the program's public layer functions in the benchmark process, so the
program itself is not edited.  The profiler pass maps per-file self time
onto the ARCH001 layers of :data:`repro.checks.program_rules.
DEFAULT_LAYERS`, refined to the files the benchmark reports on their own
(the kernel and the four sim front-end modules).
"""

from __future__ import annotations

import functools
import json
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Files reported as their own layer, below their package's ARCH001 layer.
FINE_LAYERS = frozenset(
    {
        "sim.kernel",
        "sim.cache_sim",
        "sim.array",
        "sim.disk",
        "sim.controller",
        "core.fbf_cache",
    }
)

#: Profiler self-share metric -> the layers whose self time it sums.
SHARE_METRICS: dict[str, Callable[[str], bool]] = {
    "kernel.self_share": lambda layer: layer == "sim.kernel",
    "sim.controller.self_share": lambda layer: layer == "sim.controller",
    "sim.cache_sim.self_share": lambda layer: layer == "sim.cache_sim",
    "sim.array.self_share": lambda layer: layer == "sim.array",
    "sim.disk.self_share": lambda layer: layer == "sim.disk",
    "sim.self_share": lambda layer: layer == "sim" or layer.startswith("sim."),
    "engine.self_share": lambda layer: layer == "engine",
    "cache.self_share": lambda layer: layer in ("cache", "core.fbf_cache"),
    "core.self_share": lambda layer: layer == "core",
    "serve.self_share": lambda layer: layer == "serve",
    "other.self_share": lambda layer: layer == "other",
}

#: Span name -> per-layer metric holding the spans' summed duration.
SPAN_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "engine.make_backend": "engine.make_backend_s",
    "engine.timed_replay": "engine.timed_replay_s",
    "engine.intern_stream": "engine.intern_stream_s",
    "engine.grid_pass": "engine.grid_pass_s",
    "engine.interner.extend": "engine.interner.extend_s",
    "engine.interner.window": "engine.interner.window_s",
    "engine.interner.compact": "engine.interner.compact_s",
    "serve.ingest": "serve.ingest_s",
    "serve.parse": "serve.parse_s",
    "serve.evaluate": "serve.evaluate_s",
}

#: obs counters copied as they are.
COUNTER_METRICS = (
    "kernel.events_dispatched",
    "kernel.resource.queued",
    "kernel.resource.granted_immediate",
    "engine.grid.stepped_rows",
    "engine.grid.lru_fast_rows",
    "engine.grid.vector_rows",
)


def layer_of(filename: str) -> str:
    """The layer a profiled source file belongs to.

    ``.../repro/sim/kernel.py`` -> ``"sim.kernel"``; ``.../repro/engine/
    stream.py`` -> ``"engine"``; files outside the ``repro`` package
    (stdlib, numpy, builtins) -> ``"other"``.
    """
    from repro.checks.program_rules import DEFAULT_LAYERS

    parts = Path(filename).parts
    if "repro" not in parts:
        return "other"
    start = len(parts) - parts[::-1].index("repro")
    module = [p[:-3] if p.endswith(".py") else p for p in parts[start:]]
    if module and module[-1] == "__init__":
        module.pop()
    if not module:
        return "repro"
    if len(module) > 1:
        dotted = f"{module[0]}.{module[1]}"
        if dotted in FINE_LAYERS or dotted in DEFAULT_LAYERS:
            return dotted
    return module[0] if module[0] in DEFAULT_LAYERS else "repro"


class SpanRecorder:
    """In-memory spans: (id, name, start, end, parent id), one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None):
        """``fn`` recording one span per call; ``on_result`` sees its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def totals(self) -> dict[str, float]:
        """Summed duration per span name; a span nested in a span of the
        same name is already inside its parent's duration and is skipped."""
        out: dict[str, float] = {}
        for _, name, start, end, parent in self.spans:
            if parent is not None and self.spans[parent][1] == name:
                continue
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Summed duration of ``child_name`` spans directly under ``parent_name``."""
        return sum(
            end - start
            for _, name, start, end, parent in self.spans
            if name == child_name and parent is not None
            and self.spans[parent][1] == parent_name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                }) + "\n")


@dataclass
class Captures:
    """Results the wrapped functions returned during the timed unit."""

    reports: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``replacement`` (module-level ``from x import f`` copies included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(recorder: SpanRecorder) -> Captures:
    """Wrap the public layer functions; returns what the wrappers capture."""
    import repro.api.v2.bench  # noqa: F401  (load every module that re-binds)
    import repro.api.v2.replay  # noqa: F401
    import repro.api.v2.serve  # noqa: F401
    from repro import workloads
    from repro.engine import registry, stream, timed
    from repro.serve import advisor, ingest

    captures = Captures()
    for name, fn, hook in (
        ("workloads.generate", workloads.generate_errors, None),
        ("engine.make_backend", registry.make_backend, None),
        ("engine.timed_replay", timed.run_timed_replay, captures.reports.append),
        ("engine.intern_stream", stream.intern_stream, None),
        ("engine.grid_pass", stream.simulate_grid_pass, captures.rows.extend),
        ("serve.parse", ingest.parse_record, None),
    ):
        _rebind(fn, recorder.wrap(name, fn, hook))
    for cls, attr, name in (
        (stream.StreamInterner, "extend", "engine.interner.extend"),
        (stream.StreamInterner, "window", "engine.interner.window"),
        (stream.StreamInterner, "compact", "engine.interner.compact"),
        (advisor.CacheAdvisor, "ingest", "serve.ingest"),
        (advisor.CacheAdvisor, "evaluate", "serve.evaluate"),
        (advisor.CacheAdvisor, "advise", "serve.advise"),
    ):
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))
    return captures


def traced_metrics(
    recorder: SpanRecorder, snapshot: dict, captures: Captures, case_layer: dict
) -> dict[str, float]:
    """Per-layer metrics of one traced unit (spans + obs + captures)."""
    totals = recorder.totals()
    out = {metric: totals.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    out["serve.advise_overhead_s"] = totals.get("serve.advise", 0.0) - \
        recorder.child_total("serve.advise", "serve.evaluate")
    counters = snapshot["counters"]
    for name in COUNTER_METRICS:
        out[name] = counters.get(name, 0)
    pool_hits = counters.get("kernel.pool.event_hits", 0) + \
        counters.get("kernel.pool.timeout_hits", 0)
    pool_all = pool_hits + counters.get("kernel.pool.event_misses", 0) + \
        counters.get("kernel.pool.timeout_misses", 0)
    out["kernel.pool.hit_ratio"] = pool_hits / pool_all if pool_all else 0.0
    replay_s = out["engine.timed_replay_s"]
    out["kernel.events_per_host_s"] = (
        out["kernel.events_dispatched"] / replay_s if replay_s else 0.0
    )
    rows = out["engine.grid.stepped_rows"] + out["engine.grid.lru_fast_rows"] + \
        out["engine.grid.vector_rows"]
    out["engine.grid.fast_row_ratio"] = (
        (out["engine.grid.lru_fast_rows"] + out["engine.grid.vector_rows"]) / rows
        if rows else 0.0
    )
    reports = captures.reports
    out["sim.requests"] = sum(r.total_requests for r in reports)
    out["sim.disk_reads"] = sum(r.disk_reads for r in reports)
    out["sim.disk.busy_vtime"] = sum(d[0] for r in reports for d in r.disk_stats)
    out["sim.disk.queue_wait_vtime"] = sum(d[1] for r in reports for d in r.disk_stats)
    out["cache.requests"] = sum(r.cache_hits + r.cache_misses for r in reports) + \
        sum(row.requests for row in captures.rows)
    out["cache.hits"] = sum(r.cache_hits for r in reports) + \
        sum(row.hits for row in captures.rows)
    out["core.plan_cache.hits"] = case_layer.get("core.plan_cache.hits", 0) + \
        sum(r.plan_cache_hits for r in reports)
    out["core.plan_cache.misses"] = case_layer.get("core.plan_cache.misses", 0)
    for name in ("bench.overhead_s", "bench.points", "serve.evaluations"):
        out[name] = case_layer.get(name, 0)
    return out


def _function_key(fn: Callable) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_metrics(stats: pstats.Stats) -> dict[str, float]:
    """Layer self-time shares and kernel call counts from one profile.

    A builtin (cProfile file ``~``) has no file of its own; its self time
    is charged to the layer of each direct caller, by that edge's time.
    """
    from repro.sim.kernel import Process, Resource

    self_time: dict[str, float] = {}
    layers: dict[str, str] = {}

    def layer(filename: str) -> str:
        found = layers.get(filename)
        if found is None:
            found = layers[filename] = layer_of(filename)
        return found

    entries = stats.stats  # type: ignore[attr-defined]
    for (filename, _, _), (_, _, tottime, _, callers) in entries.items():
        if filename == "~" and callers:
            for (caller_file, _, _), edge in callers.items():
                owner = "other" if caller_file == "~" else layer(caller_file)
                self_time[owner] = self_time.get(owner, 0.0) + edge[2]
        else:
            owner = layer(filename)
            self_time[owner] = self_time.get(owner, 0.0) + tottime
    total = sum(self_time.values()) or 1.0
    out = {
        metric: sum(t for name, t in self_time.items() if selects(name)) / total
        for metric, selects in SHARE_METRICS.items()
    }
    for metric, fn in (
        ("kernel.process_spawns", Process.__init__),
        ("kernel.resource_requests", Resource.request),
        ("kernel.generator_resumes", Process._resume),
    ):
        row = entries.get(_function_key(fn))
        out[metric] = row[1] if row is not None else 0
    return out
