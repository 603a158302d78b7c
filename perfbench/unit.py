"""One benchmark unit in a fresh process: set up, time one unit, check it.

Run by ``run.py``, never by hand.  Prints one JSON object on its last
stdout line.  ``--mode plain`` times the unit with tracing off;
``traced`` also records spans around the program's public layer
functions and enables ``repro.obs``; ``profile`` runs the timed unit
under cProfile and reports per-layer self-time shares.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profile"), default="plain")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cases
    import tracing

    case = cases.CASES[args.workload]
    recorder = captures = registry = profiler = None
    if args.mode == "traced":
        recorder = tracing.SpanRecorder(args.workload)
        captures = tracing.install(recorder)
    state = case.setup(args.seed)
    if args.mode == "traced":
        from repro import obs

        registry = obs.enable(fresh=True)
    elif args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    ready = time.monotonic()
    if profiler is not None:
        profiler.enable()
    unit = case.run(state)
    if profiler is not None:
        profiler.disable()
    rss_mb = cases.peak_rss_mb()

    layer: dict[str, float] = {}
    if registry is not None:
        from repro import obs

        obs.disable()
        layer = tracing.traced_metrics(recorder, registry.snapshot(), captures, unit.layer)
        recorder.write(
            ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}-{args.index}.jsonl"
        )
    elif profiler is not None:
        import pstats

        layer = tracing.profile_metrics(pstats.Stats(profiler))

    failed = case.check(state, unit, args.seed, args.index)
    print(json.dumps({
        "ready": ready,
        "wall_s": unit.wall_s,
        "cpu_s": unit.cpu_s,
        "op_ms": unit.op_ms,
        "events": unit.events,
        "event_s": unit.event_s,
        "rss_mb": rss_mb,
        "attempted": unit.attempted,
        "failed": failed,
        "digests": case.digests(unit),
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
