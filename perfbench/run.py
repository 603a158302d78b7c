"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload des-recovery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload replay-grid --trace 1   # per-layer metrics

Each unit runs in a fresh process (``unit.py``); this script spawns units
one after another until ``--seconds`` have passed and enough samples
exist, then reports medians.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from quantiles import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
WORKLOADS = tuple(w["name"] for w in CATALOG["workloads"])
UNITS = {m["name"]: m["unit"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]}

#: No unit is started later than this many seconds into a run.
HARD_LIMIT_S = 140.0
#: Plain units a run needs at least, whatever ``--seconds`` says.
MIN_UNITS = {"des-recovery": 3, "replay-grid": 3, "advisor-stream": 5}


class BenchError(RuntimeError):
    """A unit failed to run; the benchmark prints no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)  # only --trace turns tracing on
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, index: int, mode: str, deadline: float) -> dict:
    """Run one unit process to completion; its setup_s starts at spawn."""
    cmd = [
        sys.executable, str(HERE / "unit.py"), "--workload", workload,
        "--seed", str(seed), "--index", str(index), "--mode", mode,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} unit {index} ({mode}) timed out") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} unit {index} ({mode}) exited {proc.returncode}:\n"
            f"{proc.stderr[-3000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    out["mode"] = mode
    return out


def golden_digests(workload: str, seed: int) -> list[str] | None:
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    return golden.get(workload, {}).get(str(seed))


def count_failures(workload: str, seed: int, units: list[dict]) -> int:
    """Failed operations over every unit of a run.

    A cell or query fails when its unit's own oracle flagged it, when its
    digest differs from the committed golden digest for this seed, or
    (seeds without golden digests) from the run's first unit.  Negative
    indices are shed or invalid ingest records.
    """
    reference = golden_digests(workload, seed) or units[0]["digests"]
    failed = 0
    for unit in units:
        bad = {i for i in unit["failed"] if i >= 0}
        digests = unit["digests"]
        if len(digests) != len(reference):
            bad |= set(range(max(len(digests), len(reference))))
        bad |= {i for i, (a, b) in enumerate(zip(digests, reference)) if a != b}
        failed += len(bad) + sum(1 for i in unit["failed"] if i < 0)
    return failed


def end_to_end(units: list[dict]) -> dict[str, float]:
    plain = [u for u in units if u["mode"] == "plain"]
    ops = [ms for u in plain for ms in u["op_ms"]]
    return {
        "setup_s": statistics.median(u["setup_s"] for u in plain),
        "wall_s": statistics.median(u["wall_s"] for u in plain),
        "cpu_s": statistics.median(u["cpu_s"] for u in plain),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in plain),
        "op_p50_ms": percentile(ops, 0.50),
        "op_p95_ms": percentile(ops, 0.95),
        "events_per_s": sum(u["events"] for u in plain) / sum(u["event_s"] for u in plain),
    }


def per_layer(units: list[dict]) -> dict[str, float]:
    traced = [u for u in units if u["mode"] == "traced"]
    out = {
        name: statistics.median(u["layer"][name] for u in traced)
        for name in traced[0]["layer"]
    }
    for unit in units:
        if unit["mode"] == "profile":
            out.update(unit["layer"])
    # a traced unit against the plain unit just before it: adjacent units
    # share the machine's state, so their ratio is steadier than a ratio
    # of medians taken far apart
    ratios = [
        unit["wall_s"] / before["wall_s"]
        for before, unit in zip(units, units[1:])
        if unit["mode"] == "traced" and before["mode"] == "plain"
    ]
    out["obs.overhead_frac"] = statistics.median(ratios) - 1.0
    return out


def modes(trace: bool):
    """Unit modes in spawn order: all plain, or profile then plain/traced pairs."""
    if trace:
        yield "profile"
    while True:
        yield "plain"
        if trace:
            yield "traced"


def enough(workload: str, units: list[dict], trace: bool) -> bool:
    n_plain = sum(u["mode"] == "plain" for u in units)
    if trace:
        return n_plain >= 1 and any(u["mode"] == "traced" for u in units)
    return n_plain >= MIN_UNITS[workload]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S + 30.0
    units: list[dict] = []
    for index, mode in enumerate(modes(trace)):
        elapsed = time.monotonic() - start
        if elapsed >= seconds and enough(workload, units, trace):
            break
        if elapsed >= HARD_LIMIT_S:
            raise BenchError(f"{workload}: too few units within {HARD_LIMIT_S:.0f} s")
        units.append(spawn(workload, seed, index, mode, deadline))
    failed = count_failures(workload, seed, units)
    attempted = sum(u["attempted"] for u in units)
    metrics = per_layer(units) if trace else end_to_end(units)
    expected = [m["name"] for m in CATALOG["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(expected) - set(metrics))
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name in expected
        },
        "units": len(units),
        "ops": sum(len(u["op_ms"]) for u in units if u["mode"] == "plain"),
    }


def render(workload: str, result: dict) -> str:
    lines = [
        f"{workload}: {result['units']} processes, {result['ops']} timed operations, "
        f"error_rate {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / result['attempted']:.4g}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    return "\n".join(lines)


def program_present() -> bool:
    """The program's sources sit beside the benchmark; compile them once."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        return False
    import compileall

    compileall.compile_dir(package, quiet=1)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the unit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not program_present():
        print(f"no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(render(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
