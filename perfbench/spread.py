"""Check the benchmark's steadiness: run a workload over several seeds.

    python3 perfbench/spread.py --workload des-recovery --seeds 1-10 [--seconds 30]

For every end-to-end metric it prints the ten values' median and their
quartile spread ``(Q3 - Q1) / median`` beside the metric's bound; a
steady benchmark keeps every spread (``setup_s`` aside) well inside
its bound.  Runs are sequential, so they never compete with each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from quantiles import quartile_spread

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    for metric in BENCHMARK["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series)
        print(f"{metric['name']:14s} median {statistics.median(series):12.6g}  "
              f"spread {spread:7.4f}  bound {metric['bound']:.2f}  "
              f"({spread / metric['bound']:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
