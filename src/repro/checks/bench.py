"""The simlint self-benchmark: cold vs warm-cache analysis wall time.

The engine's caching contract (``engine.py``) is that a warm re-run over
an unchanged tree analyzes zero files, so ``repro-fbf check`` in a
pre-commit hook or editor loop costs file-stat time, not re-parse time.
This bench measures both runs over the real ``src`` tree and returns a
schema-2 payload (:mod:`repro.bench.gate`); the committed
``benchmarks/BENCH_simlint.json`` is the perf baseline:

* the warm run must analyze **zero** files (the functional half), and
  the tree must carry no unbaselined errors;
* the cold/warm *speedup ratio* must stay within the shared tolerance of
  the committed baseline (ratios of two timings from the same machine
  and run, so the gate is machine-independent);
* optionally (``--time-tolerance``) the raw wall times too, for
  same-machine comparisons.

Run: ``repro-fbf gate simlint --out BENCH_simlint.json`` or
``repro-fbf gate simlint --check benchmarks/BENCH_simlint.json`` (CI).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Sequence

from ..bench.gate import best_of, make_payload
from .baseline import default_baseline_path
from .engine import CheckSettings, discover_usage_roots, run_engine
from .program_rules import ALL_PROGRAM_RULES
from .rules import ALL_RULES

__all__ = ["run_simlint_bench"]


def run_simlint_bench(paths: Sequence[str] = ("src",), rounds: int = 3) -> dict:
    """Time cold and warm full-rule runs; returns the schema-2 payload.

    Analysis runs with ``jobs=0`` (auto), as ``repro-fbf check`` does.
    """
    with tempfile.TemporaryDirectory(prefix="simlint-bench-") as tmp:
        cache_path = Path(tmp) / "cache.json"
        settings = CheckSettings(
            paths=list(paths),
            rules=ALL_RULES,
            program_rules=ALL_PROGRAM_RULES,
            baseline_path=default_baseline_path(),
            cache_path=cache_path,
            jobs=0,
            usage_roots=discover_usage_roots(list(paths)),
        )

        last: dict[str, object] = {}

        def cold() -> None:
            cache_path.unlink(missing_ok=True)
            last["cold"] = run_engine(settings)

        def warm() -> None:
            last["warm"] = run_engine(settings)

        cold_s = best_of(cold, rounds)  # leaves a fresh cache behind
        warm_s = best_of(warm, rounds)
        cold_outcome = last["cold"]
        warm_outcome = last["warm"]

    return make_payload(
        "simlint",
        params={"paths": list(paths), "rounds": rounds, "jobs": 0},
        checks={
            "warm_analyzed_zero": warm_outcome.files_analyzed == 0,
            "no_unbaselined_errors": not warm_outcome.errors,
        },
        ratios={"speedup": cold_s / warm_s if warm_s > 0 else 0.0},
        timings={"cold_s": cold_s, "warm_s": warm_s},
        detail={
            "files_checked": warm_outcome.files_checked,
            "files_analyzed_cold": cold_outcome.files_analyzed,
            "files_analyzed_warm": warm_outcome.files_analyzed,
            "errors": len(warm_outcome.errors),
            "warnings": len(warm_outcome.warnings),
            "baselined": warm_outcome.baselined,
        },
    )
