"""The bench gate: one payload schema, one comparison, one best-of timer.

Every microbench (``kernel``, ``replay``, ``cluster``, ``simlint``)
returns a schema-2 payload::

    {schema: 2, kind, git_rev, params, rows, checks, ratios, floors,
     timings, detail}

* ``rows`` — ``{key: {field: value}}`` of virtual-time quantities,
  compared bit for bit (every field, and the set of fields);
* ``checks`` — ``{name: bool}`` invariants the fresh run must satisfy;
* ``ratios`` — same-run, same-machine timing ratios (machine-independent),
  held to :data:`RATIO_TOLERANCE` of the baseline's;
* ``floors`` — ``{ratio: minimum}`` that a *committed baseline* must
  demonstrate (a fresh run is held to the tolerance band instead, which
  is what absorbs runner noise);
* ``timings`` — raw seconds, gated only on request (``time_tolerance``),
  because they are machine-dependent;
* ``params`` / ``detail`` — how the run was sized and everything else it
  measured; informational, never compared.

The entry point is ``repro-fbf gate {kernel,replay,cluster,simlint}``
(:func:`run_gate`); it lives in the CLI because ``checks`` sits above
``bench`` in the layer DAG.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Mapping

from ..obs import emit

__all__ = [
    "SCHEMA",
    "RATIO_TOLERANCE",
    "best_of",
    "make_payload",
    "self_problems",
    "compare",
    "render",
    "run_gate",
]

SCHEMA = 2

#: A fresh ratio may sit at most this far below the baseline's.
RATIO_TOLERANCE = 0.10


def best_of(fn: Callable[[], object], rounds: int) -> float:
    """Min-of-N wall time: the stable estimator for short loops."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _git_rev() -> str | None:
    """Current commit hash, or None outside a git checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def make_payload(
    kind: str,
    *,
    params: Mapping[str, object],
    rows: Mapping[str, Mapping[str, object]] | None = None,
    checks: Mapping[str, bool],
    ratios: Mapping[str, float] | None = None,
    floors: Mapping[str, float] | None = None,
    timings: Mapping[str, float] | None = None,
    detail: Mapping[str, object] | None = None,
) -> dict:
    """A schema-2 payload with every key present."""
    return {
        "schema": SCHEMA,
        "kind": kind,
        "git_rev": _git_rev(),
        "params": dict(params),
        "rows": dict(rows or {}),
        "checks": {name: bool(ok) for name, ok in checks.items()},
        "ratios": dict(ratios or {}),
        "floors": dict(floors or {}),
        "timings": dict(timings or {}),
        "detail": dict(detail or {}),
    }


def _fmt(value: float | None) -> str:
    return "missing" if value is None else f"{value:.2f}x"


def _check_problems(payload: Mapping) -> list[str]:
    return [f"check {name} does not hold"
            for name, ok in payload["checks"].items() if not ok]


def _floor_problems(payload: Mapping) -> list[str]:
    problems = []
    for name, floor in payload["floors"].items():
        value = payload["ratios"].get(name)
        if value is None or value < floor:
            problems.append(
                f"ratio {name} {_fmt(value)} is below its {floor:.2f}x floor"
            )
    return problems


def self_problems(payload: Mapping) -> list[str]:
    """Why ``payload`` cannot serve as a baseline: failed checks, floors."""
    return _check_problems(payload) + _floor_problems(payload)


def _row_problems(current: Mapping, baseline: Mapping) -> list[str]:
    problems = []
    for key in baseline.keys() - current.keys():
        problems.append(f"baseline row {key} missing from the current run")
    for key in current.keys() - baseline.keys():
        problems.append(f"row {key} missing from the baseline")
    for key in current.keys() & baseline.keys():
        row, expected = current[key], baseline[key]
        missing = sorted(expected.keys() - row.keys())
        extra = sorted(row.keys() - expected.keys())
        diverged = [f for f in expected if f in row and row[f] != expected[f]]
        if missing:
            problems.append(f"row {key} lacks field {', '.join(missing)}")
        if extra:
            problems.append(
                f"row {key} has field {', '.join(extra)} the baseline lacks"
            )
        if diverged:
            problems.append(f"row {key} diverged on {', '.join(diverged)}")
    return sorted(problems)


def compare(
    current: Mapping, baseline: Mapping, time_tolerance: float | None = None
) -> tuple[bool, str]:
    """The CI gate: ``(ok, message)`` for a fresh payload vs a baseline.

    Fails on a kind mismatch, any false fresh check, a baseline ratio
    below its own floor, any row difference (values or field sets), a
    ratio more than :data:`RATIO_TOLERANCE` below the baseline's, and —
    only when ``time_tolerance`` is given — a timing more than
    ``time_tolerance`` above the baseline's.
    """
    if baseline.get("schema") != SCHEMA:
        return False, f"baseline schema {baseline.get('schema')} is not {SCHEMA}"
    if current["kind"] != baseline["kind"]:
        return False, (
            f"kind {current['kind']!r} does not match the baseline's "
            f"{baseline['kind']!r}"
        )
    problems = _check_problems(current)
    problems += [
        f"check {name} missing from the current run"
        for name in sorted(baseline["checks"].keys() - current["checks"].keys())
    ]
    problems += [f"baseline {p}" for p in _floor_problems(baseline)]
    problems += _row_problems(current["rows"], baseline["rows"])
    for name, base in baseline["ratios"].items():
        value = current["ratios"].get(name)
        least = base * (1.0 - RATIO_TOLERANCE)
        if value is None or value < least:
            problems.append(
                f"ratio {name} {_fmt(value)} fell below {least:.2f}x "
                f"(baseline {base:.2f}x - {RATIO_TOLERANCE:.0%})"
            )
    if time_tolerance is not None:
        for name, base in baseline["timings"].items():
            value = current["timings"].get(name)
            ceiling = base * (1.0 + time_tolerance)
            if value is None or value > ceiling:
                shown = "missing" if value is None else f"{value:.3f}s"
                problems.append(
                    f"timing {name} {shown} exceeds {ceiling:.3f}s "
                    f"(baseline {base:.3f}s + {time_tolerance:.0%})"
                )
    if problems:
        return False, "; ".join(problems)
    parts = [f"{len(current['rows'])} rows bit-identical"] if current["rows"] else []
    parts.append(f"{len(current['checks'])} checks hold")
    parts += [f"{name} {current['ratios'][name]:.2f}x "
              f"(baseline {base:.2f}x)"
              for name, base in baseline["ratios"].items()]
    if time_tolerance is not None:
        parts += [f"{name} {current['timings'][name]:.3f}s "
                  f"(baseline {base:.3f}s)"
                  for name, base in baseline["timings"].items()]
    return True, "; ".join(parts)


def render(payload: Mapping) -> str:
    """The human summary of any payload."""
    params = " ".join(f"{k}={v}" for k, v in payload["params"].items()
                      if not isinstance(v, (list, dict)))
    lines = [f"{payload['kind']} bench ({params})"]
    if payload["rows"]:
        lines.append(f"rows ({len(payload['rows'])}): "
                     + ", ".join(payload["rows"]))
    for name, value in payload["ratios"].items():
        floor = payload["floors"].get(name)
        lines.append(f"ratio {name}: {value:.2f}x"
                     + ("" if floor is None else f" (floor {floor:.2f}x)"))
    for name, value in payload["timings"].items():
        lines.append(f"timing {name}: {value:.3f}s")
    for name, ok in payload["checks"].items():
        lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines)


def run_gate(
    payload: dict,
    out: str | None = None,
    check: str | None = None,
    time_tolerance: float | None = None,
) -> int:
    """Print, write and gate a fresh payload; the process exit code.

    With ``check`` the comparison decides.  Without it, ``out`` refuses
    (exit 1) a payload that fails its own checks or floors — a new
    baseline must demonstrate them — though the file is still written so
    the failing measurement can be inspected.
    """
    emit(render(payload))
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        emit(f"wrote {path}")
    if check:
        baseline = json.loads(Path(check).read_text(encoding="utf-8"))
        ok, message = compare(payload, baseline, time_tolerance)
        emit(("PASS: " if ok else "FAIL: ") + message)
        return 0 if ok else 1
    if out:
        problems = self_problems(payload)
        if problems:
            emit("FAIL: payload cannot be a baseline: " + "; ".join(problems))
            return 1
    return 0
