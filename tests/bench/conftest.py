"""Small-scale bench-gate payloads, measured once per test session."""

from __future__ import annotations

import pytest

from repro.bench.cluster_bench import run_cluster_bench
from repro.bench.kernel_bench import run_kernel_bench
from repro.bench.replay_bench import run_replay_bench
from repro.checks.bench import run_simlint_bench


def _simlint_tree(root):
    """A tiny lintable tree: cold analysis stays far below a second."""
    pkg = root / "src" / "repro" / "cache"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Tiny package."""\n')
    (pkg / "small.py").write_text(
        '"""Tiny module."""\n\n\ndef double(x: int) -> int:\n'
        "    return 2 * x\n"
    )
    return root / "src"


@pytest.fixture(scope="session")
def gate_payload(tmp_path_factory):
    """``gate_payload(kind)``: that kind's payload at small scale, memoized.

    One round keeps the wall-clock axes cheap; their ratios are noise,
    so tests never assert a measured ratio against a floor.
    """
    made: dict[str, dict] = {}

    def get(kind: str) -> dict:
        if kind not in made:
            if kind == "kernel":
                made[kind] = run_kernel_bench(rounds=1, n_errors=4)
            elif kind == "replay":
                made[kind] = run_replay_bench(
                    codes=(("tip", 5),), capacities=(8, 32, 128),
                    workers=4, n_errors=20, rounds=1,
                )
            elif kind == "cluster":
                made[kind] = run_cluster_bench(n_errors=4)
            else:
                tree = _simlint_tree(tmp_path_factory.mktemp("simlint"))
                made[kind] = run_simlint_bench(paths=[str(tree)], rounds=1)
        return made[kind]

    return get
