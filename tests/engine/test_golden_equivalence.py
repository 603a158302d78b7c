"""The refactor's determinism gate (ISSUE 3, DESIGN.md §10).

``golden_rows.json`` was captured from the PRE-unification replay
implementations (``repro.sim.tracesim.simulate_cache_trace``,
``repro.lrc.tracesim.simulate_lrc_trace``, ``repro.sim.reconstruction.
run_reconstruction``, all since deleted) before any engine code
existed.  The unified
engine must reproduce every row bit-for-bit: hit counts, request counts,
disk reads — for all four XOR 3DFT codes and the LRC — and the timed
replay's simulated clocks.  Regenerating the fixture from current code
would defeat the gate; treat it as append-only.
"""

import json
from pathlib import Path

import pytest

from repro.engine import PlanCache, XORBackend, make_backend, run_timed_replay, simulate_trace
from repro.lrc import LRCCode, LRCWorkloadConfig, generate_lrc_failures
from repro.sim.reconstruction import SimConfig
from repro.workloads import ErrorTraceConfig, generate_errors
from repro.codes import make_code

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_rows.json").read_text(encoding="utf-8")
)


def _xor_cases():
    for row in GOLDEN["xor_trace"]:
        label = (
            f"{row['code']}-p{row['p']}-{row['scheme_mode']}-{row['policy']}"
            f"-c{row['capacity_blocks']}" + ("-share" if row.get("hint") else "")
        )
        yield pytest.param(row, id=label)


class TestXORGolden:
    @pytest.fixture(scope="class")
    def shared(self):
        """Per-(code, p, scheme) backends/events/plan caches, shared like
        a sweep group would share them — sharing must not change rows."""
        return {}

    @pytest.mark.parametrize("row", _xor_cases())
    def test_row(self, row, shared):
        key = (row["code"], row["p"], row["scheme_mode"])
        if key not in shared:
            backend = make_backend(row["code"], row["p"], scheme_mode=row["scheme_mode"])
            errors = generate_errors(
                make_code(row["code"], row["p"]),
                ErrorTraceConfig(n_errors=row["n_errors"], seed=42),
            )
            shared[key] = (backend, errors, PlanCache(backend))
        backend, errors, plans = shared[key]
        res = simulate_trace(
            backend,
            errors,
            policy=row["policy"],
            capacity_blocks=row["capacity_blocks"],
            workers=row["workers"],
            plan_cache=plans,
            hint=row.get("hint", "priority"),
        )
        assert res.requests == row["requests"]
        assert res.hits == row["hits"]
        assert res.disk_reads == row["disk_reads"]
        assert res.hit_ratio == row["hit_ratio"]


class TestLRCGolden:
    @pytest.fixture(scope="class")
    def setup(self):
        backend = make_backend("lrc(12,2,2)")
        events = generate_lrc_failures(
            LRCCode(12, 2, 2),
            LRCWorkloadConfig(
                n_events=60, seed=9, batch_size_weights=(0.3, 0.3, 0.25, 0.15)
            ),
        )
        return backend, events, PlanCache(backend)

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(r, id=f"{r['policy']}-c{r['capacity_blocks']}")
            for r in GOLDEN["lrc_trace"]
        ],
    )
    def test_row(self, row, setup):
        backend, events, plans = setup
        res = simulate_trace(
            backend,
            events,
            policy=row["policy"],
            capacity_blocks=row["capacity_blocks"],
            workers=row["workers"],
            plan_cache=plans,
        )
        assert res.n_events == row["n_events"]
        assert res.requests == row["requests"]
        assert res.hits == row["hits"]
        assert res.disk_reads == row["disk_reads"]
        assert res.hit_ratio == row["hit_ratio"]


class TestDESGolden:
    """The timed replay's simulated clocks survived the backend refactor."""

    @pytest.mark.parametrize("variant", ["des_serial", "des_parallel"])
    def test_row(self, variant):
        row = GOLDEN[variant]
        layout = make_code(row["code"], row["p"])
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=12, seed=42))
        rep = run_timed_replay(
            XORBackend(layout),
            errors,
            SimConfig(
                policy=row["policy"],
                cache_size=64 * 32 * 1024,
                workers=row["workers"],
                parallel_chain_reads=(variant == "des_parallel"),
            ),
        )
        assert rep.cache_hits == row["cache_hits"]
        assert rep.disk_reads == row["disk_reads"]
        assert rep.chunks_recovered == row["chunks_recovered"]
        assert rep.reconstruction_time == row["reconstruction_time"]
        assert rep.avg_response_time == row["avg_response_time"]
