"""Correctness bench: payload verification across the whole grid.

Not a performance experiment — a *confidence* one: runs the event
simulator with the payload-carrying data path over every (code, P,
scheme) combination and asserts zero scrub mismatches, i.e. every chunk
every configuration recovers is bit-exact.  This is the end-to-end
guarantee behind all the performance numbers.
"""

import pytest

from repro.codes import make_code
from repro.engine import XORBackend, run_timed_replay
from repro.sim import SimConfig
from repro.workloads import ErrorTraceConfig, generate_errors

CODES = ("tip", "hdd1", "triple-star", "star")
PS = (5, 7)
SCHEMES = ("typical", "fbf", "greedy")


@pytest.mark.benchmark(group="correctness")
def test_payload_correctness_grid(benchmark, save_report):
    def run():
        rows = []
        for code in CODES:
            for p in PS:
                layout = make_code(code, p)
                errors = generate_errors(
                    layout, ErrorTraceConfig(n_errors=15, seed=7)
                )
                for scheme in SCHEMES:
                    rep = run_timed_replay(
                        XORBackend(layout, scheme),
                        errors,
                        SimConfig(workers=4, verify_payloads=True,
                                  scheme_mode=scheme),
                    )
                    rows.append((code, p, scheme, rep))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["== Correctness grid: scrub-checked recoveries =="]
    lines.append(f"{'code':>12} {'p':>3} {'scheme':>8} {'chunks':>7} {'mismatches':>11}")
    for code, p, scheme, rep in rows:
        lines.append(
            f"{code:>12} {p:>3} {scheme:>8} "
            f"{rep.payload_chunks_verified:>7d} {rep.payload_mismatches:>11d}"
        )
    save_report("correctness_grid", "\n".join(lines))

    for code, p, scheme, rep in rows:
        assert rep.payload_mismatches == 0, (code, p, scheme)
        assert rep.payload_chunks_verified == rep.chunks_recovered > 0
