"""Kernel-specific content of the kernel gate's payload.

The comparison itself is shared by every kind and tested in
``test_gate.py``.
"""

from repro.bench.kernel_bench import SPEEDUP_FLOOR, WORKLOADS


class TestKernelBench:
    def test_payload_invariants_hold_at_small_scale(self, gate_payload):
        payload = gate_payload("kernel")
        assert all(payload["checks"].values()), payload["checks"]
        assert payload["kind"] == "kernel"
        assert set(payload["rows"]) == {"fig10", "fig11", "cluster"}
        assert payload["floors"] == {"speedup": SPEEDUP_FLOOR}
        throughput = payload["detail"]["throughput"]
        names = [w["name"] for w in throughput["workloads"]]
        assert names == [name for name, _ in WORKLOADS]
        assert throughput["total_events"] > 0
        assert throughput["events_per_s"] > 0
        assert payload["ratios"]["speedup"] == throughput["speedup"] > 0

    def test_rows_carry_virtual_time_only(self, gate_payload):
        # The wall-clock planning-overhead columns must be stripped, or
        # the bit-exact row comparison would flake across machines.
        for row in gate_payload("kernel")["rows"].values():
            assert "overhead_mean_s" not in row
            assert "overhead_total_s" not in row
            assert row["total_requests"] > 0
