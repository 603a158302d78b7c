"""Cluster-specific content of the cluster gate's payload.

The comparison itself is shared by every kind and tested in
``test_gate.py``.
"""


class TestClusterBench:
    def test_payload_invariants_hold_at_small_scale(self, gate_payload):
        payload = gate_payload("cluster")
        assert all(payload["checks"].values())
        assert len(payload["rows"]) == 8
        assert "ec/fbf/healthy" in payload["rows"]
        assert "rep/rep/limplock" in payload["rows"]
        assert payload["detail"]["traffic_ratio"] > 1.0
