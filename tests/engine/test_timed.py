"""The unified timed replay: backend-parameterized event simulation."""

import pytest

from repro.engine import make_backend, run_timed_replay
from repro.sim import SimConfig


class TestXORTimedReplay:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="no events"):
            run_timed_replay(make_backend("tip", 5), [])


class TestLRCTimedReplay:
    """New capability: LRC through the event kernel via FlatGeometry."""

    @pytest.fixture(scope="class")
    def report(self):
        backend = make_backend("lrc(12,2,2)")
        events = backend.generate_events(15, seed=4)
        return run_timed_replay(
            backend, events, SimConfig(cache_size="256KB", workers=4)
        )

    def test_accounting(self, report):
        assert report.code == "LRC(12,2,2)" and report.p == 0
        assert report.n_errors == 15
        assert report.chunks_recovered > 0
        assert report.total_requests == report.cache_hits + report.cache_misses
        assert report.disk_reads == report.cache_misses
        assert report.reconstruction_time > 0
        # every rebuilt block lands on its spare via a timed write
        assert report.disk_writes == report.chunks_recovered

    def test_deterministic(self, report):
        backend = make_backend("lrc(12,2,2)")
        events = backend.generate_events(15, seed=4)
        again = run_timed_replay(
            backend, events, SimConfig(cache_size="256KB", workers=4)
        )
        assert again.cache_hits == report.cache_hits
        assert again.reconstruction_time == report.reconstruction_time
        assert again.avg_response_time == report.avg_response_time

    def test_sanitized_run(self):
        backend = make_backend("lrc(12,2,2)")
        events = backend.generate_events(10, seed=4)
        clean = run_timed_replay(
            backend, events, SimConfig(cache_size="256KB", workers=2)
        )
        checked = run_timed_replay(
            backend, events, SimConfig(cache_size="256KB", workers=2, sanitize=True)
        )
        assert checked.cache_hits == clean.cache_hits
        assert checked.reconstruction_time == clean.reconstruction_time

    def test_verify_payloads_rejected(self):
        backend = make_backend("lrc(12,2,2)")
        events = backend.generate_events(3, seed=4)
        with pytest.raises(ValueError, match="verify_payloads"):
            run_timed_replay(backend, events, SimConfig(verify_payloads=True))
