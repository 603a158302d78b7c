"""DOR and online recovery honour ``SimConfig`` the way the SOR run does.

Both scenarios pick their event kernel and buffer cache through the same
helpers as :func:`repro.engine.timed.run_timed_replay`, so ``sanitize``
and ``kernel_pooling`` take effect, and a topology they do not model is
refused instead of silently dropped.
"""

import pytest

from repro.checks import SanitizedEnvironment, SimSanitizer
from repro.sim import SimConfig, TopologySpec
from repro.sim.dor import run_reconstruction_dor
from repro.sim.kernel import Environment
from repro.sim.online import run_online_recovery
from repro.workloads import ErrorTraceConfig, generate_errors

RUNNERS = {
    "dor": run_reconstruction_dor,
    "online": lambda layout, errors, config: run_online_recovery(
        layout, errors, [], config
    ),
}


@pytest.fixture(params=sorted(RUNNERS))
def run(request):
    return RUNNERS[request.param]


@pytest.fixture
def errors(tip7):
    return generate_errors(tip7, ErrorTraceConfig(n_errors=8, seed=5))


def _spy(monkeypatch, cls):
    """Record the ``pooling`` flag of every ``cls`` constructed."""
    built = []
    init = cls.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("pooling"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy)
    return built


def test_sanitize_runs_on_sanitized_kernel_and_cache(run, tip7, errors, monkeypatch):
    kernels = _spy(monkeypatch, SanitizedEnvironment)
    policies = _spy(monkeypatch, SimSanitizer)
    run(tip7, errors, SimConfig(cache_size="1MB", sanitize=True))
    assert kernels == [True]
    assert len(policies) == 1


def _simulated(report):
    """Simulated fields only: the DOR report also carries wall-clock ones."""
    if hasattr(report, "simulated_dict"):
        return report.simulated_dict()
    return vars(report)


def test_sanitize_leaves_results_unchanged(run, tip7, errors):
    plain = run(tip7, errors, SimConfig(cache_size="1MB"))
    checked = run(tip7, errors, SimConfig(cache_size="1MB", sanitize=True))
    assert _simulated(checked) == _simulated(plain)


def test_kernel_pooling_honoured(run, tip7, errors, monkeypatch):
    kernels = _spy(monkeypatch, Environment)
    run(tip7, errors, SimConfig(cache_size="1MB", kernel_pooling=False))
    assert kernels == [False]


def test_topology_rejected(run, tip7, errors):
    with pytest.raises(ValueError, match="topology"):
        run(tip7, errors, SimConfig(topology=TopologySpec()))
