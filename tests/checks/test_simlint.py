"""Tests for the simlint static-analysis pass.

The headline test lints the entire ``src/`` tree and fails on any new
violation — that is the regression guard every future PR runs against.
The seeded-violation tests write intentionally broken modules into paths
matching each rule's scope and assert file:line diagnostics come back.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.checks import (
    ALL_RULES,
    lint_paths,
    lint_source,
    rules_by_id,
    run_check,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def lint_snippet(source: str, path: str):
    """Lint one in-memory module against the full rule set."""
    violations, suppressed = lint_source(source, path, ALL_RULES)
    return violations


class TestWholeTree:
    def test_src_tree_is_clean(self):
        """The repo's own source must satisfy every simlint rule."""
        result = lint_paths([SRC], ALL_RULES)
        formatted = "\n".join(v.format() for v in result.violations)
        assert result.ok, f"simlint violations in src/:\n{formatted}"
        assert result.files_checked > 50  # the walker really walked the tree

    def test_rule_ids_unique(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert all(rule.summary for rule in ALL_RULES)


class TestWallClock:
    def test_time_time_in_sim_flagged(self):
        violations = lint_snippet(
            "import time\n\ndef proc(env):\n    start = time.time()\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM001"]
        assert violations[0].line == 4

    def test_time_sleep_in_cache_flagged(self):
        violations = lint_snippet(
            "from time import sleep\n\ndef slow():\n    sleep(1)\n",
            "src/repro/cache/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM001"]

    def test_perf_counter_allowed(self):
        """Table IV measures real planning overhead with perf_counter."""
        violations = lint_snippet(
            "import time\n\ndef measure():\n    return time.perf_counter()\n",
            "src/repro/sim/controller.py",
        )
        assert violations == []

    def test_out_of_scope_not_flagged(self):
        violations = lint_snippet(
            "import time\n\ndef stamp():\n    return time.time()\n",
            "src/repro/bench/reporting.py",
        )
        assert violations == []


class TestYieldNonEvent:
    def test_literal_yield_flagged(self):
        violations = lint_snippet(
            "def proc(env):\n    yield 5\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM002"]

    def test_bare_yield_flagged(self):
        violations = lint_snippet(
            "def proc(env):\n    yield\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM002"]

    def test_event_yield_allowed(self):
        violations = lint_snippet(
            "def proc(env):\n    yield env.timeout(1.0)\n    x = yield env.event()\n",
            "src/repro/sim/broken.py",
        )
        assert violations == []


class TestUnseededRandom:
    def test_global_random_flagged(self):
        violations = lint_snippet(
            "import random\n\ndef pick():\n    return random.random()\n",
            "src/repro/cache/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET001"]

    def test_seeded_instance_allowed(self):
        violations = lint_snippet(
            "import random\n\ndef make(seed):\n    return random.Random(seed)\n",
            "src/repro/cache/broken.py",
        )
        assert violations == []

    def test_legacy_numpy_random_flagged(self):
        violations = lint_snippet(
            "import numpy as np\n\ndef pick():\n    return np.random.randint(10)\n",
            "src/repro/workloads/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET001"]

    def test_default_rng_allowed(self):
        violations = lint_snippet(
            "import numpy as np\n\ndef make(seed):\n    return np.random.default_rng(seed)\n",
            "src/repro/workloads/broken.py",
        )
        assert violations == []


class TestUnorderedIteration:
    def test_for_over_set_flagged(self):
        violations = lint_snippet(
            "def f():\n    pending = set()\n    for item in pending:\n        print(item)\n",
            "src/repro/sim/broken.py",
        )
        assert any(v.rule_id == "DET002" for v in violations)

    def test_annotated_self_attr_iteration_flagged(self):
        source = (
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self._live: set[int] = set()\n"
            "    def drain(self):\n"
            "        return list(self._live)\n"
        )
        violations = lint_snippet(source, "src/repro/analysis/broken.py")
        assert any(v.rule_id == "DET002" for v in violations)

    def test_sorted_wrapper_allowed(self):
        violations = lint_snippet(
            "def f():\n    pending = set()\n    for item in sorted(pending):\n        print(item)\n",
            "src/repro/sim/broken.py",
        )
        assert [v for v in violations if v.rule_id == "DET002"] == []

    def test_order_insensitive_consumers_allowed(self):
        source = (
            "def f(items):\n"
            "    chosen = set(items)\n"
            "    return any(x > 3 for x in chosen), sum(x for x in chosen), min(chosen)\n"
        )
        violations = lint_snippet(source, "src/repro/sim/broken.py")
        assert [v for v in violations if v.rule_id == "DET002"] == []

    def test_same_name_in_other_function_not_tainted(self):
        """A name assigned as a set in one function is local to it."""
        source = (
            "def a(items):\n"
            "    chosen = set(items)\n"
            "    return len(chosen)\n"
            "def b(items):\n"
            "    chosen = sorted(set(items))\n"
            "    return [x for x in chosen]\n"
        )
        violations = lint_snippet(source, "src/repro/sim/broken.py")
        assert [v for v in violations if v.rule_id == "DET002"] == []

    def test_set_pop_flagged(self):
        violations = lint_snippet(
            "def f():\n    live = set()\n    return live.pop()\n",
            "src/repro/sim/broken.py",
        )
        assert any("set.pop()" in v.message for v in violations)


class TestUnorderedState:
    def test_set_state_in_kernel_scope_flagged(self):
        source = (
            "class Resource:\n"
            "    def __init__(self):\n"
            "        self._holders: set[int] = set()\n"
        )
        violations = lint_snippet(source, "src/repro/sim/kernel.py")
        assert any(v.rule_id == "DET003" for v in violations)

    def test_dict_state_allowed(self):
        source = (
            "class Resource:\n"
            "    def __init__(self):\n"
            "        self._holders: dict[int, None] = {}\n"
        )
        violations = lint_snippet(source, "src/repro/sim/kernel.py")
        assert [v for v in violations if v.rule_id == "DET003"] == []

    def test_out_of_scope_sim_module_not_flagged(self):
        source = (
            "class Oracle:\n"
            "    def __init__(self):\n"
            "        self._seen: set[int] = set()\n"
        )
        violations = lint_snippet(source, "src/repro/sim/datapath.py")
        assert [v for v in violations if v.rule_id == "DET003"] == []


class TestPolicyConformance:
    BROKEN_PATH = "src/repro/cache/broken.py"

    def test_mutable_class_state_flagged(self):
        source = (
            "from .base import CachePolicy\n"
            "class BadCache(CachePolicy):\n"
            "    name = 'bad'\n"
            "    shared = []\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        assert any(v.rule_id == "POL001" for v in violations)

    def test_dataclass_exempt_from_mutable_state(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Stats:\n"
            "    samples: list = field(default_factory=list)\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        assert [v for v in violations if v.rule_id == "POL001"] == []

    def test_missing_name_flagged(self):
        source = (
            "from .base import CachePolicy\n"
            "class NoName(CachePolicy):\n"
            "    def request(self, key, priority=None):\n"
            "        return False\n"
            "    def __contains__(self, key):\n"
            "        return False\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def _clear(self):\n"
            "        pass\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        assert any(
            v.rule_id == "POL002" and "name" in v.message for v in violations
        )

    def test_missing_method_flagged(self):
        source = (
            "from .base import CachePolicy\n"
            "class Partial(CachePolicy):\n"
            "    name = 'partial'\n"
            "    def request(self, key, priority=None):\n"
            "        return False\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        missing = {v.message.split()[-1] for v in violations if v.rule_id == "POL002"}
        assert "__contains__()" in missing and "_clear()" in missing

    def test_wrong_request_signature_flagged(self):
        source = (
            "from .base import CachePolicy\n"
            "class Drift(CachePolicy):\n"
            "    name = 'drift'\n"
            "    def request(self, key, weight=1.0):\n"
            "        return False\n"
            "    def __contains__(self, key):\n"
            "        return False\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def _clear(self):\n"
            "        pass\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        assert any(
            v.rule_id == "POL002" and "signature" in v.message for v in violations
        )

    def test_conforming_policy_clean(self):
        source = (
            "from .base import Key, SimpleCachePolicy\n"
            "class Fine(SimpleCachePolicy):\n"
            "    name = 'fine'\n"
            "    def __init__(self, capacity):\n"
            "        super().__init__(capacity)\n"
            "        self._d = {}\n"
            "    def __contains__(self, key):\n"
            "        return key in self._d\n"
            "    def __len__(self):\n"
            "        return len(self._d)\n"
            "    def _clear(self):\n"
            "        self._d.clear()\n"
            "    def _on_hit(self, key):\n"
            "        pass\n"
            "    def _admit(self, key, priority):\n"
            "        self._d[key] = None\n"
            "    def _evict(self):\n"
            "        return next(iter(self._d))\n"
        )
        violations = lint_snippet(source, self.BROKEN_PATH)
        assert violations == []


class TestGF2Purity:
    def test_true_division_flagged(self):
        violations = lint_snippet(
            "def norm(a, b):\n    return a / b\n",
            "src/repro/codes/broken.py",
        )
        assert [v.rule_id for v in violations] == ["GF2001"]

    def test_floor_division_allowed(self):
        violations = lint_snippet(
            "def rows(a, b):\n    return a // b\n",
            "src/repro/codes/broken.py",
        )
        assert violations == []

    def test_float_dtype_flagged(self):
        violations = lint_snippet(
            "import numpy as np\n\ndef mat(n):\n    return np.zeros(n, dtype=np.float64)\n",
            "src/repro/codes/broken.py",
        )
        assert [v.rule_id for v in violations] == ["GF2001"]

    def test_astype_float_flagged(self):
        violations = lint_snippet(
            "def f(a):\n    return a.astype(float)\n",
            "src/repro/codes/broken.py",
        )
        assert [v.rule_id for v in violations] == ["GF2001"]

    def test_uint_dtypes_allowed(self):
        violations = lint_snippet(
            "import numpy as np\n\ndef mat(n):\n    return np.zeros(n, dtype=np.uint8)\n",
            "src/repro/codes/broken.py",
        )
        assert violations == []


class TestCpuCountLeak:
    def test_cpu_count_in_sim_scope_flagged(self):
        violations = lint_snippet(
            "import os\n\ndef workers():\n    return os.cpu_count()\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET004"]
        assert violations[0].line == 4

    def test_cpu_count_in_workloads_flagged(self):
        violations = lint_snippet(
            "from os import cpu_count\n\ndef trace_len():\n    return cpu_count() * 8\n",
            "src/repro/workloads/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET004"]

    def test_cpu_count_into_sim_config_flagged(self):
        """Even outside sim scopes, cpu_count must not reach sim params."""
        violations = lint_snippet(
            "import os\n\nfrom repro.sim.reconstruction import SimConfig\n\n"
            "def cfg():\n    return SimConfig(workers=os.cpu_count())\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET004"]

    def test_tainted_name_into_entry_point_flagged(self):
        violations = lint_snippet(
            "import os\n\nn = os.cpu_count()\n\n"
            "def errs(layout, cfg):\n    return generate_errors(layout, cfg, n)\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET004"]

    def test_pool_sizing_allowed(self):
        """The legitimate use: sizing a ProcessPoolExecutor."""
        violations = lint_snippet(
            "import os\nfrom concurrent.futures import ProcessPoolExecutor\n\n"
            "def pool():\n    return ProcessPoolExecutor(max_workers=os.cpu_count())\n",
            "src/repro/bench/broken.py",
        )
        assert violations == []

    def test_unrelated_name_not_tainted(self):
        violations = lint_snippet(
            "def errs(layout, cfg, n):\n    return generate_errors(layout, cfg, n)\n",
            "src/repro/bench/broken.py",
        )
        assert violations == []


class TestEngineScopes:
    """The unified-engine modules joined the simulator rule scopes."""

    def test_wall_clock_in_engine_flagged(self):
        violations = lint_snippet(
            "import time\n\ndef replay():\n    return time.time()\n",
            "src/repro/engine/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM001"]

    def test_wall_clock_in_lrc_flagged(self):
        violations = lint_snippet(
            "import time\n\ndef plan():\n    return time.time()\n",
            "src/repro/lrc/broken.py",
        )
        assert [v.rule_id for v in violations] == ["SIM001"]

    def test_cpu_count_in_engine_flagged(self):
        violations = lint_snippet(
            "import os\n\ndef workers():\n    return os.cpu_count()\n",
            "src/repro/engine/broken.py",
        )
        assert [v.rule_id for v in violations] == ["DET004"]

    def test_cpu_count_into_engine_entry_points_flagged(self):
        for call in (
            "simulate_trace(b, e, workers=os.cpu_count())",
            "run_timed_replay(b, e, cfg, os.cpu_count())",
            "make_backend('tip', os.cpu_count())",
            "b.generate_events(os.cpu_count(), 42)",
        ):
            violations = lint_snippet(
                f"import os\n\ndef f(b, e, cfg):\n    return {call}\n",
                "src/repro/bench/broken.py",
            )
            assert [v.rule_id for v in violations] == ["DET004"], call

    def test_mutable_class_state_in_engine_flagged(self):
        violations = lint_snippet(
            "class Backend:\n    plans = {}\n",
            "src/repro/engine/broken.py",
        )
        assert [v.rule_id for v in violations] == ["POL001"]

    def test_set_state_in_engine_flagged(self):
        violations = lint_snippet(
            "class PlanCache:\n    def __init__(self):\n"
            "        self.keys: set[int] = set()\n",
            "src/repro/engine/broken.py",
        )
        assert "DET003" in [v.rule_id for v in violations]

    def test_policy_conformance_in_engine_scope(self):
        violations = lint_snippet(
            "from repro.cache.base import CachePolicy\n\n"
            "class Rogue(CachePolicy):\n    name = 'rogue'\n",
            "src/repro/engine/broken.py",
        )
        assert all(v.rule_id == "POL002" for v in violations)
        assert violations  # missing required methods


class TestLegacyReplayImport:
    """ENG001: the deleted repro.lrc/sim.tracesim world must stay deleted."""

    def test_absolute_module_import_flagged(self):
        violations = lint_snippet(
            "import repro.lrc.tracesim\n", "src/repro/bench/broken.py"
        )
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_from_module_import_flagged(self):
        violations = lint_snippet(
            "from repro.lrc.tracesim import simulate_lrc_trace\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_relative_module_import_flagged(self):
        violations = lint_snippet(
            "from ..lrc.tracesim import simulate_lrc_trace\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_relative_import_inside_lrc_flagged(self):
        violations = lint_snippet(
            "from .tracesim import LRCTraceResult\n",
            "src/repro/lrc/__init__.py",
        )
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_deleted_name_via_package_flagged(self):
        violations = lint_snippet(
            "from repro.lrc import LRCCode, simulate_lrc_trace\n",
            "src/repro/cli.py",
        )
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_surviving_lrc_imports_allowed(self):
        violations = lint_snippet(
            "from repro.lrc import LRCCode, generate_lrc_failures\n",
            "src/repro/cli.py",
        )
        assert violations == []

    @pytest.mark.parametrize(
        "source, path",
        [
            ("import repro.sim.tracesim\n", "src/repro/bench/broken.py"),
            ("from repro.sim.tracesim import PlanCache\n", "src/repro/bench/broken.py"),
            ("from ..sim.tracesim import PlanCache\n", "src/repro/bench/broken.py"),
            ("from .tracesim import PlanCache\n", "src/repro/sim/__init__.py"),
            ("from repro.sim import SimConfig, simulate_cache_trace\n", "src/repro/cli.py"),
            ("from repro import simulate_cache_trace\n", "examples/broken.py"),
        ],
        ids=["import", "from-module", "relative", "inside-sim", "via-sim", "via-root"],
    )
    def test_sim_tracesim_flagged(self, source, path):
        """The XOR-world adapter repro.sim.tracesim is deleted too."""
        violations = lint_snippet(source, path)
        assert [v.rule_id for v in violations] == ["ENG001"]

    def test_surviving_sim_imports_allowed(self):
        violations = lint_snippet(
            "from repro.sim import SimConfig, build_array\n"
            "from .tracesim import PlanCache\n",
            "src/repro/engine/broken.py",
        )
        assert violations == []

    def test_engine_imports_allowed(self):
        violations = lint_snippet(
            "from repro.engine import LRCBackend, simulate_trace\n",
            "src/repro/bench/broken.py",
        )
        assert violations == []


class TestDirectPlanBuild:
    """PERF001: plans are built through the PlanCache memo only."""

    def test_direct_call_flagged(self):
        violations = lint_snippet(
            "def plans(backend, events):\n"
            "    return [backend.build_plan(e) for e in events]\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["PERF001"]
        assert violations[0].line == 2

    def test_self_backend_call_flagged(self):
        violations = lint_snippet(
            "class Controller:\n"
            "    def plan_for(self, error):\n"
            "        return self.backend.build_plan(error)\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["PERF001"]

    def test_plan_cache_home_exempt(self):
        """The one legal call site: PlanCache.get in engine/tracesim.py."""
        violations = lint_snippet(
            "class PlanCache:\n"
            "    def get(self, event):\n"
            "        return self.backend.build_plan(event)\n",
            "src/repro/engine/tracesim.py",
        )
        assert violations == []

    def test_plan_cache_get_allowed(self):
        violations = lint_snippet(
            "def plans(cache, events):\n"
            "    return [cache.get(e) for e in events]\n",
            "src/repro/sim/controller.py",
        )
        assert violations == []


class TestZeroTimeout:
    """PERF002: constant env.timeout(0) should be env.schedule_now()."""

    def test_constant_zero_flagged(self):
        violations = lint_snippet(
            "def proc(env):\n"
            "    yield env.timeout(0)\n",
            "src/repro/sim/broken.py",
        )
        assert [v.rule_id for v in violations] == ["PERF002"]
        assert violations[0].line == 2
        assert "schedule_now" in violations[0].message

    def test_constant_zero_float_flagged(self):
        violations = lint_snippet(
            "def proc(env):\n"
            "    yield env.timeout(0.0, value)\n",
            "src/repro/engine/broken.py",
        )
        assert [v.rule_id for v in violations] == ["PERF002"]

    def test_variable_delay_allowed(self):
        """A runtime-zero delay through a variable is the normal timed path."""
        violations = lint_snippet(
            "def proc(env, delay):\n"
            "    yield env.timeout(delay)\n"
            "    yield env.timeout(max(0.0, delay))\n",
            "src/repro/sim/broken.py",
        )
        assert violations == []

    def test_nonzero_constant_allowed(self):
        violations = lint_snippet(
            "def proc(env):\n"
            "    yield env.timeout(1.0)\n",
            "src/repro/sim/broken.py",
        )
        assert violations == []

    def test_bool_false_not_flagged(self):
        """False == 0 numerically, but it is not a constant zero delay."""
        violations = lint_snippet(
            "def proc(env, flag):\n"
            "    yield env.timeout(False)\n",
            "src/repro/sim/broken.py",
        )
        assert violations == []

    def test_kernel_home_exempt(self):
        """The kernel defines both spellings; its own zero delays are legal."""
        violations = lint_snippet(
            "def equivalent(env):\n"
            "    return env.timeout(0)\n",
            "src/repro/sim/kernel.py",
        )
        assert violations == []

    def test_schedule_now_allowed(self):
        violations = lint_snippet(
            "def proc(env):\n"
            "    yield env.schedule_now()\n",
            "src/repro/sim/broken.py",
        )
        assert violations == []


class TestBarePrint:
    """OBS001: library code reports through repro.obs.emit, never print()."""

    def test_print_in_library_flagged(self):
        violations = lint_snippet(
            "def report(rows):\n"
            "    for row in rows:\n"
            "        print(row)\n",
            "src/repro/bench/broken.py",
        )
        assert [v.rule_id for v in violations] == ["OBS001"]
        assert violations[0].line == 3

    def test_emit_allowed(self):
        violations = lint_snippet(
            "from repro.obs import emit\n\ndef report(row):\n    emit(row)\n",
            "src/repro/bench/reporting.py",
        )
        assert violations == []

    def test_console_module_exempt(self):
        violations = lint_snippet(
            "def emit(text):\n    print(text)\n",
            "src/repro/obs/console.py",
        )
        assert violations == []

    def test_out_of_scope_not_flagged(self):
        violations = lint_snippet(
            "print('hello')\n",
            "scripts/tool.py",
        )
        assert violations == []

    def test_docstring_mention_not_flagged(self):
        violations = lint_snippet(
            '"""Example::\n\n    print(result)\n"""\n',
            "src/repro/bench/docs.py",
        )
        assert violations == []


class TestSuppression:
    def test_blanket_ignore(self):
        source = "import time\n\ndef f():\n    return time.time()  # simlint: ignore\n"
        violations, suppressed = lint_source(
            source, "src/repro/sim/broken.py", ALL_RULES
        )
        assert violations == [] and suppressed == 1

    def test_targeted_ignore(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # simlint: ignore[SIM001]\n"
        )
        violations, suppressed = lint_source(
            source, "src/repro/sim/broken.py", ALL_RULES
        )
        assert violations == [] and suppressed == 1

    def test_wrong_id_does_not_suppress(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # simlint: ignore[GF2001]\n"
        )
        violations, suppressed = lint_source(
            source, "src/repro/sim/broken.py", ALL_RULES
        )
        assert [v.rule_id for v in violations] == ["SIM001"] and suppressed == 0


class TestCheckCommand:
    def seed_violation(self, tmp_path: Path) -> Path:
        bad = tmp_path / "src" / "repro" / "cache" / "bad_policy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n\ndef tiebreak():\n    return random.random()\n",
            encoding="utf-8",
        )
        return bad

    def test_clean_tree_exit_zero(self):
        stream = io.StringIO()
        assert run_check([str(SRC)], stream=stream) == 0
        assert "0 violations" in stream.getvalue()

    def test_seeded_violation_exit_nonzero(self, tmp_path):
        bad = self.seed_violation(tmp_path)
        stream = io.StringIO()
        assert run_check([str(tmp_path)], stream=stream) == 1
        out = stream.getvalue()
        assert f"{bad}:4:" in out and "DET001" in out

    def test_select_filters_rules(self, tmp_path):
        self.seed_violation(tmp_path)
        stream = io.StringIO()
        assert run_check([str(tmp_path)], select=["GF2001"], stream=stream) == 0

    def test_unknown_rule_id_usage_error(self):
        stream = io.StringIO()
        assert run_check(["src"], select=["NOPE99"], stream=stream) == 2

    def test_missing_path_usage_error(self, tmp_path):
        stream = io.StringIO()
        missing = tmp_path / "nope"
        assert run_check([str(missing)], stream=stream) == 2
        assert "no such file or directory" in stream.getvalue()

    def test_list_rules(self):
        stream = io.StringIO()
        assert run_check([], list_rules=True, stream=stream) == 0
        out = stream.getvalue()
        assert all(rule_id in out for rule_id in rules_by_id())

    def test_cli_integration(self, capsys):
        from repro.cli import main

        assert main(["check", str(SRC)]) == 0
        assert "0 violations" in capsys.readouterr().out
        assert main(["check", "--list-rules"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("rule_id", sorted(rules_by_id()))
    def test_every_rule_reachable_by_select(self, rule_id):
        stream = io.StringIO()
        assert run_check([str(SRC)], select=[rule_id], stream=stream) == 0
