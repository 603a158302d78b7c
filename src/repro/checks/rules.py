"""The ``simlint`` rule set: domain invariants of the FBF reproduction.

Rule ids are stable (used in ``# simlint: ignore[...]`` suppressions and
``repro-fbf check --select``):

=========  ==================================================================
id         checks
=========  ==================================================================
SIM001     no wall-clock calls (``time.time``/``time.sleep``/...) in
           simulator, policy, or code-construction modules — virtual time
           only (``time.perf_counter`` stays legal: it feeds the Table IV
           *measured* planning-overhead numbers, not simulated time)
SIM002     kernel process generators must only ``yield`` kernel events,
           never bare/literal values
DET001     no unseeded randomness: global ``random.*`` functions and
           legacy ``numpy.random.*`` calls are forbidden; use
           ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``
DET002     no iteration over ``set``-typed values where order escapes
           (for/comprehensions/``list``/``tuple``/``enumerate``/...);
           wrap in ``sorted(...)`` or use an insertion-ordered dict
DET003     eviction/scheduling instance state must not be a ``set`` —
           use ``dict[K, None]`` / ``OrderedDict`` so any future
           iteration is insertion-ordered
DET004     host parallelism must never parameterise a simulation:
           ``os.cpu_count()`` / ``multiprocessing.cpu_count()`` are
           forbidden inside simulation modules, and everywhere their
           value may not flow into simulation entry points
           (``SimConfig``/``Scale``/``GridPoint``/...) — worker counts
           derived from the host are for scheduling (process pools)
           only, or results would differ per machine
POL001     no mutable class-level state (list/dict/set defaults) on cache
           policy modules — shared across instances, breaks run isolation
POL002     every ``CachePolicy`` subclass implements the ``base.py``
           interface exactly: a non-abstract ``name``, the required
           methods, and the ``request(self, key, priority=None)`` signature
GF2001     GF(2)/XOR purity in ``repro/codes``: no true division and no
           float dtypes in parity paths (XOR algebra is exact; floats
           would silently corrupt parity)
ENG001     no imports of the pre-unification replay modules
           (``repro.lrc.tracesim``, ``repro.sim.tracesim``) or their
           deleted entry points (``simulate_lrc_trace``/``LRCTraceResult``/
           ``simulate_cache_trace``) — every replay goes through
           :mod:`repro.engine`
PERF001    no ``backend.build_plan(...)`` call sites outside
           :class:`~repro.engine.tracesim.PlanCache` — plans are built
           once per plan key and shared; a direct call silently forfeits
           the memo (and its Table IV hit accounting)
PERF002    no constant ``env.timeout(0)`` — a zero-delay wake-up should
           be ``env.schedule_now()``: same fast-lane ordering, but a
           pool-recycled plain event instead of a ``Timeout`` dressed up
           as a delay (kernel internals and tests exempt)
OBS001     no bare ``print()`` in ``repro`` library code — route output
           through :func:`repro.obs.emit` (or an explicit stream write)
           so reporting stays testable and obs-aware
=========  ==================================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .framework import Rule, Violation

__all__ = ["ALL_RULES", "default_rules", "rules_by_id"]

_SIM_SCOPES = ("repro/sim", "repro/core", "repro/cache", "repro/codes",
               "repro/engine", "repro/lrc")


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _resolve(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted origin of a Name/Attribute chain, or None if unknown."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


class WallClockRule(Rule):
    """SIM001: simulated components must never read or block on real time."""

    rule_id = "SIM001"
    summary = "no wall-clock time (time.time/time.sleep/datetime.now) in sim code"
    scopes = _SIM_SCOPES

    _FORBIDDEN = (
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted in self._FORBIDDEN:
                yield self.violation(
                    node,
                    path,
                    f"wall-clock call {dotted}() in simulation code; use the "
                    f"event kernel's virtual clock (env.now / env.timeout)",
                )


class YieldNonEventRule(Rule):
    """SIM002: a literal yield in a sim process is never a kernel event."""

    rule_id = "SIM002"
    summary = "sim process generators must yield kernel events, not literals"
    scopes = ("repro/sim",)

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Yield):
                continue
            if node.value is None or isinstance(node.value, ast.Constant):
                what = (
                    "a bare value"
                    if node.value is None
                    else f"literal {ast.unparse(node.value)}"
                )
                yield self.violation(
                    node,
                    path,
                    f"process yields {what}; kernel processes may only yield "
                    f"Event/Timeout/Process/AllOf (SimulationError at runtime)",
                )


class UnseededRandomRule(Rule):
    """DET001: all randomness must flow from an explicit seed."""

    rule_id = "DET001"
    summary = "no global random.* / legacy numpy.random.* calls (seed explicitly)"

    _NUMPY_ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted is None:
                continue
            if dotted.startswith("random.") and dotted.count(".") == 1:
                fn = dotted.split(".", 1)[1]
                if fn not in ("Random", "SystemRandom"):
                    yield self.violation(
                        node,
                        path,
                        f"global {dotted}() shares interpreter-wide RNG state; "
                        f"use a random.Random(seed) instance",
                    )
            elif dotted.startswith("numpy.random."):
                fn = dotted.split(".", 2)[2].split(".")[0]
                if fn not in self._NUMPY_ALLOWED:
                    yield self.violation(
                        node,
                        path,
                        f"legacy numpy.random.{fn}() uses hidden global state; "
                        f"use numpy.random.default_rng(seed)",
                    )


_SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
_MUTABLE_SET_NAMES = {"set", "Set", "MutableSet"}


def _annotation_set_kind(annotation: ast.expr | None) -> str | None:
    """'mutable'/'frozen' if the annotation is a set type, else None."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):  # typing.Set, typing.AbstractSet, ...
        name = node.attr
    if name in _SET_TYPE_NAMES:
        return "mutable" if name in _MUTABLE_SET_NAMES else "frozen"
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _target_key(node: ast.expr) -> str | None:
    """Stable key for a Name or ``self.attr`` target."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _enclosing_function_map(tree: ast.Module) -> dict[int, ast.AST | None]:
    """id(node) -> the innermost enclosing function def (None = module)."""
    scopes: dict[int, ast.AST | None] = {}

    def visit(node: ast.AST, scope: ast.AST | None) -> None:
        scopes[id(node)] = scope
        child_scope = (
            node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        )
        for child in ast.iter_child_nodes(node):
            visit(child, child_scope)

    visit(tree, None)
    return scopes


def _collect_set_names(
    tree: ast.Module, scopes: dict[int, ast.AST | None]
) -> set[tuple[int | None, str]]:
    """(scope, name) pairs declared or assigned as sets.

    Local names are tracked per enclosing function (a name reused as a
    list in another function must not be tainted); ``self.attr`` state is
    tracked module-wide because instance attributes cross method scopes.
    """
    names: set[tuple[int | None, str]] = set()

    def record(target: ast.expr, node: ast.AST) -> None:
        key = _target_key(target)
        if key is None:
            return
        if key.startswith("self."):
            names.add((None, key))
        else:
            scope = scopes.get(id(node))
            names.add((id(scope) if scope is not None else None, key))

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if _annotation_set_kind(node.annotation) is not None:
                record(node.target, node)
        elif isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                record(target, node)
    return names


class UnorderedIterationRule(Rule):
    """DET002: set iteration order is observable -> nondeterministic runs.

    CPython set iteration order depends on insertion history and hash
    randomization of the element values; any simulation decision fed by
    it silently varies between runs.
    """

    rule_id = "DET002"
    summary = "no iteration over set-typed values where order is observable"

    _ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed", "next"}
    #: consumers whose result does not depend on iteration order.
    _ORDER_INSENSITIVE_CALLS = {
        "any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset",
    }

    def _is_tracked_set(
        self,
        node: ast.expr,
        set_names: set[tuple[int | None, str]],
        scopes: dict[int, ast.AST | None],
    ) -> bool:
        if _is_set_expr(node):
            return True
        key = _target_key(node)
        if key is None:
            return False
        if (None, key) in set_names:
            return True
        scope = scopes.get(id(node))
        return scope is not None and (id(scope), key) in set_names

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        scopes = _enclosing_function_map(tree)
        set_names = _collect_set_names(tree, scopes)
        # Generator expressions consumed whole by an order-insensitive
        # builtin (any/all/sum/min/max/...) are fine; remember them.
        exempt_comps: set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_INSENSITIVE_CALLS
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp, ast.SetComp))
            ):
                exempt_comps.add(id(node.args[0]))
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                if self._is_tracked_set(node.iter, set_names, scopes):
                    yield self.violation(
                        node.iter,
                        path,
                        "for-loop over a set: iteration order is not "
                        "deterministic; wrap in sorted(...) or keep a "
                        "dict[K, None]",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if id(node) in exempt_comps:
                    continue
                for comp in node.generators:
                    if self._is_tracked_set(comp.iter, set_names, scopes):
                        yield self.violation(
                            comp.iter,
                            path,
                            "comprehension over a set leaks nondeterministic "
                            "order into an ordered result; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self._ORDER_SENSITIVE_CALLS
                    and node.args
                    and self._is_tracked_set(node.args[0], set_names, scopes)
                ):
                    yield self.violation(
                        node,
                        path,
                        f"{node.func.id}() over a set produces a "
                        f"nondeterministic sequence; wrap in sorted(...)",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args
                    and self._is_tracked_set(node.func.value, set_names, scopes)
                ):
                    yield self.violation(
                        node,
                        path,
                        "set.pop() removes an arbitrary element; pick the "
                        "victim deterministically",
                    )


class CpuCountLeakRule(Rule):
    """DET004: host CPU topology may schedule work, never shape results.

    An ``os.cpu_count()`` that reaches a *simulated* parameter — the
    paper's SOR worker count, an error-trace size, a cache partition —
    silently makes every headline number a function of the machine the
    sweep ran on.  Feeding it to a ``ProcessPoolExecutor`` is fine: the
    engine guarantees scheduling cannot change row values.
    """

    rule_id = "DET004"
    summary = "cpu_count() must only size process pools, never simulation parameters"

    _CPU_FNS = (
        "os.cpu_count",
        "os.process_cpu_count",
        "multiprocessing.cpu_count",
    )
    #: constructors/functions whose arguments parameterise a simulation.
    _SIM_ENTRY_POINTS = {
        "SimConfig",
        "Scale",
        "GridPoint",
        "ErrorTraceConfig",
        "LRCWorkloadConfig",
        "simulate_trace",
        "run_timed_replay",
        "make_backend",
        "generate_errors",
        "generate_events",
        "generate_lrc_failures",
    }

    def _is_cpu_call(self, node: ast.expr, imports: dict[str, str]) -> bool:
        return (
            isinstance(node, ast.Call)
            and _resolve(node.func, imports) in self._CPU_FNS
        )

    def _contains_cpu_value(
        self, node: ast.expr, imports: dict[str, str], tainted: set[str]
    ) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
            if self._is_cpu_call(sub, imports):
                return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        imports = _import_map(tree)
        in_sim_scope = any(
            fragment in Path(path).as_posix()
            for fragment in (*_SIM_SCOPES, "repro/workloads")
        )
        # Names assigned (anywhere in the module) from a cpu_count call.
        tainted: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._contains_cpu_value(
                node.value, imports, set()
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if in_sim_scope and self._is_cpu_call(node, imports):
                yield self.violation(
                    node,
                    path,
                    "cpu_count() in simulation code couples results to the "
                    "host machine; simulated worker counts must come from "
                    "the experiment Scale",
                )
                continue
            callee = None
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            if callee not in self._SIM_ENTRY_POINTS:
                continue
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if self._contains_cpu_value(arg, imports, tainted):
                    yield self.violation(
                        node,
                        path,
                        f"cpu_count()-derived value flows into {callee}(); "
                        f"host parallelism may size the process pool, never "
                        f"a simulation parameter",
                    )
                    break


class UnorderedStateRule(Rule):
    """DET003: ordered structures only for eviction/scheduling state.

    Even membership-only sets are a trap here: the moment someone iterates
    one (a new eviction heuristic, a debug dump feeding a decision), run
    results stop being reproducible.  ``dict[K, None]`` gives the same
    O(1) membership with insertion order guaranteed.
    """

    rule_id = "DET003"
    summary = "cache/kernel instance state must be insertion-ordered, not a set"
    scopes = ("repro/cache/", "repro/core/", "repro/sim/kernel.py", "repro/engine/")
    excludes = ("repro/cache/base.py", "repro/core/policy.py")

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.AnnAssign):
                continue
            key = _target_key(node.target)
            if key is None or not key.startswith("self."):
                continue
            if _annotation_set_kind(node.annotation) == "mutable":
                yield self.violation(
                    node,
                    path,
                    f"{key} is declared as a set; eviction/scheduling state "
                    f"must be insertion-ordered (use dict[K, None])",
                )


class MutableClassStateRule(Rule):
    """POL001: class-level mutables are shared across policy instances."""

    rule_id = "POL001"
    summary = "no mutable class-level defaults (list/dict/set) in policy modules"
    scopes = ("repro/cache/", "repro/core/", "repro/engine/")

    _MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}

    def _is_mutable_value(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in self._MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = {
                d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
                for d in cls.decorator_list
            } | {
                d.func.id if isinstance(d.func, ast.Name) else getattr(d.func, "attr", None)
                for d in cls.decorator_list
                if isinstance(d, ast.Call)
            }
            if "dataclass" in decorators:
                continue  # dataclass fields go through field(default_factory=...)
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and self._is_mutable_value(stmt.value):
                    names = ", ".join(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
                    yield self.violation(
                        stmt,
                        path,
                        f"class-level mutable default {names!r} on "
                        f"{cls.name} is shared by every instance; initialise "
                        f"it in __init__",
                    )


class PolicyInterfaceRule(Rule):
    """POL002: structural conformance of every policy to ``base.py``."""

    rule_id = "POL002"
    summary = "CachePolicy subclasses must match the base.py interface exactly"
    scopes = ("repro/cache/", "repro/core/", "repro/engine/")
    excludes = ("repro/cache/base.py", "repro/core/policy.py")

    _REQUIRED = {
        "CachePolicy": ("request", "__contains__", "__len__", "_clear"),
        "SimpleCachePolicy": ("_on_hit", "_admit", "_evict", "__contains__", "__len__", "_clear"),
    }

    @staticmethod
    def _base_kind(cls: ast.ClassDef) -> str | None:
        for base in cls.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name in ("CachePolicy", "SimpleCachePolicy"):
                return name
        return None

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            kind = self._base_kind(cls)
            if kind is None:
                continue
            methods = {
                stmt.name: stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
            }
            # 1. registry name: a non-abstract string constant.
            name_value = None
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "name"
                        for t in stmt.targets
                    )
                    and isinstance(stmt.value, ast.Constant)
                ):
                    name_value = stmt.value.value
            if not isinstance(name_value, str) or name_value in ("", "abstract"):
                yield self.violation(
                    cls,
                    path,
                    f"{cls.name} must define a non-abstract `name` class "
                    f"attribute (registry identity)",
                )
            # 2. required methods for its template.
            for required in self._REQUIRED[kind]:
                if required not in methods:
                    yield self.violation(
                        cls,
                        path,
                        f"{cls.name} ({kind} subclass) does not define "
                        f"required method {required}()",
                    )
            # 3. request() signature: (self, key, priority=None).
            request = methods.get("request")
            if request is not None:
                args = request.args
                names = [a.arg for a in args.posonlyargs + args.args]
                ok = (
                    names == ["self", "key", "priority"]
                    and len(args.defaults) == 1
                    and isinstance(args.defaults[0], ast.Constant)
                    and args.defaults[0].value is None
                    and args.vararg is None
                    and args.kwarg is None
                )
                if not ok:
                    yield self.violation(
                        request,
                        path,
                        f"{cls.name}.request must have signature "
                        f"(self, key, priority=None) so policies are "
                        f"interchangeable",
                    )


class GF2PurityRule(Rule):
    """GF2001: parity arithmetic is exact XOR algebra — keep floats out."""

    rule_id = "GF2001"
    summary = "no true division or float dtypes in repro/codes parity paths"
    scopes = ("repro/codes/",)
    # update.py reports averaged update-penalty statistics, not parity math.
    excludes = ("repro/codes/update.py",)

    _FLOAT_ATTRS = {"float16", "float32", "float64", "float128", "float_", "double"}

    def _is_float_dtype(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "float":
            return True
        if isinstance(node, ast.Attribute) and node.attr in self._FLOAT_ATTRS:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.startswith("float") or node.value in ("f2", "f4", "f8")
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                yield self.violation(
                    node,
                    path,
                    "true division in a GF(2) parity path produces floats; "
                    "use // or XOR algebra",
                )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "dtype" and self._is_float_dtype(kw.value):
                        yield self.violation(
                            node,
                            path,
                            "float dtype in a parity path; GF(2) math must "
                            "stay on integer dtypes (uint8/uint32)",
                        )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                    and self._is_float_dtype(node.args[0])
                ):
                    yield self.violation(
                        node,
                        path,
                        "astype(float...) in a parity path; GF(2) math must "
                        "stay on integer dtypes",
                    )


class LegacyReplayImportRule(Rule):
    """ENG001: the pre-unification replay world must stay deleted.

    ``repro.lrc.tracesim`` duplicated the trace replay and was removed
    when the unified engine landed; ``repro.sim.tracesim``, its XOR-world
    adapter, followed once every caller had moved to the engine.  Any
    import of either module (absolute or relative) — or of their deleted
    entry points through ``repro.lrc``/``repro.sim``/``repro`` —
    resurrects a second replay implementation and silently forks the
    numbers.
    """

    rule_id = "ENG001"
    summary = "no imports of the deleted lrc/sim tracesim modules or their entry points"

    #: deleted module (package-relative) -> (its entry points, the fix).
    _DELETED = {
        "lrc.tracesim": (
            {"simulate_lrc_trace", "LRCTraceResult"},
            "repro.engine.simulate_trace with an LRCBackend",
        ),
        "sim.tracesim": (
            {"simulate_cache_trace"},
            "repro.engine.simulate_trace with an XORBackend",
        ),
    }

    def _deleted_module(
        self, module: str | None, level: int, package: str | None
    ) -> str | None:
        """The deleted module an import names, if any.

        Relative forms: "from .tracesim import ..." inside the package,
        "from .lrc.tracesim import ..." / "from ..sim.tracesim import ...".
        """
        if module is None:
            return None
        for deleted in self._DELETED:
            if level == 0:
                if module == f"repro.{deleted}":
                    return deleted
            elif module == deleted or module.endswith(f".{deleted}") or (
                level == 1 and f"{package}.{module}" == deleted
            ):
                return deleted
        return None

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        posix = Path(path).as_posix()
        package = next(
            (pkg for pkg in ("lrc", "sim") if f"repro/{pkg}/" in posix), None
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    deleted = self._deleted_module(alias.name, 0, package)
                    if deleted is not None:
                        yield self.violation(
                            node,
                            path,
                            f"import of deleted module {alias.name}; use "
                            f"{self._DELETED[deleted][1]}",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module
                deleted = self._deleted_module(module, node.level, package)
                if deleted is not None:
                    yield self.violation(
                        node,
                        path,
                        f"import from deleted module "
                        f"{'.' * node.level}{module}; use "
                        f"{self._DELETED[deleted][1]}",
                    )
                    continue
                # deleted entry points re-exported nowhere: catch stale
                # "from repro.lrc import simulate_lrc_trace" and
                # "from repro import simulate_cache_trace" too.
                for deleted, (names, fix) in self._DELETED.items():
                    pkg = deleted.split(".")[0]
                    from_pkg = (
                        module in (f"repro.{pkg}", pkg, "repro")
                        or (module is not None and module.endswith(f".{pkg}"))
                        or (package == pkg and node.level > 0 and module is None)
                    )
                    if not from_pkg:
                        continue
                    for alias in node.names:
                        if alias.name in names:
                            yield self.violation(
                                node,
                                path,
                                f"{alias.name} was deleted with "
                                f"repro.{deleted}; use {fix}",
                            )


class DirectPlanBuildRule(Rule):
    """PERF001: plans are built through the PlanCache memo, nowhere else.

    ``build_plan`` is deterministic per plan key, so every caller must go
    through :class:`~repro.engine.tracesim.PlanCache` (one shared build
    per key, with hit accounting feeding the Table IV overhead numbers).
    A direct ``backend.build_plan(error)`` rebuilds the plan on every
    event — the exact quadratic planning cost the paper's memoization
    remark rules out — and bypasses the shared-stream interning that the
    grid replay keys off the same memo.
    """

    rule_id = "PERF001"
    summary = "backend.build_plan() may only be called inside PlanCache"
    excludes = ("repro/engine/tracesim.py", "tests/")

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "build_plan"
            ):
                yield self.violation(
                    node,
                    path,
                    "direct build_plan() call bypasses the PlanCache memo; "
                    "construct a PlanCache(backend) and call .get(event)",
                )


class ZeroTimeoutRule(Rule):
    """PERF002: a constant zero delay is a hand-off, not a timeout.

    ``env.timeout(0)`` and ``env.schedule_now()`` fire at the same
    instant with the same FIFO ordering (both ride the kernel's
    same-time fast lane), but the timeout spelling obscures the intent
    and allocates/recycles a :class:`~repro.sim.kernel.Timeout` where a
    plain pooled event suffices.  Only *constant* zero arguments are
    flagged — ``env.timeout(delay)`` where ``delay`` may legitimately
    be zero at runtime is the normal timed path and stays untouched.
    The kernel itself (which defines both spellings) and tests (which
    pin the equivalence) are exempt.
    """

    rule_id = "PERF002"
    summary = "constant env.timeout(0) should be env.schedule_now()"
    excludes = ("repro/sim/kernel.py", "tests/")

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "timeout"
                and node.args
            ):
                continue
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and type(first.value) in (int, float)
                and first.value == 0
            ):
                yield self.violation(
                    node,
                    path,
                    "constant timeout(0) schedules a zero-delay wake-up "
                    "through the Timeout machinery; use env.schedule_now() "
                    "(same fast-lane ordering, pool-recycled plain event)",
                )


class BarePrintRule(Rule):
    """OBS001: library code never prints; output goes through repro.obs.

    A bare ``print()`` buried in library code cannot be captured,
    redirected, or silenced by callers, and it bypasses the obs
    reporting layer entirely.  :func:`repro.obs.emit` (or an explicit
    ``stream.write``) keeps every line routable — the ``repro-fbf``
    subcommands all report through it.
    """

    rule_id = "OBS001"
    summary = "no bare print() in repro library code; use repro.obs.emit"
    scopes = ("repro/",)
    excludes = ("repro/obs/console.py",)

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    node,
                    path,
                    "bare print() in library code; route output through "
                    "repro.obs.emit (or write to an explicit stream)",
                )


ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    YieldNonEventRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    CpuCountLeakRule(),
    UnorderedStateRule(),
    MutableClassStateRule(),
    PolicyInterfaceRule(),
    GF2PurityRule(),
    LegacyReplayImportRule(),
    DirectPlanBuildRule(),
    ZeroTimeoutRule(),
    BarePrintRule(),
)


def default_rules() -> tuple[Rule, ...]:
    return ALL_RULES


def rules_by_id() -> dict[str, object]:
    """Every selectable rule: per-file, whole-program, and SUP001.

    Values are heterogeneous (:class:`Rule` or
    :class:`~repro.checks.program_rules.ProgramRule`); the CLI splits
    them by type.  Imported lazily so plain ``lint_source`` users do not
    pay for the whole-program machinery.
    """
    from .engine import UnusedSuppressionRule
    from .program_rules import ALL_PROGRAM_RULES

    mapping: dict[str, object] = {rule.rule_id: rule for rule in ALL_RULES}
    for program_rule in ALL_PROGRAM_RULES:
        mapping[program_rule.rule_id] = program_rule
    sup = UnusedSuppressionRule()
    mapping[sup.rule_id] = sup
    return mapping
