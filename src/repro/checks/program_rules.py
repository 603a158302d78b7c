"""Whole-program rules over the project graph.

Per-file rules (:mod:`repro.checks.rules`) see one AST at a time; the
rules here see the assembled :class:`~repro.checks.graph.ProjectGraph`
and enforce properties no single file can witness:

========  ========  ======================================================
rule      severity  property
========  ========  ======================================================
ARCH001   error     the declared layer DAG holds: no upward imports, no
                    import-time cycles
ARCH002   warning   every module-level def is reachable from an entry
                    point (``repro.api``, ``repro.cli``, ``__main__``
                    blocks) or a usage root (tests, benchmarks)
FLOW001   error     every RNG constructed in ``sim``/``engine``/``bench``
                    is data-derived from an explicit seed (extends DET001
                    across call boundaries via the taint tracker)
FLOW002   error     every obs metric call in a hot-path module runs only
                    behind the ``ENABLED`` guard, directly or through a
                    guarded call chain
API001    error     the exported surface of ``repro.api`` matches the
                    committed manifest (facade drift fails CI)
========  ========  ======================================================

Each violation carries a stable ``key`` (an import edge, a def name, an
export name) so the baseline file identifies findings across line-number
churn.  Layer maps, entry points, and scopes are constructor parameters
with project defaults, so the same rules run against tiny fixture trees
in tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .framework import Violation
from .graph import ObsSite, ProjectGraph

__all__ = [
    "ProgramRule",
    "LayerRule",
    "DeadDefRule",
    "SeedProvenanceRule",
    "ObsGuardRule",
    "ApiManifestRule",
    "ALL_PROGRAM_RULES",
    "DEFAULT_LAYERS",
    "V2_NAMESPACES",
    "default_manifest_dir",
    "default_manifest_path",
    "render_manifest",
]

#: First-level package name -> layer index (lower imports from lower only).
#: A dotted two-level key (``"sim.cluster"``) overrides its package's
#: layer for that submodule — used where one module of a package
#: legitimately sits a layer above its siblings.
#: ``utils``/``obs``/``checks.sanitizer`` are additionally cross-cutting —
#: importable from any layer — because observability and shared helpers
#: are deliberately dependency-free leaves (see DESIGN.md §13).
DEFAULT_LAYERS: Mapping[str, int] = {
    "utils": 0,
    "core": 0,
    "codes": 1,
    "cache": 1,
    "sim": 1,
    "sim.topology": 1,
    # the recovery scenarios drive the engine (timed replay, plan cache),
    # so they live with the engine in the DAG even though they ship
    # under sim/
    "sim.cluster": 2,
    "sim.dor": 2,
    "sim.online": 2,
    "sim.rebuild": 2,
    "lrc": 1,
    "engine": 2,
    "array": 2,
    "workloads": 2,
    "analysis": 3,
    "obs": 3,
    "bench": 4,
    # the advisor service composes the bench engine and the incremental
    # interner, and is itself re-exported by the api facade
    "serve": 5,
    "api": 5,
    "cli": 5,
    "checks": 5,
}

#: Modules importable from any layer (module name or dotted prefix).
DEFAULT_CROSS_CUTTING: tuple[str, ...] = (
    "repro.utils",
    "repro.obs",
    "repro.checks.sanitizer",
)

#: The versioned facade: manifest namespace -> the module API001 gates.
#: The v1 ``repro.api`` shim resolves names dynamically (a module
#: ``__getattr__``), which no AST pass can see, so the manifests gate
#: the v2 namespaces — the modules that actually own the surface.
V2_NAMESPACES: Mapping[str, str] = {
    "replay": "repro.api.v2.replay",
    "bench": "repro.api.v2.bench",
    "cluster": "repro.api.v2.cluster",
    "serve": "repro.api.v2.serve",
}


class ProgramRule(ABC):
    """One named check over the whole project graph."""

    rule_id: str = ""
    summary: str = ""
    default_severity: str = "error"

    @abstractmethod
    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        """Yield violations found in the assembled project graph."""

    def violation(
        self, path: str, line: int, message: str, key: str, col: int = 0
    ) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=self.default_severity,
            key=key,
        )


def _layer_of(module: str, layers: Mapping[str, int]) -> int | None:
    """Layer of a dotted module; None = unconstrained, root package = top.

    A two-level key (``"sim.cluster"``) takes precedence over the
    package-level key (``"sim"``) for that submodule and anything under
    it.
    """
    parts = module.split(".")
    if len(parts) == 1:
        return max(layers.values(), default=0) + 1
    if len(parts) >= 3:
        sub = layers.get(parts[1] + "." + parts[2])
        if sub is not None:
            return sub
    return layers.get(parts[1])


def _matches_prefix(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


class LayerRule(ProgramRule):
    """ARCH001: the declared layer DAG holds.

    An import from layer *i* to layer *j > i* (an "upward" import —
    lower infrastructure reaching into higher policy) is an error, as is
    any import-time cycle.  ``TYPE_CHECKING`` imports are exempt (they
    are annotations, not dependencies); function-level imports still
    count for layering (the dependency exists, merely deferred) but not
    for cycles (deferral is exactly how a cycle is legitimately broken).
    """

    rule_id = "ARCH001"
    summary = "layer DAG: no upward imports, no import-time cycles"

    def __init__(
        self,
        layers: Mapping[str, int] | None = None,
        cross_cutting: Sequence[str] = DEFAULT_CROSS_CUTTING,
        root: str = "repro",
    ) -> None:
        self.layers = dict(DEFAULT_LAYERS if layers is None else layers)
        self.cross_cutting = tuple(cross_cutting)
        self.root = root

    def _in_root(self, module: str) -> bool:
        return module == self.root or module.startswith(self.root + ".")

    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        for module in sorted(graph.modules):
            if not self._in_root(module):
                continue  # tests/benchmarks are consumers, not layers
            summary = graph.modules[module]
            src_layer = _layer_of(module, self.layers)
            if src_layer is None:
                continue
            seen_edges: set[tuple[str, int]] = set()
            for target, edge in graph.runtime_import_edges(module):
                if target not in graph.modules:
                    continue
                if _matches_prefix(target, self.cross_cutting):
                    continue
                dst_layer = _layer_of(target, self.layers)
                if dst_layer is None or dst_layer <= src_layer:
                    continue
                dedup = (target, edge.line)
                if dedup in seen_edges:
                    continue
                seen_edges.add(dedup)
                yield self.violation(
                    summary.path,
                    edge.line,
                    f"upward import: {module} (layer {src_layer}) imports "
                    f"{target} (layer {dst_layer}); dependencies must point "
                    "down the layer DAG",
                    key=f"{module}->{target}",
                    col=edge.col,
                )
        for cycle in graph.import_cycles():
            anchor = graph.modules[cycle[0]]
            line = 1
            for target, edge in graph.runtime_import_edges(cycle[0]):
                if target in cycle and not edge.function_level:
                    line = edge.line
                    break
            yield self.violation(
                anchor.path,
                line,
                "import cycle: " + " -> ".join((*cycle, cycle[0])),
                key="cycle:" + "+".join(cycle),
            )


class DeadDefRule(ProgramRule):
    """ARCH002: module-level defs unreachable from any entry point.

    Liveness is deliberately over-approximated (so the warning
    under-reports): every module-level reference anywhere counts as
    usage (module bodies execute on import), decorated defs are exempt
    (decorators typically register), dunders are exempt, and reachability
    chases re-export aliases.  Defs in usage roots (tests, benchmarks,
    anything outside ``src/``) are never reported — those modules only
    contribute references.
    """

    rule_id = "ARCH002"
    summary = "dead module-level def: unreachable from api/cli/test entry points"
    default_severity = "warning"

    def __init__(self, entry_modules: Sequence[str] | None = None) -> None:
        self.entry_modules = tuple(
            entry_modules
            if entry_modules is not None
            else (
                # the v1 shim resolves dynamically, so the v2 namespaces
                # (whose __all__ lists are AST-visible) anchor liveness
                "repro.api",
                *V2_NAMESPACES.values(),
                "repro.cli",
                "repro.checks.cli",
            )
        )

    @staticmethod
    def _is_reportable(path: str) -> bool:
        return "src/" in path

    def _resolve_ref(
        self, graph: ProjectGraph, module: str, key: str
    ) -> tuple[str, str] | None:
        mod, _, name = key.partition(":")
        if not name:
            return None  # bare module reference
        return graph.resolve_symbol(mod or module, name)

    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        live: set[tuple[str, str]] = set()
        worklist: list[tuple[str, str]] = []

        def mark(target: tuple[str, str] | None) -> None:
            if target is not None and target not in live:
                live.add(target)
                worklist.append(target)

        for module, summary in graph.modules.items():
            is_root_module = (
                module in self.entry_modules
                or summary.has_main
                or not self._is_reportable(summary.path)
            )
            if is_root_module:
                for d in summary.defs:
                    mark((module, d.name))
                for name in summary.all_names:
                    mark(graph.resolve_symbol(module, name))
            # Module-level code runs on import: its references are usage.
            for key in summary.module_refs:
                mark(self._resolve_ref(graph, module, key))

        while worklist:
            module, name = worklist.pop()
            info = graph.def_at(module, name)
            if info is None:
                continue
            for key in info.refs:
                mark(self._resolve_ref(graph, module, key))

        for module in sorted(graph.modules):
            summary = graph.modules[module]
            if not self._is_reportable(summary.path):
                continue
            if module in self.entry_modules or summary.has_main:
                continue
            for d in summary.defs:
                if (module, d.name) in live or d.decorated:
                    continue
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                yield self.violation(
                    summary.path,
                    d.line,
                    f"{d.kind} '{d.name}' is never reachable from an entry "
                    "point (api/cli/__main__/tests); delete it or export it",
                    key=f"{module}:{d.name}",
                    col=d.col,
                )


class SeedProvenanceRule(ProgramRule):
    """FLOW001: every RNG in sim/engine/bench is derived from a real seed.

    Uses the per-site verdicts computed by the summarizer's taint pass:

    * ``ok:<label>`` — seed-derived, fine;
    * ``missing`` — no seed argument: OS entropy, irreproducible;
    * ``const`` — literal forged at the call site instead of flowing
      from the experiment config;
    * ``param:<name>`` — flows from a parameter whose name does not mark
      it as a seed, so provenance is invisible at call boundaries;
    * ``opaque:<expr>`` — the dataflow cannot see any seed in the
      argument.
    """

    rule_id = "FLOW001"
    summary = "RNG seed must be data-derived from an explicit seed parameter"

    def __init__(self, scopes: Sequence[str] | None = None) -> None:
        self.scopes = tuple(
            scopes
            if scopes is not None
            else ("repro.sim", "repro.engine", "repro.bench")
        )

    _MESSAGES = {
        "missing": "RNG constructed without a seed (OS entropy): thread the "
        "experiment seed through an explicit parameter",
        "const": "RNG seeded from a local literal: seeds must flow from the "
        "experiment config (GridPoint/SimConfig seed), not be forged here",
    }

    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        for module in sorted(graph.modules):
            if not _matches_prefix(module, self.scopes):
                continue
            summary = graph.modules[module]
            for site in summary.rng_sites:
                if site.verdict.startswith("ok:"):
                    continue
                where = site.func or "<module>"
                if site.verdict in self._MESSAGES:
                    message = self._MESSAGES[site.verdict]
                elif site.verdict.startswith("param:"):
                    pname = site.verdict.split(":", 1)[1]
                    message = (
                        f"RNG seeded from parameter '{pname}', which is not "
                        "named as a seed; rename it (seed/*_seed/rng/*_rng) "
                        "so provenance is visible across call boundaries"
                    )
                else:
                    detail = site.verdict.split(":", 1)[-1]
                    message = (
                        f"RNG argument '{detail}' has no visible seed "
                        "provenance; derive it from an explicit seed parameter"
                    )
                yield self.violation(
                    summary.path,
                    site.line,
                    f"{message} (in {where}, via {site.call})",
                    key=f"{module}:{where}:{site.call}",
                    col=site.col,
                )


class ObsGuardRule(ProgramRule):
    """FLOW002: hot-path obs metric calls run only behind the guard.

    A site passes when it is lexically inside an ``if _obs.ENABLED:``
    block (or an alias of it), or when its enclosing function is only
    ever called from guarded sites — established by a least-fixpoint
    "unsafe" propagation over the intra-module call graph: a function
    with no known callers is unsafe (anyone may call it cold), and
    unsafety flows through unguarded call edges.  The guard analysis
    under-approximates, so an unproven guard is reported, never assumed.
    """

    rule_id = "FLOW002"
    summary = "obs metric calls in hot paths must sit behind the ENABLED guard"

    def __init__(self, scopes: Sequence[str] | None = None) -> None:
        self.scopes = tuple(
            scopes
            if scopes is not None
            else (
                "repro.sim",
                "repro.core",
                "repro.cache",
                "repro.codes",
                "repro.engine",
                "repro.lrc",
            )
        )

    @staticmethod
    def _unsafe_functions(summary) -> set[str]:
        """Least fixpoint of "may run with obs disabled" per function."""
        callers: dict[str, list[tuple[str, bool]]] = {
            f.qualname: [] for f in summary.funcs
        }
        for f in summary.funcs:
            for call in f.calls:
                if call.callee not in callers:
                    continue  # cross-module or unknown: evaluated elsewhere
                callers[call.callee].append((f.qualname, call.guarded))
        unsafe = {q for q, incoming in callers.items() if not incoming}
        changed = True
        while changed:
            changed = False
            for q in callers:
                if q in unsafe:
                    continue
                for caller, guarded in callers[q]:
                    if not guarded and caller in unsafe:
                        unsafe.add(q)
                        changed = True
                        break
        return unsafe

    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        for module in sorted(graph.modules):
            if not _matches_prefix(module, self.scopes):
                continue
            summary = graph.modules[module]
            if not summary.obs_sites:
                continue
            unsafe = self._unsafe_functions(summary)
            ordinals: dict[tuple[str, str], int] = {}
            for site in summary.obs_sites:
                ordinal_key = (site.func, site.accessor)
                ordinals[ordinal_key] = ordinals.get(ordinal_key, 0) + 1
                if site.guarded:
                    continue
                if site.func and site.func not in unsafe:
                    continue  # only reachable through guarded call chains
                where = site.func or "<module>"
                yield self.violation(
                    summary.path,
                    site.line,
                    f"obs.{site.accessor}() in hot path '{where}' is not "
                    "behind the ENABLED guard; wrap it in 'if _obs.ENABLED:' "
                    "or ensure every caller is guarded",
                    key=(
                        f"{module}:{where}:{site.accessor}"
                        f"#{ordinals[ordinal_key]}"
                    ),
                    col=site.col,
                )


def default_manifest_dir() -> Path:
    """Where the per-namespace v2 manifests live (one file per namespace)."""
    return Path(__file__).parent / "api_manifest_v2"


def default_manifest_path(namespace: str | None = None) -> Path:
    """Manifest path for one v2 namespace (None = the legacy v1 file)."""
    if namespace is None:
        return Path(__file__).parent / "api_manifest.txt"
    if namespace not in V2_NAMESPACES:
        raise KeyError(
            f"unknown api namespace {namespace!r}; "
            f"known: {', '.join(sorted(V2_NAMESPACES))}"
        )
    return default_manifest_dir() / f"{namespace}.txt"


def _resolved_exports(graph: ProjectGraph, api_module: str) -> dict[str, str]:
    """Export name -> resolved origin ("module:symbol", "module" or "?")."""
    summary = graph.modules.get(api_module)
    if summary is None:
        return {}
    resolved: dict[str, str] = {}
    for name in summary.all_names:
        target = graph.resolve_symbol(api_module, name)
        if target is None:
            resolved[name] = "?"
        elif target[1]:
            resolved[name] = f"{target[0]}:{target[1]}"
        else:
            resolved[name] = target[0]
    return resolved


def render_manifest(graph: ProjectGraph, api_module: str = "repro.api") -> str:
    """The manifest text for the current graph (``--update-api-manifest``)."""
    exports = _resolved_exports(graph, api_module)
    lines = [
        f"# {api_module} exported surface — checked by API001.",
        "# Regenerate with: repro-fbf check --update-api-manifest",
        "# Format: <export-name> = <defining-module>[:<symbol>]",
    ]
    lines.extend(f"{name} = {exports[name]}" for name in sorted(exports))
    return "\n".join(lines) + "\n"


class ApiManifestRule(ProgramRule):
    """API001: a facade namespace matches its committed manifest.

    One instance gates one module against one manifest file; the default
    rule set runs one instance per :data:`V2_NAMESPACES` entry, so a
    surface change in (say) ``api.v2.serve`` diffs against
    ``api_manifest_v2/serve.txt`` alone — the other namespaces' files
    stay byte-identical and reviewable in isolation.
    """

    rule_id = "API001"
    summary = "repro.api exports must match the committed manifest"

    def __init__(
        self,
        manifest_path: str | Path | None = None,
        api_module: str = "repro.api",
    ) -> None:
        self.manifest_path = Path(
            manifest_path if manifest_path is not None else default_manifest_path()
        )
        self.api_module = api_module

    def _read_manifest(self) -> dict[str, str] | None:
        if not self.manifest_path.is_file():
            return None
        entries: dict[str, str] = {}
        for raw in self.manifest_path.read_text(encoding="utf-8").splitlines():
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            name, _, origin = text.partition("=")
            entries[name.strip()] = origin.strip()
        return entries

    def check(self, graph: ProjectGraph) -> Iterator[Violation]:
        summary = graph.modules.get(self.api_module)
        if summary is None:
            return
        current = _resolved_exports(graph, self.api_module)
        committed = self._read_manifest()
        if committed is None:
            yield self.violation(
                summary.path,
                1,
                f"no API manifest at {self.manifest_path}; run "
                "'repro-fbf check --update-api-manifest' and commit it",
                key="manifest:missing",
            )
            return
        for name in sorted(set(current) - set(committed)):
            yield self.violation(
                summary.path,
                1,
                f"export '{name}' ({current[name]}) is not in the API "
                "manifest; if intentional, refresh with --update-api-manifest",
                key=f"export:{name}",
            )
        for name in sorted(set(committed) - set(current)):
            yield self.violation(
                summary.path,
                1,
                f"manifest entry '{name}' is no longer exported by "
                f"{self.api_module}; removing an export is a breaking change "
                "— refresh the manifest to acknowledge it",
                key=f"export:{name}",
            )
        for name in sorted(set(committed) & set(current)):
            if committed[name] != current[name]:
                yield self.violation(
                    summary.path,
                    1,
                    f"export '{name}' now resolves to {current[name]} "
                    f"(manifest says {committed[name]}); refresh the manifest "
                    "to acknowledge the move",
                    key=f"export:{name}",
                )
        for name in sorted(n for n, origin in current.items() if origin == "?"):
            yield self.violation(
                summary.path,
                1,
                f"export '{name}' is in __all__ but resolves to nothing "
                "importable in the analyzed tree",
                key=f"unresolved:{name}",
            )


ALL_PROGRAM_RULES: tuple[ProgramRule, ...] = (
    LayerRule(),
    DeadDefRule(),
    SeedProvenanceRule(),
    ObsGuardRule(),
    *(
        ApiManifestRule(
            manifest_path=default_manifest_path(namespace),
            api_module=module,
        )
        for namespace, module in V2_NAMESPACES.items()
    ),
)
