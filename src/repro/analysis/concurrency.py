"""Concurrency & determinism project rules (the ``RC1xx`` family).

These rules guard the property PR 1–3 built the executor around — a
bit-identical step-2 merge across any worker count, retry, and fallback —
at the places where Python silently loses it.  Unlike RC001–RC005 they are
*cross-module*: each runs over :class:`~repro.analysis.flows.ProjectAnalyses`
(call graph + taint/release fixpoints) rather than one file.

=========  =============================================================
RC100      A hash-order- or environment-dependent value (``set``
           iteration, ``os.listdir``, wall clock, unseeded RNG) is
           iterated inside merge/ordering code (``core/executor.py``,
           ``core/supervisor.py``, ``core/pipeline.py``,
           ``core/results.py``) — directly or via a project function
           whose return value carries the taint through the call graph.
RC101      Module-level mutable state (or an open handle) lives in a
           module whose functions run inside pool workers or
           initializers: fork-inherited copies diverge silently between
           parent and workers.  A name that a pool initializer (a
           function passed as ``initializer=``) resets with
           ``NAME.clear()`` is process-local and not flagged.
RC102      Every ``SharedMemory(create=True)`` must be released —
           ``close()`` **and** ``unlink()`` — on all paths, i.e. in a
           ``finally`` block, possibly through a helper whose release
           behaviour the call graph proves.
RC103      Floating-point accumulation over an unordered iteration
           (``sum`` over ``set``/dict-values) — float addition is not
           associative, so the reduction value depends on hash order.
RC104      ``time.sleep`` inside a retry loop outside
           ``core/supervisor.py`` — ad-hoc backoff bypasses the
           supervisor's pair-count-derived deadlines and backoff policy.
=========  =============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .flows import FunctionFlow, ProjectAnalyses
from .graph import CallSite, FunctionInfo, ModuleInfo, ProjectGraph, dotted_name
from .rules import ProjectRule, Violation, register

__all__ = [
    "MERGE_SCOPE",
    "NondetReachesMergeRule",
    "ForkUnsafeModuleStateRule",
    "ShmLifecycleRule",
    "UnorderedFloatReductionRule",
    "RawRetryLoopRule",
]

#: Files (package-relative) holding merge/result-ordering code — RC100 sinks.
MERGE_SCOPE: tuple[str, ...] = (
    "core/executor.py",
    "core/supervisor.py",
    "core/pipeline.py",
    "core/results.py",
)

#: Pool methods whose first positional argument runs in a worker process.
_POOL_DISPATCH: frozenset[str] = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)

#: Constructors of mutable module-level state RC101 flags.
_MUTABLE_CONSTRUCTORS: frozenset[str] = frozenset(
    {"list", "dict", "set", "bytearray"}
)


def _module_path(graph: ProjectGraph, module: str) -> Path:
    return graph.modules[module].ctx.path


@register
class NondetReachesMergeRule(ProjectRule):
    """RC100 — nondeterministically-ordered values must not reach the merge."""

    code = "RC100"
    summary = (
        "a hash-order/environment-dependent value (set iteration, "
        "os.listdir, wall clock, unseeded RNG) is iterated in step-2 "
        "merge/ordering code (core/{executor,supervisor,pipeline,results}"
        ".py), tracked through the call graph; sort or use an ordered "
        "container before merging"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        graph = project.graph
        for info in graph.functions_in(MERGE_SCOPE):
            flow = project.flow.function_flow(info)
            for hazard in flow.hazards:
                reasons = "; ".join(
                    sorted({t.reason for t in hazard.taints})
                )
                yield self.violation_at(
                    _module_path(graph, info.module),
                    hazard.node,
                    f"{info.name}() iterates a value with "
                    f"nondeterministic order ({reasons}); the shard merge "
                    "must be bit-identical — sort this explicitly",
                )


def _worker_entry_seeds(graph: ProjectGraph) -> tuple[set[str], set[str]]:
    """(initializers, dispatched tasks) handed to process pools."""
    initializers: set[str] = set()
    tasks: set[str] = set()
    for info in graph.functions.values():
        mod = graph.modules[info.module]
        for site in info.calls:
            node = site.node
            for kw in node.keywords:
                if kw.arg == "initializer":
                    qual = _resolve_name_arg(graph, mod, kw.value)
                    if qual is not None:
                        initializers.add(qual)
            func_name = dotted_name(node.func)
            if (
                func_name is not None
                and func_name.rpartition(".")[2] in _POOL_DISPATCH
                and node.args
            ):
                qual = _resolve_name_arg(graph, mod, node.args[0])
                if qual is not None:
                    tasks.add(qual)
    return initializers, tasks


def _initializer_resets(
    graph: ProjectGraph, initializers: set[str]
) -> dict[str, frozenset[str]]:
    """Module → module-level names a pool initializer ``.clear()``s.

    Every worker runs its initializer before any task, so a name the
    initializer empties starts each worker from the same (empty) state:
    the fork-inherited copy never leaks into a task.
    """
    out: dict[str, set[str]] = {}
    for qual in sorted(initializers):
        info = graph.functions[qual]
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "clear"
                and isinstance(node.func.value, ast.Name)
                and not node.args
            ):
                out.setdefault(info.module, set()).add(node.func.value.id)
    return {module: frozenset(names) for module, names in out.items()}


def _resolve_name_arg(
    graph: ProjectGraph, mod: ModuleInfo, node: ast.expr
) -> str | None:
    """Resolve a function reference passed as an argument (not called)."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    expanded = name
    if head in mod.imports:
        expanded = mod.imports[head] + ("." + rest if rest else "")
    if expanded in graph.functions:
        return expanded
    if not rest and name in mod.functions:
        return mod.functions[name]
    return None


@register
class ForkUnsafeModuleStateRule(ProjectRule):
    """RC101 — no mutable module state in worker-reachable modules."""

    code = "RC101"
    summary = (
        "module-level mutable state (dict/list/set/bytearray or an open "
        "handle) in a module whose functions run inside pool workers or "
        "initializers; fork-inherited copies diverge silently between "
        "parent and workers — keep worker state process-local: reset it "
        "with NAME.clear() in the pool initializer"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        graph = project.graph
        initializers, tasks = _worker_entry_seeds(graph)
        reachable = graph.reachable_from(initializers | tasks)
        resets = _initializer_resets(graph, initializers)
        worker_modules = sorted({graph.functions[q].module for q in reachable})
        for module in worker_modules:
            mod = graph.modules[module]
            reset = resets.get(module, frozenset())
            for stmt in mod.ctx.tree.body:
                yield from self._check_stmt(mod, stmt, reset)

    def _check_stmt(
        self, mod: ModuleInfo, stmt: ast.stmt, reset: frozenset[str]
    ) -> Iterator[Violation]:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        # Dunder metadata (__all__ etc.) is read-only by convention.
        names = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
        # Reset by the pool initializer: process-local per worker.
        names = [n for n in names if n not in reset]
        if not names:
            return
        if _is_mutable_value(value):
            yield self.violation_at(
                mod.ctx.path,
                stmt,
                f"module-level mutable state `{', '.join(names)}` in "
                f"{mod.name}, whose functions run inside pool workers; "
                "fork-inherited copies diverge between parent and workers",
            )
        elif _is_open_handle(value):
            yield self.violation_at(
                mod.ctx.path,
                stmt,
                f"module-level open handle `{', '.join(names)}` in "
                f"{mod.name}, whose functions run inside pool workers; "
                "forked children share the file position/lock state",
            )


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def _is_open_handle(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func) in ("open", "io.open", "gzip.open")
    )


@register
class ShmLifecycleRule(ProjectRule):
    """RC102 — shared-memory segments are released on every path."""

    code = "RC102"
    summary = (
        "SharedMemory(create=True) without close()+unlink() coverage in a "
        "finally block (directly, or via a helper the call graph proves "
        "releases its argument/elements); a leaked segment survives the "
        "process and fills /dev/shm"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        graph = project.graph
        for info in graph.functions.values():
            yield from self._check_function(project, info)

    def _check_function(
        self, project: ProjectAnalyses, info: FunctionInfo
    ) -> Iterator[Violation]:
        creations = list(_shm_creations(info))
        if not creations:
            return
        graph = project.graph
        sites = {id(s.node): s for s in info.calls}
        appended_to = _append_map(info.node)
        released = _released_names(info.node, sites, project)
        for var, node in creations:
            covered = released.get(var, frozenset())
            for container in appended_to.get(var, ()):
                covered = covered | released.get(container, frozenset())
            missing = sorted({"close", "unlink"} - covered)
            if missing:
                pretty = " and ".join(f"{m}()" for m in missing)
                yield self.violation_at(
                    _module_path(graph, info.module),
                    node,
                    f"SharedMemory segment `{var}` created in {info.name}() "
                    f"is missing {pretty} on the exception path; release it "
                    "in a finally block",
                )


def _shm_creations(info: FunctionInfo) -> Iterator[tuple[str, ast.AST]]:
    """(variable, creation node) for every ``SharedMemory(create=True)``."""
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Assign):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        name = dotted_name(call.func)
        if name is None or name.rpartition(".")[2] != "SharedMemory":
            continue
        create = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )
        if not create:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _append_map(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, set[str]]:
    """Variable → containers it is ``append``-ed to inside the function."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
        ):
            out.setdefault(node.args[0].id, set()).add(node.func.value.id)
    return out


def _released_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    sites: dict[int, CallSite],
    project: ProjectAnalyses,
) -> dict[str, frozenset[str]]:
    """Name → cleanup methods applied to it inside any ``finally`` block.

    Direct ``name.close()``/``name.unlink()`` calls count, as do calls
    ``helper(name)`` whose callee the release fixpoint proves closes and/or
    unlinks that parameter (or its elements) — so ``finally:
    _release_segment(shm)``, or a helper looping over a segment list, is
    accepted.
    """
    out: dict[str, frozenset[str]] = {}

    def note(name: str, methods: frozenset[str]) -> None:
        out[name] = out.get(name, frozenset()) | methods

    for try_node in (n for n in ast.walk(fn) if isinstance(n, ast.Try)):
        for stmt in try_node.finalbody:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("close", "unlink")
                    and isinstance(node.func.value, ast.Name)
                ):
                    note(node.func.value.id, frozenset({node.func.attr}))
                    continue
                site = sites.get(id(node))
                if site is None or site.callee is None:
                    continue
                releases = project.release.releases(site.callee)
                for pos, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name):
                        methods = releases.get(pos, frozenset())
                        if methods:
                            note(arg.id, methods)
    return out


@register
class UnorderedFloatReductionRule(ProjectRule):
    """RC103 — no accumulation over unordered iteration."""

    code = "RC103"
    summary = (
        "accumulating over set/dict-values iteration (sum() or += in a "
        "loop); float addition is non-associative, so the result depends "
        "on hash order — reduce over a sorted or insertion-ordered "
        "sequence, or use math.fsum"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        graph = project.graph
        for info in graph.functions.values():
            flow = project.flow.function_flow(info)
            path = _module_path(graph, info.module)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    yield from self._check_sum(flow, path, info, node)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    yield from self._check_loop(flow, path, info, node)

    def _check_sum(
        self,
        flow: FunctionFlow,
        path: Path,
        info: FunctionInfo,
        node: ast.Call,
    ) -> Iterator[Violation]:
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return
        if not node.args:
            return
        arg = node.args[0]
        unordered = any(
            t.kind == "unordered" for t in flow.expr_taints(arg)
        )
        is_values_view = (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "values"
        )
        if unordered or is_values_view:
            what = "dict values" if is_values_view and not unordered else "a set"
            yield self.violation_at(
                path,
                node,
                f"{info.name}() sums over {what}; float addition is "
                "non-associative, so the total depends on iteration order "
                "— sort first or use math.fsum",
            )

    def _check_loop(
        self,
        flow: FunctionFlow,
        path: Path,
        info: FunctionInfo,
        node: ast.For | ast.AsyncFor,
    ) -> Iterator[Violation]:
        if not any(t.kind == "unordered" for t in flow.expr_taints(node.iter)):
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.AugAssign) and isinstance(inner.op, ast.Add):
                yield self.violation_at(
                    path,
                    inner,
                    f"{info.name}() accumulates with += while iterating an "
                    "unordered collection; the reduction order (and any "
                    "float total) depends on hash order",
                )
                return


@register
class RawRetryLoopRule(ProjectRule):
    """RC104 — retry/backoff loops go through the supervisor's helpers."""

    code = "RC104"
    summary = (
        "time.sleep() inside a loop outside core/supervisor.py; ad-hoc "
        "retry/backoff loops bypass SupervisorConfig.backoff()/"
        "deadline_for() and their pair-count-derived deadlines"
    )

    #: The one module allowed to sleep in a loop: it owns the policy.
    ALLOWED_FILES: tuple[str, ...] = ("core/supervisor.py",)

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        graph = project.graph
        for info in graph.functions.values():
            if info.package_rel in self.ALLOWED_FILES:
                continue
            sites = {id(s.node): s for s in info.calls}
            path = _module_path(graph, info.module)
            flagged: set[int] = set()
            for loop in (
                n
                for n in ast.walk(info.node)
                if isinstance(n, (ast.For, ast.AsyncFor, ast.While))
            ):
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call) or id(node) in flagged:
                        continue
                    site = sites.get(id(node))
                    raw = site.raw if site is not None else dotted_name(node.func)
                    if raw == "time.sleep":
                        flagged.add(id(node))
                        yield self.violation_at(
                            path,
                            node,
                            f"{info.name}() sleeps inside a retry loop; "
                            "use SupervisorConfig.backoff()/deadline_for() "
                            "(core/supervisor.py) instead of ad-hoc backoff",
                        )
