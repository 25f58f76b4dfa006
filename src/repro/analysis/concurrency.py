"""Concurrency & determinism project rules (the ``RC1xx`` family).

These rules guard the property PR 1–3 built the executor around — a
bit-identical step-2 merge across any worker count, retry, and fallback —
at the places where Python silently loses it.  Unlike RC001–RC005 they are
*cross-module*: each runs over :class:`~repro.analysis.flows.ProjectAnalyses`
(call graph + taint fixpoint) rather than one file.

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
RC103      Floating-point accumulation over an unordered iteration
           (``sum`` over ``set``/dict-values) — float addition is not
           associative, so the reduction value depends on hash order.
RC104      ``time.sleep`` inside a retry loop outside
           ``core/supervisor.py`` — ad-hoc backoff bypasses the
           supervisor's pair-count-derived deadlines and backoff policy.
=========  =============================================================

The one shared-memory segment (``StagedBank``) is not a rule's target:
``test_executor.py::TestSegmentsUnlinked`` checks that the segment is
gone from the system after each of its release paths.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .flows import FunctionFlow, ProjectAnalyses
from .graph import FunctionInfo, ModuleInfo, ProjectGraph, dotted_name
from .rules import ProjectRule, Violation, register

__all__ = [
    "MERGE_SCOPE",
    "NondetReachesMergeRule",
    "ForkUnsafeModuleStateRule",
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
    """(initializers, dispatched tasks) handed to process pools.

    A task is either named at the dispatch (``pool.submit(fn, ...)``) or
    held: ``pool.submit(self._task, ...)`` in a method of a class whose
    ``__init__`` stores a parameter as ``self._task`` — then the tasks are
    the functions every constructor call passes for that parameter.
    """
    initializers: set[str] = set()
    tasks: set[str] = set()
    held: set[tuple[str, str]] = set()  # (class qualname prefix, attribute)
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
                elif info.class_name is not None:
                    target = dotted_name(node.args[0]) or ""
                    owner, _, attr = target.partition(".")
                    if owner == "self" and attr and "." not in attr:
                        held.add((f"{info.module}.{info.class_name}", attr))
    for cls, attr in sorted(held):
        tasks |= _constructor_args_for(graph, cls, attr)
    return initializers, tasks


def _constructor_args_for(graph: ProjectGraph, cls: str, attr: str) -> set[str]:
    """Functions passed to ``cls(...)`` for the parameter stored as ``self.attr``.

    A method of the class itself (``self.attr`` never assigned in
    ``__init__``) is its own answer.
    """
    method = f"{cls}.{attr}"
    if method in graph.functions:
        return {method}
    init = graph.functions.get(f"{cls}.__init__")
    if init is None:
        return set()
    param = None
    for node in ast.walk(init.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and dotted_name(node.targets[0]) == f"self.{attr}"
            and isinstance(node.value, ast.Name)
        ):
            param = node.value.id
    if param is None or param not in init.param_names():
        return set()
    args = init.node.args
    positional = [p.arg for p in [*args.posonlyargs, *args.args]][1:]  # no self
    found: set[str] = set()
    for caller in graph.functions.values():
        mod = graph.modules[caller.module]
        for site in caller.calls:
            if site.callee != init.qualname:
                continue
            passed = [kw.value for kw in site.node.keywords if kw.arg == param]
            if param in positional:
                pos = positional.index(param)
                if pos < len(site.node.args) and not any(
                    isinstance(a, ast.Starred) for a in site.node.args[: pos + 1]
                ):
                    passed.append(site.node.args[pos])
            for value in passed:
                qual = _resolve_name_arg(graph, mod, value)
                if qual is not None:
                    found.add(qual)
    return found


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
