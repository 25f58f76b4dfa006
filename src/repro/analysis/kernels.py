"""RC2xx — kernel dtype & allocation rules for the step-2 kernel.

The step-2 scoring kernel imitates the paper's processing elements:
fixed-width integer accumulators and zero per-pair buffer churn.  The
engine enforces bit-identity *at runtime* (the oracle check on every
kernel it builds); this module enforces the allocation and dtype
discipline *statically*, on every tree state CI sees, using the
:mod:`repro.analysis.dtypes` abstract domain over the
:class:`~repro.analysis.graph.ProjectGraph`.  Kernel classes are the ones
the graph discovers structurally (a class under ``extend/backends/``
defining both ``prepare`` and ``score``):

* **RC201** — hidden copies on the per-batch path: fancy indexing,
  ``astype`` without ``copy=False``, ``flatten()``, and concatenating
  constructors inside functions reachable from a kernel ``score`` entry
  point.  Setup code (``__init__``, ``prepare``) is exempt — the kernel
  protocol allows allocation there.
* **RC202** — silent dtype promotion: arithmetic mixing two known,
  different array dtypes without ``out=``/``dtype=``/``casting=``, or a
  narrow-dtype array combined with an exact constant beyond its bounds.
* **RC203** — per-batch allocation: ``np.empty``/``zeros``/… into a local
  variable inside a loop body or inside any function the engine's batch
  loop calls per batch; scratch stored on ``self`` (monotone growth) is
  the sanctioned pattern and is exempt.

All rules follow the house conservatism: no information ⇒ no finding.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .dtypes import (
    AbstractValue,
    Env,
    Evaluator,
    class_attr_env,
    dtype_bounds,
    interpret,
)
from .flows import ProjectAnalyses
from .graph import FunctionInfo, ProjectGraph, dotted_name
from .rules import ProjectRule, Violation, register

#: Allocating constructors RC203 polices on the per-batch path.
_ALLOC_FUNCS = frozenset({"empty", "zeros", "ones", "full", "arange"})

#: Constructors that concatenate (always allocate + copy) for RC201.
_CONCAT_FUNCS = frozenset({"concatenate", "stack", "vstack", "hstack"})


def _score_scope(graph: ProjectGraph) -> set[str]:
    """Functions reachable from any kernel ``score`` entry point.

    This is the per-batch hot path: the engine calls ``score`` once per
    batch, so everything it reaches runs with per-batch frequency.
    """
    seeds = [methods["score"] for methods in graph.kernel_classes.values()]
    return graph.reachable_from(seeds)


def _function_env(
    project: ProjectAnalyses, info: FunctionInfo, self_env: Env | None = None
) -> Env:
    """Final local environment of *info* (self attrs seeded when given)."""
    env: Env = dict(self_env or {})
    analysis = project.dtypes
    by_node = {id(site.node): site.callee for site in info.calls}

    def lookup(node: ast.Call) -> AbstractValue | None:
        callee = by_node.get(id(node))
        if callee is None:
            return None
        summary = analysis.summaries.get(callee)
        if summary is None or summary.returns.is_unknown:
            return None
        return summary.returns

    interpret(list(info.node.body), env, lookup, None)
    return env


def _kernel_self_envs(project: ProjectAnalyses) -> dict[str, Env]:
    """``self.*`` environment per kernel class.

    The attribute table built from ``__init__`` and the other methods is
    what makes ``self._score``'s dtype knowable inside ``score``.
    """
    graph = project.graph
    return {cls: class_attr_env(graph, cls) for cls in sorted(graph.kernel_classes)}


def _loop_line_spans(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[int, int]]:
    """(first, last) line spans of every loop body in *func*."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            last = max(
                (n.end_lineno or n.lineno)
                for n in ast.walk(node)
                if hasattr(n, "lineno")
            )
            spans.append((node.lineno, last))
    return spans


def _in_loop(spans: list[tuple[int, int]], node: ast.AST) -> bool:
    line = getattr(node, "lineno", None)
    if line is None:
        return False
    return any(lo < line <= hi for lo, hi in spans)


def _called_in_loop(graph: ProjectGraph, scope: set[str]) -> set[str]:
    """Functions in *scope* invoked (transitively) from inside a loop body.

    The engine's ``for p0, p1 in batches: kernel.score(...)`` makes the
    whole ``score`` call tree per-batch even though no loop is lexically
    visible inside the kernels; synthetic dispatch edges carry the
    "inside a loop" property across the held-kernel indirection.
    """
    in_loop: set[str] = set()
    for info in graph.functions.values():
        spans = _loop_line_spans(info.node)
        if not spans:
            continue
        loop_calls = [
            site for site in info.calls if _in_loop(spans, site.node)
        ]
        for site in loop_calls:
            if site.callee is not None and site.callee in scope:
                in_loop.add(site.callee)
        if any(site.callee is None for site in loop_calls):
            # Unresolved calls inside the loop: the synthetic edges know
            # which kernels they may dispatch to.
            raws = {
                site.raw.rpartition(".")[2]
                for site in loop_calls
                if site.callee is None and site.raw is not None
            }
            for target in graph.extra_edges.get(info.qualname, ()):
                leaf = target.rpartition(".")[2]
                if leaf in raws and target in scope:
                    in_loop.add(target)
    # Transitive closure: a per-batch function's callees are per-batch.
    frontier = list(in_loop)
    while frontier:
        qual = frontier.pop()
        for callee in graph.callees(qual):
            if callee in scope and callee not in in_loop:
                in_loop.add(callee)
                frontier.append(callee)
    return in_loop


def _array_index(ev: Evaluator, index: ast.expr) -> bool:
    """True when a subscript index is (or contains) an array expression."""
    parts = (
        list(index.elts) if isinstance(index, ast.Tuple) else [index]
    )
    for part in parts:
        if isinstance(part, ast.Slice) or (
            isinstance(part, ast.Constant) and part.value is None
        ):
            continue
        if isinstance(part, ast.BinOp):
            left, right = ev.eval(part.left), ev.eval(part.right)
            if left.kind == "array" or right.kind == "array":
                return True
            continue
        if ev.eval(part).kind == "array":
            return True
    return False


def _path_of(graph: ProjectGraph, info: FunctionInfo) -> Path:
    return graph.modules[info.module].ctx.path


@register
class HiddenCopyRule(ProjectRule):
    """RC201 — no hidden copies on the per-batch kernel path."""

    code = "RC201"
    summary = (
        "functions reachable from kernel score entry points must not use "
        "fancy indexing, astype without copy=False, flatten, or "
        "concatenating constructors"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        """Flag copy-making constructs reachable from ``score``."""
        graph = project.graph
        scope = _score_scope(graph)
        self_envs = _kernel_self_envs(project)
        for qual in sorted(scope):
            info = graph.functions[qual]
            if info.name in ("__init__", "prepare"):
                continue  # setup code may allocate/copy by design
            cls_prefix = (
                f"{info.module}.{info.class_name}" if info.class_name else None
            )
            env = _function_env(
                project, info, self_envs.get(cls_prefix or "", None)
            )
            ev = Evaluator(env)
            path = _path_of(graph, info)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load
                ):
                    if _array_index(ev, node.slice):
                        yield self.violation_at(
                            path,
                            node,
                            f"{info.name}() gathers with fancy indexing on "
                            "the per-batch path — this allocates a copy "
                            "per call; use np.take(..., out=) into scratch",
                        )
                elif isinstance(node, ast.Call):
                    raw = dotted_name(node.func)
                    if raw is None:
                        continue
                    head, _, leaf = raw.rpartition(".")
                    if leaf == "astype" and head:
                        kwargs = {kw.arg for kw in node.keywords}
                        if "copy" not in kwargs:
                            yield self.violation_at(
                                path,
                                node,
                                f"{info.name}() calls astype without "
                                "copy=False on the per-batch path — it "
                                "copies even when the dtype already "
                                "matches",
                            )
                    elif leaf == "flatten" and head:
                        yield self.violation_at(
                            path,
                            node,
                            f"{info.name}() calls flatten() (always a "
                            "copy) on the per-batch path — use ravel() "
                            "or reshape(-1)",
                        )
                    elif head in ("np", "numpy") and leaf in _CONCAT_FUNCS:
                        yield self.violation_at(
                            path,
                            node,
                            f"{info.name}() calls np.{leaf} on the "
                            "per-batch path — concatenation allocates "
                            "and copies every batch; write into "
                            "preallocated scratch instead",
                        )


@register
class SilentPromotionRule(ProjectRule):
    """RC202 — no silent dtype promotion in kernel arithmetic."""

    code = "RC202"
    summary = (
        "kernel arithmetic mixing known different array dtypes must pin "
        "the result dtype with out=, dtype=, or casting="
    )

    _UFUNCS = frozenset({"add", "subtract", "multiply", "maximum", "minimum"})

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        """Flag mixed-dtype arithmetic with an unpinned result dtype."""
        graph = project.graph
        scope = _score_scope(graph)
        seeds = {
            methods[name]
            for methods in graph.kernel_classes.values()
            for name in ("score", "prepare")
        }
        scope = scope | graph.reachable_from(seeds)
        self_envs = _kernel_self_envs(project)
        for qual in sorted(scope):
            info = graph.functions[qual]
            cls_prefix = (
                f"{info.module}.{info.class_name}" if info.class_name else None
            )
            env = _function_env(
                project, info, self_envs.get(cls_prefix or "", None)
            )
            ev = Evaluator(env)
            path = _path_of(graph, info)
            for node in ast.walk(info.node):
                finding = self._check_node(ev, node)
                if finding is not None:
                    yield self.violation_at(
                        path, node, f"{info.name}() {finding}"
                    )

    def _check_node(self, ev: Evaluator, node: ast.AST) -> str | None:
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult)
        ):
            return self._check_pair(ev, node.left, node.right, pinned=False)
        if isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            if raw is None:
                return None
            head, _, leaf = raw.rpartition(".")
            if head not in ("np", "numpy") or leaf not in self._UFUNCS:
                return None
            if len(node.args) < 2:
                return None
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            pinned = bool(kwargs & {"out", "dtype", "casting"})
            return self._check_pair(
                ev, node.args[0], node.args[1], pinned=pinned
            )
        return None

    @staticmethod
    def _check_pair(
        ev: Evaluator, left: ast.expr, right: ast.expr, *, pinned: bool
    ) -> str | None:
        if pinned:
            return None
        lv, rv = ev.eval(left), ev.eval(right)
        if (
            lv.kind == "array"
            and rv.kind == "array"
            and lv.dtype is not None
            and rv.dtype is not None
            and lv.dtype != rv.dtype
        ):
            return (
                f"mixes array dtypes {lv.dtype} and {rv.dtype} without "
                "out=/dtype=/casting= — the promoted dtype is implicit "
                "and version-dependent; pin it explicitly"
            )
        for array, scalar in ((lv, rv), (rv, lv)):
            if array.kind != "array" or scalar.const is None:
                continue
            bounds = dtype_bounds(array.dtype) if array.dtype else None
            if bounds is None:
                continue
            lo, hi = bounds
            if not lo <= scalar.const <= hi:
                return (
                    f"combines a {array.dtype} array with constant "
                    f"{scalar.const} outside [{lo}, {hi}] without "
                    "dtype=/out= — NEP 50 keeps the narrow dtype and the "
                    "value wraps; use a wider dtype explicitly"
                )
        return None


@register
class BatchLoopAllocRule(ProjectRule):
    """RC203 — no per-batch allocation into locals; scratch lives on self."""

    code = "RC203"
    summary = (
        "allocating constructors on the per-batch path must fill reused "
        "self.* scratch, not fresh locals"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        """Flag constructor calls that allocate once per batch."""
        graph = project.graph
        scope = _score_scope(graph)
        per_batch = _called_in_loop(graph, scope)
        for qual in sorted(scope):
            info = graph.functions[qual]
            spans = _loop_line_spans(info.node)
            scratch_lines = self._scratch_assign_lines(info)
            path = _path_of(graph, info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                raw = dotted_name(node.func)
                if raw is None:
                    continue
                head, _, leaf = raw.rpartition(".")
                if head not in ("np", "numpy") or leaf not in _ALLOC_FUNCS:
                    continue
                if node.lineno in scratch_lines:
                    continue  # monotone self-scratch growth is the pattern
                if qual in per_batch or _in_loop(spans, node):
                    yield self.violation_at(
                        path,
                        node,
                        f"{info.name}() allocates with np.{leaf} on the "
                        "per-batch path — reuse preallocated self scratch "
                        "(grow monotonically, slice per batch) instead of "
                        "allocating every batch",
                    )

    @staticmethod
    def _scratch_assign_lines(info: FunctionInfo) -> set[int]:
        """Lines whose allocation lands in a ``self.*`` attribute."""
        lines: set[int] = set()
        for node in ast.walk(info.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    lines.add(node.lineno)
        return lines
