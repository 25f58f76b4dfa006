"""RC300-series rules: thread and lock discipline over the serve stack.

==========  ==============================================================
RC300       A thread-shared mutable field (instance attribute of a
            published object, or a mutable module global) is accessed
            with *inconsistent locksets* — the intersection of the locks
            held across all its accesses is empty while at least two
            thread roots can reach it and at least one access is a write.
            This is the static shape of PR 8's drain race: the dispatcher
            wrote the busy flag outside the dequeue lock that drain's
            idle check sampled under.
RC303       An ``Event.wait``/``Condition.wait`` result is discarded with
            no predicate re-check loop — a lost or spurious wakeup then
            silently corrupts the protocol.  ``Condition.wait`` must sit
            lexically inside a ``while``; a discarded ``Event.wait`` is
            fine inside a loop, or on a module-level event that is never
            ``set()`` anywhere (the sanctioned interruptible-sleep
            idiom), but a fresh ``threading.Event().wait(t)`` per sleep
            is always wrong.
==========  ==============================================================

Both consume :mod:`repro.analysis.locks` — the thread-root model and
the interprocedural lockset fixpoint — via ``ProjectAnalyses.locks``.
Signal handlers are thread roots there, so RC300 sees what they touch.
The serve stack's one signal handler and its one fork point are pinned
by direct tests (``test_serve_http.py::TestSignalDrain``,
``test_serve_service.py::TestForkOutsideLock``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .graph import FunctionInfo, ProjectGraph, dotted_name
from .locks import LockAnalysis
from .rules import ProjectRule, Violation, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flows import ProjectAnalyses

__all__ = [
    "InconsistentLocksetRule",
    "UncheckedWaitRule",
]


def _module_path(graph: ProjectGraph, module: str) -> Path:
    return graph.modules[module].ctx.path


@register
class InconsistentLocksetRule(ProjectRule):
    """RC300 — shared mutable state needs one consistently-held lock."""

    code = "RC300"
    summary = (
        "a thread-shared mutable field (published instance attribute or "
        "mutable module global) is written with an empty lockset "
        "intersection across its accesses while reachable from two or "
        "more thread roots; every access must hold one common lock"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        analysis: LockAnalysis = project.locks
        model, threads = analysis.model, analysis.threads
        graph = analysis.model.graph
        worker_labels = {r.label for r in threads.roots if r.kind == "worker"}
        confined = self._confined_methods(analysis)
        fields = model.field_accesses()
        for fname in sorted(fields):
            accesses = fields[fname]
            prefix, _, _attr = fname.rpartition(".")
            scope, _, cls = prefix.rpartition(".")
            owner = graph.modules.get(scope)
            if owner is not None and cls in owner.classes:
                # Instance field: only flag classes the thread model can
                # actually prove are published to more than one thread,
                # and only through methods invoked on shared receivers —
                # a method called exclusively on thread-confined
                # instances (``health.merge(...)`` on a per-run local)
                # mutates state no second thread can see.
                if prefix not in threads.shared_classes:
                    continue
                accesses = [a for a in accesses if a.func not in confined]
                if not accesses:
                    continue
            roots: set[str] = set()
            for access in accesses:
                roots |= model.runs_on(access.func)
            spawned = roots - {"main"} - worker_labels
            if not spawned:
                continue
            writes = [a for a in accesses if a.write]
            if not writes:
                continue
            guard = None
            for access in accesses:
                held = model.effective_held(access)
                guard = held if guard is None else guard & held
            if guard:
                continue
            witness = min(
                writes,
                key=lambda a: (model.field_path(a), getattr(a.node, "lineno", 0)),
            )
            labels = ", ".join(sorted(roots - worker_labels))
            yield self.violation_at(
                model.field_path(witness),
                witness.node,
                f"shared field `{fname}` is written without a consistently-"
                f"held lock while reachable from thread roots [{labels}]; "
                "guard every access with one common lock (or make the "
                "field a synchronisation primitive)",
            )

    def _confined_methods(self, analysis: LockAnalysis) -> set[str]:
        """Methods every resolved call site invokes on a confined receiver.

        The static analogue of Eraser's initialization-phase exemption:
        ``RunHealth`` is thread-shared (published as ``pool.last_health``),
        but ``merge()`` only ever runs on per-run locals rooted in
        thread-confined owners, so its ``self`` writes need no lock.
        Thread-root seeds are never confined (their receiver is shared by
        construction), and a method with no resolved incoming calls gets
        no exemption.
        """
        model, threads = analysis.model, analysis.threads
        graph = model.graph
        seeds: set[str] = set()
        for root in threads.roots:
            seeds |= root.seeds
        incoming: dict[str, list[bool | None]] = {}
        for summary in model.summaries.values():
            for event in summary.calls:
                if event.callee is not None:
                    incoming.setdefault(event.callee, []).append(
                        event.receiver_shared
                    )
        confined: set[str] = set()
        for qual, flags in incoming.items():
            info = graph.functions.get(qual)
            if info is None or info.class_name is None or qual in seeds:
                continue
            if not any(flag is True for flag in flags):
                confined.add(qual)
        return confined


@register
class UncheckedWaitRule(ProjectRule):
    """RC303 — wait results feed a predicate re-check, never thin air."""

    code = "RC303"
    summary = (
        "Event.wait/Condition.wait used without a predicate re-check: "
        "Condition.wait outside a while loop, a discarded Event.wait "
        "outside a loop (lost wakeup), or a throwaway "
        "threading.Event().wait(t) sleep — hoist one module-level "
        "never-set event for sleeps"
    )

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        analysis: LockAnalysis = project.locks
        threads, model = analysis.threads, analysis.model
        graph = model.graph
        set_receivers = self._set_receivers(graph)
        for info in graph.functions.values():
            parents: dict[int, ast.AST] = {}
            for parent in ast.walk(info.node):
                for child in ast.iter_child_nodes(parent):
                    parents[id(child)] = parent
            site_of = {id(s.node): s for s in info.calls}
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wait"
                ):
                    continue
                yield from self._check_wait(
                    info, node, parents, site_of, set_receivers, analysis
                )

    def _set_receivers(self, graph: ProjectGraph) -> set[str]:
        """Dotted receivers on which ``.set()`` is ever called, expanded."""
        out: set[str] = set()
        for info in graph.functions.values():
            for site in info.calls:
                raw = site.raw
                if raw is None or not raw.endswith(".set"):
                    continue
                receiver = raw[: -len(".set")]
                out.add(receiver)
                if "." not in receiver:
                    out.add(f"{info.module}.{receiver}")
        return out

    def _check_wait(
        self,
        info: FunctionInfo,
        node: ast.Call,
        parents: dict[int, ast.AST],
        site_of: dict[int, object],
        set_receivers: set[str],
        analysis: LockAnalysis,
    ) -> Iterator[Violation]:
        threads, model = analysis.threads, analysis.model
        graph = model.graph
        path = _module_path(graph, info.module)
        assert isinstance(node.func, ast.Attribute)
        recv = node.func.value
        if isinstance(recv, ast.Call):
            inner = site_of.get(id(recv))
            raw = getattr(inner, "raw", None) or dotted_name(recv.func)
            if raw == "threading.Event":
                yield self.violation_at(
                    path,
                    node,
                    "throwaway threading.Event().wait() per sleep allocates "
                    "an event and a lock each call; hoist one module-level "
                    "never-set Event and wait on that",
                )
            return
        kind = self._receiver_kind(info, recv, analysis)
        if kind is None:
            return
        in_while = self._inside_while(node, parents)
        if kind == "condition":
            if not in_while:
                yield self.violation_at(
                    path,
                    node,
                    "Condition.wait() outside a while-predicate loop: a "
                    "spurious or stolen wakeup breaks the protocol; loop "
                    "on the predicate",
                )
            return
        if self._consumed(node, parents) or in_while:
            return
        raw = dotted_name(recv)
        if raw is not None and "." not in raw:
            qualified = f"{info.module}.{raw}"
            if (
                (info.module, raw) in threads.sync_globals
                and raw not in set_receivers
                and qualified not in set_receivers
            ):
                # Sanctioned sleep: a module-level event nothing ever sets.
                return
        yield self.violation_at(
            path,
            node,
            "Event.wait() result discarded outside a re-check loop: a "
            "missed or early set() is silently lost; check the return "
            "value or loop on the predicate",
        )

    def _receiver_kind(
        self, info: FunctionInfo, recv: ast.expr, analysis: LockAnalysis
    ) -> str | None:
        threads, model = analysis.threads, analysis.model
        raw = dotted_name(recv)
        if raw is None:
            return None
        if raw.startswith("self.") and info.class_name is not None:
            attr = raw[len("self.") :]
            if "." not in attr:
                prefix = f"{info.module}.{info.class_name}"
                if (prefix, attr) in model.condition_fields:
                    return "condition"
                if threads.sync_fields.get((prefix, attr)) == "sync":
                    return "event"
                return None
        if isinstance(recv, ast.Attribute):
            base = threads.type_of(info, recv.value)
            if base is not None:
                if (base, recv.attr) in model.condition_fields:
                    return "condition"
                if threads.sync_fields.get((base, recv.attr)) == "sync":
                    return "event"
            return None
        if isinstance(recv, ast.Name):
            kind = threads.sync_globals.get((info.module, recv.id))
            if kind == "sync":
                return "event"
            if kind == "lock":
                return "condition"
        return None

    def _inside_while(self, node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        cur: ast.AST | None = parents.get(id(node))
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            if isinstance(cur, (ast.While, ast.For)):
                return True
            cur = parents.get(id(cur))
        return False

    def _consumed(self, node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        cur = node
        parent = parents.get(id(cur))
        while isinstance(parent, (ast.BoolOp, ast.UnaryOp, ast.Compare, ast.IfExp)):
            cur = parent
            parent = parents.get(id(cur))
        return not isinstance(parent, ast.Expr)

