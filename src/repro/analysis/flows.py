"""Flow-sensitive hazard framework over :class:`~repro.analysis.graph.ProjectGraph`.

One fixpoint summary feeds the RC1xx rules, and
:class:`ProjectAnalyses` bundles it with the RC3xx substrate.

**Order/nondeterminism taints** (:class:`FlowAnalysis`).  A value is tainted
``unordered`` when its iteration order is hash- or environment-dependent
(``set``/``frozenset`` literals, comprehensions and constructors, lists
built by iterating them) and ``nondet`` when it derives from a wall clock,
filesystem enumeration, entropy, or an unseeded RNG.  Taints propagate
through assignments *in statement order* (a later ``x = sorted(x)``
launders the variable), through list/tuple/iter-style passthrough calls,
and — the part local linters cannot do — through project function calls:
a function returning ``set(...)`` taints every caller that iterates its
result, transitively.  Order-insensitive reducers (``sorted``, ``len``,
``min``, ``max``, ``sum``, ``any``, ``all``, ``np.sort``, ``np.unique``)
neutralise the taint.

The analysis is conservative in the linting direction that minimises
false positives: an unresolved call contributes *no* taint — rules only
act on evidence the resolver actually pinned down.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import CallSite, FunctionInfo, ProjectGraph, dotted_name

if TYPE_CHECKING:  # pragma: no cover — import cycle guard for annotations
    from .locks import LockAnalysis

__all__ = [
    "Taint",
    "IterationHazard",
    "FunctionFlow",
    "FlowAnalysis",
    "ProjectAnalyses",
    "NONDET_CALLS",
]

#: External calls whose value depends on environment, clock or entropy.
NONDET_CALLS: dict[str, str] = {
    "os.listdir": "os.listdir() order is filesystem-dependent",
    "os.scandir": "os.scandir() order is filesystem-dependent",
    "os.walk": "os.walk() order is filesystem-dependent",
    "glob.glob": "glob.glob() order is filesystem-dependent",
    "glob.iglob": "glob.iglob() order is filesystem-dependent",
    "os.environ.items": "os.environ content is host-dependent",
    "time.time": "wall-clock value",
    "time.time_ns": "wall-clock value",
    "uuid.uuid4": "entropy-derived value",
    "os.urandom": "entropy-derived value",
}

#: Builtin/numpy calls that return an order-independent or sorted value —
#: applying one of these discharges the hazard.
NEUTRALIZERS: frozenset[str] = frozenset(
    {
        "sorted", "len", "min", "max", "sum", "any", "all",
        "np.sort", "numpy.sort", "np.unique", "numpy.unique",
        "math.fsum",
    }
)

#: Calls that return their (first) argument's elements in argument order —
#: taints pass straight through them.
PASSTHROUGH: frozenset[str] = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "zip", "np.asarray",
     "numpy.asarray", "np.concatenate", "numpy.concatenate"}
)

#: Dict/set views: iterating them iterates the receiver.
_VIEW_METHODS: frozenset[str] = frozenset({"keys", "values", "items"})


@dataclass(frozen=True)
class Taint:
    """One hazard carried by a value."""

    kind: str  # "unordered" | "nondet"
    reason: str


_UNORDERED_SET = Taint("unordered", "set/frozenset iteration order is hash-dependent")


@dataclass(frozen=True)
class IterationHazard:
    """A loop or comprehension iterating a tainted value."""

    node: ast.AST
    taints: frozenset[Taint]


class FunctionFlow:
    """One statement-ordered taint pass over a single function body.

    ``returns_taints`` accumulates the taints of every ``return``
    expression; ``hazards`` the tainted iteration sites.  The pass is
    flow-sensitive along straight-line code (assignments are processed in
    order, so re-binding to ``sorted(x)`` clears the taint) and unions
    branches — the conservative merge for an ``if``.
    """

    def __init__(
        self,
        info: FunctionInfo,
        returns: dict[str, frozenset[Taint]],
    ) -> None:
        self._info = info
        self._returns = returns
        self._sites: dict[int, CallSite] = {id(s.node): s for s in info.calls}
        self.env: dict[str, frozenset[Taint]] = {}
        self.returns_taints: frozenset[Taint] = frozenset()
        self.hazards: list[IterationHazard] = []
        self._run()

    # -- expression taint ----------------------------------------------
    def _call_raw(self, node: ast.Call) -> str | None:
        site = self._sites.get(id(node))
        if site is not None:
            return site.raw
        return dotted_name(node.func)

    def _call_taints(self, node: ast.Call) -> frozenset[Taint]:
        site = self._sites.get(id(node))
        raw = self._call_raw(node)
        if raw is not None:
            if raw in NEUTRALIZERS:
                return frozenset()
            if raw in ("set", "frozenset"):
                return frozenset({_UNORDERED_SET})
            if raw in NONDET_CALLS:
                return frozenset({Taint("nondet", NONDET_CALLS[raw])})
            if raw in ("np.random.default_rng", "numpy.random.default_rng") and not (
                node.args or node.keywords
            ):
                return frozenset({Taint("nondet", "unseeded np.random.default_rng()")})
            if raw in PASSTHROUGH:
                out: frozenset[Taint] = frozenset()
                for arg in node.args:
                    out |= self.expr_taints(arg)
                return out
            # ``x.keys()/.values()/.items()`` — iterating the receiver.
            head, _, tail = raw.rpartition(".")
            if tail in _VIEW_METHODS and head:
                return self.env.get(head, frozenset())
        if site is not None and site.callee is not None:
            return self._returns.get(site.callee, frozenset())
        return frozenset()

    def expr_taints(self, node: ast.expr | None) -> frozenset[Taint]:
        """Taints carried by one expression under the current environment."""
        if node is None:
            return frozenset()
        if isinstance(node, ast.Set):
            return frozenset({_UNORDERED_SET})
        if isinstance(node, ast.SetComp):
            self._scan_comprehension(node)
            return frozenset({_UNORDERED_SET})
        if isinstance(node, ast.Call):
            return self._call_taints(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            self._scan_comprehension(node)
            out: frozenset[Taint] = frozenset()
            for gen in node.generators:
                out |= self.expr_taints(gen.iter)
            return out
        if isinstance(node, ast.DictComp):
            self._scan_comprehension(node)
            out = frozenset()
            for gen in node.generators:
                out |= self.expr_taints(gen.iter)
            return out
        if isinstance(node, ast.BinOp):
            return self.expr_taints(node.left) | self.expr_taints(node.right)
        if isinstance(node, ast.IfExp):
            return self.expr_taints(node.body) | self.expr_taints(node.orelse)
        if isinstance(node, ast.Attribute):
            return self.expr_taints(node.value)
        if isinstance(node, ast.Starred):
            return self.expr_taints(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            out = frozenset()
            for elt in node.elts:
                out |= self.expr_taints(elt)
            return out
        return frozenset()

    # -- statement pass ------------------------------------------------
    def _scan_comprehension(
        self, node: ast.SetComp | ast.ListComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        for gen in node.generators:
            taints = self.expr_taints(gen.iter)
            if taints:
                self.hazards.append(IterationHazard(node=gen.iter, taints=taints))

    def _assign_names(self, target: ast.expr, taints: frozenset[Taint]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_names(elt, taints)

    def _visit_stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self.expr_taints(stmt.value)
            for target in stmt.targets:
                self._assign_names(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.expr_taints(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.env.get(
                    stmt.target.id, frozenset()
                ) | self.expr_taints(stmt.value)
        elif isinstance(stmt, ast.Return):
            self.returns_taints |= self.expr_taints(stmt.value)
            if stmt.value is not None:
                self._scan_expr_for_hazards(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self.expr_taints(stmt.iter)
            if taints:
                self.hazards.append(IterationHazard(node=stmt.iter, taints=taints))
            # Lists grown while iterating an unordered source inherit the
            # unordered order: ``for x in s: out.append(x)``.
            for name in _append_targets(stmt.body):
                self.env[name] = self.env.get(name, frozenset()) | taints
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_stmts(stmt.body)
            for handler in stmt.handlers:
                self._visit_stmts(handler.body)
            self._visit_stmts(stmt.orelse)
            self._visit_stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._scan_expr_for_hazards(stmt.value)

    def _scan_expr_for_hazards(self, node: ast.expr) -> None:
        """Evaluate an expression for its comprehension-iteration hazards."""
        self.expr_taints(node)

    def _run(self) -> None:
        self._visit_stmts(self._info.node.body)


class FlowAnalysis:
    """Fixpoint of per-function return taints over the whole project."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.returns: dict[str, frozenset[Taint]] = {
            q: frozenset() for q in graph.functions
        }
        self._solve()

    def _solve(self) -> None:
        # The lattice is finite (few taint kinds) and monotone, so the
        # fixpoint converges in at most |functions| rounds; in practice 2-3.
        for _ in range(len(self.graph.functions) + 1):
            changed = False
            for qual, info in self.graph.functions.items():
                flow = FunctionFlow(info, self.returns)
                if flow.returns_taints - self.returns[qual]:
                    self.returns[qual] = self.returns[qual] | flow.returns_taints
                    changed = True
            if not changed:
                return

    def function_flow(self, info: FunctionInfo) -> FunctionFlow:
        """Re-run the statement pass for one function at the fixpoint."""
        return FunctionFlow(info, self.returns)


def _append_targets(body: list[ast.stmt]) -> Iterator[str]:
    """Names appended/extended to inside a statement list."""
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "add")
                and isinstance(node.func.value, ast.Name)
            ):
                yield node.func.value.id


#: Callback signature rules use to visit hazards without re-walking.
HazardVisitor = Callable[[FunctionInfo, IterationHazard], None]


class ProjectAnalyses:
    """The bundle handed to project rules: graph plus lazy fixpoints.

    Several rules share each analysis; computing each at most once per
    check run keeps ``repro-check`` fast on large trees.  Rules that only
    need reachability touch none of them.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._flow: FlowAnalysis | None = None
        self._locks: LockAnalysis | None = None

    @property
    def flow(self) -> FlowAnalysis:
        """The (cached) project-wide taint fixpoint."""
        if self._flow is None:
            self._flow = FlowAnalysis(self.graph)
        return self._flow

    @property
    def locks(self) -> LockAnalysis:
        """The (cached) thread-root/lockset model (RC3xx substrate)."""
        if self._locks is None:
            from .locks import LockAnalysis

            self._locks = LockAnalysis(self.graph)
        return self._locks
