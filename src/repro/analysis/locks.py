"""Whole-package thread and lock model (the RC300-series substrate).

The RC1xx rules reason about *processes* (fork-inherited state); the serve
layer added *threads*: a dispatcher, HTTP handler threads, a drain thread
kicked from a signal handler, pool-worker initializers.  The RC300-series
rules and the lock-order pin need three facts the call graph alone does
not carry:

* **who runs what** — :class:`ThreadModel` identifies every thread root
  (``threading.Thread`` targets, ``signal.signal`` handlers, pool worker
  initializers/dispatched tasks, ``http.server`` request handlers) and
  which classes/globals are actually *thread-shared* (constructor results
  published to attributes or module globals, classes whose methods are
  thread targets, classes referenced from module/class-level state);
* **what locks are held where** — :class:`LockModel` walks every function
  body flow-sensitively (``with lock:`` blocks, linear ``acquire`` /
  ``release``) and closes the per-function *entry locksets* over the call
  graph as a decreasing fixpoint, so ``CircuitBreaker._maybe_half_open``
  knows it always runs under ``_lock`` even though it never acquires it;
* **in what order** — acquire events with a non-empty held set become
  edges of the lock-order graph (``LockModel.order_edges``), which
  ``test_thread_rules.py`` pins to the serve stack's one nesting, so a
  second edge — the half of any deadlock cycle — fails a test.

Locks are named canonically — ``module.Class.attr`` for instance locks,
``module.name`` for module-level locks — so every finding names the field
a reader would grep for.  Resolution stays conservative in the same way :mod:`repro.analysis.graph`
is: an access or call the model cannot pin contributes *no information*,
never evidence.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .graph import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    dotted_name,
)

__all__ = [
    "Access",
    "CallEvent",
    "LockAnalysis",
    "LockModel",
    "SignalHandlerInfo",
    "ThreadModel",
    "ThreadRoot",
]

#: Constructors whose results are synchronisation primitives — fields
#: holding these are coordination state, not data the RC300 lockset
#: intersection should police.
SYNC_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Event",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "threading.Thread",
        "threading.local",
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "itertools.count",
    }
)

#: The subset that the lock model tracks as *locks* (held/released).
LOCK_CONSTRUCTORS: frozenset[str] = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)

#: Methods whose accesses run before the object is published — init-time
#: writes are single-threaded by construction and excluded from the model.
INIT_METHODS: frozenset[str] = frozenset({"__init__", "__post_init__", "__new__"})

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "extend",
        "add",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Pool methods whose first positional argument runs in a worker process
#: (mirrors the RC101 worker-entry discovery).
_POOL_DISPATCH: frozenset[str] = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)

#: Module-level values RC300 tracks as shared globals (same shapes RC101
#: flags as fork-hazardous mutable module state).
_MUTABLE_CONSTRUCTORS: frozenset[str] = frozenset({"list", "dict", "set", "bytearray"})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _expand(mod: ModuleInfo, raw: str) -> str:
    """Expand the leading component of a dotted name via the import table."""
    head, _, rest = raw.partition(".")
    if head in mod.imports:
        return mod.imports[head] + ("." + rest if rest else "")
    return raw


def _ctor_kind(mod: ModuleInfo, value: ast.expr) -> str | None:
    """``"lock"`` / ``"sync"`` when *value* constructs a primitive, else None."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        raw = dotted_name(node.func)
        if raw is None:
            continue
        expanded = _expand(mod, raw)
        if expanded in LOCK_CONSTRUCTORS:
            return "lock"
        if expanded in SYNC_CONSTRUCTORS:
            return "sync"
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


@dataclass(frozen=True)
class ThreadRoot:
    """One place a new thread of control enters the package."""

    label: str
    #: ``main`` | ``thread`` | ``signal`` | ``worker`` | ``handler``.
    kind: str
    seeds: frozenset[str]


@dataclass(frozen=True)
class SignalHandlerInfo:
    """One function registered via ``signal.signal`` (a signal thread root)."""

    label: str
    #: Function the registration happens in (carries the resolved calls).
    owner: FunctionInfo
    #: The handler's own def node — possibly nested inside *owner*.
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Qualname when the handler is a collected project function.
    qualname: str | None


@dataclass(frozen=True)
class Access:
    """One read/write of a tracked shared field with its local lockset."""

    field: str
    func: str
    node: ast.AST
    write: bool
    held: frozenset[str]


@dataclass(frozen=True)
class CallEvent:
    """One call site with the locally-held lockset at the moment of call."""

    func: str
    node: ast.AST
    callee: str | None
    held: frozenset[str]
    #: Whether the method receiver chain is rooted in a thread-shared
    #: class (``self.pool.last_health.merge()`` from SearchService: True;
    #: ``self.profile.run_health.merge()`` from a thread-confined
    #: pipeline: False; unresolvable or no receiver: None).  RC300's
    #: init-phase exemption: a method only ever invoked on confined
    #: receivers mutates thread-confined instances, even when its class
    #: is also published elsewhere.
    receiver_shared: bool | None = None


@dataclass
class FunctionSummary:
    """Everything the lock model learned walking one function body."""

    accesses: list[Access] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    #: ``(lock, locally-held-before)`` per acquisition event.
    acquires: list[tuple[str, frozenset[str], ast.AST]] = field(default_factory=list)


class ThreadModel:
    """Thread roots, attribute types and sharedness over one project graph."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: ``(module.Class, attr)`` → ``module.Class`` for typed attributes.
        self.attr_types: dict[tuple[str, str], str] = {}
        #: ``(module.Class, attr)`` → getter qualname for ``@property``.
        self.properties: dict[tuple[str, str], str] = {}
        #: ``module.Class`` → its project base classes, in declaration order.
        self.bases: dict[str, tuple[str, ...]] = {}
        #: ``(module.Class, attr)`` → ``"lock"`` | ``"sync"``.
        self.sync_fields: dict[tuple[str, str], str] = {}
        #: ``(module, name)`` → ``"lock"`` | ``"sync"`` for module globals.
        self.sync_globals: dict[tuple[str, str], str] = {}
        self.shared_classes: set[str] = set()
        #: module → mutable module-global names the model tracks.
        self.shared_globals: dict[str, set[str]] = {}
        self.roots: list[ThreadRoot] = []
        self.signal_handlers: list[SignalHandlerInfo] = []
        self._ptype_cache: dict[str, dict[str, str]] = {}
        self._ltype_cache: dict[str, dict[str, str]] = {}
        self._collect_types()
        self._collect_roots()
        self._collect_sharedness()

    # -- attribute / parameter types -----------------------------------
    def _annotation_class(self, mod: ModuleInfo, ann: ast.expr | None) -> str | None:
        """Class prefix named by an annotation (``X``, ``X | None``, ``"X"``)."""
        if ann is None:
            return None
        if isinstance(ann, ast.BinOp):  # X | None — pick the class side.
            return self._annotation_class(mod, ann.left) or self._annotation_class(
                mod, ann.right
            )
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            for name in _IDENT.findall(ann.value):
                prefix = self.graph._class_prefix_of(mod, name)
                if prefix is not None:
                    return prefix
            return None
        raw = dotted_name(ann)
        if raw is None or raw in ("None", "Any"):
            return None
        return self.graph._class_prefix_of(mod, raw)

    def _collect_types(self) -> None:
        graph = self.graph
        for mod in graph.modules.values():
            for stmt in mod.ctx.tree.body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                prefix = f"{mod.name}.{stmt.name}"
                bases = (graph._class_prefix_of(mod, dotted_name(b)) for b in stmt.bases)
                self.bases[prefix] = tuple(b for b in bases if b is not None)
                for sub in stmt.body:
                    # Class-body annotations (``server: SearchHTTPServer``).
                    if isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        typed = self._annotation_class(mod, sub.annotation)
                        if typed is not None:
                            self.attr_types[(prefix, sub.target.id)] = typed
                        kind = _ctor_kind(mod, sub.value) if sub.value else None
                        if kind is not None:
                            self.sync_fields[(prefix, sub.target.id)] = kind
                    elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if any(
                            dotted_name(d) in ("property", "functools.cached_property")
                            for d in sub.decorator_list
                        ):
                            self.properties[(prefix, sub.name)] = (
                                f"{prefix}.{sub.name}"
                            )
        for info in graph.functions.values():
            if info.class_name is None:
                continue
            mod = graph.modules[info.module]
            prefix = f"{info.module}.{info.class_name}"
            ann_params = self._param_types(info)
            for node in ast.walk(info.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    kind = _ctor_kind(mod, value)
                    if kind is not None:
                        self.sync_fields.setdefault((prefix, target.attr), kind)
                    typed = self._value_class(mod, ann_params, value)
                    if typed is not None:
                        self.attr_types.setdefault((prefix, target.attr), typed)
        # Module-level sync globals (``_SLEEP = threading.Event()``).
        for mod in graph.modules.values():
            for stmt in mod.ctx.tree.body:
                targets = []
                value = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None:
                    continue
                kind = _ctor_kind(mod, value)
                if kind is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.sync_globals[(mod.name, target.id)] = kind

    def _value_class(
        self, mod: ModuleInfo, ann_params: dict[str, str], value: ast.expr
    ) -> str | None:
        """Class prefix of an assigned value (``Ctor()``, a typed param,
        or ``param or Ctor()``)."""
        if isinstance(value, ast.Call):
            return self.graph._class_prefix_of(mod, dotted_name(value.func))
        if isinstance(value, ast.Name):
            return ann_params.get(value.id)
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                typed = self._value_class(mod, ann_params, operand)
                if typed is not None:
                    return typed
        return None

    def _param_types(self, info: FunctionInfo) -> dict[str, str]:
        cached = self._ptype_cache.get(info.qualname)
        if cached is not None:
            return cached
        mod = self.graph.modules[info.module]
        args = info.node.args
        out: dict[str, str] = {}
        for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            typed = self._annotation_class(mod, param.annotation)
            if typed is not None:
                out[param.arg] = typed
        self._ptype_cache[info.qualname] = out
        return out

    def _local_types(self, info: FunctionInfo) -> dict[str, str]:
        cached = self._ltype_cache.get(info.qualname)
        if cached is not None:
            return cached
        mod = self.graph.modules[info.module]
        out = self.graph._local_instance_types(mod, info.node)
        self._ltype_cache[info.qualname] = out
        return out

    def type_of(
        self,
        info: FunctionInfo,
        expr: ast.expr,
        _seen: set[tuple[str, str]] | None = None,
    ) -> str | None:
        """Class prefix an expression evaluates to, when the model knows."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and info.class_name is not None:
                return f"{info.module}.{info.class_name}"
            typed = self._param_types(info).get(expr.id)
            if typed is not None:
                return typed
            mod = self.graph.modules[info.module]
            typed = self._local_types(info).get(expr.id)
            if typed is not None:
                return typed
            # Locals bound from a typed expression
            # (``service = self.server.service``); guarded against cycles.
            seen = _seen if _seen is not None else set()
            key = (info.qualname, expr.id)
            if key in seen:
                return None
            seen.add(key)
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == expr.id
                ):
                    typed = self.type_of(info, node.value, seen)
                    if typed is not None:
                        return typed
                elif (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == expr.id
                ):
                    typed = self._annotation_class(mod, node.annotation)
                    if typed is not None:
                        return typed
            return None
        if isinstance(expr, ast.Attribute):
            base = self.type_of(info, expr.value, _seen)
            if base is not None:
                return self.inherited(self.attr_types, base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            mod = self.graph.modules[info.module]
            return self.graph._class_prefix_of(mod, dotted_name(expr.func))
        return None

    # -- inheritance ---------------------------------------------------
    def mro(self, prefix: str) -> Iterator[str]:
        """*prefix*, then its project bases, depth first."""
        yield prefix
        for base in self.bases.get(prefix, ()):
            yield from self.mro(base)

    def inherited(
        self, table: dict[tuple[str, str], str], prefix: str, name: str
    ) -> str | None:
        """``table[(cls, name)]`` for the first class of *prefix*'s
        :meth:`mro` that has it (typed attributes, properties)."""
        return next(
            (table[(cls, name)] for cls in self.mro(prefix) if (cls, name) in table),
            None,
        )

    def method(self, prefix: str, name: str) -> str | None:
        """Qualname of the method *name* instances of *prefix* call —
        their class's own, else the first base's that defines it."""
        for cls in self.mro(prefix):
            scope, _, leaf = cls.rpartition(".")
            owner = self.graph.modules.get(scope)
            qual = owner.classes.get(leaf, {}).get(name) if owner else None
            if qual is not None:
                return qual
        return None

    # -- sharedness ----------------------------------------------------
    def _collect_sharedness(self) -> None:
        """Classes whose *instances* can be reached by more than one thread.

        Sharedness is a publication-reachability closure, not a syntactic
        guess: the seeds are (1) classes whose methods run as spawned
        in-process roots (thread targets, signal handlers, HTTP handler
        methods — their ``self`` is by construction visible to two
        threads) and (2) classes published to module-level names (a
        global annotated with the class, or a module-level constructed
        instance — process-wide state every thread can import).  The
        closure then follows *typed attribute* edges: if ``SearchService``
        is shared and ``self.pool`` holds a ``WarmPool``, the pool's
        instance is reachable from every thread that can reach the
        service.  A shared class shares its project bases, whose methods
        its instances run: ``WarmPool`` publishes the
        ``ShardedStep2Executor`` fields its base-class methods guard.
        Classes only ever held in locals (the per-request
        pipeline, per-run health objects, supervisors) never enter the
        domain, which is what keeps RC300 from demanding locks on
        thread-confined state.
        """
        graph = self.graph
        for mod in graph.modules.values():
            # Tracked mutable module globals.
            names = self.shared_globals.setdefault(mod.name, set())
            for stmt in mod.ctx.tree.body:
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None or not _is_mutable_value(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        seeds: set[str] = set()
        # (1) classes whose methods are spawned in-process root seeds
        # (worker seeds run in a *separate process* — not shared here).
        for root in self.roots:
            if root.kind == "worker":
                continue
            for seed in root.seeds:
                info = graph.functions.get(seed)
                if info is not None and info.class_name is not None:
                    seeds.add(f"{info.module}.{info.class_name}")
        # (2) classes published to module-level names.
        for mod in graph.modules.values():
            for stmt in mod.ctx.tree.body:
                if isinstance(stmt, ast.AnnAssign):
                    typed = self._annotation_class(mod, stmt.annotation)
                    if typed is not None:
                        seeds.add(typed)
                elif isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call
                ):
                    prefix = graph._class_prefix_of(
                        mod, dotted_name(stmt.value.func)
                    )
                    if prefix is not None:
                        seeds.add(prefix)
        # Close over typed attribute publication.
        by_class: dict[str, set[str]] = {}
        for (prefix, _attr), typed in self.attr_types.items():
            by_class.setdefault(prefix, set()).add(typed)
        queue = deque(seeds)
        while queue:
            prefix = queue.popleft()
            if prefix in self.shared_classes:
                continue
            self.shared_classes.add(prefix)
            queue.extend(by_class.get(prefix, ()))
            queue.extend(self.bases.get(prefix, ()))

    def receiver_shared(self, info: FunctionInfo, expr: ast.expr) -> bool | None:
        """Whether a receiver chain is rooted in a thread-shared class.

        ``self.profile.run_health`` asks about the type of ``self`` (the
        chain *root* owns the instance), not ``run_health``'s own class.
        """
        root = expr
        while isinstance(root, ast.Attribute):
            root = root.value
        typed = self.type_of(info, root)
        if typed is None:
            return None
        return typed in self.shared_classes

    # -- roots ---------------------------------------------------------
    def _resolve_callable_ref(
        self, info: FunctionInfo, mod: ModuleInfo, expr: ast.expr
    ) -> str | None:
        """Qualname of a function *reference* (thread target, handler)."""
        raw = dotted_name(expr)
        if raw is None:
            return None
        if isinstance(expr, ast.Attribute):
            base = self.type_of(info, expr.value)
            if base is not None:
                qual = self.method(base, expr.attr)
                if qual is not None:
                    return qual
        head, _, rest = raw.partition(".")
        expanded = _expand(mod, raw)
        if expanded in self.graph.functions:
            return expanded
        if not rest and raw in mod.functions:
            return mod.functions[raw]
        return None

    def _nested_def(
        self, info: FunctionInfo, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for node in ast.walk(info.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not info.node
                and node.name == name
            ):
                return node
        return None

    def _collect_roots(self) -> None:
        graph = self.graph
        thread_roots: dict[str, set[str]] = {}
        worker_seeds: set[str] = set()
        handler_classes: dict[str, set[str]] = {}
        for info in graph.functions.values():
            mod = graph.modules[info.module]
            for site in info.calls:
                node = site.node
                raw = site.raw or ""
                if raw == "threading.Thread":
                    target = next(
                        (kw.value for kw in node.keywords if kw.arg == "target"),
                        node.args[0] if node.args else None,
                    )
                    if target is None:
                        continue
                    label = self._name_kwarg(node) or (
                        (dotted_name(target) or "thread").rpartition(".")[2]
                    )
                    seed = self._resolve_callable_ref(info, mod, target)
                    if seed is None and isinstance(target, ast.Name):
                        if self._nested_def(info, target.id) is not None:
                            # Nested target: the enclosing function carries
                            # its resolved calls (graph attribution), so it
                            # seeds the reachability conservatively.
                            seed = info.qualname
                    if seed is not None:
                        thread_roots.setdefault(f"thread:{label}", set()).add(seed)
                elif raw == "signal.signal" and len(node.args) >= 2:
                    self._register_signal_handler(info, mod, node.args[1])
                elif raw.rpartition(".")[2] in _POOL_DISPATCH and node.args:
                    qual = self._resolve_callable_ref(info, mod, node.args[0])
                    if qual is not None:
                        worker_seeds.add(qual)
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        qual = self._resolve_callable_ref(info, mod, kw.value)
                        if qual is not None:
                            worker_seeds.add(qual)
        # Request-handler classes: one root per class over do_*/handle*.
        for mod in graph.modules.values():
            for stmt in mod.ctx.tree.body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                if not any(
                    "RequestHandler" in (dotted_name(base) or "")
                    for base in stmt.bases
                ):
                    continue
                methods = {
                    qual
                    for name, qual in mod.classes.get(stmt.name, {}).items()
                    if name.startswith(("do_", "handle"))
                }
                if methods:
                    handler_classes.setdefault(
                        f"handler:{stmt.name}", set()
                    ).update(methods)
        for label in sorted(thread_roots):
            self.roots.append(
                ThreadRoot(label, "thread", frozenset(thread_roots[label]))
            )
        for handler in self.signal_handlers:
            seeds: set[str] = set()
            if handler.qualname is not None:
                seeds.add(handler.qualname)
            else:
                # Nested handler: seed only the project calls inside its
                # own subtree, not everything the enclosing function does.
                inner = {id(c) for c in ast.walk(handler.node)}
                seeds.update(
                    site.callee
                    for site in handler.owner.calls
                    if site.callee is not None and id(site.node) in inner
                )
            self.roots.append(
                ThreadRoot(f"signal:{handler.label}", "signal", frozenset(seeds))
            )
        if worker_seeds:
            self.roots.append(ThreadRoot("worker", "worker", frozenset(worker_seeds)))
        for label in sorted(handler_classes):
            self.roots.append(
                ThreadRoot(label, "handler", frozenset(handler_classes[label]))
            )

    def _name_kwarg(self, node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    return kw.value.value
        return None

    def _register_signal_handler(
        self, info: FunctionInfo, mod: ModuleInfo, expr: ast.expr
    ) -> None:
        qual = self._resolve_callable_ref(info, mod, expr)
        node: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        label = (dotted_name(expr) or "handler").rpartition(".")[2]
        if qual is not None:
            target = self.graph.functions.get(qual)
            if target is not None:
                node = target.node
        elif isinstance(expr, ast.Name):
            node = self._nested_def(info, expr.id)
        if node is None:
            return
        if any(h.node is node for h in self.signal_handlers):
            return
        self.signal_handlers.append(
            SignalHandlerInfo(label=label, owner=info, node=node, qualname=qual)
        )


class LockModel:
    """Flow-sensitive locksets over every function, closed over the graph."""

    def __init__(self, graph: ProjectGraph, threads: ThreadModel) -> None:
        self.graph = graph
        self.threads = threads
        #: Canonical lock name → ``"lock"`` (all lock kinds held the same).
        self.locks: dict[str, str] = {}
        self._class_locks: dict[tuple[str, str], str] = {}
        self._module_locks: dict[tuple[str, str], str] = {}
        #: Condition locks, for RC303's wait classification.
        self.condition_fields: set[tuple[str, str]] = set()
        self.summaries: dict[str, FunctionSummary] = {}
        #: Qualname → must-held lockset on entry (⊥ = frozenset()).
        self.entry: dict[str, frozenset[str]] = {}
        #: Lock-order edges ``(outer, inner)`` → a witness node + file.
        self.order_edges: dict[tuple[str, str], tuple[str, ast.AST]] = {}
        self._discover_locks()
        for info in graph.functions.values():
            self.summaries[info.qualname] = self._walk_function(info)
        self._edges = {
            qual: {c.callee for c in s.calls if c.callee is not None}
            for qual, s in self.summaries.items()
        }
        self._compute_entry()
        self._compute_order_edges()
        self._runs_on = self._compute_runs_on()

    # -- lock discovery ------------------------------------------------
    def _discover_locks(self) -> None:
        graph = self.graph
        for (prefix, attr), kind in self.threads.sync_fields.items():
            if kind != "lock":
                continue
            canonical = f"{prefix}.{attr}"
            self.locks[canonical] = "lock"
            self._class_locks[(prefix, attr)] = canonical
        for (module, name), kind in self.threads.sync_globals.items():
            if kind != "lock":
                continue
            canonical = f"{module}.{name}"
            self.locks[canonical] = "lock"
            self._module_locks[(module, name)] = canonical
        # ``global X; X = threading.Lock()`` re-inits (fork-safe reset).
        for info in graph.functions.values():
            mod = graph.modules[info.module]
            declared = {
                name
                for node in ast.walk(info.node)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            if not declared:
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                if _ctor_kind(mod, node.value) != "lock":
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in declared:
                        canonical = f"{mod.name}.{target.id}"
                        self.locks[canonical] = "lock"
                        self._module_locks[(mod.name, target.id)] = canonical
        # Condition fields (their ``wait`` needs a predicate loop).
        for info in graph.functions.values():
            if info.class_name is None:
                continue
            mod = graph.modules[info.module]
            prefix = f"{info.module}.{info.class_name}"
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                raw = (
                    dotted_name(node.value.func)
                    if isinstance(node.value, ast.Call)
                    else None
                )
                if raw is None:
                    continue
                if _expand(mod, raw) == "threading.Condition":
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self.condition_fields.add((prefix, target.attr))

    def lock_key(self, info: FunctionInfo, expr: ast.expr) -> str | None:
        """Canonical name of the lock *expr* denotes at a use site."""
        raw = dotted_name(expr)
        if raw is None:
            return None
        if info.class_name is not None and raw.startswith("self."):
            rest = raw[len("self.") :]
            if "." not in rest:
                prefix = f"{info.module}.{info.class_name}"
                return self._class_locks.get((prefix, rest))
        if "." not in raw:
            return self._module_locks.get((info.module, raw))
        return None

    # -- body walk -----------------------------------------------------
    def _walk_function(self, info: FunctionInfo) -> FunctionSummary:
        summary = FunctionSummary()
        self._site_of = {id(s.node): s for s in info.calls}
        self._globals_declared = {
            name
            for node in ast.walk(info.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        self._locals_bound = self._local_bindings(info)
        self._walk_body(info, info.node.body, frozenset(), summary)
        return summary

    def _local_bindings(self, info: FunctionInfo) -> set[str]:
        bound: set[str] = set(info.param_names())
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not info.node:
                    bound.add(node.name)
        return bound - self._globals_declared

    def _walk_body(
        self,
        info: FunctionInfo,
        body: list[ast.stmt],
        held: frozenset[str],
        summary: FunctionSummary,
    ) -> None:
        for stmt in body:
            held = self._walk_stmt(info, stmt, held, summary)

    def _walk_stmt(
        self,
        info: FunctionInfo,
        stmt: ast.stmt,
        held: frozenset[str],
        summary: FunctionSummary,
    ) -> frozenset[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs at *call* time: no lock is known-held.
            self._walk_body(info, stmt.body, frozenset(), summary)
            return held
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                key = self.lock_key(info, item.context_expr)
                if key is not None:
                    summary.acquires.append((key, inner, item.context_expr))
                    inner = inner | {key}
                else:
                    self._visit_expr(info, item.context_expr, inner, summary)
            self._walk_body(info, stmt.body, inner, summary)
            return held
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                key = self.lock_key(info, call.func.value)
                if key is not None and call.func.attr == "acquire":
                    for arg in [*call.args, *[k.value for k in call.keywords]]:
                        self._visit_expr(info, arg, held, summary)
                    summary.acquires.append((key, held, call))
                    return held | {key}
                if key is not None and call.func.attr == "release":
                    return held - {key}
        for fname, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    self._walk_body(info, value, held, summary)
                else:
                    for item in value:
                        if isinstance(item, ast.ExceptHandler):
                            if item.type is not None:
                                self._visit_expr(info, item.type, held, summary)
                            self._walk_body(info, item.body, held, summary)
                        elif isinstance(item, ast.expr):
                            self._visit_expr(info, item, held, summary)
            elif isinstance(value, ast.expr):
                self._visit_expr(info, value, held, summary)
        return held

    def _visit_expr(
        self,
        info: FunctionInfo,
        expr: ast.expr,
        held: frozenset[str],
        summary: FunctionSummary,
    ) -> None:
        prefix = (
            f"{info.module}.{info.class_name}" if info.class_name is not None else None
        )
        mod = self.graph.modules[info.module]
        in_init = info.name in INIT_METHODS
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                site = self._site_of.get(id(node))
                callee = site.callee if site is not None else None
                shared: bool | None = None
                if isinstance(node.func, ast.Attribute):
                    if callee is None:
                        base = self.threads.type_of(info, node.func.value)
                        if base is not None:
                            callee = self.threads.method(base, node.func.attr)
                    shared = self.threads.receiver_shared(info, node.func.value)
                summary.calls.append(
                    CallEvent(
                        func=info.qualname,
                        node=node,
                        callee=callee,
                        held=held,
                        receiver_shared=shared,
                    )
                )
                # Container mutation through a method call is a write.
                if (
                    not in_init
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                ):
                    target = self._field_of(info, prefix, mod, node.func.value)
                    if target is not None:
                        summary.accesses.append(
                            Access(target, info.qualname, node, True, held)
                        )
            elif isinstance(node, ast.Attribute):
                # Property loads on typed receivers are call edges: reading
                # ``service.ready`` executes the getter on *this* thread.
                base = self.threads.type_of(info, node.value)
                if base is not None:
                    getter = self.threads.inherited(
                        self.threads.properties, base, node.attr
                    )
                    if getter is not None:
                        summary.calls.append(
                            CallEvent(
                                func=info.qualname,
                                node=node,
                                callee=getter,
                                held=held,
                                receiver_shared=self.threads.receiver_shared(
                                    info, node.value
                                ),
                            )
                        )
                if in_init:
                    continue
                target = self._field_of(info, prefix, mod, node)
                if target is None:
                    continue
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                summary.accesses.append(
                    Access(target, info.qualname, node, write, held)
                )
            elif isinstance(node, ast.Subscript):
                if in_init or not isinstance(node.ctx, (ast.Store, ast.Del)):
                    continue
                target = self._field_of(info, prefix, mod, node.value)
                if target is not None:
                    summary.accesses.append(
                        Access(target, info.qualname, node, True, held)
                    )
            elif isinstance(node, ast.Name):
                if in_init:
                    continue
                target = self._global_field(info, mod, node.id)
                if target is None:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    if node.id not in self._globals_declared:
                        continue  # local shadow, not the global
                    summary.accesses.append(
                        Access(target, info.qualname, node, True, held)
                    )
                else:
                    if node.id in self._locals_bound:
                        continue
                    summary.accesses.append(
                        Access(target, info.qualname, node, False, held)
                    )

    def _field_of(
        self,
        info: FunctionInfo,
        prefix: str | None,
        mod: ModuleInfo,
        expr: ast.expr,
    ) -> str | None:
        """Canonical tracked field *expr* denotes, or ``None``."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and prefix is not None
        ):
            attr = expr.attr
            key = (prefix, attr)
            if key in self.threads.sync_fields:
                return None
            if key in self._class_locks or key in self.threads.properties:
                return None
            methods = self.graph.modules[info.module].classes.get(
                info.class_name or "", {}
            )
            if attr in methods:
                return None
            return f"{prefix}.{attr}"
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            # Cross-module global (``core_executor._LIVE_SEGMENTS``).
            head = expr.value.id
            if head in mod.imports:
                target_mod = mod.imports[head]
                if expr.attr in self.threads.shared_globals.get(target_mod, ()):
                    return f"{target_mod}.{expr.attr}"
        return None

    def _global_field(
        self, info: FunctionInfo, mod: ModuleInfo, name: str
    ) -> str | None:
        if name in self.threads.shared_globals.get(mod.name, ()):
            if (mod.name, name) in self._module_locks:
                return None
            return f"{mod.name}.{name}"
        return None

    # -- interprocedural closures --------------------------------------
    def _compute_entry(self) -> None:
        graph = self.graph
        callers: dict[str, int] = {q: 0 for q in graph.functions}
        for qual, callees in self._edges.items():
            for callee in callees:
                if callee in callers and callee != qual:
                    callers[callee] += 1
        roots = {q for q, n in callers.items() if n == 0}
        for root in self.threads.roots:
            roots.update(root.seeds)
        top: dict[str, frozenset[str] | None] = {q: None for q in graph.functions}
        for qual in roots:
            top[qual] = frozenset()
        for _ in range(64):
            changed = False
            for qual, summary in self.summaries.items():
                base = top.get(qual)
                if base is None:
                    continue
                for event in summary.calls:
                    if event.callee is None or event.callee == qual:
                        continue
                    cand = base | event.held
                    current = top.get(event.callee)
                    new = cand if current is None else current & cand
                    if new != current:
                        top[event.callee] = new
                        changed = True
            if not changed:
                break
        self.entry = {
            qual: (locks if locks is not None else frozenset())
            for qual, locks in top.items()
        }

    def _compute_order_edges(self) -> None:
        # Locks each function may acquire, transitively.
        acquires: dict[str, set[str]] = {
            qual: {lock for lock, _, _ in summary.acquires}
            for qual, summary in self.summaries.items()
        }
        for _ in range(64):
            changed = False
            for qual, callees in self._edges.items():
                mine = acquires[qual]
                before = len(mine)
                for callee in callees:
                    if callee != qual:
                        mine |= acquires.get(callee, set())
                if len(mine) != before:
                    changed = True
            if not changed:
                break
        self.acquire_closure = acquires
        for qual, summary in self.summaries.items():
            entry = self.entry.get(qual, frozenset())
            for lock, held_before, node in summary.acquires:
                for outer in entry | held_before:
                    if outer != lock:
                        self.order_edges.setdefault((outer, lock), (qual, node))
            for event in summary.calls:
                if event.callee is None:
                    continue
                outer_set = entry | event.held
                if not outer_set:
                    continue
                for inner in acquires.get(event.callee, ()):
                    for outer in outer_set:
                        if outer != inner:
                            self.order_edges.setdefault(
                                (outer, inner), (qual, event.node)
                            )

    def _compute_runs_on(self) -> dict[str, frozenset[str]]:
        runs: dict[str, set[str]] = {qual: {"main"} for qual in self.summaries}
        for root in self.threads.roots:
            queue = deque(q for q in root.seeds if q in self.summaries)
            seen: set[str] = set()
            while queue:
                qual = queue.popleft()
                if qual in seen:
                    continue
                seen.add(qual)
                runs[qual].add(root.label)
                for callee in self._edges.get(qual, ()):
                    if callee not in seen and callee in self.summaries:
                        queue.append(callee)
        return {qual: frozenset(labels) for qual, labels in runs.items()}

    # -- queries -------------------------------------------------------
    def runs_on(self, qualname: str) -> frozenset[str]:
        """Root labels a function may execute under (``main`` always)."""
        return self._runs_on.get(qualname, frozenset({"main"}))

    def effective_held(self, access: Access) -> frozenset[str]:
        """Must-held lockset at an access: entry lockset ∪ local lockset."""
        return self.entry.get(access.func, frozenset()) | access.held

    def field_accesses(self) -> dict[str, list[Access]]:
        """Every tracked shared-field access, grouped by canonical field."""
        out: dict[str, list[Access]] = {}
        for summary in self.summaries.values():
            for access in summary.accesses:
                out.setdefault(access.field, []).append(access)
        return out

    def field_path(self, access: Access) -> str:
        """Source path of the module an access lives in."""
        info = self.graph.functions[access.func]
        return str(self.graph.modules[info.module].ctx.path)


class LockAnalysis:
    """Facade bundling the thread model and the lock model for the rules."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.threads = ThreadModel(graph)
        self.model = LockModel(graph, self.threads)
