"""Project-wide AST model: modules, qualified names, and the call graph.

The RC001–RC005 rules are local — one :class:`~repro.analysis.rules.FileContext`
at a time.  The RC1xx concurrency/determinism rules are not: "a
nondeterministically-ordered value reaches the executor merge" is a property
of a *path through the call graph*, and "this helper releases the
shared-memory segments it is handed" is a property of a *callee* that the
caller's rule must look up.  :class:`ProjectGraph` is the shared substrate:

* every package file is parsed once and mapped to its dotted module name
  (``core/executor.py`` → ``repro.core.executor``);
* each module's import statements become a local-name → qualified-name
  table, with relative imports resolved against the module's package;
* every function and method gets a :class:`FunctionInfo` keyed by its
  qualified name (``repro.core.executor.ShardedStep2Executor.step2``),
  holding its AST node and its resolved call sites;
* :meth:`ProjectGraph.callees` / :meth:`ProjectGraph.reachable_from` expose
  the graph itself for reachability-style rules, and
  :mod:`repro.analysis.flows` computes fixpoint summaries over it.

Resolution is deliberately conservative: a call the resolver cannot pin to
a project function keeps its dotted source text (``os.listdir``,
``shm.close``) so rules can still match well-known externals, and anything
truly dynamic resolves to ``None`` — rules must treat unresolved calls as
"no information", never as evidence.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .rules import FileContext

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "dotted_name",
]

#: Root package name all project modules hang under.
PACKAGE_ROOT = "repro"


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_of(package_rel: str) -> str:
    """Dotted module name of a package-relative path.

    ``core/executor.py`` → ``repro.core.executor``;
    ``core/__init__.py`` → ``repro.core``; ``__init__.py`` → ``repro``.
    """
    parts = package_rel.split("/")
    leaf = parts[-1]
    parts = parts[:-1] if leaf == "__init__.py" else parts[:-1] + [leaf[: -len(".py")]]
    return ".".join([PACKAGE_ROOT, *parts]) if parts else PACKAGE_ROOT


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call`` inside a function, with its resolution.

    ``callee`` is the qualified name of a project function when the
    resolver pinned one; ``raw`` is the dotted source text after import
    expansion (``os.listdir``, ``np.random.default_rng``) and is ``None``
    only for calls on non-name expressions (``x[0]()``, ``f()()``).
    """

    node: ast.Call
    raw: str | None
    callee: str | None


@dataclass
class FunctionInfo:
    """One function or method of the project."""

    qualname: str
    module: str
    package_rel: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Bare function name."""
        return self.node.name

    def param_names(self) -> list[str]:
        """Positional/keyword parameter names, ``self``/``cls`` included."""
        a = self.node.args
        return [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]]


@dataclass
class ModuleInfo:
    """One parsed package module and its name-resolution tables."""

    name: str
    ctx: FileContext
    #: Local name → fully qualified dotted target, from import statements.
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level function name → qualified name.
    functions: dict[str, str] = field(default_factory=dict)
    #: Class name → {method name → qualified name}.
    classes: dict[str, dict[str, str]] = field(default_factory=dict)


def _resolve_relative(
    module: str, level: int, target: str | None, *, is_package: bool = False
) -> str:
    """Absolute dotted base of a ``from ... import`` with *level* leading dots.

    Relative imports are resolved against the importing module's package
    (``repro.core.executor`` importing ``from .partition`` → the base is
    ``repro.core.partition``).  For a package ``__init__`` the module name
    *is* the package, so one less component is stripped
    (``repro.extend.backends`` importing ``from .fused`` → the base is
    ``repro.extend.backends.fused``, not ``repro.extend.fused``).
    """
    if is_package:
        level -= 1
    parts = module.split(".")
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ProjectGraph:
    """Modules, functions and resolved call edges of one project tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: Synthetic call edges (caller qualname → callee qualnames) added
        #: for calls on a held kernel object the resolver cannot see.
        self.extra_edges: dict[str, set[str]] = {}
        #: Step-2 kernel class prefix (``module.Class``) → its method table.
        self.kernel_classes: dict[str, dict[str, str]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def from_contexts(cls, contexts: Iterable[FileContext]) -> ProjectGraph:
        """Build the graph from parsed package files (two passes).

        Pass one registers every module's import table and definition names
        so pass two can resolve calls across modules regardless of file
        order.  Files outside the package (``package_rel is None``) are
        ignored — the project graph models the ``repro`` package only.
        """
        graph = cls()
        package = [c for c in contexts if c.package_rel is not None]
        for ctx in package:
            graph._register_module(ctx)
        for ctx in package:
            graph._collect_functions(ctx)
        graph._link_kernel_dispatch()
        return graph

    def _register_module(self, ctx: FileContext) -> None:
        assert ctx.package_rel is not None
        mod = ModuleInfo(name=module_name_of(ctx.package_rel), ctx=ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                is_package = ctx.package_rel.endswith("__init__.py")
                base = (
                    _resolve_relative(
                        mod.name, node.level, node.module, is_package=is_package
                    )
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[stmt.name] = f"{mod.name}.{stmt.name}"
            elif isinstance(stmt, ast.ClassDef):
                methods = {
                    s.name: f"{mod.name}.{stmt.name}.{s.name}"
                    for s in stmt.body
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                mod.classes[stmt.name] = methods
        self.modules[mod.name] = mod

    def _collect_functions(self, ctx: FileContext) -> None:
        assert ctx.package_rel is not None
        mod = self.modules[module_name_of(ctx.package_rel)]

        def collect(body: list[ast.stmt], class_name: str | None) -> None:
            for stmt in body:
                if isinstance(stmt, ast.ClassDef):
                    collect(stmt.body, stmt.name)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = f"{mod.name}.{class_name}" if class_name else mod.name
                    info = FunctionInfo(
                        qualname=f"{scope}.{stmt.name}",
                        module=mod.name,
                        package_rel=ctx.package_rel or "",
                        class_name=class_name,
                        node=stmt,
                    )
                    local_types = self._local_instance_types(mod, stmt)
                    for call in (
                        n for n in ast.walk(stmt) if isinstance(n, ast.Call)
                    ):
                        info.calls.append(
                            self.resolve_call(mod, class_name, call, local_types)
                        )
                    self.functions[info.qualname] = info
                    # Nested defs are rare; their calls are attributed to
                    # the enclosing function via ast.walk above, which is
                    # the conservative choice for reachability.

        collect(ctx.tree.body, None)

    def _local_instance_types(
        self, mod: ModuleInfo, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Map local names to class prefixes for ``x = ClassName(...)`` binds.

        Only single-target assignments from a direct constructor call are
        typed; anything reassigned to a non-constructor later drops back to
        untyped (conservative: last writer wins, unknown wins ties).
        """
        types: dict[str, str] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                cls_prefix = (
                    self._class_prefix_of(mod, dotted_name(node.value.func))
                    if isinstance(node.value, ast.Call)
                    else None
                )
                if cls_prefix is not None:
                    types[name] = cls_prefix
                else:
                    types.pop(name, None)
        return types

    def _class_prefix_of(self, mod: ModuleInfo, raw: str | None) -> str | None:
        """``module.Class`` prefix a dotted constructor name denotes, if any."""
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        if not rest and raw in mod.classes:
            return f"{mod.name}.{raw}"
        expanded = raw
        if head in mod.imports:
            expanded = mod.imports[head] + ("." + rest if rest else "")
        expanded = self._chase_reexports(expanded)
        scope, _, leaf = expanded.rpartition(".")
        owner = self.modules.get(scope)
        if owner is not None and leaf in owner.classes:
            return f"{scope}.{leaf}"
        return None

    # -- resolution ----------------------------------------------------
    def resolve_call(
        self,
        mod: ModuleInfo,
        class_name: str | None,
        node: ast.Call,
        local_types: dict[str, str] | None = None,
    ) -> CallSite:
        """Resolve one call site against the module's name tables."""
        raw = dotted_name(node.func)
        if raw is None:
            return CallSite(node=node, raw=None, callee=None)
        head, _, rest = raw.partition(".")
        # self.method() / cls.method() inside a class body.
        if head in ("self", "cls") and class_name is not None and rest:
            method = rest.split(".")[0]
            qual = self.modules[mod.name].classes.get(class_name, {}).get(method)
            return CallSite(node=node, raw=raw, callee=qual)
        # x.method() on a locally constructed instance (x = ClassName(...)).
        if local_types and head in local_types and rest:
            method = rest.split(".")[0]
            qual = self._project_function(f"{local_types[head]}.{method}")
            return CallSite(node=node, raw=raw, callee=qual)
        expanded = raw
        if head in mod.imports:
            expanded = mod.imports[head] + ("." + rest if rest else "")
        callee = self._project_function(expanded)
        if callee is None and not rest:
            if raw in mod.functions:
                callee = mod.functions[raw]
            elif raw in mod.classes:
                callee = mod.classes[raw].get("__init__")
        return CallSite(node=node, raw=expanded, callee=callee)

    def _chase_reexports(self, qualified: str, depth: int = 0) -> str:
        """Follow re-export chains to the defining module.

        ``from .fused import FusedKernel`` in a package ``__init__``
        makes ``repro.extend.backends.FusedKernel`` a valid qualified
        name whose definition lives in ``repro.extend.backends.fused``;
        callers resolve through the package boundary by following the
        importing module's own import table.  Bounded depth guards against
        pathological import cycles.
        """
        if depth >= 8:
            return qualified
        scope, _, leaf = qualified.rpartition(".")
        mod = self.modules.get(scope)
        if mod is None or leaf in mod.functions or leaf in mod.classes:
            return qualified
        if leaf in mod.imports and mod.imports[leaf] != qualified:
            return self._chase_reexports(mod.imports[leaf], depth + 1)
        return qualified

    def _project_function(self, qualified: str) -> str | None:
        """Qualified dotted name → project function qualname, if defined.

        Resolved against the pass-one registration tables (never
        ``self.functions``, which is still filling during pass two), so
        cross-module edges resolve regardless of file collection order.
        Re-exported names are chased to their defining module first.
        """
        qualified = self._chase_reexports(qualified)
        scope, _, leaf = qualified.rpartition(".")
        mod = self.modules.get(scope)
        if mod is not None:
            if leaf in mod.functions:
                return mod.functions[leaf]
            # ``module.ClassName(...)`` — a constructor: map to __init__.
            if leaf in mod.classes:
                return mod.classes[leaf].get("__init__")
        # ``module.ClassName.method`` — one level deeper.
        scope = self._chase_reexports(scope)
        mod_name, _, cls = scope.rpartition(".")
        outer = self.modules.get(mod_name)
        if outer is not None and cls in outer.classes:
            return outer.classes[cls].get(leaf)
        return None

    # -- kernel dispatch -----------------------------------------------
    def _link_kernel_dispatch(self) -> None:
        """Add synthetic call edges for calls on a held kernel object.

        The batched engine builds its step-2 kernel once and calls
        ``kernel.score`` / ``kernel.prepare`` on the stored instance — a
        hop the resolver cannot pin, so reachability rules would stop at
        the engine without these edges.  Kernel classes are found by
        their structure: a class under ``extend/backends/`` that defines
        both ``prepare`` and ``score``.  Every unresolved ``*.score`` /
        ``*.prepare`` inside ``extend/`` fans out to the matching methods
        of every kernel class (over-approximate by design — reachability
        rules only need a superset of the true edges).
        """
        for mod in self.modules.values():
            if not (mod.ctx.package_rel or "").startswith("extend/backends/"):
                continue
            for cls, methods in mod.classes.items():
                if "prepare" in methods and "score" in methods:
                    self.kernel_classes[f"{mod.name}.{cls}"] = methods
        kernel_methods: dict[str, set[str]] = {}
        for methods in self.kernel_classes.values():
            for name in ("score", "prepare"):
                kernel_methods.setdefault(name, set()).add(methods[name])
        if not kernel_methods:
            return
        for info in self.functions.values():
            if not info.package_rel.startswith("extend/"):
                continue
            for site in info.calls:
                if site.callee is not None or site.raw is None:
                    continue
                leaf = site.raw.rpartition(".")[2]
                if leaf in kernel_methods:
                    self.extra_edges.setdefault(info.qualname, set()).update(
                        kernel_methods[leaf]
                    )

    # -- graph queries -------------------------------------------------
    def callees(self, qualname: str) -> Iterator[str]:
        """Resolved project callees of one function (synthetic edges too)."""
        info = self.functions.get(qualname)
        if info is None:
            return
        for site in info.calls:
            if site.callee is not None:
                yield site.callee
        yield from sorted(self.extra_edges.get(qualname, ()))

    def reachable_from(self, seeds: Iterable[str]) -> set[str]:
        """All project functions reachable from *seeds* via call edges."""
        seen: set[str] = set()
        queue = deque(q for q in seeds if q in self.functions)
        while queue:
            qual = queue.popleft()
            if qual in seen:
                continue
            seen.add(qual)
            for callee in self.callees(qual):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def functions_in(self, package_rel_prefixes: tuple[str, ...]) -> Iterator[FunctionInfo]:
        """Functions whose file matches any package-relative prefix/path."""
        for info in self.functions.values():
            rel = info.package_rel
            if rel.startswith(package_rel_prefixes) or rel in package_rel_prefixes:
                yield info
