"""Project-invariant lint rules (the ``RC`` series).

Generic linters check style; these rules check the *correctness invariants*
this reproduction depends on and that ruff cannot express:

========  ==================================================================
RC001     No unseeded randomness inside ``repro`` — the sharded executor's
          bit-identical merge and the reproducible workload generators both
          assume every random stream is an explicitly seeded
          ``np.random.default_rng(seed)``.
RC002     Every ``np.zeros/empty/full/arange/array`` in a hot-path package
          must pass an explicit ``dtype=`` — implicit platform-dependent
          dtypes (int32 on Windows, int64 on Linux) silently de-synchronise
          the batched kernel from the PE simulator.
RC003     No mutable default arguments anywhere.
RC004     Timing goes through ``time.perf_counter`` (see
          :class:`repro.obs.trace.Timer`); ``time.time()`` is not monotonic and
          must never feed a performance table.
RC005     Public functions in ``core/``, ``extend/`` and ``index/`` are
          fully type-annotated, so the mypy gate actually covers the hot
          path instead of inferring ``Any``.
RC105     Modules instrumented through :mod:`repro.obs` never read the
          monotonic clock directly — a raw ``time.perf_counter()`` there
          is wall time that silently escapes span and metric accounting.
RC107     No unbounded blocking calls under ``serve/`` (nor in the
          supervision layer ``core/supervisor.py`` / ``core/executor.py``
          it delegates to) — every ``queue.get/put``, ``Event.wait``,
          ``Thread.join``, ``Lock.acquire`` and ``Future.result`` there
          must carry ``timeout=`` or be non-blocking, so a stuck
          dispatcher or dead worker surfaces as a deadline miss instead of
          a wedged handler thread.
RC110     No bare ``print(...)`` / ``sys.stderr.write`` / ``sys.stdout.write``
          under ``serve/`` or ``obs/`` outside functions named ``main`` —
          the service's only sanctioned outputs are :mod:`logging`, the
          metrics/trace endpoints and the flight recorder; stray stdout in
          a long-lived server corrupts CLI JSON output and is invisible to
          operators scraping the observability surface.
========  ==================================================================

Rules are registered in :data:`REGISTRY` via :func:`register`; adding a rule
is subclassing :class:`Rule` and decorating it.  Each rule sees a parsed
:class:`FileContext` and yields :class:`Violation` records.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flows import ProjectAnalyses

__all__ = [
    "FileContext",
    "Violation",
    "Rule",
    "ProjectRule",
    "REGISTRY",
    "register",
    "iter_rules",
]

#: Packages (paths relative to the ``repro`` package root) whose numeric
#: arrays feed the batched kernel or the cycle simulators — RC002 scope.
HOT_PATH_PREFIXES: tuple[str, ...] = ("extend/", "psc/", "hwsim/")
HOT_PATH_FILES: tuple[str, ...] = (
    "core/executor.py",
    # The supervision layer hands arrays straight back into the merge; a
    # dtype drift in a retried/fallback shard would break bit-identity.
    "core/supervisor.py",
    "core/faults.py",
)

#: numpy constructors whose default dtype is platform- or input-dependent
#: (or, for ``ones``, silently float64 where the kernels expect integers).
DTYPE_REQUIRED_FUNCS: frozenset[str] = frozenset(
    {"zeros", "empty", "full", "ones", "arange", "array"}
)

#: ``np.random`` attributes that are allowed: the seeded-generator
#: constructor (argument presence is checked separately) and the types
#: used in annotations.
NP_RANDOM_ALLOWED: frozenset[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Packages (relative to ``repro``) whose public functions RC005 covers.
ANNOTATION_SCOPES: tuple[str, ...] = (
    "core/",
    "extend/",
    "index/",
    "analysis/",
    "obs/",
)

#: Modules instrumented through :mod:`repro.obs` — RC105 scope.  Timing in
#: these files must go through ``repro.obs.trace`` (``clock``, ``Timer``,
#: ``span``) so every wall-clock read lands in span/metric accounting;
#: ``time.sleep`` and other non-clock ``time`` functions remain fine.
OBS_INSTRUMENTED_FILES: tuple[str, ...] = (
    "core/pipeline.py",
    "core/executor.py",
    "core/supervisor.py",
    "core/profile.py",
    "extend/batched.py",
    "rasc/host.py",
    "rasc/platform.py",
)


@dataclass(frozen=True)
class Violation:
    """One rule finding, pointing at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RC00X message`` — the checker's output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    #: Path relative to the innermost ``repro`` package directory as POSIX
    #: (e.g. ``core/executor.py``), or ``None`` for files outside it
    #: (tests, benchmarks, scripts).
    package_rel: str | None
    tree: ast.Module
    source: str

    @property
    def in_package(self) -> bool:
        """True when the file lives inside the ``repro`` package."""
        return self.package_rel is not None

    @property
    def in_hot_path(self) -> bool:
        """True when the file is RC002 hot-path scope."""
        rel = self.package_rel
        if rel is None:
            return False
        return rel.startswith(HOT_PATH_PREFIXES) or rel in HOT_PATH_FILES

    @property
    def in_annotation_scope(self) -> bool:
        """True when the file is RC005 scope."""
        rel = self.package_rel
        return rel is not None and rel.startswith(ANNOTATION_SCOPES)


def package_relative(path: Path) -> str | None:
    """Path relative to the innermost ancestor directory named ``repro``.

    ``src/repro/core/executor.py`` → ``core/executor.py``; paths with no
    ``repro`` ancestor (tests, benchmarks) return ``None``.
    """
    parts = path.parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return PurePosixPath(*parts[i + 1 :]).as_posix()
    return None


class Rule:
    """Base class for RC rules; subclasses override :meth:`check`."""

    code: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in *ctx*."""
        raise NotImplementedError
        yield  # pragma: no cover

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` at *node*'s location."""
        return Violation(
            rule=self.code,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for cross-module rules (the RC1xx family).

    Project rules see the whole parsed tree at once — call graph, name
    resolution, flow summaries — via :class:`~repro.analysis.flows.ProjectAnalyses`
    instead of one file at a time.  Their per-file :meth:`check` is a
    no-op; the checker invokes :meth:`check_project` after the file pass.
    """

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Project rules contribute nothing to the per-file pass."""
        return iter(())

    def check_project(self, project: ProjectAnalyses) -> Iterator[Violation]:
        """Yield every violation of this rule across the project."""
        raise NotImplementedError
        yield  # pragma: no cover

    def violation_at(
        self, path: Path | str, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` at *node*'s location in *path*."""
        return Violation(
            rule=self.code,
            path=str(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


#: Rule registry: code → rule instance, in registration (= report) order.
REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY` (keyed by code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    REGISTRY[cls.code] = cls()
    return cls


def iter_rules(select: frozenset[str] | None = None) -> Iterator[Rule]:
    """Registered rules, optionally restricted to the *select* codes."""
    for code, rule in REGISTRY.items():
        if select is None or code in select:
            yield rule


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class UnseededRandomRule(Rule):
    """RC001 — no unseeded randomness inside the ``repro`` package."""

    code = "RC001"
    summary = (
        "unseeded randomness in repro: use np.random.default_rng(seed); "
        "the stdlib random module and legacy np.random.* break shard-merge "
        "determinism"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_package:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            ctx,
                            node,
                            "stdlib `random` is banned in repro; use a "
                            "seeded np.random.default_rng(seed)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.violation(
                        ctx,
                        node,
                        "stdlib `random` is banned in repro; use a "
                        "seeded np.random.default_rng(seed)",
                    )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        attr = name[len(prefix) :]
                        if attr == "default_rng":
                            if not node.args and not node.keywords:
                                yield self.violation(
                                    ctx,
                                    node,
                                    "np.random.default_rng() without a seed "
                                    "is entropy-seeded; pass an explicit seed",
                                )
                        elif attr not in NP_RANDOM_ALLOWED:
                            yield self.violation(
                                ctx,
                                node,
                                f"legacy global-state np.random.{attr}() is "
                                "banned; use a seeded "
                                "np.random.default_rng(seed)",
                            )


@register
class ExplicitDtypeRule(Rule):
    """RC002 — hot-path numpy constructors must pass ``dtype=``."""

    code = "RC002"
    summary = (
        "np.zeros/empty/full/ones/arange/array in hot-path packages "
        "(extend/, psc/, hwsim/, core/{executor,supervisor,faults}.py) "
        "must pass an explicit dtype= to prevent int32/int64 drift "
        "between kernel and simulator"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_hot_path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            mod, _, attr = name.rpartition(".")
            if mod not in ("np", "numpy") or attr not in DTYPE_REQUIRED_FUNCS:
                continue
            if any(kw.arg is None for kw in node.keywords):
                # A ``**kwargs`` splat may well forward dtype= (the batched
                # kernel's option-forwarding helpers do); absence cannot be
                # proven statically, so a splatted call is never flagged.
                continue
            if not any(kw.arg == "dtype" for kw in node.keywords):
                yield self.violation(
                    ctx,
                    node,
                    f"np.{attr}(...) without explicit dtype= in a hot-path "
                    "module; the default dtype is platform/input dependent",
                )


@register
class MutableDefaultRule(Rule):
    """RC003 — no mutable default arguments."""

    code = "RC003"
    summary = "mutable default argument (shared across calls)"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default in {node.name}(); use None and "
                        "create the object inside the function",
                    )


@register
class WallClockRule(Rule):
    """RC004 — ``time.time()`` never times anything."""

    code = "RC004"
    summary = (
        "time.time() is not monotonic; use time.perf_counter() or "
        "time.monotonic() (repro.obs.trace.Timer)"
    )

    #: Monotonic clocks the rule accepts.  ``perf_counter`` is the project
    #: default (highest resolution); ``monotonic`` is equally valid for
    #: deadlines/timeouts where resolution does not matter.
    ALLOWED_CLOCKS: frozenset[str] = frozenset({"perf_counter", "monotonic"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and _dotted(node.func) == "time.time"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "time.time() is banned; use time.perf_counter() or "
                    "time.monotonic() (repro.obs.trace.Timer)",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        yield self.violation(
                            ctx,
                            node,
                            "importing time.time is banned; use "
                            "time.perf_counter() or time.monotonic()",
                        )


@register
class PublicAnnotationRule(Rule):
    """RC005 — public hot-path functions are fully annotated."""

    code = "RC005"
    summary = (
        "public functions in core/, extend/, index/, analysis/, obs/ must have "
        "complete parameter and return annotations (the mypy gate is only "
        "as strong as the annotations it sees)"
    )

    def _missing(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 is_method: bool) -> list[str]:
        missing: list[str] = []
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args)
        if is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for a in positional + list(args.kwonlyargs):
            if a.annotation is None:
                missing.append(a.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if fn.returns is None:
            missing.append("return")
        return missing

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_annotation_scope:
            return

        def visit(body: list[ast.stmt], is_class: bool) -> Iterator[Violation]:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, is_class=True)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    public = not node.name.startswith("_") or node.name == "__init__"
                    if not public:
                        continue
                    missing = self._missing(node, is_method=is_class)
                    if missing:
                        yield self.violation(
                            ctx,
                            node,
                            f"public function {node.name}() is missing "
                            f"annotations for: {', '.join(missing)}",
                        )

        yield from visit(ctx.tree.body, is_class=False)


@register
class DirectClockRule(Rule):
    """RC105 — instrumented modules read the clock through ``repro.obs``."""

    code = "RC105"
    summary = (
        "direct time.perf_counter()/time.monotonic() in an obs-instrumented "
        "module (core/{pipeline,executor,supervisor,profile}.py, "
        "extend/batched.py, rasc/{host,platform}.py); route timing through "
        "repro.obs.trace (clock/Timer/span) so it lands in span and metric "
        "accounting"
    )

    #: Monotonic clock reads the rule intercepts.  ``time.time`` is already
    #: banned everywhere by RC004.
    CLOCKS: frozenset[str] = frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package_rel not in OBS_INSTRUMENTED_FILES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if (
                    name is not None
                    and name.startswith("time.")
                    and name[len("time.") :] in self.CLOCKS
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"direct {name}() in an obs-instrumented module; "
                        "use repro.obs.trace.clock()/Timer/span so the "
                        "reading lands in span and metric accounting",
                    )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and node.level == 0
            ):
                for alias in node.names:
                    if alias.name in self.CLOCKS:
                        yield self.violation(
                            ctx,
                            node,
                            f"importing time.{alias.name} into an "
                            "obs-instrumented module is banned; use "
                            "repro.obs.trace.clock()/Timer/span",
                        )


#: Package prefix RC107 covers: the long-lived service, where one wedged
#: blocking call stalls every subsequent request.
SERVE_SCOPE_PREFIX = "serve/"

#: Individual files RC107 also covers: the supervision layer the service
#: delegates every request to.  A bare ``future.result()`` there wedges
#: the dispatcher exactly as surely as one under ``serve/`` — the warm
#: pool runs these functions on the service's own threads.
BLOCKING_SCOPE_FILES = ("core/supervisor.py", "core/executor.py")


@register
class UnboundedBlockingRule(Rule):
    """RC107 — no unbounded blocking calls in the serving layer."""

    code = "RC107"
    summary = (
        "potentially-unbounded blocking call under serve/, "
        "core/supervisor.py or core/executor.py; every "
        "queue.get/put, Event.wait, Thread.join, Lock.acquire and "
        "Future.result in the service must pass timeout= (not None) or be "
        "non-blocking (block=False / blocking=False) so a stuck component "
        "degrades into a deadline miss, never a wedged thread"
    )

    #: Methods that block forever when called bare.  For all but ``put``
    #: the call is only suspicious with zero positional arguments —
    #: ``dict.get(key)``, ``str.join(parts)`` and ``Lock.acquire(False)``
    #: all carry one, a bare blocking ``queue.get()`` / ``thread.join()``
    #: / ``future.result()`` carries none.  ``put`` always takes the item
    #: positionally, so it is checked regardless.
    ZERO_ARG_METHODS: frozenset[str] = frozenset(
        {"get", "wait", "join", "acquire", "result"}
    )

    def _is_bounded(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg is None:
                return True  # **kwargs splat may forward a timeout
            if kw.arg == "timeout":
                # An explicit timeout bounds the call — unless it is the
                # literal None, which spells "block forever" out loud.
                return not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is None
                )
            if kw.arg in ("block", "blocking") and (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            ):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rel = ctx.package_rel
        if rel is None or not (
            rel.startswith(SERVE_SCOPE_PREFIX) or rel in BLOCKING_SCOPE_FILES
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method == "put":
                if not self._is_bounded(node):
                    yield self.violation(
                        ctx,
                        node,
                        ".put(...) without timeout= or block=False in the "
                        "serving layer can wedge a handler thread forever; "
                        "bound it or make it non-blocking",
                    )
            elif method in self.ZERO_ARG_METHODS:
                if node.args:
                    continue
                if not self._is_bounded(node):
                    yield self.violation(
                        ctx,
                        node,
                        f".{method}() without timeout= in the serving layer "
                        "blocks forever if the other side is stuck; pass an "
                        "explicit timeout",
                    )


#: Package prefixes RC110 covers: the long-lived service and the
#: observability layer it reports through.  CLI entry points (functions
#: named ``main``) are the one place stdout is the product.
OUTPUT_SCOPE_PREFIXES: tuple[str, ...] = ("serve/", "obs/")

#: Direct stream writes RC110 flags alongside bare ``print``.
DIRECT_STREAM_WRITES: frozenset[str] = frozenset(
    {"sys.stderr.write", "sys.stdout.write"}
)


@register
class BarePrintRule(Rule):
    """RC110 — no ad-hoc stdout/stderr output in the serving/obs layers."""

    code = "RC110"
    summary = (
        "bare print()/sys.stderr.write()/sys.stdout.write() under serve/ "
        "or obs/ outside a main() entry point; a long-lived service must "
        "report through logging, /metrics, traces or the flight recorder "
        "— stray stdout corrupts piped JSON and never reaches operators"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rel = ctx.package_rel
        if rel is None or not rel.startswith(OUTPUT_SCOPE_PREFIXES):
            return
        yield from self._scan(ctx, ctx.tree, in_main=False)

    def _scan(
        self, ctx: FileContext, node: ast.AST, in_main: bool
    ) -> Iterator[Violation]:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "main"
        ):
            # CLI entry points own their stdout: repro-serve-bench and
            # repro-serve-top exist to print.
            in_main = True
        if not in_main and isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name == "print":
                yield self.violation(
                    ctx,
                    node,
                    "bare print() in the serving/obs layer; use logging (or "
                    "the metrics/trace surface) so output reaches operators "
                    "instead of whatever stdout happens to be",
                )
            elif name in DIRECT_STREAM_WRITES:
                yield self.violation(
                    ctx,
                    node,
                    f"direct {name}() in the serving/obs layer; route "
                    "diagnostics through logging so they carry levels, "
                    "timestamps and a configurable destination",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._scan(ctx, child, in_main)
