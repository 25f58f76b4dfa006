"""Numpy-aware dtype abstract domain (stdlib ``ast`` only).

The RC2xx kernel rules need answers to questions like "what dtype does this
array actually have?" and "does this constant fit the array's dtype?"
*without importing numpy* — the repro-check CI job runs dependency-free.
This module is the substrate: a small abstract-interpretation toolkit over
the project AST.

* :class:`AbstractValue` — what an expression may evaluate to: a numpy
  array of a known dtype, a Python scalar (with its exact value when it
  folds to one int), a dtype literal (``np.int16`` / ``np.dtype("int16")``),
  or unknown.  The lattice is flat: a join keeps only what both sides agree on.
* :class:`Evaluator` / :func:`interpret` — expression evaluation and a
  linear statement walk building local/attribute environments; branches
  and loop bodies join with the state they started from.
* :class:`DtypeAnalysis` — per-function return-value summaries, solved
  as a bounded fixpoint over the
  :class:`~repro.analysis.graph.ProjectGraph` call edges so a wrapper
  returning a project callee's array inherits that callee's dtype.

Everything is deliberately conservative: unknown stays unknown, joins of
disagreeing dtypes forget the dtype, and rules built on top must treat
"no information" as "no finding".
"""

from __future__ import annotations

import ast
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from .graph import FunctionInfo, ProjectGraph, dotted_name

__all__ = [
    "DTYPE_BOUNDS",
    "AbstractValue",
    "DtypeAnalysis",
    "Env",
    "Evaluator",
    "class_attr_env",
    "dtype_bounds",
    "interpret",
    "promote",
]

#: Integer dtype → (min, max); the stdlib stand-in for ``np.iinfo``.
DTYPE_BOUNDS: dict[str, tuple[int, int]] = {
    "bool": (0, 1),
    "int8": (-(1 << 7), (1 << 7) - 1),
    "int16": (-(1 << 15), (1 << 15) - 1),
    "int32": (-(1 << 31), (1 << 31) - 1),
    "int64": (-(1 << 63), (1 << 63) - 1),
    "uint8": (0, (1 << 8) - 1),
    "uint16": (0, (1 << 16) - 1),
    "uint32": (0, (1 << 32) - 1),
    "uint64": (0, (1 << 64) - 1),
}

_SIGNED = ("int8", "int16", "int32", "int64")
_UNSIGNED = ("uint8", "uint16", "uint32", "uint64")
_FLOATS = ("float16", "float32", "float64")

#: Names accepted as dtype literals in ``np.<name>`` / ``dtype="<name>"``.
_DTYPE_NAMES = frozenset(DTYPE_BOUNDS) | set(_FLOATS) | {"intp", "float_"}

_DTYPE_CANON = {"intp": "int64", "float_": "float64"}


def dtype_bounds(name: str) -> tuple[int, int] | None:
    """(min, max) of an integer dtype name, ``None`` for floats/unknown."""
    return DTYPE_BOUNDS.get(_DTYPE_CANON.get(name, name))


def _bits(name: str) -> int:
    return int("".join(ch for ch in name if ch.isdigit()) or 64)


def promote(a: str, b: str) -> str | None:
    """Result dtype of combining two numpy dtypes (NEP-50 style).

    Returns ``None`` when the promotion is outside the modelled table
    (callers must treat that as unknown, never as "same dtype").
    """
    a, b = _DTYPE_CANON.get(a, a), _DTYPE_CANON.get(b, b)
    if a == b:
        return a
    if a == "bool":
        return b if b in DTYPE_BOUNDS or b in _FLOATS else None
    if b == "bool":
        return a if a in DTYPE_BOUNDS or a in _FLOATS else None
    if a in _FLOATS or b in _FLOATS:
        if a in _FLOATS and b in _FLOATS:
            return a if _bits(a) >= _bits(b) else b
        flt = a if a in _FLOATS else b
        return flt if _bits(flt) >= 32 else "float32"
    if a in _SIGNED and b in _SIGNED:
        return a if _bits(a) >= _bits(b) else b
    if a in _UNSIGNED and b in _UNSIGNED:
        return a if _bits(a) >= _bits(b) else b
    if {a, b} <= set(_SIGNED) | set(_UNSIGNED):
        signed, unsigned = (a, b) if a in _SIGNED else (b, a)
        if _bits(signed) > _bits(unsigned):
            return signed
        wider = f"int{_bits(unsigned) * 2}"
        return wider if wider in _SIGNED else "float64"
    return None


@dataclass(frozen=True)
class AbstractValue:
    """What one expression may evaluate to.

    ``kind`` is one of ``"array"`` (a numpy array of dtype ``dtype``),
    ``"scalar"`` (a Python int/float/bool; ``dtype`` is ``None``),
    ``"dtype"`` (a dtype *literal* such as ``np.int16``), or ``"unknown"``.
    ``const`` is a scalar's exact value when the expression folds to one
    int, else ``None``.
    """

    kind: str = "unknown"
    dtype: str | None = None
    const: int | None = None

    @staticmethod
    def unknown() -> AbstractValue:
        """The no-information element (lattice top)."""
        return _UNKNOWN

    @staticmethod
    def scalar(const: int | None = None) -> AbstractValue:
        """A Python scalar, with its exact int value when known."""
        return AbstractValue(kind="scalar", const=const)

    @staticmethod
    def array(dtype: str | None) -> AbstractValue:
        """A numpy array of the given dtype."""
        return AbstractValue(kind="array", dtype=dtype)

    @staticmethod
    def dtype_literal(name: str) -> AbstractValue:
        """A dtype object/scalar-type literal."""
        return AbstractValue(kind="dtype", dtype=name)

    @property
    def is_unknown(self) -> bool:
        """True for the no-information element."""
        return self.kind == "unknown"

    def join(self, other: AbstractValue) -> AbstractValue:
        """Least upper bound; disagreeing kinds/dtypes/constants forget themselves."""
        if self.is_unknown or other.is_unknown or self.kind != other.kind:
            return _UNKNOWN
        return AbstractValue(
            kind=self.kind,
            dtype=self.dtype if self.dtype == other.dtype else None,
            const=self.const if self.const == other.const else None,
        )


_UNKNOWN = AbstractValue()

#: Environment: local names plus dotted ``self.attr`` pseudo-names.
Env = dict[str, AbstractValue]

#: Operators whose result constant-folds from two known int constants.
_FOLD_OPS: dict[type[ast.operator], Callable[[int, int], int]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
}

#: Binary ufuncs whose ``out=`` argument fixes the result dtype, with the
#: operator they constant-fold like (``None``: never folds).
_BINARY_UFUNCS: dict[str, Callable[[int, int], int] | None] = {
    "add": operator.add,
    "subtract": operator.sub,
    "multiply": operator.mul,
    "maximum": None,
    "minimum": None,
}


def _np_attr_dtype(raw: str | None) -> str | None:
    """``np.int16`` / ``numpy.float64`` → dtype name, else ``None``."""
    if raw is None or "." not in raw:
        return None
    head, _, leaf = raw.rpartition(".")
    if head in ("np", "numpy") and leaf in _DTYPE_NAMES:
        return _DTYPE_CANON.get(leaf, leaf)
    return None


def _fold(
    fn: Callable[[int, int], int] | None, left: AbstractValue, right: AbstractValue
) -> int | None:
    """``fn(left, right)`` when both operands are known int constants."""
    if fn is None or left.const is None or right.const is None:
        return None
    return fn(left.const, right.const)


class Evaluator:
    """Evaluates expressions to :class:`AbstractValue` under an ``Env``.

    ``callee_summary`` (when given) maps a call node to the return-value
    summary of the project function it resolves to, making the evaluation
    interprocedural; without it project calls are unknown.
    """

    def __init__(
        self,
        env: Env,
        callee_summary: Callable[[ast.Call], AbstractValue | None] | None = None,
    ) -> None:
        self.env = env
        self.callee_summary = callee_summary

    # -- dtype expressions ---------------------------------------------
    def dtype_of(self, node: ast.expr) -> str | None:
        """Resolve an expression *denoting a dtype* to a dtype name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
            return _DTYPE_CANON.get(name, name) if name in _DTYPE_NAMES else None
        raw = dotted_name(node)
        literal = _np_attr_dtype(raw)
        if literal is not None:
            return literal
        if raw is not None:
            bound = self.env.get(raw)
            if bound is not None and bound.kind == "dtype":
                return bound.dtype
        if isinstance(node, ast.Call):
            fn = dotted_name(node.func)
            if fn is not None and fn.rpartition(".")[2] == "dtype" and node.args:
                return self.dtype_of(node.args[0])
        return None

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.expr) -> AbstractValue:
        """Abstract value of one expression."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):  # bool included
                return AbstractValue.scalar(int(node.value))
            if isinstance(node.value, float):
                return AbstractValue.scalar()
            return _UNKNOWN
        if isinstance(node, (ast.Name, ast.Attribute)):
            raw = dotted_name(node)
            if raw is None:
                return _UNKNOWN
            literal = _np_attr_dtype(raw)
            if literal is not None:
                return AbstractValue.dtype_literal(literal)
            return self.env.get(raw, _UNKNOWN)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.eval(node.operand)
            if inner.const is None:
                return inner
            return replace(inner, const=-inner.const)
        if isinstance(node, ast.BinOp):
            left, right = self.eval(node.left), self.eval(node.right)
            const = _fold(_FOLD_OPS.get(type(node.op)), left, right)
            return self._combine(left, right, const)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            if base.kind == "array":
                return base  # slicing/indexing preserves dtype
            return _UNKNOWN
        if isinstance(node, ast.IfExp):
            return self.eval(node.body).join(self.eval(node.orelse))
        if isinstance(node, ast.Compare):
            return AbstractValue.scalar()
        return _UNKNOWN

    @staticmethod
    def _combine(
        left: AbstractValue, right: AbstractValue, const: int | None
    ) -> AbstractValue:
        """Result of an arithmetic combination (NEP-50 dtype semantics)."""
        kinds = {left.kind, right.kind}
        if "array" in kinds:
            if left.kind == right.kind == "array":
                if left.dtype is None or right.dtype is None:
                    return AbstractValue.array(None)
                return AbstractValue.array(promote(left.dtype, right.dtype))
            # Python scalars do not promote the array dtype (NEP 50).
            return AbstractValue.array(left.dtype if left.kind == "array" else right.dtype)
        if kinds == {"scalar"}:
            return AbstractValue.scalar(const)
        return _UNKNOWN

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        raw = dotted_name(node.func)
        if raw is None:
            return _UNKNOWN
        head, _, leaf = raw.rpartition(".")
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if head in ("np", "numpy"):
            return self._eval_numpy_call(node, leaf, kwargs)
        if leaf == "astype" and head:
            target = None
            if node.args:
                target = self.dtype_of(node.args[0])
            elif "dtype" in kwargs:
                target = self.dtype_of(kwargs["dtype"])
            return AbstractValue.array(target)
        if raw in ("int", "abs", "len", "min", "max", "sum", "round"):
            return AbstractValue.scalar()
        if self.callee_summary is not None:
            summary = self.callee_summary(node)
            if summary is not None:
                return summary
        return _UNKNOWN

    def _eval_numpy_call(
        self, node: ast.Call, leaf: str, kwargs: dict[str, ast.expr]
    ) -> AbstractValue:
        dtype: str | None = None
        if "dtype" in kwargs:
            dtype = self.dtype_of(kwargs["dtype"])
        if leaf == "dtype" and node.args:
            name = self.dtype_of(node.args[0])
            return (
                AbstractValue.dtype_literal(name) if name else _UNKNOWN
            )
        if leaf in ("zeros", "zeros_like", "ones", "ones_like", "empty", "empty_like"):
            return AbstractValue.array(dtype or "float64")
        if leaf == "full":
            return AbstractValue.array(dtype)
        if leaf == "arange":
            return AbstractValue.array(dtype or "int64")
        if leaf in ("asarray", "array", "ascontiguousarray"):
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            if dtype is None and source.kind == "array":
                dtype = source.dtype
            return AbstractValue.array(dtype)
        if leaf in ("abs", "absolute"):
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            return replace(source, const=None)
        if leaf == "take":
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            result = source if source.kind == "array" else _UNKNOWN
            return self._through_out(kwargs, result)
        if leaf in _BINARY_UFUNCS:
            left = self.eval(node.args[0]) if node.args else _UNKNOWN
            right = self.eval(node.args[1]) if len(node.args) > 1 else _UNKNOWN
            if dtype is not None:
                result = AbstractValue.array(dtype)
            else:
                const = _fold(_BINARY_UFUNCS[leaf], left, right)
                result = self._combine(left, right, const)
            return self._through_out(kwargs, result)
        return _UNKNOWN

    def _through_out(
        self, kwargs: dict[str, ast.expr], computed: AbstractValue
    ) -> AbstractValue:
        """``out=`` fixes the result dtype."""
        out = kwargs.get("out")
        if out is None:
            return computed
        target = self.eval(out)
        if target.kind == "array" and target.dtype is not None:
            return AbstractValue.array(target.dtype)
        return computed


def _assign_target_key(node: ast.expr) -> str | None:
    """Env key of an assignment target (``x`` or dotted ``self.attr``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node)
    return None


def _join_envs(a: Env, b: Env) -> Env:
    """Pointwise join; names bound on one side only become unknown."""
    out: Env = {}
    for key in set(a) | set(b):
        va, vb = a.get(key), b.get(key)
        out[key] = va.join(vb) if va is not None and vb is not None else _UNKNOWN
    return out


def interpret(
    body: Iterable[ast.stmt],
    env: Env,
    callee_summary: Callable[[ast.Call], AbstractValue | None] | None = None,
    returns: list[AbstractValue] | None = None,
) -> Env:
    """Linear abstract interpretation of a statement list.

    Mutates and returns *env*.  Branch arms are interpreted on copies and
    joined; loop bodies are interpreted once and joined with the pre-state
    (enough precision for dtype questions, and trivially terminating).
    Return-expression values are appended to *returns*.
    """
    ev = Evaluator(env, callee_summary)
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            key = _assign_target_key(stmt.targets[0])
            if key is not None:
                env[key] = ev.eval(stmt.value)
            elif isinstance(stmt.targets[0], (ast.Tuple, ast.List)):
                for elt in stmt.targets[0].elts:
                    k = _assign_target_key(elt)
                    if k is not None:
                        env[k] = _UNKNOWN
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            key = _assign_target_key(stmt.target)
            if key is not None:
                env[key] = ev.eval(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            key = _assign_target_key(stmt.target)
            if key is not None:
                current = env.get(key, _UNKNOWN)
                delta = ev.eval(stmt.value)
                const = _fold(_FOLD_OPS.get(type(stmt.op)), current, delta)
                updated = Evaluator._combine(current, delta, const)
                env[key] = current.join(updated)
        elif isinstance(stmt, ast.If):
            then_env = dict(env)
            else_env = dict(env)
            interpret(stmt.body, then_env, callee_summary, returns)
            interpret(stmt.orelse, else_env, callee_summary, returns)
            env.clear()
            env.update(_join_envs(then_env, else_env))
            ev = Evaluator(env, callee_summary)
        elif isinstance(stmt, (ast.For, ast.While)):
            before = dict(env)
            if isinstance(stmt, ast.For):
                key = _assign_target_key(stmt.target)
                if key is not None:
                    env[key] = _UNKNOWN
            interpret(stmt.body, env, callee_summary, returns)
            interpret(stmt.orelse, env, callee_summary, returns)
            joined = _join_envs(before, env)
            env.clear()
            env.update(joined)
            ev = Evaluator(env, callee_summary)
        elif isinstance(stmt, ast.With):
            interpret(stmt.body, env, callee_summary, returns)
            ev = Evaluator(env, callee_summary)
        elif isinstance(stmt, ast.Try):
            interpret(stmt.body, env, callee_summary, returns)
            for handler in stmt.handlers:
                interpret(handler.body, dict(env), callee_summary, returns)
            interpret(stmt.finalbody, env, callee_summary, returns)
            ev = Evaluator(env, callee_summary)
        elif isinstance(stmt, ast.Return):
            if returns is not None and stmt.value is not None:
                returns.append(ev.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            # Evaluate for ``out=`` effects on already-bound names: the
            # value itself is discarded but a ufunc writing into ``out``
            # does not change that target's dtype, so nothing to update.
            ev.eval(stmt.value)
    return env


@dataclass
class FunctionDtypes:
    """Dtype summary of one project function."""

    #: Join of all return-expression values (unknown when opaque).
    returns: AbstractValue = field(default_factory=AbstractValue.unknown)


class DtypeAnalysis:
    """Whole-project dtype summaries over the call graph.

    A bounded fixpoint in the :mod:`repro.analysis.flows` mold: each pass
    re-interprets every function with the callee summaries of the previous
    pass, so return dtypes flow through wrappers.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, FunctionDtypes] = {}
        self._solve()

    def _solve(self) -> None:
        functions = list(self.graph.functions.values())
        for _ in range(3):  # summaries stabilise in ≤ depth-of-wrapping passes
            changed = False
            for info in functions:
                summary = self._summarise(info)
                previous = self.summaries.get(info.qualname)
                if previous is None or previous != summary:
                    self.summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break

    def _callee_summary_fn(
        self, info: FunctionInfo
    ) -> Callable[[ast.Call], AbstractValue | None]:
        by_node = {id(site.node): site.callee for site in info.calls}

        def lookup(node: ast.Call) -> AbstractValue | None:
            callee = by_node.get(id(node))
            if callee is None:
                return None
            summary = self.summaries.get(callee)
            if summary is None or summary.returns.is_unknown:
                return None
            return summary.returns

        return lookup

    def _summarise(self, info: FunctionInfo) -> FunctionDtypes:
        env = self.seed_env(info)
        returns: list[AbstractValue] = []
        lookup = self._callee_summary_fn(info)
        interpret(list(info.node.body), env, lookup, returns)
        joined = AbstractValue.unknown()
        if returns:
            joined = returns[0]
            for value in returns[1:]:
                joined = joined.join(value)
        return FunctionDtypes(returns=joined)

    def seed_env(self, info: FunctionInfo) -> Env:
        """Initial environment of a function (parameters are unknown)."""
        del info
        return {}


def class_attr_env(graph: ProjectGraph, class_prefix: str) -> Env:
    """``self.attr`` environment of one class.

    Interprets ``__init__`` first (its parameters unknown), then every
    other method with the accumulated ``self.*`` bindings, and repeats
    once so attributes defined across methods (``_ensure`` reassigning
    scratch that ``__init__`` created) stabilise.  Returns only the dotted
    ``self.*`` entries.
    """
    scope, _, cls = class_prefix.rpartition(".")
    mod = graph.modules.get(scope)
    if mod is None or cls not in mod.classes:
        return {}
    methods = [
        graph.functions[qual]
        for qual in mod.classes[cls].values()
        if qual in graph.functions
    ]
    methods.sort(key=lambda m: (m.name != "__init__", m.name))
    attrs: Env = {}
    for _ in range(2):
        for info in methods:
            env: Env = dict(attrs)
            interpret(list(info.node.body), env, None, None)
            for key, value in env.items():
                if key.startswith("self."):
                    attrs[key] = value
    return attrs
