"""Numpy-aware dtype / value-range abstract domain (stdlib ``ast`` only).

The RC2xx kernel rules need answers to questions like "what dtype does this
array actually have?" and "does this constant fit the array's dtype?"
*without importing numpy* — the repro-check CI job runs dependency-free.
This module is the substrate: a small abstract-interpretation toolkit over
the project AST.

* :class:`ValueRange` — an integer interval lattice (``None`` bounds are
  ±∞) with ``join`` (least upper bound) and ``widen`` (the classic
  interval widening: any bound that moved goes straight to infinity, so
  fixpoints terminate).
* :class:`AbstractValue` — what an expression may evaluate to: a numpy
  array of a known dtype, a Python scalar, a dtype literal
  (``np.int16`` / ``np.dtype("int16")``), or unknown.
* :class:`Evaluator` / :func:`interpret` — expression evaluation and a
  linear statement walk building local/attribute environments; branches
  join, loop bodies widen against the pre-state.
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
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from .graph import FunctionInfo, ProjectGraph, dotted_name

__all__ = [
    "DTYPE_BOUNDS",
    "AbstractValue",
    "DtypeAnalysis",
    "Env",
    "Evaluator",
    "ValueRange",
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
class ValueRange:
    """Closed integer interval; a ``None`` bound means ±∞."""

    lo: int | None = None
    hi: int | None = None

    @staticmethod
    def const(value: int) -> ValueRange:
        """Singleton interval ``[value, value]``."""
        return ValueRange(value, value)

    @property
    def is_top(self) -> bool:
        """True for the unbounded interval."""
        return self.lo is None and self.hi is None

    def contains(self, other: ValueRange) -> bool:
        """Interval inclusion (the lattice partial order)."""
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def join(self, other: ValueRange) -> ValueRange:
        """Least upper bound: the convex hull of the two intervals."""
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return ValueRange(lo, hi)

    def widen(self, other: ValueRange) -> ValueRange:
        """Classic interval widening: a bound that moved jumps to ∞.

        ``a.widen(b)`` over-approximates ``a.join(b)`` and guarantees any
        ascending chain ``a, a.widen(b1), a.widen(b1).widen(b2), ...``
        stabilises after at most two steps per side.
        """
        lo = self.lo if (
            self.lo is not None and other.lo is not None and other.lo >= self.lo
        ) else None
        hi = self.hi if (
            self.hi is not None and other.hi is not None and other.hi <= self.hi
        ) else None
        return ValueRange(lo, hi)

    def clip(self, bounds: tuple[int, int]) -> ValueRange:
        """Intersect with dtype bounds (the effect of a cast that fits)."""
        lo, hi = bounds
        new_lo = lo if self.lo is None else max(self.lo, lo)
        new_hi = hi if self.hi is None else min(self.hi, hi)
        if new_lo > new_hi:  # disjoint: the cast wraps — give up precisely
            return ValueRange(lo, hi)
        return ValueRange(new_lo, new_hi)

    # -- interval arithmetic -------------------------------------------
    def add(self, other: ValueRange) -> ValueRange:
        """Interval sum."""
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return ValueRange(lo, hi)

    def sub(self, other: ValueRange) -> ValueRange:
        """Interval difference."""
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return ValueRange(lo, hi)

    def neg(self) -> ValueRange:
        """Interval negation."""
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return ValueRange(lo, hi)

    def mul(self, other: ValueRange) -> ValueRange:
        """Interval product (unbounded if any corner is unbounded)."""
        if None in (self.lo, self.hi, other.lo, other.hi):
            return TOP_RANGE
        assert self.lo is not None and self.hi is not None
        assert other.lo is not None and other.hi is not None
        corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return ValueRange(min(corners), max(corners))

    def abs(self) -> ValueRange:
        """Interval absolute value."""
        if self.lo is not None and self.lo >= 0:
            return self
        if self.hi is not None and self.hi <= 0:
            return self.neg()
        hi = (
            None
            if self.lo is None or self.hi is None
            else max(abs(self.lo), abs(self.hi))
        )
        return ValueRange(0, hi)

    def max_abs(self) -> int | None:
        """Largest magnitude in the interval, ``None`` if unbounded."""
        r = self.abs()
        return r.hi


#: The unbounded interval (lattice top).
TOP_RANGE = ValueRange(None, None)


@dataclass(frozen=True)
class AbstractValue:
    """What one expression may evaluate to.

    ``kind`` is one of ``"array"`` (a numpy array of dtype ``dtype``),
    ``"scalar"`` (a Python int/float/bool; ``dtype`` is ``None``),
    ``"dtype"`` (a dtype *literal* such as ``np.int16``), or ``"unknown"``.
    """

    kind: str = "unknown"
    dtype: str | None = None
    range: ValueRange = TOP_RANGE

    @staticmethod
    def unknown() -> AbstractValue:
        """The no-information element (lattice top)."""
        return _UNKNOWN

    @staticmethod
    def scalar(rng: ValueRange = TOP_RANGE) -> AbstractValue:
        """A Python scalar with the given range."""
        return AbstractValue(kind="scalar", range=rng)

    @staticmethod
    def array(dtype: str | None, rng: ValueRange = TOP_RANGE) -> AbstractValue:
        """A numpy array of the given dtype/range."""
        return AbstractValue(kind="array", dtype=dtype, range=rng)

    @staticmethod
    def dtype_literal(name: str) -> AbstractValue:
        """A dtype object/scalar-type literal."""
        return AbstractValue(kind="dtype", dtype=name)

    @property
    def is_unknown(self) -> bool:
        """True for the no-information element."""
        return self.kind == "unknown"

    def join(self, other: AbstractValue) -> AbstractValue:
        """Least upper bound; disagreeing kinds/dtypes forget themselves."""
        if self.is_unknown or other.is_unknown:
            return _UNKNOWN
        if self.kind != other.kind:
            return _UNKNOWN
        dtype = self.dtype if self.dtype == other.dtype else None
        return AbstractValue(
            kind=self.kind, dtype=dtype, range=self.range.join(other.range)
        )

    def widen(self, other: AbstractValue) -> AbstractValue:
        """Widening counterpart of :meth:`join` (ranges widen, rest joins)."""
        joined = self.join(other)
        if joined.is_unknown:
            return joined
        return replace(joined, range=self.range.widen(other.range))


_UNKNOWN = AbstractValue()

#: Environment: local names plus dotted ``self.attr`` pseudo-names.
Env = dict[str, AbstractValue]

#: Binary ufuncs whose ``out=`` argument fixes the result dtype.
_BINARY_UFUNCS = {
    "add": "add",
    "subtract": "sub",
    "multiply": "mul",
    "maximum": "max",
    "minimum": "min",
}

#: Array constructors RC002 also knows about, with their value ranges.
_CONSTRUCTOR_FUNCS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "zeros_like", "empty_like"}
)


def _np_attr_dtype(raw: str | None) -> str | None:
    """``np.int16`` / ``numpy.float64`` → dtype name, else ``None``."""
    if raw is None or "." not in raw:
        return None
    head, _, leaf = raw.rpartition(".")
    if head in ("np", "numpy") and leaf in _DTYPE_NAMES:
        return _DTYPE_CANON.get(leaf, leaf)
    return None


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
            if isinstance(node.value, bool):
                return AbstractValue.scalar(ValueRange.const(int(node.value)))
            if isinstance(node.value, int):
                return AbstractValue.scalar(ValueRange.const(node.value))
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
            return replace(inner, range=inner.range.neg())
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            if base.kind == "array":
                return base  # slicing/indexing preserves dtype and range
            return _UNKNOWN
        if isinstance(node, ast.IfExp):
            return self.eval(node.body).join(self.eval(node.orelse))
        if isinstance(node, ast.Compare):
            return AbstractValue.scalar(ValueRange(0, 1))
        return _UNKNOWN

    def _eval_binop(self, node: ast.BinOp) -> AbstractValue:
        left, right = self.eval(node.left), self.eval(node.right)
        if isinstance(node.op, ast.Add):
            rng = left.range.add(right.range)
        elif isinstance(node.op, ast.Sub):
            rng = left.range.sub(right.range)
        elif isinstance(node.op, ast.Mult):
            rng = left.range.mul(right.range)
        else:
            rng = TOP_RANGE
        return self._combine(left, right, rng)

    @staticmethod
    def _combine(
        left: AbstractValue, right: AbstractValue, rng: ValueRange
    ) -> AbstractValue:
        """Result of an arithmetic combination (NEP-50 dtype semantics)."""
        kinds = {left.kind, right.kind}
        if "array" in kinds:
            if left.kind == right.kind == "array":
                if left.dtype is None or right.dtype is None:
                    dtype = None
                else:
                    dtype = promote(left.dtype, right.dtype)
            else:
                arr = left if left.kind == "array" else right
                # Python scalars do not promote the array dtype (NEP 50);
                # the value simply wraps into it, so clip the range.
                dtype = arr.dtype
            if dtype is not None:
                bounds = dtype_bounds(dtype)
                if bounds is not None:
                    rng = rng.clip(bounds)
            return AbstractValue.array(dtype, rng)
        if kinds == {"scalar"}:
            return AbstractValue.scalar(rng)
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
            source = self.eval(node.func.value) if isinstance(
                node.func, ast.Attribute
            ) else _UNKNOWN
            target = None
            if node.args:
                target = self.dtype_of(node.args[0])
            elif "dtype" in kwargs:
                target = self.dtype_of(kwargs["dtype"])
            if target is None:
                return AbstractValue.array(None)
            bounds = dtype_bounds(target)
            rng = source.range.clip(bounds) if bounds else TOP_RANGE
            return AbstractValue.array(target, rng)
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
        if leaf in ("zeros", "zeros_like"):
            return AbstractValue.array(dtype or "float64", ValueRange.const(0))
        if leaf in ("ones", "ones_like"):
            return AbstractValue.array(dtype or "float64", ValueRange.const(1))
        if leaf in ("empty", "empty_like"):
            dt = dtype or "float64"
            bounds = dtype_bounds(dt)
            rng = ValueRange(*bounds) if bounds else TOP_RANGE
            return AbstractValue.array(dt, rng)
        if leaf == "full":
            fill = self.eval(node.args[1]) if len(node.args) > 1 else _UNKNOWN
            return AbstractValue.array(dtype, fill.range)
        if leaf == "arange":
            stop = self.eval(node.args[0]) if len(node.args) == 1 else _UNKNOWN
            hi = None if stop.range.hi is None else max(0, stop.range.hi - 1)
            return AbstractValue.array(dtype or "int64", ValueRange(0, hi))
        if leaf in ("asarray", "array", "ascontiguousarray"):
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            if dtype is None:
                dtype = source.dtype if source.kind == "array" else None
            bounds = dtype_bounds(dtype) if dtype else None
            rng = source.range.clip(bounds) if bounds else source.range
            return AbstractValue.array(dtype, rng)
        if leaf in ("abs", "absolute"):
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            return replace(source, range=source.range.abs())
        if leaf == "take":
            source = self.eval(node.args[0]) if node.args else _UNKNOWN
            result = source if source.kind == "array" else _UNKNOWN
            return self._through_out(node, kwargs, result)
        if leaf in _BINARY_UFUNCS:
            left = self.eval(node.args[0]) if node.args else _UNKNOWN
            right = self.eval(node.args[1]) if len(node.args) > 1 else _UNKNOWN
            op = _BINARY_UFUNCS[leaf]
            if op == "add":
                rng = left.range.add(right.range)
            elif op == "sub":
                rng = left.range.sub(right.range)
            elif op == "mul":
                rng = left.range.mul(right.range)
            elif op == "max":
                rng = ValueRange(
                    None
                    if left.range.lo is None or right.range.lo is None
                    else max(left.range.lo, right.range.lo),
                    None
                    if left.range.hi is None or right.range.hi is None
                    else max(left.range.hi, right.range.hi),
                )
            else:  # min
                rng = ValueRange(
                    None
                    if left.range.lo is None or right.range.lo is None
                    else min(left.range.lo, right.range.lo),
                    None
                    if left.range.hi is None or right.range.hi is None
                    else min(left.range.hi, right.range.hi),
                )
            explicit = self.dtype_of(kwargs["dtype"]) if "dtype" in kwargs else None
            result = self._combine(left, right, rng)
            if explicit is not None:
                bounds = dtype_bounds(explicit)
                rng2 = rng.clip(bounds) if bounds else rng
                result = AbstractValue.array(explicit, rng2)
            return self._through_out(node, kwargs, result)
        return _UNKNOWN

    def _through_out(
        self,
        node: ast.Call,
        kwargs: dict[str, ast.expr],
        computed: AbstractValue,
    ) -> AbstractValue:
        """``out=`` fixes the result dtype; the value range is the computed one."""
        out = kwargs.get("out")
        if out is None:
            return computed
        target = self.eval(out)
        if target.kind == "array" and target.dtype is not None:
            bounds = dtype_bounds(target.dtype)
            rng = computed.range.clip(bounds) if bounds else computed.range
            return AbstractValue.array(target.dtype, rng)
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


def _widen_envs(before: Env, after: Env) -> Env:
    """Pointwise widening of *after* against the loop pre-state."""
    out: Env = {}
    for key in set(before) | set(after):
        vb, va = before.get(key), after.get(key)
        if vb is None or va is None:
            out[key] = _UNKNOWN
        else:
            out[key] = vb.widen(va)
    return out


def interpret(
    body: Iterable[ast.stmt],
    env: Env,
    callee_summary: Callable[[ast.Call], AbstractValue | None] | None = None,
    returns: list[AbstractValue] | None = None,
) -> Env:
    """Linear abstract interpretation of a statement list.

    Mutates and returns *env*.  Branch arms are interpreted on copies and
    joined; loop bodies are interpreted once and widened against the
    pre-state (enough precision for dtype questions, and trivially
    terminating).  Return-expression values are appended to *returns*.
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
                if isinstance(stmt.op, ast.Add):
                    rng = current.range.add(delta.range)
                elif isinstance(stmt.op, ast.Sub):
                    rng = current.range.sub(delta.range)
                else:
                    rng = TOP_RANGE
                updated = Evaluator._combine(current, delta, rng)
                env[key] = current.widen(updated)
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
            widened = _widen_envs(before, env)
            env.clear()
            env.update(widened)
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
