"""Property-based tests (hypothesis) on the flat dtype lattice.

The RC2xx kernel rules read an :class:`AbstractValue`'s dtype and exact
constant.  These pin what they rely on: ``join`` is a least upper bound
that keeps only what both sides agree on (unknown absorbs), constant
folding is exact, and the NEP-50 ``promote`` table is symmetric.
"""

import ast
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dtypes import (
    DTYPE_BOUNDS,
    AbstractValue,
    Evaluator,
    dtype_bounds,
    promote,
)

dtypes = st.sampled_from(sorted(DTYPE_BOUNDS) + ["float32", "float64"])
# A narrow constant pool so equal constants are drawn often.
consts = st.integers(-3, 3)
wide = st.integers(-(1 << 40), 1 << 40)

values = st.one_of(
    st.just(AbstractValue.unknown()),
    st.one_of(st.none(), dtypes).map(AbstractValue.array),
    st.one_of(st.none(), consts).map(AbstractValue.scalar),
    dtypes.map(AbstractValue.dtype_literal),
)

HYPO = settings(max_examples=200, deadline=None)


def fold(source):
    return Evaluator({}).eval(ast.parse(source, mode="eval").body)


class TestJoin:
    @given(values, values)
    @HYPO
    def test_join_is_upper_bound_and_commutative(self, a, b):
        j = a.join(b)
        assert a.join(j) == j
        assert b.join(j) == j
        assert j == b.join(a)

    @given(values)
    @HYPO
    def test_join_is_idempotent(self, a):
        assert a.join(a) == a

    @given(values, values, values)
    @HYPO
    def test_join_is_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(values, values)
    @HYPO
    def test_top_absorbs(self, a, b):
        top = AbstractValue.unknown()
        assert a.join(top) == top
        # Top lies above every join too: (a ⊔ b) ⊔ top == top.
        assert a.join(b).join(top) == top


class TestArithmeticSoundness:
    """Folding an expression of int literals yields its exact value."""

    @given(wide, wide)
    @HYPO
    def test_add_sub_mul(self, x, y):
        assert fold(f"({x}) + ({y})").const == x + y
        assert fold(f"({x}) - ({y})").const == x - y
        assert fold(f"({x}) * ({y})").const == x * y

    @given(wide)
    @HYPO
    def test_neg_and_abs(self, x):
        assert fold(f"-({x})").const == -x
        # Folding stops at + - * and unary minus: abs is a scalar of
        # unknown value, whichever spelling.
        assert fold(f"abs({x})") == AbstractValue.scalar()
        assert fold(f"np.abs({x})") == AbstractValue.scalar()


class TestAbstractValue:
    @given(dtypes)
    @HYPO
    def test_same_dtype_is_kept(self, name):
        assert AbstractValue.array(name).join(AbstractValue.array(name)) == (
            AbstractValue.array(name)
        )

    @given(dtypes, dtypes)
    @HYPO
    def test_dtype_mismatch_forgets_dtype(self, a, b):
        j = AbstractValue.array(a).join(AbstractValue.array(b))
        assert j.kind == "array"
        assert j.dtype == (a if a == b else None)

    @given(values)
    @HYPO
    def test_unknown_absorbs(self, a):
        assert a.join(AbstractValue.unknown()).is_unknown
        assert AbstractValue.unknown().join(a).is_unknown

    @given(consts, consts)
    @HYPO
    def test_equal_constants_kept_different_forgotten(self, a, b):
        j = AbstractValue.scalar(a).join(AbstractValue.scalar(b))
        assert j.kind == "scalar"
        assert j.const == (a if a == b else None)


def test_promote_is_symmetric_and_total_on_table():
    names = sorted(DTYPE_BOUNDS) + ["float32", "float64"]
    for a, b in itertools.product(names, names):
        assert promote(a, b) == promote(b, a)
        if a == b:
            assert promote(a, b) == a


def test_promotion_result_contains_both_integer_ranges():
    ints = [n for n in DTYPE_BOUNDS if n != "bool"]
    for a, b in itertools.product(ints, ints):
        out = promote(a, b)
        assert out is not None
        out_bounds = dtype_bounds(out)
        if out_bounds is None:
            # Mixed signedness with no common signed container promotes
            # to float64 (NEP 50): int64/uint64 is the only such pair.
            assert out == "float64"
            continue
        for name in (a, b):
            lo, hi = dtype_bounds(name)
            assert out_bounds[0] <= lo and hi <= out_bounds[1]
