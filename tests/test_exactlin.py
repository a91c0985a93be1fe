"""Exact linear algebra: reference-oracle comparisons and spec examples."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidrank import (
    GF,
    RATIONALS,
    AmbientMismatch,
    FieldMismatch,
    FieldSpec,
    InvalidField,
    Matrix,
    Subspace,
    contains,
    format_scalar,
    intersect,
    kernel_basis,
    parse_scalar,
    rref,
)
from braidrank import _accel
from braidrank.exactlin import vstack

F5 = GF(5)
F7 = GF(7)
BIG_PRIME = 2305843009213693951  # 2**61 - 1, the largest admissible modulus


# ---------------------------------------------------------------------------
# independent oracle: plain Fraction Gauss-Jordan, no shared code
# ---------------------------------------------------------------------------


def reference_rref(rows, field):
    """Textbook Gauss-Jordan over Fraction / residues; returns (rows, pivots)."""
    if field.is_rationals:
        grid = [[Fraction(x) for x in row] for row in rows]
        inv = lambda x: 1 / x
    else:
        p = field.p
        grid = [[int(x) % p for x in row] for row in rows]
        inv = lambda x: pow(x, -1, p)
    m = len(grid)
    n = len(grid[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if grid[i][c] != 0), None)
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        f = inv(grid[r][c])
        grid[r] = [x * f for x in grid[r]]
        if not field.is_rationals:
            grid[r] = [x % field.p for x in grid[r]]
        for i in range(m):
            if i != r and grid[i][c] != 0:
                g = grid[i][c]
                grid[i] = [a - g * b for a, b in zip(grid[i], grid[r])]
                if not field.is_rationals:
                    grid[i] = [x % field.p for x in grid[i]]
        pivots.append(c)
        r += 1
    return grid, pivots


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def small_matrix(draw, field):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_scalars(field, data), data


@settings(max_examples=120, deadline=None)
@given(small_matrix(RATIONALS))
def test_rref_matches_reference_oracle_rationals(mat_data):
    mat, data = mat_data
    red, pivots = rref(mat)
    ref, ref_piv = reference_rref(data, RATIONALS)
    assert pivots == ref_piv
    assert red.scalar_rows() == ref


@settings(max_examples=120, deadline=None)
@given(small_matrix(F5))
def test_rref_matches_reference_oracle_mod_p(mat_data):
    mat, data = mat_data
    red, pivots = rref(mat)
    ref, ref_piv = reference_rref(data, F5)
    assert pivots == ref_piv
    assert red.scalar_rows() == ref


@settings(max_examples=80, deadline=None)
@given(small_matrix(RATIONALS))
def test_rref_idempotent(mat_data):
    mat, _ = mat_data
    red, piv = rref(mat)
    red2, piv2 = rref(red)
    assert red == red2 and piv == piv2


@settings(max_examples=80, deadline=None)
@given(small_matrix(RATIONALS))
def test_rank_nullity(mat_data):
    mat, _ = mat_data
    assert mat.rank() + kernel_basis(mat).dim == mat.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix(F7))
def test_kernel_vectors_annihilate(mat_data):
    mat, _ = mat_data
    ker = kernel_basis(mat)
    if ker.dim:
        assert (mat @ ker.basis.transpose()).is_zero()


# spec examples, frozen


def test_rref_identity():
    red, piv = rref(Matrix.identity(RATIONALS, 2))
    assert red == Matrix.identity(RATIONALS, 2)
    assert piv == [0, 1]


def test_rref_zero():
    red, piv = rref(Matrix.zeros(RATIONALS, 2, 3))
    assert red == Matrix.zeros(RATIONALS, 2, 3)
    assert piv == []


def test_rref_rank_one():
    red, piv = rref(Matrix.from_scalars(RATIONALS, [[1, 2], [2, 4]]))
    assert red == Matrix.from_scalars(RATIONALS, [[1, 2], [0, 0]])
    assert piv == [0]


def test_kernel_identity_is_zero():
    assert kernel_basis(Matrix.identity(RATIONALS, 3)).dim == 0


def test_kernel_zero_map_is_full():
    ker = kernel_basis(Matrix.zeros(RATIONALS, 2, 4))
    assert ker.dim == 4
    assert ker.basis == Matrix.identity(RATIONALS, 4)


def test_kernel_rank_one():
    ker = kernel_basis(Matrix.from_scalars(RATIONALS, [[1, 2], [2, 4]]))
    assert ker.dim == 1
    # (-2, 1) normalised to leading 1
    assert ker.basis.scalar_rows() == [[Fraction(1), Fraction(-1, 2)]]


def test_intersect_examples():
    a = Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[1, 0], [0, 1]]))
    b = Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[1, 1]]))
    assert intersect(a, a) == a
    zero = Subspace.zero(RATIONALS, 2)
    assert intersect(a, zero) == zero
    assert intersect(a, b) == b


def test_contains_examples():
    zero = Subspace.zero(RATIONALS, 2)
    assert contains(zero, [0, 0])
    assert not contains(zero, [1, 0])
    line = Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[1, 2]]))
    assert contains(line, [2, 4])
    assert not contains(line, [1, 0])


@st.composite
def subspace_triple(draw):
    n = 4
    mats = []
    for _ in range(3):
        rows = draw(st.integers(1, 3))
        data = draw(
            st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=rows,
                max_size=rows,
            )
        )
        mats.append(Subspace.from_rows(Matrix.from_scalars(RATIONALS, data)))
    return mats


@settings(max_examples=60, deadline=None)
@given(subspace_triple())
def test_intersect_commutative_associative(triple):
    a, b, c = triple
    assert intersect(a, b) == intersect(b, a)
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@st.composite
def subspace_pair_mod_p(draw):
    n = 4
    mats = []
    for _ in range(2):
        rows = draw(st.integers(1, 3))
        data = draw(
            st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=rows,
                max_size=rows,
            )
        )
        mats.append(Subspace.from_rows(Matrix.from_scalars(F5, data)))
    return mats


@settings(max_examples=40, deadline=None)
@given(subspace_pair_mod_p())
def test_intersect_mod_p_is_contained_in_both(pair):
    a, b = pair
    meet = intersect(a, b)
    assert meet == intersect(b, a)
    assert meet.dim <= min(a.dim, b.dim)
    if meet.dim:
        assert a.contains_rows(meet.basis) and b.contains_rows(meet.basis)


def test_rref_huge_entries_matches_reference():
    # forces the arbitrary-precision path from the first elimination step
    big = 10**25
    data = [
        [big, 3, -7, 1, 0, 2],
        [5, -big, 2, 0, 1, 1],
        [1, 2, big, 4, -3, 0],
        [2 * big, 6, -14, 2, 0, 4],  # dependent on the first row
    ]
    red, piv = rref(Matrix.from_scalars(RATIONALS, data))
    ref, ref_piv = reference_rref(data, RATIONALS)
    assert piv == ref_piv
    assert red.scalar_rows() == ref


def test_results_are_reproducible():
    data = [[3, -1, 4, 1], [5, 9, -2, 6], [-5, 3, 5, 8]]
    mat = Matrix.from_scalars(RATIONALS, data)
    first = rref(mat)
    for _ in range(3):
        again = rref(Matrix.from_scalars(RATIONALS, data))
        assert again[0] == first[0] and again[1] == first[1]


# fields and scalars


def test_field_validation():
    with pytest.raises(InvalidField):
        FieldSpec("prime", 4)
    with pytest.raises(InvalidField):
        FieldSpec("prime", 1 << 61)
    with pytest.raises(InvalidField):
        FieldSpec("nonsense")
    assert GF(2).p == 2
    assert GF(BIG_PRIME).p == BIG_PRIME


def test_scalar_text_forms():
    assert parse_scalar("3/7", RATIONALS) == Fraction(3, 7)
    assert parse_scalar("-2", RATIONALS) == Fraction(-2)
    assert format_scalar(Fraction(6, 4), RATIONALS) == "3/2"
    assert parse_scalar("-1", F7) == 6
    assert format_scalar(12, F7) == "5"
    with pytest.raises(ValueError):
        parse_scalar("1.5", F7)


def test_big_prime_object_lane():
    f = GF(BIG_PRIME)
    mat = Matrix.from_scalars(f, [[BIG_PRIME - 1, 1], [1, BIG_PRIME - 1]])
    red, piv = rref(mat)
    ref, ref_piv = reference_rref([[BIG_PRIME - 1, 1], [1, BIG_PRIME - 1]], f)
    assert piv == ref_piv
    assert red.scalar_rows() == ref
    prod = mat @ mat
    assert prod.entry(0, 0) == ((BIG_PRIME - 1) ** 2 + 1) % BIG_PRIME


def test_field_mismatch_raises():
    a = Matrix.identity(RATIONALS, 2)
    b = Matrix.identity(F7, 2)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a @ b


def test_ambient_mismatch_raises():
    a = Subspace.full(RATIONALS, 2)
    b = Subspace.full(RATIONALS, 3)
    with pytest.raises(AmbientMismatch):
        intersect(a, b)
    with pytest.raises(AmbientMismatch):
        contains(a, [1, 0, 0])


def test_object_fallback_on_huge_entries():
    big = 10**30
    mat = Matrix.from_scalars(RATIONALS, [[big, 1], [1, big]])
    red, piv = rref(mat)
    assert piv == [0, 1]
    assert red == Matrix.identity(RATIONALS, 2)
    assert (mat @ mat).entry(0, 0) == big * big + 1


def test_exact_rule_promotes_all_operands_or_none():
    a = np.array([[3, -4]], dtype=np.int64)
    b = np.array([5], dtype=np.int64)
    kept = _accel.exact(2**63 - 1, a, b)
    assert kept[0] is a and kept[1] is b
    empty = np.zeros((0, 2), dtype=np.int64)
    # an object operand promotes the rest even at bound 0 (0 * maxabs(object))
    for bound, ops in ((2**63, (a, b)), (0, (a, b.astype(object))), (0, (empty, b.astype(object)))):
        out = _accel.exact(bound, *ops)
        assert [x.dtype for x in out] == [object] * len(ops)
        assert all(np.array_equal(x, y) for x, y in zip(out, ops))


def test_rref_promotes_in_place_once_entries_pass_limit():
    # entries start far below LIMIT and pass it only after a few pivots; in
    # the second matrix only a row denominator passes it before the last step
    cases = [
        np.random.default_rng(1).integers(-999, 1000, size=(6, 7)),
        np.array([[0, -69722, -57112, 0, 1], [63418, 0, 0, 1, -1], [30177, -1, 0, 0, 0]]),
    ]
    for num in cases:
        work, dens, pivots = _accel.rref_frac(num)
        assert _accel.maxabs(num) <= _accel.LIMIT and work.dtype == object
        obj_work, obj_dens, obj_pivots = _accel.rref_frac(num.astype(object))
        assert pivots == obj_pivots
        assert np.array_equal(work, obj_work) and np.array_equal(dens, obj_dens)
        red, piv = Matrix.build(RATIONALS, num).rref()
        ref, ref_piv = reference_rref(num.tolist(), RATIONALS)
        assert list(piv) == ref_piv and red == Matrix.from_scalars(RATIONALS, ref)


def test_rref_limit_is_inclusive():
    # after the first step row 1 is [0, -1] over den LIMIT; still int64
    top = _accel.LIMIT
    for first, dtype in ((top, np.int64), (top + 1, object)):
        work, dens, pivots = _accel.rref_frac(np.array([[first, 1], [first, 0]], dtype=np.int64))
        assert work.dtype == dtype and pivots == [0, 1]
        assert work.tolist() == [[1, 0], [0, 1]] and dens.tolist() == [1, 1]


def test_huge_scalars_on_zero_blocks():
    # a scalar operand must fit int64 even when it multiplies only zeros
    zero = Matrix.zeros(RATIONALS, 1, 2)
    tiny = Matrix.from_scalars(RATIONALS, [[Fraction(1, 10**30), 0]])
    assert zero.scale(Fraction(10**30, 7)) == zero
    assert tiny + zero == tiny and zero + tiny == tiny
    assert vstack([zero, tiny]) == Matrix.from_scalars(RATIONALS, [[0, 0], [Fraction(1, 10**30), 0]])


def test_int64_demotion_boundary():
    # object arrays demote to int64 exactly when every |entry| < 2**62
    edge = 2**62 - 1
    assert Matrix.build(RATIONALS, np.array([[edge, -edge]], dtype=object)).num.dtype == np.int64
    for big in (2**62, -(2**62)):
        assert Matrix.build(RATIONALS, np.array([[big, 1]], dtype=object)).num.dtype == object


def test_kernel_basis_on_int64_and_object_rrefs():
    big = 10**30
    for top, dtype in ((3, np.int64), (big, object)):
        mat = Matrix.from_scalars(RATIONALS, [[top, 1, 0], [0, 1, top]])
        ker = kernel_basis(mat)
        assert ker.dim == 1 and ker.basis.num.dtype == dtype
        assert (mat @ ker.basis.transpose()).is_zero()
