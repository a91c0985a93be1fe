"""Exact linear algebra: reference-oracle comparisons and spec examples."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from braidrank.bialgebra import GradedSubspace, _class_rows, _split
from braidrank.braiding import WeightClasses
from braidrank.exactlin import _BUILD, _rref_basis, kernel_rows, vstack

F5 = GF(5)
F7 = GF(7)
BIG_PRIME = 2305843009213693951  # 2**61 - 1, the largest admissible modulus
# p**2 < 2**63: the F_p kernels run this prime above 2**31 in int64
INT64_LANE_PRIME = 2147483659


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
# entries whose products in one pivot step come near 2**63 from the first
# pivot, or that are stored as object arrays from the start
HUGE_ENTRIES = st.sampled_from([2_000_000_000, 2_000_000_001, 10**20]).flatmap(
    lambda x: st.sampled_from([x, -x])
)
matrix_entries = st.one_of(small_entries, small_entries, HUGE_ENTRIES)
# entries on either side of 2**62, where storage turns into object dtype
NEAR_INT64_STORE = st.integers(2**62 - 3, 2**62 + 3).flatmap(lambda x: st.sampled_from([x, -x]))
BIG_PRIME_FIELD = GF(BIG_PRIME)


def entry_grid(rows, cols):
    return st.lists(st.lists(matrix_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def small_matrix(draw, field):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(entry_grid(rows, cols))
    return Matrix.from_scalars(field, data), data


def check_rref_frac(data, ref, ref_piv):
    """_accel.rref_frac on ``data`` in the object lane, and in the int64 lane where it fits.

    Every nonzero row is primitive with a positive pivot entry and equals
    its reference row times that entry; the rows below the rank are zero.
    """
    work, pivots = _accel.rref_frac(np.array(data, dtype=object))
    assert pivots == ref_piv
    for i, c in enumerate(pivots):
        assert work[i, c] > 0 and np.gcd.reduce(work[i]) == 1
        assert [Fraction(int(x), int(work[i, c])) for x in work[i]] == ref[i]
    assert all(x == 0 for x in work[len(pivots) :].flat)
    if max(abs(x) for row in data for x in row) < 2**63:
        lane_work, lane_pivots = _accel.rref_frac(np.array(data, dtype=np.int64))
        assert lane_pivots == pivots and lane_work.tolist() == work.tolist()


@settings(max_examples=120, deadline=None)
@given(small_matrix(RATIONALS))
# in each, a row becomes zero partway through elimination, and its gcd is 0
@example((Matrix.from_scalars(RATIONALS, [[1, 2], [2, 4]]), [[1, 2], [2, 4]]))
@example((Matrix.from_scalars(RATIONALS, [[0, 3, 1], [1, 2, 3], [2, 4, 6]]), [[0, 3, 1], [1, 2, 3], [2, 4, 6]]))
def test_rref_matches_reference_oracle_rationals(mat_data):
    mat, data = mat_data
    red, pivots = rref(mat)
    ref, ref_piv = reference_rref(data, RATIONALS)
    assert pivots == ref_piv
    assert red.scalar_rows() == ref
    check_rref_frac(data, ref, ref_piv)


MOD_P_FIELDS = [F5, GF(INT64_LANE_PRIME), GF(BIG_PRIME)]


def check_rref_mod(num, p, ref, ref_piv):
    """_accel.rref_frac modulo ``p`` in the object lane, and in the int64 lane where p**2 fits.

    Both lanes give the same rows and pivots; every entry is a residue,
    every pivot entry is 1 and the rows below the rank are zero.
    """
    work, pivots = _accel.rref_frac(num.astype(object), p)
    assert pivots == ref_piv and work.tolist()[: len(pivots)] == ref[: len(pivots)]
    assert all(0 <= x < p for x in work.flat) and all(work[i, c] == 1 for i, c in enumerate(pivots))
    assert all(x == 0 for x in work[len(pivots) :].flat)
    if p * p < 2**63:
        lane_work, lane_pivots = _accel.rref_frac(num, p)
        assert lane_work.dtype == np.int64
        assert lane_pivots == pivots and lane_work.tolist() == work.tolist()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MOD_P_FIELDS).flatmap(lambda f: st.tuples(st.just(f), small_matrix(f))))
# a row becomes zero partway through elimination; a pivot needs a row swap
@example((F5, (Matrix.from_scalars(F5, [[1, 2], [2, 4]]), [[1, 2], [2, 4]])))
@example((F5, (Matrix.from_scalars(F5, [[0, 3, 1], [1, 2, 3], [2, 4, 6]]), [[0, 3, 1], [1, 2, 3], [2, 4, 6]])))
def test_rref_matches_reference_oracle_mod_p(case):
    field, (mat, data) = case
    red, pivots = rref(mat)
    ref, ref_piv = reference_rref(data, field)
    assert pivots == ref_piv
    assert red.scalar_rows() == ref
    check_rref_mod(mat.num, field.p, ref, ref_piv)


def reference_values(field, data, den):
    """The scalars of ``data / den`` as Fractions, or as residues mod p."""
    if field.is_rationals:
        return [[Fraction(x, den) for x in row] for row in data]
    return [[x * pow(den, -1, field.p) % field.p for x in row] for row in data]


@st.composite
def arithmetic_case(draw):
    """A field and matrices a, c (r x k) and b (k x m), with their scalars."""
    field = draw(st.sampled_from([RATIONALS, RATIONALS] + MOD_P_FIELDS))
    r, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    out = []
    for rows, cols in ((r, k), (k, m), (r, k)):
        data = draw(entry_grid(rows, cols))
        # a denominator makes + and vstack bring two matrices to a common one
        den = draw(st.sampled_from([1, 1, 2, 6, 2_000_000_001]))
        values = reference_values(field, data, den)
        out.append((Matrix.from_scalars(field, values), values))
    return field, out


@settings(max_examples=150, deadline=None)
@given(arithmetic_case())
def test_arithmetic_matches_reference(case):
    field, ((a, av), (b, bv), (c, cv)) = case
    norm = (lambda x: x) if field.is_rationals else (lambda x: x % field.p)
    assert (a @ b).scalar_rows() == [
        [norm(sum(av[i][t] * bv[t][j] for t in range(len(bv)))) for j in range(len(bv[0]))] for i in range(len(av))
    ]
    assert (a + c).scalar_rows() == [[norm(x + y) for x, y in zip(u, v)] for u, v in zip(av, cv)]
    assert a.kron(b).scalar_rows() == [
        [norm(x * y) for x in u for y in v] for u in av for v in bv
    ]
    assert vstack([a, c]).scalar_rows() == av + cv


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


@st.composite
def kernel_case(draw):
    """A matrix over Q, GF(7) or GF(2**61 - 1): sometimes zero, with zero rows
    mixed in, sometimes of full column rank, and with entries on both sides of
    the int64 lanes."""
    field = draw(st.sampled_from([RATIONALS, RATIONALS, F7, BIG_PRIME_FIELD]))
    cols = draw(st.integers(1, 6))
    entry = st.one_of(small_entries, small_entries, HUGE_ENTRIES, NEAR_INT64_STORE)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))
    if draw(st.integers(0, 4)) == 0:
        rows = [[0] * cols for _ in rows]
    rows += [[0] * cols] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        # nonzero in all three fields: the rows span everything, the kernel is 0
        rows += [[draw(st.sampled_from([1, -1, 2, 3])) if i == j else 0 for j in range(cols)] for i in range(cols)]
    rows = draw(st.permutations(rows))
    return Matrix.build(field, np.array(rows, dtype=object).reshape(len(rows), cols))


@settings(max_examples=250, deadline=None)
@given(kernel_case())
def test_kernel_vectors_annihilate(mat):
    ker = kernel_basis(mat)
    # the two-elimination form: the span of the kernel rows of rref(M)
    _same_subspace(ker, Subspace.from_rows(kernel_rows(*_rref_basis(mat))))
    assert mat.rank() + ker.dim == mat.cols
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


@st.composite
def sum_case(draw):
    """A subspace over Q, GF(7) or GF(2**61 - 1), sometimes zero or full, and
    up to three matrices on its ambient space, some without rows, with entries
    on both sides of 2**62."""
    field = draw(st.sampled_from([RATIONALS, RATIONALS, F7, BIG_PRIME_FIELD]))
    n = draw(st.integers(1, 5))
    entry = st.one_of(small_entries, small_entries, HUGE_ENTRIES, NEAR_INT64_STORE)

    def rows(most):
        data = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=most))
        return Matrix.build(field, np.array(data, dtype=object).reshape(len(data), n))

    sub = Subspace.full(field, n) if draw(st.integers(0, 4)) == 0 else Subspace.from_rows(rows(4))
    return sub, [rows(3) for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=150, deadline=None)
@given(sum_case())
def test_subspace_sum_is_the_span_of_the_stack(case):
    sub, mats = case
    assert sub.sum(mats) == Subspace.from_rows(vstack([sub.basis, *mats]))
    # nothing to add, or nothing left to add to: the subspace itself
    n = sub.ambient_dim
    assert sub.sum([]) is sub
    assert sub.sum([Matrix.zeros(sub.field, 0, n)] * 2) is sub
    full = Subspace.full(sub.field, n)
    assert full.sum(mats) is full


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
    check_rref_frac(data, ref, ref_piv)


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
    assert parse_scalar(" -6/4\n", RATIONALS) == Fraction(-3, 2)
    # Python's int and Fraction take these; the documented forms do not
    for text in ("1_0", "\u0661", "+3", "1.5", "1e5", "3/0", "1/-2", ""):
        for field in (RATIONALS, F7):
            with pytest.raises(ValueError):
                parse_scalar(text, field)
    with pytest.raises(ValueError):
        parse_scalar("1/2", F7)


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


@st.composite
def gather_case(draw):
    """A matrix, index terms and a modulus for _accel.gather_sum, with zero
    rows, zero columns and one term among the shapes; entries reach 2**62
    over Q and are residues modulo p."""
    p = draw(st.sampled_from([None, 7, 2**31 - 1, 2**61 - 1]))
    entry = st.integers(-(2**62), 2**62) if p is None else st.integers(0, p - 1)
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    terms, size = draw(st.integers(1, 3)), draw(st.integers(0, 4)) if rows else 0

    def grid(elems, shape):
        flat = draw(st.lists(elems, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        return np.array(flat, dtype=np.int64).reshape(shape)

    src = grid(st.integers(0, max(rows - 1, 0)), (terms, size))
    return p, grid(entry, (rows, cols)), src, grid(entry, (terms, size))


def _gather(p, a, src, num):
    return p, np.array(a, dtype=np.int64), np.array(src, dtype=np.int64), np.array(num, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(gather_case())
# three products of (2**31 - 2)**2 overflow int64 unless each is reduced first
@example(_gather(2**31 - 1, [[2**31 - 2]], [[0], [0], [0]], [[2**31 - 2]] * 3))
# a bound of 2**62 stays int64, 2**63 does not
@example(_gather(None, [[2**62, 1]], [[0]], [[1]]))
@example(_gather(None, [[2**62, 1]], [[0], [0]], [[1], [1]]))
def test_gather_sum_matches_python_ints(case):
    p, a, src, num = case
    out = _accel.gather_sum(a, src, num, p)
    terms, size = src.shape
    ref = [
        [sum(int(a[src[t, u], c]) * int(num[t, u]) for t in range(terms)) for c in range(a.shape[1])]
        for u in range(size)
    ]
    got = out.tolist()
    if p is not None:
        ref, got = [[x % p for x in row] for row in ref], [[x % p for x in row] for row in got]
    assert out.shape == (size, a.shape[1]) and got == ref
    # modulo p each product is reduced before the sum, so it is bounded by
    # the larger of one product and terms * p
    prod = _accel.maxabs(a) * _accel.maxabs(num)
    bound = prod * terms if p is None else max(prod, terms * p)
    assert (out.dtype == np.int64) is (bound < 2**63), (bound, out.dtype)


def _step_bounds(monkeypatch):
    """The bounds rref_frac hands _accel.exact, one per pivot step with rows to update."""
    bounds, exact = [], _accel.exact

    def spy(bound, *arrays):
        bounds.append(bound)
        return exact(bound, *arrays)

    monkeypatch.setattr(_accel, "exact", spy)
    return bounds


def test_rref_promotes_in_place_once_entries_pass_limit(monkeypatch):
    # the first matrix's entries start far below 2**31 and its step bounds
    # reach 2**63 only after a few pivots; the second one's largest entry
    # passes 10**9 before the last step, and every step bound stays below
    # 2**63, so it never leaves int64
    cases = [
        (np.random.default_rng(1).integers(-999, 1000, size=(6, 7)), object),
        (np.array([[0, -69722, -57112, 0, 1], [63418, 0, 0, 1, -1], [30177, -1, 0, 0, 0]]), np.int64),
    ]
    bounds = _step_bounds(monkeypatch)
    for num, dtype in cases:
        bounds.clear()
        work, pivots = _accel.rref_frac(num)
        assert work.dtype == dtype
        fits = [b < 2**63 for b in bounds]
        assert fits[0] and fits == sorted(fits, reverse=True)
        assert all(fits) is (dtype == np.int64)
        obj_work, obj_pivots = _accel.rref_frac(num.astype(object))
        assert pivots == obj_pivots
        assert np.array_equal(work, obj_work)
        red, piv = Matrix.build(RATIONALS, num).rref()
        ref, ref_piv = reference_rref(num.tolist(), RATIONALS)
        assert list(piv) == ref_piv and red == Matrix.from_scalars(RATIONALS, ref)


def test_rref_limit_is_inclusive(monkeypatch):
    # the first step's bound is |c| * 1 + 1 * 1: int64 up to 2**63 - 1; the
    # second step bounds object work by 2**63 * 1 + 2**63 * 2**63
    bounds = _step_bounds(monkeypatch)
    for c, dtype in ((2**63 - 2, np.int64), (2**63 - 1, object)):
        bounds.clear()
        num = np.array([[1, 1], [1, c]], dtype=np.int64)
        work, pivots = _accel.rref_frac(num)
        assert bounds == [c + 1, 2 if dtype == np.int64 else 2**63 + 2**126]
        assert work.dtype == dtype and pivots == [0, 1]
        assert work.tolist() == [[1, 0], [0, 1]]
        obj_work, obj_pivots = _accel.rref_frac(num.astype(object))
        assert obj_pivots == pivots and obj_work.tolist() == work.tolist()


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


def _object_lane(mat):
    """``mat`` with object-dtype numerators, a lane that Matrix.build would store as int64."""
    return Matrix(mat.field, mat.num.astype(object), mat.den, _token=_BUILD)


def _assert_canonical(mat):
    """gcd(content, den) is 1, den > 0 (1 over F_p), and int64 exactly when every |entry| < 2**62."""
    entries = [int(x) for x in mat.num.flat]
    assert mat.den > 0 and gcd(reduce(gcd, entries, 0), mat.den) == 1
    assert (mat.num.dtype == np.int64) is all(abs(x) < 2**62 for x in entries), mat.num.dtype
    if not mat.field.is_rationals:
        assert mat.den == 1 and all(0 <= x < mat.field.p for x in entries)


@st.composite
def elimination_case(draw):
    """A field (Q, GF(7) or GF(2**61 - 1)) and 1-6 rows of 1-5 entries, small,
    huge or on both sides of 2**62."""
    field = draw(st.sampled_from([RATIONALS, RATIONALS, F7, BIG_PRIME_FIELD]))
    cols = draw(st.integers(1, 5))
    entry = st.one_of(small_entries, small_entries, HUGE_ENTRIES, NEAR_INT64_STORE)
    return field, draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(elimination_case())
# pivot entries 2 and 3: the rank rows come over den 6
@example((RATIONALS, [[2, 1, 0], [0, 3, 1]]))
@example((RATIONALS, [[2**62 + 1, 3, 0], [5, -(2**63), 7], [1, 1, 2**62]]))
# int64 rank rows whose scaling by den / pivot = 3 passes 2**63
@example((RATIONALS, [[3, 0, 1], [0, 2, 2**62 - 1]]))
@example((BIG_PRIME_FIELD, [[2**62 + 1, 3], [5, -(2**63)]]))
@example((F7, [[1, 2, 3], [0, 0, 0], [3, 6, 2]]))
@example((RATIONALS, [[2, 0, 0], [1, 3, 0], [0, 1, 5]]))
def test_eliminations_are_canonical_on_both_lanes(case):
    # rref, from_rows, sum, kernel_basis and intersect on the int64 lane and
    # on the same matrices in object dtype: canonical, and equal
    field, data = case
    mat = Matrix.from_scalars(field, data)
    top, bot = mat.take_rows(range(mat.rows // 2)), mat.take_rows(range(mat.rows // 2, mat.rows))
    lanes = []
    for lane in (lambda m: m, _object_lane):
        a, b = Subspace.from_rows(lane(top)), Subspace.from_rows(lane(bot))
        red, pivots = lane(mat).rref()
        subs = [Subspace.from_rows(lane(mat)), a.sum([lane(bot)]), kernel_basis(lane(mat))]
        subs.append(intersect(*(Subspace(s.ambient_dim, lane(s.basis), s.pivots) for s in (a, b))))
        for m in [red, a.basis, b.basis] + [s.basis for s in subs]:
            _assert_canonical(m)
        assert (red.scalar_rows(), list(pivots)) == reference_rref(data, field)
        assert red.take_rows(range(len(pivots))) == subs[0].basis and subs[1] == subs[0]
        ker, meet = subs[2:]
        assert ker.dim + len(pivots) == mat.cols and (mat @ ker.basis.transpose()).is_zero()
        assert a.contains_rows(meet.basis) and b.contains_rows(meet.basis)
        lanes.append((red, pivots, subs))
    (red, pivots, subs), (obj_red, obj_pivots, obj_subs) = lanes
    assert red == obj_red and pivots == obj_pivots and subs == obj_subs


def test_eliminations_build_once_in_the_int64_lane(monkeypatch):
    # pivot entries 2 and 3 put the rank rows over den 6 with small entries:
    # no elimination hands Matrix.build an object array, and kernel_basis
    # builds at most two matrices
    mat = Matrix.from_scalars(RATIONALS, [[2, 1, 0], [0, 3, 1]])
    row, rest = mat.take_rows([0]), mat.take_rows([1])
    line, other = Subspace.from_rows(row), Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[1, 1, 1], [0, 2, 1]]))
    built, build = [], Matrix.build

    def spy(field, num, den=1):
        built.append(num.dtype)
        return build(field, num, den)

    monkeypatch.setattr(Matrix, "build", staticmethod(spy))
    calls = {
        "rref": mat.rref,
        "from_rows": lambda: Subspace.from_rows(mat),
        "sum": lambda: line.sum([rest]),
        "kernel_basis": lambda: kernel_basis(mat),
        "intersect": lambda: intersect(Subspace.from_rows(mat), other),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert object not in built, (name, built)
        if name == "kernel_basis":
            assert len(built) <= 2, built


def test_kernel_basis_on_int64_and_object_rrefs():
    big = 10**30
    for top, dtype in ((3, np.int64), (big, object)):
        mat = Matrix.from_scalars(RATIONALS, [[top, 1, 0], [0, 1, top]])
        ker = kernel_basis(mat)
        assert ker.dim == 1 and ker.basis.num.dtype == dtype
        assert (mat @ ker.basis.transpose()).is_zero()


# ---------------------------------------------------------------------------
# weight blocks: split rows by class, eliminate per class, assemble; the
# same canonical results as the flat elimination
# ---------------------------------------------------------------------------



class _Labelled:
    """A stand-in braided space whose degree-1 words carry given class codes."""

    def __init__(self, codes):
        self.codes = codes

    def classes(self, d, graded=True):
        return WeightClasses(self.codes if graded else np.zeros_like(self.codes))


@st.composite
def labelled_rows(draw):
    """Rows that each lie in one class of the columns' codes, with zero rows,
    sometimes a row across classes, and sometimes entries near 2**62 (object
    dtype from 2**62 on)."""
    field = draw(st.sampled_from([RATIONALS, RATIONALS, F5, BIG_PRIME_FIELD]))
    cols = draw(st.integers(2, 7))
    codes = draw(st.lists(st.integers(0, 2), min_size=cols, max_size=cols))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        entry = st.one_of(NEAR_INT64_STORE, entry)
    classes = draw(st.permutations(sorted(set(codes))))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        rows.append([draw(entry) if c == classes[i % len(classes)] else 0 for c in codes])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    if draw(st.integers(0, 3)) == 0:
        rows.append([draw(entry) for _ in codes])  # usually crosses classes
    return Matrix.from_scalars(field, rows), np.array(codes, dtype=np.int64)


def _assemble(classes, parts):
    """The flat canonical basis of the subspace with the class bases ``parts``."""
    return GradedSubspace(classes, tuple(parts)).subspace


def _same_subspace(a, b):
    assert a.pivots == b.pivots and a.basis.den == b.basis.den
    assert a.basis.num.dtype == b.basis.num.dtype and a.basis.shape == b.basis.shape
    assert np.array_equal(a.basis.num, b.basis.num)


def _by_class(mat, codes):
    """The class partition _split picks for ``mat`` and its rows per class."""
    space = _Labelled(codes)
    graded, [(_, rows)] = _split(space, True, [(1, mat)])
    return graded, space.classes(1, graded), rows


@settings(max_examples=300, deadline=None)
@given(labelled_rows())
# the rref holds -2**63 + 6, which fits int64 but is stored as object, whether
# it comes from the flat int64 elimination or from the class blocks
@example((Matrix.from_scalars(RATIONALS, [[0, 1, 0, 2**62 - 3], [0, 2, 1, 0]]), np.array([0, 1, 0, 1])))
def test_weight_blocks_give_the_flat_results(case):
    mat, codes = case
    graded, classes, rows = _by_class(mat, codes)
    crossing = any(len(set(codes[row != 0])) > 1 for row in mat.num)
    assert graded is not crossing
    assert len(classes.cols) == (1 if crossing else len(set(codes)))
    _same_subspace(_assemble(classes, [Subspace.from_rows(r) for r in rows]), Subspace.from_rows(mat))
    # homogeneous rows make mat block diagonal: its kernel is the sum of the
    # class kernels
    _same_subspace(_assemble(classes, [kernel_basis(r) for r in rows]), kernel_basis(mat))


def test_weight_blocks_split_only_homogeneous_rows():
    classes = WeightClasses(np.array([0, 1, 0, 1]))
    homogeneous = Matrix.from_scalars(RATIONALS, [[1, 0, 2, 0], [0, 0, 0, 0], [0, 3, 0, 1]])
    rows = _class_rows(classes, homogeneous)
    # each class keeps its own rows, on its own columns; the zero row goes nowhere
    assert [r.num.tolist() for r in rows] == [[[1, 2]], [[3, 1]]]
    crossing = vstack([homogeneous, Matrix.from_scalars(RATIONALS, [[0, 1, 1, 0]])])
    assert _class_rows(classes, crossing) is None
    # a row across two classes puts the split in the one-class partition,
    # which keeps every nonzero row
    graded, classes, [rows] = _by_class(crossing, np.array([0, 1, 0, 1]))
    assert not graded and len(classes.cols) == 1 and rows == crossing.take_rows([0, 2, 3])
    graded, classes, rows = _by_class(homogeneous, np.array([0, 1, 0, 1]))
    assert graded and len(classes.cols) == 2 and [r.rows for r in rows] == [1, 1]


def test_weight_blocks_keep_object_dtype_where_the_flat_rref_does():
    # the basis is int64 exactly when every numerator over the common
    # denominator is below 2**62; a 3 in the second block makes den 3
    codes = np.array([0, 0, 1, 1])
    for big, second, dtype in ((2**62, 1, object), (2**62 - 1, 1, np.int64), (2**62 // 3 + 1, 3, object)):
        mat = Matrix.from_scalars(RATIONALS, [[1, big, 0, 0], [0, 0, second, 1], [0, 0, 2 * second, 2]])
        graded, classes, rows = _by_class(mat, codes)
        assert graded
        sub = _assemble(classes, [Subspace.from_rows(r) for r in rows])
        assert sub.basis.num.dtype == dtype and sub.pivots == (0, 2)
        _same_subspace(sub, Subspace.from_rows(mat))
        _same_subspace(_assemble(classes, [kernel_basis(r) for r in rows]), kernel_basis(mat))
