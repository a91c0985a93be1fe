"""Braided vector spaces (V, c) and braid-group lifts to tensor powers.

Index convention (shared by every module): the basis vector
e_{i1} (x) ... (x) e_{id} of V^(x)d has index sum(i_k * n^(d-k)), i.e.
big-endian lexicographic, and the braiding matrix is column-convention:
c[(k,l),(i,j)] is the coefficient of e_k (x) e_l in c(e_i (x) e_j).

A braid generator c_k acts on all words of V^(x)d, or on one weight class,
through :func:`apply_generator`: each word gathers one term per nonzero in
its letter pair's row of c (one for a monomial braiding, at most two for a
graded one); no Kronecker product with an identity is formed.

Every constructed space is validated: c must be invertible and satisfy the
braid equation (c(x)I)(I(x)c)(c(x)I) = (I(x)c)(c(x)I)(I(x)c) on V^(x)3,
as an exact matrix identity.  Validation also decides whether c preserves
the Z^n multidegree of a tensor (flip and diagonal braidings do); then
every braid lift and coproduct component maps each weight class of words
to itself.  :meth:`BraidedSpace.classes` gives that partition of each
V^(x)d as a :class:`WeightClasses`, from :func:`_multidegree`; when c
mixes weights it is one class, and the only partition cached per degree.
:meth:`WeightClasses.grids` lays a class of V^(x)(i+j) out as the tensor
products of classes of V^(x)i and V^(x)j.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DegreeCap,
    DimensionCap,
    IndexOutOfRange,
    NotInvertible,
    YangBaxterViolation,
    ZeroParameter,
)
from ._accel import gather_sum
from .exactlin import FieldSpec, Matrix, coerce_scalar

DIMENSION_CAP = 8
DEGREE_CAP = 12


def check_degree(d: int):
    if d > DEGREE_CAP:
        raise DegreeCap(f"tensor degree {d} exceeds cap {DEGREE_CAP}")
    if d < 0:
        raise DegreeCap(f"tensor degree must be nonnegative, got {d}")


# ---------------------------------------------------------------------------
# permutation utilities (0-based one-line tuples; generator indices 1-based)
# ---------------------------------------------------------------------------


def inversions(perm: Sequence[int]) -> int:
    d = len(perm)
    return sum(1 for a in range(d) for b in range(a + 1, d) if perm[a] > perm[b])


def invert_perm(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for pos, val in enumerate(perm):
        inv[val] = pos
    return tuple(inv)


def lexmin_reduced_word(perm: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal reduced word of a permutation.

    The word (i1, ..., ik) means perm = s_{i1} o ... o s_{ik} with the
    leftmost factor applied last, matching :func:`braid_word`.  Greedily
    choosing the smallest left descent at each step is lex-minimal because
    every reduced word must start with a left descent.
    """
    w = list(perm)
    pos = list(invert_perm(w))
    word = []
    while True:
        desc = -1
        for i in range(1, len(w)):
            if pos[i - 1] > pos[i]:
                desc = i
                break
        if desc < 0:
            break
        word.append(desc)
        a, b = pos[desc - 1], pos[desc]
        w[a], w[b] = w[b], w[a]
        pos[desc - 1], pos[desc] = b, a
    return tuple(word)


def permutation_tensor_matrix(field: FieldSpec, n: int, perm: Sequence[int]) -> Matrix:
    """Matrix of the place permutation e_{t_1..t_d} -> e_{t_{w^-1(1)}..}."""
    d = len(perm)
    size = n**d
    inv = invert_perm(perm)
    powers = [n ** (d - 1 - k) for k in range(d)]
    num = np.zeros((size, size), dtype=np.int64)
    for src in range(size):
        digits = [(src // powers[k]) % n for k in range(d)]
        dst = sum(digits[inv[k]] * powers[k] for k in range(d))
        num[dst, src] = 1
    return Matrix.build(field, num)


# ---------------------------------------------------------------------------
# braided spaces
# ---------------------------------------------------------------------------


class BraidedSpace:
    """A validated braided vector space: dimension n plus a braiding matrix."""

    __slots__ = ("field", "n", "c", "_row_terms", "_graded", "_classes", "_delta_cache")

    def __init__(self, field: FieldSpec, n: int, c: Matrix, _validated: bool = False):
        if not _validated:
            raise TypeError("use make_flip / make_diagonal / make_from_matrix")
        self.field = field
        self.n = n
        self.c = c
        # each row's nonzero columns of c and their numerators, n^2 x m with m
        # the most in a row; a shorter row is padded with its own index and 0
        nz = c.num != 0
        cols = np.argsort(~nz, axis=1, kind="stable")[:, : max(1, int(nz.sum(axis=1).max()))]
        num = np.take_along_axis(c.num, cols, axis=1)
        self._row_terms = np.where(num != 0, cols, np.arange(c.rows)[:, None]), num
        self._graded = _preserves_multidegree(n, c)
        self._classes: dict[tuple[int, bool], WeightClasses] = {}
        self._delta_cache: dict = {}

    @property
    def is_monomial(self) -> bool:
        """One nonzero per row of c: c is invertible, so also one per column."""
        return self._row_terms[0].shape[1] == 1

    def classes(self, d: int, graded: bool = True) -> "WeightClasses":
        """The weight classes of V^(x)d, cached; one class when ``graded`` is False or c mixes weights."""
        key = (d, graded and self._graded)
        if key not in self._classes:
            self._classes[key] = WeightClasses(_multidegree(self.n, d) if key[1] else np.zeros(self.n**d, np.int64))
        return self._classes[key]

    def __eq__(self, other):
        if not isinstance(other, BraidedSpace):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.c == other.c

    __hash__ = None

    def __repr__(self):
        return f"BraidedSpace(n={self.n}, field={self.field})"


class WeightClasses:
    """A partition of the basis words of V^(x)d, from one code per word.

    ``cols[k]`` lists the words of class k in ascending order (classes in
    ascending code) and ``label[t]`` is the class of word t.
    """

    __slots__ = ("cols", "label", "_grids")

    def __init__(self, codes: np.ndarray):
        self.cols, self.label, self._grids = group_by(codes), np.empty(codes.size, dtype=np.int64), {}
        for k, cols in enumerate(self.cols):
            self.label[cols] = k

    def grids(self, left: "WeightClasses", right: "WeightClasses") -> list[list[tuple[int, int, np.ndarray]]]:
        """These classes as words a (x) b, ``left`` and ``right`` the classes
        of the factors: for each class, the pairs (a, b) of factor classes
        whose words make it up, each with those words' places in the class
        as an |a| x |b| grid (cached per pair of partitions)."""
        out = self._grids.get((left, right))
        if out is None:
            words, size = np.arange(self.label.size), right.label.size
            a, b = left.label[words // size], right.label[words % size]
            out = self._grids[(left, right)] = [[] for _ in self.cols]
            for r in group_by((self.label * len(left.cols) + a) * len(right.cols) + b):
                k, shape = self.label[r[0]], (left.cols[a[r[0]]].size, -1)
                out[k].append((a[r[0]], b[r[0]], np.searchsorted(self.cols[k], r).reshape(shape)))
        return out


def group_by(codes: np.ndarray) -> list[np.ndarray]:
    """The indices of ``codes``, one ascending array per value, by ascending value."""
    order = np.argsort(codes, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(codes[order])) + 1).tolist(), codes.size]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def _multidegree(n: int, d: int) -> np.ndarray:
    """Sum over the letters of each word of V^(x)d of (d+1)**letter.

    A letter occurs at most d times, so the code is the letter counts in
    base d+1; within the caps it stays below 13**8 < 2**63.
    """
    idx = np.arange(n**d, dtype=np.int64)
    code = np.zeros(n**d, dtype=np.int64)
    for k in range(d):
        code += (d + 1) ** ((idx // n**k) % n)
    return code


def _preserves_multidegree(n: int, c: Matrix) -> bool:
    """c[(k,l),(i,j)] != 0 only where e_k + e_l = e_i + e_j."""
    w = _multidegree(n, 2)
    return not ((c.num != 0) & (w[:, None] != w[None, :])).any()


def _validate(field: FieldSpec, n: int, c: Matrix) -> BraidedSpace:
    if n < 1:
        raise DimensionCap("dimension must be at least 1")
    if n > DIMENSION_CAP:
        raise DimensionCap(f"dimension {n} exceeds cap {DIMENSION_CAP}")
    if c.shape != (n * n, n * n):
        raise NotInvertible(f"braiding must be {n * n}x{n * n}, got {c.shape}")
    if c.rank() != n * n:
        raise NotInvertible("braiding matrix is singular")
    space = BraidedSpace(field, n, c, _validated=True)
    lhs, rhs = braid_word(space, 3, (1, 2, 1)), braid_word(space, 3, (2, 1, 2))
    if lhs != rhs:
        diff = lhs - rhs
        col = int(np.flatnonzero((diff.num != 0).any(axis=0))[0])
        witness = ((col // (n * n)) % n, (col // n) % n, col % n)
        raise YangBaxterViolation(witness)
    return space


def make_flip(n: int, field: FieldSpec) -> BraidedSpace:
    """The flip braiding x (x) y -> y (x) x (symmetric monoidal structure)."""
    size = n * n
    num = np.zeros((size, size), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            num[j * n + i, i * n + j] = 1
    return _validate(field, n, Matrix.build(field, num))


def make_diagonal(field: FieldSpec, q: Matrix) -> BraidedSpace:
    """Diagonal braiding c(e_i (x) e_j) = q_ij e_j (x) e_i.

    ``q`` is an n x n matrix of nonzero scalars.  Diagonal braidings always
    satisfy the braid equation; validation runs anyway.
    """
    if q.rows != q.cols:
        raise ZeroParameter(f"q must be square, got {q.shape}")
    n = q.rows
    rows = [[coerce_scalar(0, field)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            qij = q.entry(i, j)
            if qij == 0:
                raise ZeroParameter(f"q[{i},{j}] = 0")
            rows[j * n + i][i * n + j] = qij
    return _validate(field, n, Matrix.from_scalars(field, rows))


def make_from_matrix(n: int, field: FieldSpec, entries: Matrix) -> BraidedSpace:
    """Validate an arbitrary n^2 x n^2 matrix as a braiding."""
    return _validate(field, n, entries)


# ---------------------------------------------------------------------------
# lifts to tensor powers
# ---------------------------------------------------------------------------


def braid_generator(space: BraidedSpace, d: int, i: int) -> Matrix:
    """Matrix of c_i = I^(x)(i-1) (x) c (x) I^(x)(d-i-1) on V^(x)d."""
    check_degree(d)
    if not 1 <= i <= d - 1:
        raise IndexOutOfRange(f"generator index {i} outside 1..{d - 1}")
    left = Matrix.identity(space.field, space.n ** (i - 1))
    right = Matrix.identity(space.field, space.n ** (d - i - 1))
    return left.kron(space.c).kron(right)


def braid_word(space: BraidedSpace, d: int, word: Sequence[int], mat: Matrix | None = None, words=None) -> Matrix:
    """Ordered product of braid generators times ``mat`` (default Id), leftmost letter applied last, on
    ``words``: ascending words that each generator maps to itself (default all), the rows of ``mat``."""
    check_degree(d)
    words = np.arange(space.n**d) if words is None else words
    out = Matrix.identity(space.field, words.size) if mat is None else mat
    for k in reversed(list(word)):
        out = apply_generator(space, d, k, words, out)
    return out


def generator_terms(space: BraidedSpace, d: int, k: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_k on V^(x)d over ``words``, ascending words that c_k maps to itself, in gather form.

    Two m x |words| arrays ``(src, num)``: c_k x at ``words[u]`` is the sum
    over t of num[t, u] / c.den times x at ``words[src[t, u]]``.
    """
    if not 1 <= k <= d - 1:
        raise IndexOutOfRange(f"generator index {k} outside 1..{d - 1}")
    base = space.n ** (d - k - 1)
    pairs = words // base % space.n**2
    cols, num = space._row_terms
    src = words[:, None] + (cols[pairs] - pairs[:, None]) * base
    return np.searchsorted(words, src.T), num[pairs].T


def apply_generator(space: BraidedSpace, d: int, k: int, words: np.ndarray, mat: Matrix) -> Matrix:
    """c_k @ mat on V^(x)d, the rows of ``mat`` being the words ``words`` (see :func:`generator_terms`)."""
    out = gather_sum(mat.num, *generator_terms(space, d, k, words), mat.field.p)
    return Matrix.build(mat.field, out, mat.den * space.c.den)
