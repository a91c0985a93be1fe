"""Braided vector spaces (V, c) and braid-group lifts to tensor powers.

Index convention (shared by every module): the basis vector
e_{i1} (x) ... (x) e_{id} of V^(x)d has index sum(i_k * n^(d-k)), i.e.
big-endian lexicographic, and the braiding matrix is column-convention:
c[(k,l),(i,j)] is the coefficient of e_k (x) e_l in c(e_i (x) e_j).

Every constructed space is validated: c must be invertible and satisfy the
braid equation (c(x)I)(I(x)c)(c(x)I) = (I(x)c)(c(x)I)(I(x)c) on V^(x)3,
as an exact matrix identity.
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

    __slots__ = ("field", "n", "c", "_monomial", "_delta_cache", "_sym_cache")

    def __init__(self, field: FieldSpec, n: int, c: Matrix, _validated: bool = False):
        if not _validated:
            raise TypeError("use make_flip / make_diagonal / make_from_matrix")
        self.field = field
        self.n = n
        self.c = c
        self._monomial = _detect_monomial(c)
        self._delta_cache: dict = {}
        self._sym_cache: dict = {}

    @property
    def is_monomial(self) -> bool:
        return self._monomial is not None

    def __eq__(self, other):
        if not isinstance(other, BraidedSpace):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.c == other.c

    __hash__ = None

    def __repr__(self):
        return f"BraidedSpace(n={self.n}, field={self.field})"


def _detect_monomial(c: Matrix):
    """Row of each column's single nonzero; None unless every column has exactly one."""
    m = c.rows
    perm = np.zeros(m, dtype=np.int64)
    num = c.num
    for j in range(m):
        col = num[:, j]
        nz = np.flatnonzero(col)
        if nz.size != 1:
            return None
        perm[j] = int(nz[0])
    return perm


def _validate(field: FieldSpec, n: int, c: Matrix) -> BraidedSpace:
    if n < 1:
        raise DimensionCap("dimension must be at least 1")
    if n > DIMENSION_CAP:
        raise DimensionCap(f"dimension {n} exceeds cap {DIMENSION_CAP}")
    if c.shape != (n * n, n * n):
        raise NotInvertible(f"braiding must be {n * n}x{n * n}, got {c.shape}")
    if c.rank() != n * n:
        raise NotInvertible("braiding matrix is singular")
    eye = Matrix.identity(field, n)
    c1 = c.kron(eye)
    c2 = eye.kron(c)
    lhs = c1 @ c2 @ c1
    rhs = c2 @ c1 @ c2
    if lhs != rhs:
        diff = lhs - rhs
        col = int(np.flatnonzero((diff.num != 0).any(axis=0))[0])
        witness = ((col // (n * n)) % n, (col // n) % n, col % n)
        raise YangBaxterViolation(witness)
    return BraidedSpace(field, n, c, _validated=True)


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


def braid_word(space: BraidedSpace, d: int, word: Sequence[int]) -> Matrix:
    """Ordered product of braid generators, leftmost letter applied last."""
    check_degree(d)
    out = Matrix.identity(space.field, space.n**d)
    for i in reversed(list(word)):
        out = braid_generator(space, d, i) @ out
    return out
