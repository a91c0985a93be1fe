"""Exact dense linear algebra over Q and over prime fields F_p.

Scalars
    Rational values are ``fractions.Fraction`` in lowest terms; prime-field
    values are canonical residues ``0..p-1`` as plain ``int``.  The text form
    is ``"a/b"`` / ``"a"`` for rationals and a decimal string for residues.

Matrices
    A :class:`Matrix` stores an integer numerator array (int64 when it fits,
    arbitrary-precision objects otherwise) plus a single positive denominator
    (always 1 over F_p).  The representation is canonical - the gcd of all
    numerators and the denominator is 1 - so ``==`` is exact value equality
    and results are bit-identical across runs and across the int64 and
    object-dtype kernel paths.

Subspaces
    A :class:`Subspace` is the unique reduced-row-echelon basis of a subspace
    of a coordinate space together with its pivot columns; subspace equality
    is equality of rref bases.  An elimination runs on the matrix it is given:
    a split by weight class is the caller's, made in the data.

Everything here is immutable after construction and safe to share across
threads; operations are pure functions.  Dense only, no floating point, no
modular reconstruction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

import numpy as np

from . import _accel
from .errors import AmbientMismatch, DimensionMismatch, FieldMismatch, InvalidField

Scalar = Union[Fraction, int]

MAX_PRIME = 1 << 61

# a matrix is stored as int64 exactly when every |entry| is below this bound;
# a storage rule only, the working dtype of each operation is chosen by
# _accel.exact.
_INT64_STORE = 1 << 62

# the Python int of each entry of an object array, as a new object array
_to_int = np.frompyfunc(int, 1, 1)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**61 field cap."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base field: the rationals, or integers modulo a prime p < 2**61."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rationals":
            if self.p is not None:
                raise InvalidField("rationals take no modulus")
        elif self.kind == "prime":
            if not isinstance(self.p, int) or not (2 <= self.p < MAX_PRIME):
                raise InvalidField(f"modulus must satisfy 2 <= p < 2**61, got {self.p}")
            if not is_prime(self.p):
                raise InvalidField(f"{self.p} is not prime")
        else:
            raise InvalidField(f"unknown field kind {self.kind!r}")

    @property
    def is_rationals(self) -> bool:
        return self.kind == "rationals"

    def __str__(self):
        return "QQ" if self.is_rationals else f"GF({self.p})"


RATIONALS = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def coerce_scalar(value, field: FieldSpec) -> Scalar:
    """Canonicalise ``value`` (int, Fraction, or digit string; no bool) into ``field``."""
    if isinstance(value, bool):
        raise TypeError(f"cannot coerce the boolean {value!r} into {field}")
    if isinstance(value, str):
        return parse_scalar(value, field)
    if field.is_rationals:
        if isinstance(value, (int, np.integer)):
            return Fraction(int(value))
        if isinstance(value, Fraction):
            return value
        raise TypeError(f"cannot coerce {value!r} into {field}")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise TypeError(f"cannot coerce non-integer {value} into {field}")
        value = value.numerator
    if isinstance(value, (int, np.integer)):
        return int(value) % field.p
    raise TypeError(f"cannot coerce {value!r} into {field}")


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse the canonical text form: "a/b" or "a" over Q, "a" over F_p.

    a and b are ASCII digits, a with an optional "-", around any whitespace.
    Python's own parsers also take "1_0", "+3", "1.5", "1e5" (which Fraction
    would expand to 10**5 first) and non-ASCII digits; none is accepted.
    """
    text = text.strip()
    if not re.fullmatch("-?[0-9]+(/[0-9]+)?" if field.is_rationals else "-?[0-9]+", text):
        raise ValueError(f"bad scalar {text!r} for {field}")
    try:
        return Fraction(text) if field.is_rationals else int(text) % field.p
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {text!r} for {field}: {exc}") from None


def format_scalar(value: Scalar, field: FieldSpec) -> str:
    value = coerce_scalar(value, field)
    return str(value)


def _content(num: np.ndarray) -> int:
    """gcd of all entries (0 for the zero matrix)."""
    return int(np.gcd.reduce(num, axis=None))


class Matrix:
    """Immutable dense matrix over a :class:`FieldSpec`.

    Stored as ``numerators / den`` with ``den == 1`` over prime fields.
    Use :meth:`from_scalars` for element input and :meth:`build` when an
    integer ndarray is already at hand.
    """

    __slots__ = ("field", "rows", "cols", "num", "den")

    def __init__(self, field, num, den, _token=None):
        if _token is not _BUILD:
            raise TypeError("use Matrix.build / Matrix.from_scalars")
        self.field = field
        self.rows, self.cols = num.shape
        self.num = num
        self.den = den

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(field: FieldSpec, num: np.ndarray, den: int = 1) -> "Matrix":
        """Canonicalise an integer numerator array (copied / reduced)."""
        if num.ndim != 2:
            raise DimensionMismatch("matrix data must be 2-dimensional")
        if field.is_rationals:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                num, den = -num, -den
            # gcd(content, 1) is 1: an integer matrix is canonical as it is
            g = gcd(_content(num), den) if den != 1 else 1
            if g > 1:
                num = num // g
                den = den // g
            # object exactly when some |entry| >= 2**62, whichever dtype came in
            big = num.size and (np.abs(num).max() if num.dtype == object else _accel.maxabs(num)) >= _INT64_STORE
        else:
            if den != 1:
                inv = pow(den % field.p, -1, field.p)
                num = num.astype(object) * inv
                den = 1
            num = (num if num.dtype == object else num.astype(np.int64)) % field.p
            big = False  # every residue is below p < 2**61
        # a new array either way; object entries become Python ints
        num = _to_int(num) if big else np.array(num, dtype=np.int64, order="C")
        num.setflags(write=False)
        return Matrix(field, num, int(den), _token=_BUILD)

    @staticmethod
    def from_scalars(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        """Build from nested scalars (ints, Fractions, or text forms)."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        num = np.empty((r, c), dtype=object)
        vals = [[coerce_scalar(x, field) for x in row] for row in rows]
        for row in vals:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
        # a residue is an int, whose denominator is 1
        den = lcm(*(x.denominator for row in vals for x in row))
        for i, row in enumerate(vals):
            for j, x in enumerate(row):
                num[i, j] = x.numerator * (den // x.denominator)
        return Matrix.build(field, num, den)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix.build(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix.build(field, np.eye(n, dtype=np.int64))

    # -- inspection --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Scalar:
        v = int(self.num[i, j])
        if self.field.is_rationals:
            return Fraction(v, self.den)
        return v

    def scalar_rows(self) -> list[list[Scalar]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.num.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols}, den={self.den})"

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        # over F_p both denominators are 1 and build reduces the sum mod p
        L = lcm(self.den, other.den)
        ma, mb = L // self.den, L // other.den
        bound = max(_accel.maxabs(self.num), 1) * ma + max(_accel.maxabs(other.num), 1) * mb
        a, b = _accel.exact(bound, self.num, other.num)
        return Matrix.build(self.field, a * ma + b * mb, L)

    def __neg__(self) -> "Matrix":
        return Matrix.build(self.field, -self.num, self.den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def scale(self, s) -> "Matrix":
        s = coerce_scalar(s, self.field)
        (a,) = _accel.exact(max(_accel.maxabs(self.num), 1) * abs(s.numerator), self.num)
        return Matrix.build(self.field, a * s.numerator, self.den * s.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        # over F_p both denominators are 1
        return Matrix.build(self.field, _accel.matmul_int(self.num, other.num, self.field.p), self.den * other.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index convention is big-endian (row-major)."""
        self._check_field(other)
        return Matrix.build(self.field, _accel.kron_int(self.num, other.num), self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix.build(self.field, self.num.T, self.den)

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        sel = self.num[:, list(idx)] if len(idx) else np.zeros((self.rows, 0), dtype=self.num.dtype)
        return Matrix.build(self.field, sel, self.den)

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        sel = self.num[list(idx), :] if len(idx) else np.zeros((0, self.cols), dtype=self.num.dtype)
        return Matrix.build(self.field, sel, self.den)

    # -- reduction ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """The unique reduced row echelon form and its pivot columns."""
        # row i is work[i] / work[i, pivots[i]] (1 over F_p); the zero rows below the rank keep factor 1
        work, pivots = _accel.rref_frac(self.num, self.field.p)
        ranked = [int(work[i, c]) for i, c in enumerate(pivots)]
        den = lcm(*ranked)
        if den > 1:
            factors = np.array([den // d for d in ranked] + [1] * (self.rows - len(ranked)), dtype=object)
            work = work.astype(object) * factors[:, None]
        return Matrix.build(self.field, work, den), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])


_BUILD = object()


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices vertically (common field and width required)."""
    mats = [m for m in mats]
    if not mats:
        raise DimensionMismatch("nothing to stack")
    field = mats[0].field
    cols = mats[0].cols
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatch(f"{field} vs {m.field}")
        if m.cols != cols:
            raise DimensionMismatch("widths differ")
    den = lcm(*(m.den for m in mats))
    factors = [den // m.den for m in mats]
    bound = max(max(_accel.maxabs(m.num), 1) * f for m, f in zip(mats, factors))
    parts = _accel.exact(bound, *(m.num for m in mats))
    return Matrix.build(field, np.vstack([a * f if f != 1 else a for a, f in zip(parts, factors)]), den)


def _place(mat: Matrix, cols: np.ndarray, width: int) -> Matrix:
    """``mat`` as the columns ``cols`` of a matrix ``width`` wide, zero elsewhere."""
    num = np.zeros((mat.rows, width), dtype=mat.num.dtype)
    num[:, cols] = mat.num
    return Matrix.build(mat.field, num, mat.den)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    ts = [m.transpose() for m in mats]
    return vstack(ts).transpose()


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Row-reduced basis of a subspace of F^ambient_dim, with pivot columns."""

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @staticmethod
    def from_rows(mat: Matrix) -> "Subspace":
        """Span of the rows of ``mat`` with the canonical rref basis."""
        return Subspace(mat.cols, *_rref_basis(mat))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def reduce_rows(self, mat: Matrix) -> Matrix:
        """Eliminate this subspace from each row of ``mat``.

        The result has zeros in all pivot columns; a row reduces to zero
        exactly when it lies in the subspace.
        """
        if mat.cols != self.ambient_dim:
            raise AmbientMismatch(f"vector length {mat.cols} vs ambient {self.ambient_dim}")
        if self.dim == 0:
            return mat
        return mat - mat.take_columns(self.pivots) @ self.basis

    def contains_rows(self, mat: Matrix) -> bool:
        return self.reduce_rows(mat).is_zero()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if other.dim == 0:
            return self
        if self.dim == 0:
            return other
        return Subspace.from_rows(vstack([self.basis, other.basis]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    red, pivots = mat.rref()
    return red, list(pivots)


def kernel_basis(mat: Matrix) -> Subspace:
    """The subspace {x : M x = 0}, of dimension cols - rank, from one rref, that of
    M with its columns reversed: read back with rows and columns reversed, its
    kernel rows are the rref of ker M, each 1 at its own free column and 0 at the others."""
    n = mat.cols
    basis, pivots = _rref_basis(Matrix(mat.field, mat.num[:, ::-1], mat.den, _token=_BUILD))
    rows, free = kernel_rows(basis, pivots), np.delete(np.arange(n), pivots)
    return Subspace(n, Matrix.build(mat.field, rows.num[::-1, ::-1], rows.den), tuple((n - 1 - free[::-1]).tolist()))


def kernel_rows(basis: Matrix, pivots) -> Matrix:
    """Rows spanning {x : basis x = 0}, for a reduced basis with these pivots:
    row k has den at the k-th free column f and minus column f of the
    numerators at the pivots (int64 holds both: den is a pivot entry)."""
    free = np.delete(np.arange(basis.cols), pivots)
    num = np.zeros((free.size, basis.cols), dtype=basis.num.dtype)
    num[range(free.size), free] = basis.den
    num[:, list(pivots)] = -basis.num[:, free].T
    return Matrix.build(basis.field, num, basis.den)


def _rref_basis(mat: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The nonzero rows of rref(mat) and its pivots."""
    red, pivots = mat.rref()
    return red.take_rows(range(len(pivots))), pivots


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block elimination."""
    a._check_ambient(b)
    n = a.ambient_dim
    top = hstack([a.basis, a.basis])
    bot = hstack([b.basis, Matrix.zeros(b.field, b.dim, n)])
    red, pivots = vstack([top, bot]).rref()
    # the rows with a pivot in the right half are already the rref of the meet
    rows = [i for i, p in enumerate(pivots) if p >= n]
    return Subspace(n, red.take_rows(rows).take_columns(range(n, 2 * n)), tuple(pivots[i] - n for i in rows))


def _as_row(field: FieldSpec, v) -> Matrix:
    if isinstance(v, Matrix):
        if v.rows != 1:
            raise DimensionMismatch("expected a single row vector")
        return v
    return Matrix.from_scalars(field, [list(v)])


def contains(a: Subspace, v) -> bool:
    """Exact membership test via rref reduction."""
    row = _as_row(a.field, v)
    if row.cols != a.ambient_dim:
        raise AmbientMismatch(f"vector length {row.cols} vs ambient {a.ambient_dim}")
    return a.contains_rows(row)
