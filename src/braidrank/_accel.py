"""Hot integer kernels and the one rule for exact integer arithmetic.

Every kernel is one vectorised numpy code path that runs on int64 arrays
while that is provably exact, and unchanged on object-dtype (arbitrary
precision) arrays otherwise.  One rule makes that choice for the whole
package: :func:`exact` keeps int64 operands when the caller's bound on
every intermediate value is below 2**63, and promotes them all to object
dtype when it is not, or when any operand already is object dtype.  The
kernels modulo a prime p ask it with the bound p**2.  Gauss-Jordan
elimination over Q asks it once per pivot step, with the exact bound of
that step's update; from the first step whose bound fails the work is
object dtype.  The int64 and object paths give the same values.  Every
braid operator kept as index terms (a generator c_k, a monomial Delta_{i,j}
on a weight class) is applied by the one gather kernel, :func:`gather_sum`.

All kernels are sequential; repeated runs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

# int64 holds every integer of absolute value below this.
_INT64_BOUND = 1 << 63


def maxabs(arr: np.ndarray) -> int:
    """Largest |entry| of an int64 array, 0 when empty.

    An object array has no int64 bound and gives 2**63.
    """
    if arr.dtype == object:
        return _INT64_BOUND
    if arr.size == 0:
        return 0
    return max(-int(np.minimum.reduce(arr, None)), int(np.maximum.reduce(arr, None)))


def exact(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands of an integer computation, in a dtype that keeps it exact.

    ``bound`` bounds |every intermediate value| of the computation done in
    int64, scalar operands included (build it from :func:`maxabs`).  The
    arrays come back unchanged when none is object dtype and the bound is
    below 2**63; otherwise all of them come back as object arrays.  An
    object operand promotes the rest whatever the bound, because a bound
    such as 0 * maxabs(object array) says nothing about it.
    """
    if bound < _INT64_BOUND and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(a.astype(object, copy=False) for a in arrays)


# ---------------------------------------------------------------------------
# rational Gauss-Jordan on primitive integer rows
#
# State: an integer matrix whose rows stand for rational rows up to a
# positive scale.  After each elimination a row is divided by the gcd of
# its entries, so entry sizes track the reduced-form values rather than
# the exponentially growing Bareiss minors.  A pivot row is made positive
# at its pivot and primitive, so its pivot entry is the row's denominator.
# ---------------------------------------------------------------------------


def rref_frac(num: np.ndarray):
    """Rational rref of an integer matrix, each row kept as a primitive integer vector.

    Returns ``(work, pivots)`` describing the unique rref: row i of the
    result is ``work[i] / work[i, pivots[i]]`` for i below the rank, where
    that pivot entry is positive, and the rows below the rank are zero.
    The input is not modified.  Each pivot step passes :func:`exact` the
    bound of its update: int64 work turns into object dtype at the first
    step that could leave int64 and continues from there; the same lines
    run on both.
    """
    rows, cols = num.shape
    work = num.astype(object) if num.dtype == object else np.array(num, dtype=np.int64, order="C")
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
        if work[r, c] < 0:
            work[r] = -work[r]
        # np.gcd is nonnegative on int64 and object entries alike
        work[r] //= np.gcd.reduce(work[r])
        piv = int(work[r, c])  # a Python int: the bound below must not wrap in int64
        f = work[:, c].copy()
        rest = np.flatnonzero(f)
        rest = rest[rest != r]
        if rest.size:
            upd = work[rest]
            # |work * piv - f * pivot row| over the rows updated
            bound = maxabs(upd) * piv + maxabs(f[rest]) * maxabs(work[r])
            work, upd = exact(bound, work, upd)
            upd = upd * piv - np.outer(f[rest], work[r])
            # a row that became zero has gcd 0 and stays zero
            upd //= np.maximum(np.gcd.reduce(upd, axis=1), 1)[:, None]
            work[rest] = upd
        pivots.append(c)
        r += 1
    return work, pivots


# ---------------------------------------------------------------------------
# Gauss-Jordan modulo a prime
#
# Residues lie in 0..p-1, so every product and every update of one pivot
# step is below p**2 in absolute value: exact(p * p, ...) picks the lane.
# ---------------------------------------------------------------------------


def rref_mod(num: np.ndarray, p: int):
    """Reduced row echelon form of ``num`` modulo prime ``p`` (copy).

    Returns ``(reduced, pivots)``; entries canonical in ``0..p-1``.
    """
    a = exact(p * p, num)[0].copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        f = a[:, c].copy()
        f[r] = 0
        a -= np.outer(f, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``a @ b mod p`` for canonical residue matrices."""
    a, b = exact(p * p, a, b)
    if a.dtype == object:
        return np.dot(a, b) % p
    # each product is below p**2 < 2**63; a margin of p keeps the running
    # "partial product plus carry" of a chunk in int64
    chunk = max(1, (2**63 - 1 - p) // max(1, (p - 1) * (p - 1)))
    k = a.shape[1]
    if k <= chunk:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, chunk):
        out = (out + a[:, s : s + chunk] @ b[s : s + chunk]) % p
    return out


def matmul_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product."""
    a, b = exact(maxabs(a) * maxabs(b) * a.shape[1], a, b)
    return a @ b


def gather_sum(a: np.ndarray, src: np.ndarray, num: np.ndarray, p: int | None = None) -> np.ndarray:
    """Exact sum over terms t of a[src[t]] * num[t][:, None], for terms x m ``src`` and ``num``.

    Modulo ``p`` each product is reduced before the sum, which the caller
    reduces.  Runs in blocks of about 2**20 (term, row, column) entries."""
    terms, prod = len(src), maxabs(a) * maxabs(num)
    a, num = exact(prod * terms if p is None else max(prod, terms * p), a, num)
    out = np.empty((src.shape[1], a.shape[1]), dtype=a.dtype)
    step = max(1, (1 << 20) // max(1, terms * a.shape[1]))
    for u in range(0, len(out), step):
        part = a[src[:, u : u + step]] * num[:, u : u + step, None]
        out[u : u + step] = (part if p is None else part % p).sum(axis=0)
    return out


def kron_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product."""
    return np.kron(*exact(maxabs(a) * maxabs(b), a, b))
