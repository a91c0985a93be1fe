"""Hot integer kernels and the one rule for exact integer arithmetic.

Every kernel is vectorised numpy on int64 arrays while that is provably
exact, and on object-dtype (arbitrary precision) arrays otherwise.  One
rule makes that choice for the whole package: :func:`exact` keeps int64
operands when the caller's bound on every intermediate value is below
2**63, and promotes them all to object dtype when it is not, or when any
operand already is object dtype.  Gauss-Jordan elimination over Q checks
the rows each pivot step wrote; once one exceeds :data:`LIMIT`, the work
arrays turn into object dtype and the elimination continues from that
pivot.  The int64 and object paths give the same values.

All kernels are sequential; repeated runs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

# Largest |numerator| or denominator for which one elimination update (two
# products plus a subtraction) provably fits in int64: 2 * LIMIT**2 < 2**63.
LIMIT = 2_000_000_000

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
    return max(abs(int(arr.min())), abs(int(arr.max())))


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
# rational Gauss-Jordan with per-row denominators and content stripping
#
# State: integer numerator matrix plus one positive denominator per row.
# After each elimination the row is divided by the gcd of its entries and
# its denominator, so entry sizes track the actual reduced-form values
# rather than the exponentially growing Bareiss minors.  Pivot rows are
# normalised immediately (pivot value 1, i.e. num[r, c] == den[r]).
# ---------------------------------------------------------------------------


def gcd_int(a: int, b: int) -> int:
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b:
        a, b = b, a % b
    return a


def rref_frac(num: np.ndarray):
    """Rational rref of an integer matrix (row denominators are internal).

    Returns ``(numerators, row_dens, pivots)`` describing the unique rref:
    row i of the result is ``numerators[i] / row_dens[i]``.  The input is
    not modified.  Before a pivot step on int64 work whose entries or row
    denominators exceed LIMIT, the work turns into object dtype and the
    elimination continues from that pivot.
    """
    rows, cols = num.shape
    work = num.astype(object) if num.dtype == object else np.array(num, dtype=np.int64, order="C")
    dens = np.ones(rows, dtype=work.dtype)
    # bound of the rows the last pivot step eliminated; every other row only
    # moved or shrank since it was last bounded, so testing these rows makes
    # the same decision as a scan of the whole matrix
    grown = maxabs(work) if work.dtype != object else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        if grown > LIMIT:
            work, dens = work.astype(object), dens.astype(object)
        obj = work.dtype == object
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
            dens[[r, i]] = dens[[i, r]]
        piv = work[r, c]
        if piv < 0:
            work[r] = -work[r]
            piv = -piv
        dens[r] = piv
        if obj:
            g = 0
            for v in work[r]:
                g = gcd_int(g, int(v))
                if g == 1:
                    break
        else:
            g = int(np.gcd.reduce(np.abs(work[r])))
        g = gcd_int(g, int(dens[r]))
        if g > 1:
            work[r] = work[r] // g
            dens[r] = dens[r] // g
        dr = dens[r]
        f = work[:, c].copy()
        rest = np.flatnonzero(f)
        rest = rest[rest != r]
        grown = 0
        if rest.size:
            upd = work[rest] * dr - np.outer(f[rest], work[r])
            upd_dens = dens[rest] * dr
            if obj:
                for k in range(rest.size):
                    g = int(upd_dens[k])
                    for v in upd[k]:
                        g = gcd_int(g, int(v))
                        if g == 1:
                            break
                    if g > 1:
                        upd[k] = upd[k] // g
                        upd_dens[k] = upd_dens[k] // g
            else:
                gs = np.gcd(np.gcd.reduce(np.abs(upd), axis=1), upd_dens)
                upd //= gs[:, None]
                upd_dens //= gs
                grown = max(maxabs(upd), maxabs(upd_dens))
            work[rest] = upd
            dens[rest] = upd_dens
        pivots.append(c)
        r += 1
    return work, dens, pivots


# ---------------------------------------------------------------------------
# Gauss-Jordan modulo a prime
# ---------------------------------------------------------------------------

# int64 products stay safe while p < 2**31.
MOD_INT64_MAX = 1 << 31


def _rref_mod_generic(a, p):
    """Vectorised elimination mod p; a is int64 (p < 2**31) or object."""
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
    return pivots


def rref_mod(num: np.ndarray, p: int):
    """Reduced row echelon form of ``num`` modulo prime ``p`` (copy).

    Returns ``(reduced, pivots)``; entries canonical in ``0..p-1``.
    """
    if p < MOD_INT64_MAX and num.dtype != object:
        work = np.ascontiguousarray(num, dtype=np.int64).copy()
        return work, _rref_mod_generic(work, p)
    work = num.astype(object)
    return work, _rref_mod_generic(work, p)


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``a @ b mod p`` for canonical residue matrices."""
    if p < MOD_INT64_MAX and a.dtype != object and b.dtype != object:
        # margin of p keeps the running "partial product plus carry" in int64
        chunk = max(1, (2**63 - 1 - p) // max(1, (p - 1) * (p - 1)))
        k = a.shape[1]
        if k <= chunk:
            return (a @ b) % p
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for s in range(0, k, chunk):
            out = (out + a[:, s : s + chunk] @ b[s : s + chunk]) % p
        return out
    return np.dot(a.astype(object), b.astype(object)) % p


def matmul_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product."""
    a, b = exact(maxabs(a) * maxabs(b) * a.shape[1], a, b)
    return a @ b


def kron_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product."""
    return np.kron(*exact(maxabs(a) * maxabs(b), a, b))
