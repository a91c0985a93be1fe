"""Hot integer kernels: rational and modular Gauss-Jordan elimination.

Every kernel is vectorised numpy on int64 arrays.  Before an elimination
step or a product that could overflow int64, the kernel bails out and the
same algorithm re-runs on an object-dtype (arbitrary precision) copy, so
results are exact for any input.

All kernels are sequential; repeated runs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

# Largest |numerator| or denominator for which one elimination update (two
# products plus a subtraction) provably fits in int64: 2 * LIMIT**2 < 2**63.
LIMIT = 2_000_000_000


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


def _rref_frac_generic(num, dens, guarded: bool):
    """Elimination on int64 (guarded against overflow) or object dtype."""
    rows, cols = num.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(num[r:, c])
        if nz.size == 0:
            continue
        if guarded:
            m = int(np.abs(num).max()) if num.size else 0
            m = max(m, int(dens.max()) if dens.size else 0)
            if m > LIMIT:
                return pivots, False
        i = r + int(nz[0])
        if i != r:
            num[[r, i]] = num[[i, r]]
            dens[[r, i]] = dens[[i, r]]
        piv = num[r, c]
        if piv < 0:
            num[r] = -num[r]
            piv = -piv
        dens[r] = piv
        if num.dtype == object:
            g = 0
            for v in num[r]:
                g = gcd_int(g, int(v))
                if g == 1:
                    break
            g = gcd_int(g, int(dens[r]))
        else:
            g = int(np.gcd.reduce(np.abs(num[r])))
            g = gcd_int(g, int(dens[r]))
        if g > 1:
            num[r] = num[r] // g
            dens[r] = dens[r] // g
        dr = dens[r]
        f = num[:, c].copy()
        rest = np.flatnonzero(f)
        rest = rest[rest != r]
        if rest.size:
            num[rest] = num[rest] * dr - np.outer(f[rest], num[r])
            dens[rest] = dens[rest] * dr
            if num.dtype == object:
                for i2 in rest:
                    g = int(dens[i2])
                    for v in num[i2]:
                        g = gcd_int(g, int(v))
                        if g == 1:
                            break
                    if g > 1:
                        num[i2] = num[i2] // g
                        dens[i2] = dens[i2] // g
            else:
                gs = np.gcd.reduce(np.abs(num[rest]), axis=1)
                gs = np.gcd(gs, dens[rest])
                gs[gs == 0] = 1
                num[rest] //= gs[:, None]
                dens[rest] //= gs
        pivots.append(c)
        r += 1
    return pivots, True


def rref_frac(num: np.ndarray):
    """Rational rref of an integer matrix (row denominators are internal).

    Returns ``(numerators, row_dens, pivots)`` describing the unique rref:
    row i of the result is ``numerators[i] / row_dens[i]``.  The input is
    not modified; int64 work falls back to exact object arithmetic when an
    elimination step could overflow.
    """
    if num.dtype != object:
        work = np.ascontiguousarray(num, dtype=np.int64).copy()
        dens = np.ones(num.shape[0], dtype=np.int64)
        pivots, ok = _rref_frac_generic(work, dens, guarded=True)
        if ok:
            return work, dens, pivots
    work = num.astype(object)
    dens = np.ones(num.shape[0], dtype=object)
    pivots, _ = _rref_frac_generic(work, dens, guarded=False)
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


def _maxabs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(max(abs(x) for x in arr.flat))
    return max(abs(int(arr.min())), abs(int(arr.max())))


def matmul_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product; promotes to object dtype when int64 could wrap."""
    if a.dtype != object and b.dtype != object:
        bound = _maxabs(a) * _maxabs(b) * max(1, a.shape[1])
        if bound < 2**63:
            return a @ b
    return np.dot(a.astype(object), b.astype(object))


def kron_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product; promotes to object dtype when needed."""
    if a.dtype != object and b.dtype != object:
        if _maxabs(a) * _maxabs(b) < 2**63:
            return np.kron(a, b)
    return np.kron(a.astype(object), b.astype(object))
