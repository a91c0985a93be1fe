"""Braided shuffle coproduct components and the quantum symmetrizer.

The graded coproduct component Delta_{i,j} : V^(x)(i+j) -> V^(x)i (x) V^(x)j
is defined as the sum, over all (i,j)-unshuffles w, of the positive braid
lift of w^-1; the property tests pin this convention down.  It is computed
by the braided q-Pascal recursion on the last tensor slot (Rosso 1998):

    Delta_{i,j} = Delta_{i,j-1} (x) Id + c_i ... c_{d-1} (Delta_{i-1,j} (x) Id)

with d = i + j, Delta_{i,0} = Delta_{0,j} = Id, and c_{d-1} acting first.
A monomial braiding (flip, diagonal) keeps Delta_{i,j} as C(d, i) integer
terms (targets, numerators) over one denominator; any other braiding keeps
a dense matrix.

The quantum symmetrizer S_d, the sum of the positive lifts of all of S_d,
is the independent oracle for the tower.  It is built from the reference
generators of :mod:`braidrank.braiding` by the factorization
S_d = (S_{d-1} (x) Id) T_d, T_d = Id + c_{d-1}(Id + c_{d-2}(... (Id + c_1)))
(Flores de Chela-Green 2001), so it shares no code with the recursion.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._accel import exact, maxabs
from .braiding import (
    BraidedSpace,
    braid_generator,
    braid_word,
    check_degree,
    lexmin_reduced_word,
)
from .errors import DegreeCap
from .exactlin import FieldSpec, Matrix, Scalar, coerce_scalar


def unshuffles(i: int, j: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (i,j)-unshuffles with their lex-minimal reduced words.

    Returns ``[(perm, word), ...]`` where ``perm`` is a 0-based one-line
    tuple increasing on positions ``0..i-1`` and ``i..i+j-1``, ordered
    lexicographically, and ``word`` multiplies out to ``perm`` under
    :func:`braidrank.braiding.braid_word`.  There are C(i+j, i) of them.
    """
    if i < 0 or j < 0:
        raise DegreeCap("degrees must be nonnegative")
    d = i + j
    check_degree(d)
    perms = []
    for first in combinations(range(d), i):
        rest = [v for v in range(d) if v not in first]
        perms.append(tuple(first) + tuple(rest))
    perms.sort()
    return [(w, lexmin_reduced_word(w)) for w in perms]


# ---------------------------------------------------------------------------
# braid lifts as monomial index maps (fast path) or dense matrices
# ---------------------------------------------------------------------------


def _times(a: np.ndarray, b, field: FieldSpec) -> np.ndarray:
    """Exact elementwise product of integer arrays, object dtype if int64 could wrap."""
    b = np.asarray(b)
    a, b = exact(maxabs(a) * maxabs(b), a, b)
    return a * b if field.is_rationals else a * b % field.p


def _monomial_lift(space: BraidedSpace, d: int, word):
    """Lift of a braid word on V^(x)d: index t goes to num[t] / c.den**len(word) at tgt[t]."""
    n = space.n
    size = n**d
    nsq = n * n
    perm = space._monomial
    cnum = space.c.num[perm, np.arange(nsq)]
    tgt = np.arange(size, dtype=np.int64)
    num = np.ones(size, dtype=np.int64)
    for k in reversed(list(word)):
        base = n ** (d - k - 1)
        pairs = (tgt // base) % nsq
        tgt = tgt + (perm[pairs] - pairs) * base
        num = _times(num, cnum[pairs], space.field)
    return tgt, num


def _dense_lift(space: BraidedSpace, d: int, word) -> Matrix:
    """Dense lift of a braid word (the name the benchmark tracer counts)."""
    return braid_word(space, d, word)


def _monomial_delta(space: BraidedSpace, i: int, j: int):
    """Delta_{i,j} of a monomial braiding as ``(terms, den)``, cached.

    Term ``(tgt, num)`` sends basis index t to num[t] / den at tgt[t], and
    Delta_{i,j} is the sum of its C(i+j, i) terms; den = c.den**(i*j).
    """
    out = space._delta_cache.get((i, j))
    if out is not None:
        return out
    n, d = space.n, i + j
    if i == 0 or j == 0:
        out = [(np.arange(n**d), np.ones(n**d, dtype=np.int64))], 1
    else:
        # (x) Id on the last slot, then Id scaled by c.den**i or the chain
        # (which carries c.den**j): both parts come to den c.den**(i*j)
        left = _monomial_delta(space, i, j - 1)[0]
        right = _monomial_delta(space, i - 1, j)[0]
        ident = np.arange(n**d), _times(np.ones(n**d, dtype=np.int64), space.c.den**i, space.field)
        chain = _monomial_lift(space, d, range(i, d))
        terms = []
        for part, (ctgt, cnum) in ((left, ident), (right, chain)):
            for tgt, num in part:
                tgt = (tgt[:, None] * n + np.arange(n)).ravel()
                terms.append((ctgt[tgt], _times(np.repeat(num, n), cnum[tgt], space.field)))
        out = terms, space.c.den ** (i * j)
    space._delta_cache[(i, j)] = out
    return out


def _assemble_monomial_sum(space: BraidedSpace, d: int, terms, den: int) -> Matrix:
    """Dense matrix of a sum of monomial terms over the denominator ``den``."""
    size = space.n**d
    nums = exact(max(maxabs(num) for _, num in terms) * len(terms), *(num for _, num in terms))
    out = np.zeros((size, size), dtype=nums[0].dtype)
    for (tgt, _), num in zip(terms, nums):
        out[tgt, np.arange(size)] += num
    return Matrix.build(space.field, out, den)


def delta_component(space: BraidedSpace, i: int, j: int) -> Matrix:
    """The coproduct component Delta_{i,j} on V^(x)(i+j) as a dense matrix.

    Delta_{0,d} = Delta_{d,0} = Id and Delta_{1,1} = Id + c; the codomain
    V^(x)i (x) V^(x)j is indexed by the shared big-endian convention, so the
    matrix is square of size n^(i+j).
    """
    if i < 0 or j < 0:
        raise DegreeCap("degrees must be nonnegative")
    d = i + j
    check_degree(d)
    if space.is_monomial:
        return _assemble_monomial_sum(space, d, *_monomial_delta(space, i, j))
    out = space._delta_cache.get((i, j))
    if out is None:
        out = Matrix.identity(space.field, space.n**d)
        if i and j:
            eye = Matrix.identity(space.field, space.n)
            moved = _dense_lift(space, d, range(i, d)) @ delta_component(space, i - 1, j).kron(eye)
            out = delta_component(space, i, j - 1).kron(eye) + moved
        space._delta_cache[(i, j)] = out
    return out


def symmetrizer(space: BraidedSpace, d: int) -> Matrix:
    """Quantum symmetrizer: sum of positive braid lifts of all of S_d."""
    cached = space._sym_cache.get(d)
    if cached is not None:
        return cached
    check_degree(d)
    out = eye = Matrix.identity(space.field, space.n**d)
    if d > 0:
        for k in range(1, d):
            out = eye + braid_generator(space, d, k) @ out
        out = symmetrizer(space, d - 1).kron(Matrix.identity(space.field, space.n)) @ out
    space._sym_cache[d] = out
    return out


def block_transposition(space: BraidedSpace, a: int, b: int) -> Matrix:
    """Positive braid lift of the block swap V^(x)a (x) V^(x)b -> V^(x)b (x) V^(x)a."""
    perm = tuple(t + b for t in range(a)) + tuple(range(b))
    return braid_word(space, a + b, lexmin_reduced_word(perm))


def gaussian_binomial(d: int, i: int, q: Scalar, field: FieldSpec) -> Scalar:
    """Gaussian binomial coefficient at q, via the q-Pascal recursion."""
    if not 0 <= i <= d:
        raise ValueError(f"need 0 <= i <= d, got i={i}, d={d}")
    q = coerce_scalar(q, field)
    one = coerce_scalar(1, field)
    prime = None if field.is_rationals else field.p

    # row-by-row q-Pascal: [d,i] = [d-1,i-1] + q^i [d-1,i]
    row = [one]
    for m in range(1, d + 1):
        new = [one]
        qpow = q
        for k in range(1, m):
            v = row[k - 1] + qpow * row[k]
            if prime:
                v %= prime
            new.append(v)
            qpow = qpow * q
            if prime:
                qpow %= prime
        new.append(one)
        row = new
    return row[i]
