"""Braided shuffle coproduct components and the quantum symmetrizer.

The graded coproduct component Delta_{i,j} : V^(x)(i+j) -> V^(x)i (x) V^(x)j
is defined as the sum, over all (i,j)-unshuffles w, of the positive braid
lift of w^-1; the property tests pin this convention down.  It is computed
by the braided q-Pascal recursion on the last tensor slot (Rosso 1998):

    Delta_{i,j} = Delta_{i,j-1} (x) Id + c_i ... c_{d-1} (Delta_{i-1,j} (x) Id)

with d = i + j, Delta_{i,0} = Delta_{0,j} = Id, and c_{d-1} acting first.
Both representations are built on one weight class at a time, where
Delta (x) Id is block diagonal over the last letter.  A monomial braiding
(flip, diagonal) keeps Delta_{i,j} as C(d, i) integer terms in gather
form, the rows of a sources array and a numerators array, over one
denominator, stored in the narrowest dtypes.  Any other braiding keeps a
dense matrix.

The quantum symmetrizer S_d, the sum of the positive lifts of all of S_d,
is the independent oracle for the tower.  It unrolls the factorization
S_d = (S_{d-1} (x) Id) T_d, T_d = Id + c_{d-1}(Id + c_{d-2}(... (Id + c_1)))
(Flores de Chela-Green 2001) into generator actions: no recursion is shared.
From the identity on a weight class's words, it gives that class's block.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._accel import exact, gather_sum, maxabs
from .braiding import BraidedSpace, apply_generator, braid_word, check_degree, generator_terms, lexmin_reduced_word
from .errors import DegreeCap
from .exactlin import FieldSpec, Matrix, Scalar, _place, coerce_scalar, vstack


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


def _monomial_lift(space: BraidedSpace, d: int, i: int, words: np.ndarray):
    """The chain c_i ... c_{d-1} on ``words`` of V^(x)d in gather form, cached: place u gets
    num[u] / c.den**(d-i) times place src[u] of ``words``; c_i acts after the chain from i+1."""
    key = ("chain", d, i, words.tobytes())
    out = space._delta_cache.get(key)
    if out is None:
        (src,), (num,) = generator_terms(space, d, i, words)
        if i < d - 1:
            rest, scale = _monomial_lift(space, d, i + 1, words)
            src, num = rest[src], _times(num, scale[src], space.field)
        out = space._delta_cache[key] = src, num
    return out


def _dense_lift(space: BraidedSpace, d: int, word, mat: Matrix, words: np.ndarray) -> Matrix:
    """Dense lift of a braid word on ``words`` times ``mat``: the Delta chain of a non-monomial braiding."""
    return braid_word(space, d, word, mat, words)


def _by_last_letter(space: BraidedSpace, words: np.ndarray):
    """The ascending ``words`` of a class by last letter: for each letter the places ``p`` of its
    words and ``words[p] // n``, a class of degree one less; and the order that puts the places back."""
    pos = [p for p in (np.flatnonzero(words % space.n == e) for e in range(space.n)) if p.size]
    return [(p, words[p] // space.n) for p in pos], np.argsort(np.concatenate(pos))


def _monomial_delta(space: BraidedSpace, i: int, j: int, words: np.ndarray):
    """Delta_{i,j} of a monomial braiding on ascending ``words`` that it maps to itself, as ``(src, num, den)``, cached.

    Row t of the C(i+j, i) x |words| arrays is one term: place u gets
    num[t, u] / den times place src[t, u] of ``words``, and Delta_{i,j} is
    the sum of the terms; den = c.den**(i*j).  Cached per (i, j, words) in
    the narrowest dtypes (sources unsigned, numerators signed within their
    maxabs, object kept): widen before use.
    """
    key = (i, j, words.tobytes())
    out = space._delta_cache.get(key)
    if out is not None:
        return out
    if i == 0 or j == 0:
        src, num, den = np.arange(words.size)[None, :], np.ones((1, words.size), dtype=np.int64), 1
    else:
        srcs, nums = [], []
        (parts, order), (csrc, cnum) = _by_last_letter(space, words), _monomial_lift(space, i + j, i, words)
        # (x) Id on the last slot, each last letter's terms s placed at p[s], then
        # scaled by c.den**i or after the chain (which carries c.den**j): both
        # parts come to den c.den**(i*j)
        for (a, b), at, scale in (((i, j - 1), order, space.c.den**i), ((i - 1, j), order[csrc], cnum)):
            terms = [_monomial_delta(space, a, b, sub) for _, sub in parts]
            srcs.append(np.concatenate([p[t[0]] for (p, _), t in zip(parts, terms)], axis=1)[:, at])
            nums.append(_times(np.concatenate([t[1] for t in terms], axis=1)[:, at], scale, space.field))
        src, num, den = np.vstack(srcs), np.vstack(nums), space.c.den ** (i * j)
    kind = object if num.dtype == object else np.min_scalar_type(-1 - maxabs(num))
    out = space._delta_cache[key] = src.astype(np.min_scalar_type(words.size)), num.astype(kind, copy=False), den
    return out


def _assemble_monomial_sum(space: BraidedSpace, src: np.ndarray, num: np.ndarray, den: int) -> Matrix:
    """Dense matrix of a sum of monomial terms (rows of ``src`` and ``num``) over ``den``."""
    return Matrix.build(space.field, gather_sum(np.eye(src.shape[1], dtype=np.int64), src, num, space.field.p), den)


def _delta_id(space: BraidedSpace, i: int, j: int, words: np.ndarray) -> Matrix:
    """Delta_{i,j} (x) Id on ``words`` of V^(x)(i+j+1): block diagonal over the last letter."""
    parts, order = _by_last_letter(space, words)
    return vstack([_place(delta_component(space, i, j, sub), p, words.size) for p, sub in parts]).take_rows(order)


def delta_component(space: BraidedSpace, i: int, j: int, words: np.ndarray | None = None) -> Matrix:
    """The coproduct component Delta_{i,j} on V^(x)(i+j): its dense block on ``words``.

    ``words`` are ascending words that Delta maps to itself (default all).
    Delta_{0,d} = Delta_{d,0} = Id and Delta_{1,1} = Id + c; the codomain
    V^(x)i (x) V^(x)j is indexed by the shared big-endian convention.  Both
    representations are built from the classes of degree i+j-1 below
    ``words`` and cached per (i, j, words): a monomial braiding's terms
    (:func:`_monomial_delta`), any other braiding's block.
    """
    if i < 0 or j < 0:
        raise DegreeCap("degrees must be nonnegative")
    d = i + j
    check_degree(d)
    words = np.arange(space.n**d) if words is None else words
    if space.is_monomial:
        return _assemble_monomial_sum(space, *_monomial_delta(space, i, j, words))
    key = (i, j, words.tobytes())
    out = space._delta_cache.get(key)
    if out is None:
        out = Matrix.identity(space.field, words.size)
        if i and j:
            moved = _dense_lift(space, d, range(i, d), _delta_id(space, i - 1, j, words), words)
            out = _delta_id(space, i, j - 1, words) + moved
        space._delta_cache[key] = out
    return out


def symmetrizer(space: BraidedSpace, d: int, cols: np.ndarray | None = None) -> Matrix:
    """Quantum symmetrizer, the sum of positive braid lifts of all of S_d: its block on ``cols`` (default all words)."""
    check_degree(d)
    words = np.arange(space.n**d) if cols is None else cols
    out = Matrix.identity(space.field, len(words))
    for k in range(d, 1, -1):
        # out <- (T_k (x) Id) out, with T_k x = x + c_{k-1}(x + ... (x + c_1 x))
        x = out
        for i in range(1, k):
            out = x + apply_generator(space, d, i, words, out)
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
