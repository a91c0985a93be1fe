"""Independent ground truth for the tower: symmetrizer kernels, brute primitives.

``nichols_truncation`` builds the truncated Nichols algebra directly from
the quantum symmetrizer kernels; a stabilized tower must match it degreewise
(exact subspace equality).  ``brute_force_primitives`` recomputes primitive
spaces along a deliberately different code path: coproduct terms are
evaluated permutation by permutation on individual basis tensors, using
bubble-sort reduced words and index-tuple bookkeeping, never assembling the
coproduct component matrices; the images are reduced modulo the flat mixing
space of :meth:`GradedQuotient.mixing_space`, which the engine never builds.
Oracles here may be exponentially slower than the engine; independence, not
performance, is the point.
"""

from __future__ import annotations

from itertools import combinations

from .bialgebra import GradedQuotient, GradedSubspace, _validate_quotient
from .braiding import BraidedSpace, check_degree
from .errors import ConfigMismatch, DegreeCap
from .exactlin import Matrix, Subspace, intersect, kernel_basis
from .shuffle import symmetrizer


def nichols_truncation(space: BraidedSpace, cutoff: int) -> GradedQuotient:
    """Truncated Nichols algebra via kernels of the quantum symmetrizer.

    The relation family R_d = ker(symmetrizer_d) is built degree by degree
    and then passed through the full ideal-closure and coideal re-checks,
    which double as a deep cross-check of the coproduct convention.  S_d
    maps each weight class of c to itself, so its kernel is found class by
    class, from the class's block of S_d alone.
    """
    if cutoff < 1:
        raise DegreeCap("cutoff must be at least 1")
    check_degree(cutoff)
    rels = []
    for d in range(1, cutoff + 1):
        kernels = (kernel_basis(symmetrizer(space, d, c)) for c in space.classes(d).cols)
        rels.append(GradedSubspace(space.classes(d), tuple(kernels)))
    q = GradedQuotient(space, cutoff, rels, _validated=True)
    _validate_quotient(q)
    return q


# ---------------------------------------------------------------------------
# brute-force primitive finder
# ---------------------------------------------------------------------------


def _bubble_word(perm):
    """A reduced word obtained by bubble-sorting the one-line notation.

    Any reduced word lifts to the same operator (the braid relations make
    the lift word-independent), so lexicographic minimality is not needed
    here; using a different word generator keeps this path independent.
    """
    w = list(perm)
    moves = []
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            if w[k] > w[k + 1]:
                w[k], w[k + 1] = w[k + 1], w[k]
                moves.append(k + 1)
                changed = True
    return tuple(reversed(moves))


def _apply_braid_to_tensor(space: BraidedSpace, state, k):
    """One braid generator applied to a dict {index tuple: coefficient}."""
    n = space.n
    c = space.c
    out: dict[tuple, object] = {}
    for tup, coeff in state.items():
        a, b = tup[k - 1], tup[k]
        col = a * n + b
        for r in range(n * n):
            v = c.entry(r, col)
            if v == 0:
                continue
            new = tup[: k - 1] + (r // n, r % n) + tup[k + 1 :]
            cur = out.get(new)
            out[new] = coeff * v if cur is None else cur + coeff * v
    if not space.field.is_rationals:
        p = space.field.p
        out = {t: v % p for t, v in out.items()}
    return {t: v for t, v in out.items() if v != 0}


def _tuple_to_index(tup, n):
    idx = 0
    for t in tup:
        idx = idx * n + t
    return idx


def _index_to_tuple(idx, n, d):
    digits = []
    for _ in range(d):
        digits.append(idx % n)
        idx //= n
    return tuple(reversed(digits))


def brute_force_primitives(space: BraidedSpace, q: GradedQuotient, d: int) -> Subspace:
    """Primitive representatives in degree d, recomputed term by term.

    Same contract as :func:`braidrank.bialgebra.primitives` (as a subspace),
    different code path: for each basis tensor and each (i, d-i)-unshuffle,
    the lifted permutation is applied directly to the index tuple; the
    per-split kernels are intersected pairwise.
    """
    if q.space != space:
        raise ConfigMismatch("quotient was built over a different braided space")
    if not 1 <= d <= q.cutoff:
        raise DegreeCap(f"degree {d} outside 1..{q.cutoff}")
    n = space.n
    field = space.field
    size = n**d
    if d == 1:
        red = q.relation(1).reduce_rows(Matrix.identity(field, n))
        return Subspace.from_rows(red)
    common = Subspace.full(field, size)
    for i in range(1, d):
        # inverses of the (i, d-i)-unshuffles, enumerated from value sets
        sigmas = []
        for chosen in combinations(range(d), i):
            rest = [v for v in range(d) if v not in chosen]
            w = list(chosen) + rest
            inv = [0] * d
            for pos, val in enumerate(w):
                inv[val] = pos
            sigmas.append(tuple(inv))
        words = [_bubble_word(s) for s in sigmas]
        mix = q.mixing_space(i, d - i)
        image_rows = []
        for t in range(size):
            acc: dict[tuple, object] = {}
            start = _index_to_tuple(t, n, d)
            for word in words:
                state = {start: 1}
                for k in reversed(word):
                    state = _apply_braid_to_tensor(space, state, k)
                for tup, v in state.items():
                    cur = acc.get(tup)
                    acc[tup] = v if cur is None else cur + v
            row = [0] * size
            for tup, v in acc.items():
                if not field.is_rationals:
                    v %= field.p
                row[_tuple_to_index(tup, n)] = v
            image_rows.append(row)
        images = Matrix.from_scalars(field, image_rows)
        reduced = mix.reduce_rows(images)
        common = intersect(common, kernel_basis(reduced.transpose()))
        if common.dim == 0:
            break
    rel = q.relation(d)
    if rel.dim == 0:
        return common
    return Subspace.from_rows(rel.reduce_rows(common.basis))


def compare(final: GradedQuotient, oracle: GradedQuotient) -> bool:
    """Exact degreewise equality of relation subspaces, class by class."""
    if final.space != oracle.space:
        raise ConfigMismatch("different braided spaces")
    if final.cutoff != oracle.cutoff:
        raise ConfigMismatch(f"different cutoffs: {final.cutoff} vs {oracle.cutoff}")
    return final._rels == oracle._rels
