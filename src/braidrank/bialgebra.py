"""Truncated graded braided bialgebra quotients T(V,c)/I up to a cutoff.

A :class:`GradedQuotient` stores each relation subspace R_d of V^(x)d as
a :class:`GradedSubspace`: one :class:`Subspace` per weight class
(:meth:`BraidedSpace.classes`), on the class's own words; the primitives
are one as well.  Braid lifts and coproduct components of a braiding that
preserves multidegree map each class to itself, so saturation, the
primitive kernels, Delta application and both re-checks run class by
class.  An ungraded braiding, or a quotient saturated from a generator
with a row across two classes, has one class: the same code path.  Only
:class:`GradedSubspace` knows the class layout and its flat n^d-wide form;
flat generators are split in :func:`_class_rows`.

Two invariants are re-verified (exactly) every time a quotient is built:

* ideal closure:  (V (x) R_d) + (R_d (x) V) is contained in R_{d+1},
* coideal property:  Delta_{i,d-i}(R_d) lands in
  R_i (x) V^(x)(d-i) + V^(x)i (x) R_{d-i},

which together make the quotient a truncated braided bialgebra.  A failure
is a hard error: the tower construction guarantees both, so a violation
flags an implementation bug (it also tripwires the coproduct convention).

On a class, the monomial basis of Q_d is indexed by the non-pivot columns
N of the rref basis B of R_d there, and pi_d is x |-> x[N] - x[P] B[:, N].
The mixing space R_i (x) V^(x)j + V^(x)i (x) R_j is exactly the kernel of
pi_i (x) pi_j, so it is never built: the coideal re-check tests
(pi_i (x) pi_j) Delta_{i,j} B^T = 0, and primitives start from the
representatives e_c, c in N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _accel, shuffle
from .braiding import BraidedSpace, WeightClasses, check_degree
from .errors import AmbientMismatch, BialgebraInvariantError, DegreeCap
from .exactlin import Matrix, Subspace, _place, kernel_basis, kernel_rows, vstack

__all__ = [
    "GradedQuotient",
    "GradedSubspace",
    "free_truncated",
    "ideal_saturate",
    "primitives",
    "hilbert_series",
    "omega_projection",
    "augmentation_split",
]


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace of V^(x)d as one :class:`Subspace` per class of ``classes``,
    each on its class's own words.

    The one holder of the class layout: :attr:`subspace` and :meth:`rows`
    give the flat canonical basis.  Class supports are disjoint, so the
    class rows sorted by pivot are the flat rref.
    """

    classes: WeightClasses
    parts: tuple[Subspace, ...]

    @property
    def dim(self) -> int:
        return sum(part.dim for part in self.parts)

    @property
    def subspace(self) -> Subspace:
        """The flat canonical basis, stored by the 2**62 rule of :meth:`Matrix.build` like any matrix."""
        size, pairs = self.classes.label.size, list(zip(self.classes.cols, self.parts))
        pivots = np.concatenate([cols[list(part.pivots)] for cols, part in pairs])
        order = np.argsort(pivots)
        basis = vstack([_place(part.basis, cols, size) for cols, part in pairs]).take_rows(order)
        return Subspace(size, basis, tuple(pivots[order].tolist()))

    def rows(self):
        """Each row of the flat canonical basis, in pivot order, as a list of scalars."""
        cols = [c.tolist() for c in self.classes.cols]
        order = sorted((cols[k][p], k, r) for k, part in enumerate(self.parts) for r, p in enumerate(part.pivots))
        for _, k, r in order:
            row, basis = [0] * self.classes.label.size, self.parts[k].basis
            for c, v in zip(cols[k], basis.num[r].tolist()):
                if v:
                    row[c] = Fraction(v, basis.den) if basis.field.is_rationals else v
            yield row

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        if np.array_equal(self.classes.label, other.classes.label):
            return self.parts == other.parts
        return self.subspace == other.subspace


def _non_pivots(sub: Subspace) -> np.ndarray:
    return np.delete(np.arange(sub.ambient_dim), sub.pivots)


def _class_rows(classes: WeightClasses, gen) -> list[Matrix] | None:
    """The rows of ``gen``, a flat matrix or a :class:`GradedSubspace`, split
    by class onto each class's columns; None when a row meets two classes.

    This is the one place where a partition is read off a flat matrix.
    """
    if isinstance(gen, GradedSubspace):
        if gen.classes is classes:
            return [part.basis for part in gen.parts]
        gen = gen.subspace.basis
    nz = gen.num != 0
    # the class of each row's first nonzero; -1 for a zero row
    by_row = np.where(nz.any(axis=1), classes.label[nz.argmax(axis=1)], -1)
    if (nz & (classes.label != by_row[:, None])).any():
        return None
    return [Matrix.build(gen.field, gen.num[np.ix_(by_row == k, c)], gen.den) for k, c in enumerate(classes.cols)]


def _split(space: BraidedSpace, graded: bool, gens: list) -> tuple[bool, list]:
    """``(graded, [(d, rows per class)])`` for the (d, generator) pairs ``gens``;
    a row across two classes puts every degree in the one-class partition."""
    for g in (graded, False):
        out = [(d, _class_rows(space.classes(d, g), gen)) for d, gen in gens]
        if all(rows is not None for _, rows in out):
            return g, out


def _span(rel: Subspace, rows: list[Matrix]) -> Subspace:
    """``rel`` plus the span of ``rows``; the stack is eliminated with its rows
    sorted by leading column, which keeps the fill-in small."""
    if rel.dim == rel.ambient_dim or not any(r.rows for r in rows):
        return rel
    stack = vstack([rel.basis, *rows])
    lead = (stack.num != 0).argmax(axis=1)
    return Subspace.from_rows(stack.take_rows(np.argsort(lead, kind="stable")))


def _shifted(n: int, rel: GradedSubspace, dst: WeightClasses):
    """For each nonzero class basis b of R_d and each letter e: (b, class w of
    ``dst``, the classes of V^(x)(d+1), places in w) of b (x) e, then of e (x) b."""
    size = rel.classes.label.size
    for part, cols in zip(rel.parts, rel.classes.cols):
        for words in [cols * n + e for e in range(n)] + [e * size + cols for e in range(n)]:
            if part.dim:
                w = dst.label[words[0]]
                yield part.basis, w, np.searchsorted(dst.cols[w], words)


class GradedQuotient:
    """Truncated bialgebra quotient: braided space, cutoff, relation family.

    ``_rels[d - 1]`` holds R_d as a :class:`GradedSubspace`.
    ``coideal_holds`` records the outcome of the coideal re-check.  It is
    True for every tower stage; quotients saturated from generators that are
    not primitive are still valid graded algebra quotients, but their
    coproduct does not descend and the primitive computation refuses them.
    """

    __slots__ = ("space", "cutoff", "coideal_holds", "_rels", "_proj", "_prim_cache")

    def __init__(self, space: BraidedSpace, cutoff: int, rels, _validated=False):
        if not _validated:
            raise TypeError("use free_truncated / ideal_saturate")
        self.space = space
        self.cutoff = cutoff
        self.coideal_holds = True
        self._rels: tuple[GradedSubspace, ...] = tuple(rels)
        self._proj: dict[tuple[int, int], Matrix] = {}
        self._prim_cache: dict[int, GradedSubspace] = {}

    # -- structure ----------------------------------------------------------

    def classes(self, d: int) -> WeightClasses:
        return self._rel(d).classes

    def _rel(self, d: int) -> GradedSubspace:
        if not 1 <= d <= self.cutoff:
            raise DegreeCap(f"degree {d} outside 1..{self.cutoff}")
        return self._rels[d - 1]

    def relation(self, d: int) -> Subspace:
        """R_d with its flat canonical basis."""
        return self._rel(d).subspace

    def qdim(self, d: int) -> int:
        if d == 0:
            return 1
        return self.space.n**d - self._rel(d).dim

    def projection(self, d: int, k: int) -> Matrix:
        """pi_d on class k: den on the non-pivots N, -B[:, N]^T on the pivots."""
        out = self._proj.get((d, k))
        if out is None:
            rel = self._rels[d - 1].parts[k]
            out = self._proj[(d, k)] = kernel_rows(rel.basis, rel.pivots)
        return out

    def tensor_coords(self, i: int, j: int, k: int, rows: Matrix) -> Matrix:
        """(pi_i (x) pi_j) of rows on class k of V^(x)(i+j), up to a scale per grid.

        Each grid of :meth:`WeightClasses.grids` gets the numerators of pi_j
        on its columns, then those of pi_i on its rows; a factor whose R is
        0 is the identity.  A row maps to zero exactly when it lies in
        :meth:`mixing_space`: the order and scale of the coordinates are
        nothing a kernel sees.
        """
        field, m = rows.field, rows.rows
        blocks = [np.zeros((m, 0), dtype=np.int64)]
        for a, b, grid in self.classes(i + j).grids(self.classes(i), self.classes(j))[k]:
            out = rows.num[:, grid]
            for d, c in ((j, b), (i, a)):
                # the factor's axis is last; each step moves the other one there
                if self._rels[d - 1].parts[c].dim:
                    (s, t), proj = out.shape[1:], self.projection(d, c).num.T
                    out = _accel.matmul_int(out.reshape(m * s, t), proj, field.p).reshape(m, s, proj.shape[1])
                out = out.transpose(0, 2, 1)
            blocks.append(out.transpose(0, 2, 1).reshape(m, -1))
        return Matrix.build(field, np.hstack(blocks), rows.den)

    @property
    def total_dim(self) -> int:
        return 1 + sum(self.qdim(d) for d in range(1, self.cutoff + 1))

    def offset(self, d: int) -> int:
        """Start of the degree-d block in the truncated total space."""
        return sum(self.qdim(k) for k in range(d))

    def mixing_space(self, i: int, j: int) -> Subspace:
        """R_i (x) V^(x)j + V^(x)i (x) R_j inside V^(x)(i+j).

        Only the tests use this explicit construction, as the reference for
        :meth:`tensor_coords` and the quotient-side coideal re-check.
        """
        n, field = self.space.n, self.space.field
        left = self.relation(i).basis.kron(Matrix.identity(field, n**j))
        right = Matrix.identity(field, n**i).kron(self.relation(j).basis)
        return Subspace.from_rows(vstack([left, right]))

    def __eq__(self, other):
        if not isinstance(other, GradedQuotient):
            return NotImplemented
        return self.space == other.space and self.cutoff == other.cutoff and self._rels == other._rels

    __hash__ = None

    def __repr__(self):
        return f"GradedQuotient(n={self.space.n}, D={self.cutoff}, hilbert={hilbert_series(self)})"


def _apply_delta_rows(space: BraidedSpace, i: int, j: int, rows: Matrix, cols: np.ndarray, transposed=False) -> Matrix:
    """rows @ Delta_{i,j}^T, or rows @ Delta_{i,j} when ``transposed``.

    The rows live on the words ``cols`` of a class, which Delta maps to
    itself.  For a monomial braiding, rows @ Delta^T is the sum over the
    terms of :func:`braidrank.shuffle._monomial_delta`, sliced to the
    class, of rows[:, src] * num, and rows @ Delta uses each term's inverse
    permutation; any other braiding multiplies by the class's block of
    :func:`braidrank.shuffle.delta_component`.
    """
    if not space.is_monomial:
        delta = shuffle.delta_component(space, i, j, cols)
        return rows @ (delta if transposed else delta.transpose())
    src, num, den = shuffle._monomial_delta(space, i, j)
    src, num = np.searchsorted(cols, src[:, cols]), num[:, cols]
    if transposed:
        src = np.argsort(src, axis=1)
        num = np.take_along_axis(num, src, axis=1)
    out = _accel.gather_sum(rows.num.T, src, num, space.field.p)
    return Matrix.build(space.field, out.T, rows.den * den)


# ---------------------------------------------------------------------------
# construction and saturation
# ---------------------------------------------------------------------------


def _validate_quotient(q: GradedQuotient, require_coideal: bool = True):
    """Exact re-check of ideal closure (hard) and the coideal property, class by class.

    Ideal-closure failure is always an error.  A coideal failure raises when
    ``require_coideal`` is set (tower stages, oracle truncations) and is
    otherwise recorded on the quotient, so that directly saturated non-
    primitive generators still yield a usable graded algebra quotient.
    """
    for d in range(1, q.cutoff):
        # each b (x) e and e (x) b times pi_{d+1}^T of its class
        for basis, w, pos in _shifted(q.space.n, q._rels[d - 1], q.classes(d + 1)):
            if _accel.matmul_int(basis.num, q.projection(d + 1, w).num[:, pos].T, q.space.field.p).any():
                raise BialgebraInvariantError(f"ideal closure fails from degree {d} to {d + 1}")
    for d in range(2, q.cutoff + 1):
        r_d = q._rels[d - 1]
        for k, (rel, cols) in enumerate(zip(r_d.parts, r_d.classes.cols)):
            if rel.dim == 0:
                continue
            free, ident = _non_pivots(rel), Matrix.identity(q.space.field, cols.size)
            tail = rel.basis.take_columns(free).transpose()
            for i in range(1, d):
                # M = (pi_i (x) pi_{d-i}) Delta_{i,d-i} on the class, one row per
                # coordinate; B[:, P] = Id, so M B^T = M[:, P] + M[:, N] B[:, N]^T
                coords = q.tensor_coords(i, d - i, k, ident).transpose()
                cov = _apply_delta_rows(q.space, i, d - i, coords, cols, transposed=True)
                if not (cov.take_columns(rel.pivots) + cov.take_columns(free) @ tail).is_zero():
                    if require_coideal:
                        raise BialgebraInvariantError(
                            f"coideal property fails at degree {d}, split ({i},{d - i})"
                        )
                    q.coideal_holds = False
                    return


def free_truncated(space: BraidedSpace, cutoff: int) -> GradedQuotient:
    """The free truncated object: no relations, Hilbert series [1, n, n^2, ...]."""
    if cutoff < 1:
        raise DegreeCap("cutoff must be at least 1")
    check_degree(cutoff)
    classes = [space.classes(d) for d in range(1, cutoff + 1)]
    rels = [GradedSubspace(c, tuple(Subspace.zero(space.field, cols.size) for cols in c.cols)) for c in classes]
    q = GradedQuotient(space, cutoff, rels, _validated=True)
    _validate_quotient(q)
    return q


def ideal_saturate(q: GradedQuotient, new_relations) -> GradedQuotient:
    """Smallest ideal-closed relation family containing R and the generators.

    ``new_relations`` is a list of (degree, generators) pairs, each a flat
    Subspace or a :class:`GradedSubspace` of ``q``.  Generators are added
    class by class, then one ascending sweep propagates
    R_{d+1} <- R_{d+1} + V (x) R_d + R_d (x) V, class w of R_d feeding the
    classes w + e of R_{d+1}.  It reaches the fixpoint because closure only
    feeds upward; the invariant re-check then certifies it.  Quotient
    dimensions weakly decrease.
    """
    space, n = q.space, q.space.n
    gens = []
    for d, sub in new_relations:
        if not 1 <= d <= q.cutoff:
            raise DegreeCap(f"generator degree {d} outside 1..{q.cutoff}")
        if not isinstance(sub, GradedSubspace):
            if sub.ambient_dim != n**d:
                raise AmbientMismatch(
                    f"degree-{d} generators live in dimension {n**d}, got {sub.ambient_dim}"
                )
            if sub.field != space.field:
                raise AmbientMismatch(f"field mismatch: {sub.field} vs {space.field}")
            sub = sub.basis
        gens.append((d, sub))
    # q's own partition first; it stays unless a generator crosses two classes
    graded, gens = _split(space, q.classes(1) is space.classes(1), gens)
    rels = [
        rel if rel.classes is space.classes(d, graded) else GradedSubspace(space.classes(d, False), (rel.subspace,))
        for d, rel in enumerate(q._rels, 1)
    ]
    for d, rows in gens:
        rel = rels[d - 1]
        rels[d - 1] = GradedSubspace(rel.classes, tuple(_span(p, [r]) for p, r in zip(rel.parts, rows)))
    for d in range(1, q.cutoff):
        dst = rels[d].classes
        pieces = [[] for _ in dst.cols]
        for basis, w, pos in _shifted(n, rels[d - 1], dst):
            pieces[w].append(_place(basis, pos, dst.cols[w].size))
        rels[d] = GradedSubspace(dst, tuple(_span(p, rows) for p, rows in zip(rels[d].parts, pieces)))
    out = GradedQuotient(space, q.cutoff, rels, _validated=True)
    _validate_quotient(out, require_coideal=False)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def primitives(q: GradedQuotient, d: int) -> GradedSubspace:
    """Representatives of the primitives of the quotient in degree d.

    An element is primitive when every mixed coproduct component vanishes in
    the quotient, i.e. (pi_i (x) pi_{d-i}) Delta_{i,d-i}(x) = 0 for every
    0 < i < d.  Delta keeps each class, so the exact kernel intersection
    runs class by class, from the representatives e_c, c in N, of Q_d
    there.  R is a coideal (else the quotient is refused), so R_d lies in
    every such kernel and the result is the primitive preimage reduced
    modulo R_d.  Degree 1 returns a complement of R_1 (all of V in a tower).
    """
    cached = q._prim_cache.get(d)
    if cached is not None:
        return cached
    r_d = q._rel(d)
    if not q.coideal_holds:
        raise BialgebraInvariantError(
            "the coproduct does not descend to this quotient (coideal re-check failed)"
        )
    field, parts = q.space.field, []
    for k, (rel, cols) in enumerate(zip(r_d.parts, r_d.classes.cols)):
        free = _non_pivots(rel)
        units = _place(Matrix.identity(field, free.size), free, cols.size)
        kern = Subspace(cols.size, units, tuple(free.tolist()))
        for i in range(1, d):
            if kern.dim == 0:
                break
            images = q.tensor_coords(i, d - i, k, _apply_delta_rows(q.space, i, d - i, kern.basis, cols))
            if images.is_zero():
                continue
            # both factors are rref bases, so their product is one too
            inner = kernel_basis(images.transpose())
            kern = Subspace(cols.size, inner.basis @ kern.basis, tuple(kern.pivots[r] for r in inner.pivots))
        parts.append(kern)
    out = q._prim_cache[d] = GradedSubspace(r_d.classes, tuple(parts))
    return out


# ---------------------------------------------------------------------------
# series and augmentation structure
# ---------------------------------------------------------------------------


def hilbert_series(q: GradedQuotient) -> list[int]:
    """Dimensions of the graded components, degree 0 (always 1) through D."""
    return [q.qdim(d) for d in range(q.cutoff + 1)]


def omega_projection(q: GradedQuotient) -> Matrix:
    """Degree-1 projection from the truncated total space onto V.

    Columns are indexed by the quotient monomial bases, degree-major from 0
    to D.  Composed with the degree-1 inclusion it is the identity on V.
    """
    sec = Matrix.identity(q.space.field, q.space.n).take_columns(_non_pivots(q.relation(1)))
    return _place(sec, np.arange(q.offset(1), q.offset(2)), q.total_dim)


def augmentation_split(q: GradedQuotient) -> tuple[Matrix, Matrix]:
    """The counit-kernel splitting (zeta, tau) of the truncated quotient.

    The quotient is graded connected, so the augmentation ideal (kernel of
    the counit) is exactly the positive-degree part: zeta includes it into
    the total space, tau = Id - unit o counit projects back, and
    tau o zeta = Id holds on the nose.
    """
    total = q.total_dim
    zeta = Matrix.build(q.space.field, np.eye(total, total - 1, k=-1, dtype=np.int64))
    return zeta, zeta.transpose()
