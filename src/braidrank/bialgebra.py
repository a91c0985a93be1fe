"""Truncated graded braided bialgebra quotients T(V,c)/I up to a cutoff.

A :class:`GradedQuotient` stores one relation subspace R_d of V^(x)d per
degree d <= D.  Two invariants are re-verified (exactly) every time a
quotient is built:

* ideal closure:  (V (x) R_d) + (R_d (x) V) is contained in R_{d+1},
* coideal property:  Delta_{i,d-i}(R_d) lands in
  R_i (x) V^(x)(d-i) + V^(x)i (x) R_{d-i},

which together make the quotient a truncated braided bialgebra.  A failure
is a hard error: the tower construction guarantees both, so a violation
flags an implementation bug (it also tripwires the coproduct convention).

Quotient spaces are represented canonically: the monomial basis of degree d
is indexed by the non-pivot columns N of rref(R_d), and the projection
pi_d : V^(x)d -> Q_d = V^(x)d / R_d is x |-> x[N] - x[P] B[:, N], with B
the rref basis and P its pivots.  The mixing space
R_i (x) V^(x)j + V^(x)i (x) R_j is exactly the kernel of pi_i (x) pi_j, so
it is never built: the coideal re-check tests
(pi_i (x) pi_j) Delta_{i,j} B^T = 0, and primitives start from the
representatives e_c, c in N, of Q_d.

When the braiding preserves multidegree (``BraidedSpace.weights``), every
R_d, primitive kernel and saturation stack is block-diagonal by weight, and
the eliminations here run one weight class at a time; the bases are the
flat ones, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel, shuffle
from .braiding import BraidedSpace, check_degree, on_slots
from .errors import AmbientMismatch, BialgebraInvariantError, DegreeCap
from .exactlin import Matrix, Subspace, graded_matmul, hstack, kernel_basis, vstack

__all__ = [
    "GradedQuotient",
    "PrimitiveReport",
    "free_truncated",
    "ideal_saturate",
    "primitives",
    "hilbert_series",
    "omega_projection",
    "augmentation_split",
]


@dataclass(frozen=True)
class PrimitiveReport:
    """Representatives of the degree-d primitives of a graded quotient.

    The subspace lives in V^(x)d, meets R_d only in 0, and its image spans
    the primitives of the quotient in degree d.
    """

    degree: int
    subspace: Subspace


class GradedQuotient:
    """Truncated bialgebra quotient: braided space, cutoff, relation family.

    ``coideal_holds`` records the outcome of the coideal re-check.  It is
    True for every tower stage; quotients saturated from generators that are
    not primitive are still valid graded algebra quotients, but their
    coproduct does not descend and the primitive computation refuses them.
    """

    __slots__ = ("space", "cutoff", "coideal_holds", "_relations", "_prim_cache")

    def __init__(self, space: BraidedSpace, cutoff: int, relations, _validated=False):
        if not _validated:
            raise TypeError("use free_truncated / ideal_saturate")
        self.space = space
        self.cutoff = cutoff
        self.coideal_holds = True
        self._relations = tuple(relations)
        self._prim_cache: dict[int, PrimitiveReport] = {}

    # -- structure ----------------------------------------------------------

    def relation(self, d: int) -> Subspace:
        if not 1 <= d <= self.cutoff:
            raise DegreeCap(f"degree {d} outside 1..{self.cutoff}")
        return self._relations[d - 1]

    def qdim(self, d: int) -> int:
        if d == 0:
            return 1
        return self.space.n**d - self.relation(d).dim

    def quotient_columns(self, d: int) -> tuple[int, ...]:
        """Non-pivot columns of rref(R_d): the canonical monomial basis."""
        piv = set(self.relation(d).pivots)
        return tuple(c for c in range(self.space.n**d) if c not in piv)

    def section(self, d: int) -> Matrix:
        """Canonical section: quotient coordinates -> representative in V^(x)d."""
        cols = self.quotient_columns(d)
        num = np.zeros((self.space.n**d, len(cols)), dtype=np.int64)
        num[cols, range(len(cols))] = 1
        return Matrix.build(self.space.field, num)

    def projection(self, d: int) -> Matrix:
        """pi_d as a q_d x n^d matrix: the identity on N, -B[:, N]^T on the pivots."""
        rel = self.relation(d)
        cols = self.quotient_columns(d)
        num = np.zeros((len(cols), rel.ambient_dim), dtype=rel.basis.num.dtype)
        num[range(len(cols)), cols] = rel.basis.den
        num[:, list(rel.pivots)] = -rel.basis.num[:, list(cols)].T
        return Matrix.build(self.space.field, num, rel.basis.den)

    def tensor_coords(self, i: int, j: int, rows: Matrix) -> Matrix:
        """(pi_i (x) pi_j) of each row of V^(x)(i+j), flattened Q_j-major.

        A row maps to zero exactly when it lies in :meth:`mixing_space`.
        pi_j acts on the last j slots, then pi_i on the first i; a factor
        whose R is 0 is the identity and is skipped.
        """
        n, m = self.space.n, rows.rows
        if rows.cols != n ** (i + j):
            raise AmbientMismatch(f"vector length {rows.cols} vs ambient {n ** (i + j)}")
        out = rows.transpose()
        for d, lead in ((j, n**i), (i, 1)):
            if self.relation(d).dim:
                out = on_slots(self.projection(d), lead, out)
        qi, qj = self.qdim(i), self.qdim(j)
        return Matrix.build(rows.field, out.num.reshape(qi, qj, m).transpose(2, 1, 0).reshape(m, qj * qi), out.den)

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
        return (
            self.space == other.space
            and self.cutoff == other.cutoff
            and self._relations == other._relations
        )

    __hash__ = None

    def __repr__(self):
        return f"GradedQuotient(n={self.space.n}, D={self.cutoff}, hilbert={hilbert_series(self)})"


def _apply_delta_rows(space: BraidedSpace, i: int, j: int, rows: Matrix, transposed: bool = False) -> Matrix:
    """rows @ Delta_{i,j}^T, or rows @ Delta_{i,j} when ``transposed``.

    A monomial braiding scatters the integer terms of
    :func:`braidrank.shuffle._monomial_delta`; a term's targets form a
    permutation, so its transpose is the term ``(inv, num[inv])`` with
    ``inv = argsort(tgt)``.  Any other braiding multiplies by the dense
    :func:`braidrank.shuffle.delta_component`.
    """
    if space.is_monomial:
        terms, den = shuffle._monomial_delta(space, i, j)
        if transposed:
            terms = [(np.argsort(tgt), num) for tgt, num in terms]
            terms = [(inv, num[inv]) for inv, num in terms]
        return _scatter_apply(space, rows, terms, den)
    delta = shuffle.delta_component(space, i, j)
    return rows @ (delta if transposed else delta.transpose())


def _scatter_apply(space: BraidedSpace, rows: Matrix, terms, den: int) -> Matrix:
    """Sum over monomial terms of rows @ term^T / den via column scatter.

    Each term sends source column c to target column tgt[c] scaled by
    num[c]; targets within one term never collide, so fancy-indexed
    accumulation is exact.
    """
    field = space.field
    size = rows.cols
    m = rows.rows
    # over F_p the sum is reduced after every term
    term_max = _accel.maxabs(rows.num) * max(_accel.maxabs(c) for _, c in terms)
    bound = term_max * len(terms) if field.is_rationals else term_max + field.p
    src, *coeffs = _accel.exact(bound, rows.num, *(c for _, c in terms))
    out = np.zeros((size, m), dtype=src.dtype)
    for (tgt, _), c in zip(terms, coeffs):
        out[np.asarray(tgt)] += (src * c[None, :]).T
        if not field.is_rationals:
            out %= field.p
    return Matrix.build(field, out.T, rows.den * den)


# ---------------------------------------------------------------------------
# construction and saturation
# ---------------------------------------------------------------------------


def _validate_quotient(q: GradedQuotient, require_coideal: bool = True):
    """Exact re-check of ideal closure (hard) and the coideal property.

    Ideal-closure failure is always an error.  A coideal failure raises when
    ``require_coideal`` is set (tower stages, oracle truncations) and is
    otherwise recorded on the quotient, so that directly saturated non-
    primitive generators still yield a usable graded algebra quotient.
    """
    for d in range(1, q.cutoff):
        rel = q.relation(d)
        if rel.dim == 0:
            continue
        # the rows b (x) e_k, then e_k (x) b, of the basis b of R_d, times pi_{d+1}^T
        proj = q.projection(d + 1).transpose()
        for lead in (1, q.space.n):
            if not on_slots(rel.basis, lead, proj).is_zero():
                raise BialgebraInvariantError(
                    f"ideal closure fails from degree {d} to {d + 1}"
                )
    for d in range(2, q.cutoff + 1):
        rel = q.relation(d)
        if rel.dim == 0:
            continue
        cols = q.quotient_columns(d)
        tail = rel.basis.take_columns(cols).transpose()
        for i in range(1, d):
            # M = (pi_i (x) pi_{d-i}) Delta_{i,d-i} has q_i q_{d-i} rows, not dim R_d;
            # B[:, P] = Id, so M B^T = M[:, P] + M[:, N] B[:, N]^T has q_d inner columns
            proj = q.projection(i).kron(q.projection(d - i))
            covectors = _apply_delta_rows(q.space, i, d - i, proj, transposed=True)
            if not (covectors.take_columns(rel.pivots) + covectors.take_columns(cols) @ tail).is_zero():
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
    rels = [Subspace.zero(space.field, space.n**d) for d in range(1, cutoff + 1)]
    q = GradedQuotient(space, cutoff, rels, _validated=True)
    _validate_quotient(q)
    return q


def ideal_saturate(q: GradedQuotient, new_relations) -> GradedQuotient:
    """Smallest ideal-closed relation family containing R and the generators.

    ``new_relations`` is a list of (degree, Subspace) pairs.  Generators are
    added degreewise, then one ascending sweep propagates
    R_{d+1} <- R_{d+1} + V (x) R_d + R_d (x) V, which reaches the fixpoint
    because closure only feeds upward; the invariant re-check then certifies
    it.  Quotient dimensions weakly decrease.
    """
    n = q.space.n
    rels = list(q._relations)
    for d, sub in new_relations:
        if not 1 <= d <= q.cutoff:
            raise DegreeCap(f"generator degree {d} outside 1..{q.cutoff}")
        if sub.ambient_dim != n**d:
            raise AmbientMismatch(
                f"degree-{d} generators live in dimension {n**d}, got {sub.ambient_dim}"
            )
        if sub.field != q.space.field:
            raise AmbientMismatch(f"field mismatch: {sub.field} vs {q.space.field}")
        rels[d - 1] = rels[d - 1].sum(sub, q.space.weights(d))
    eye = Matrix.identity(q.space.field, n)
    for d in range(1, q.cutoff):
        cur = rels[d - 1]
        if cur.dim == 0:
            continue
        stack = [rels[d].basis] if rels[d].dim else []
        stack.append(cur.basis.kron(eye))
        stack.append(eye.kron(cur.basis))
        rels[d] = Subspace.from_rows(vstack(stack), q.space.weights(d + 1))
    out = GradedQuotient(q.space, q.cutoff, rels, _validated=True)
    _validate_quotient(out, require_coideal=False)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def primitives(q: GradedQuotient, d: int) -> PrimitiveReport:
    """Representatives of the primitives of the quotient in degree d.

    An element is primitive when every mixed coproduct component vanishes in
    the quotient, i.e. (pi_i (x) pi_{d-i}) Delta_{i,d-i}(x) = 0 for every
    0 < i < d.  The exact kernel intersection starts from the representatives
    e_c, c in N, of Q_d: R is a coideal (else the quotient is refused), so
    R_d lies in every such kernel and the result is the primitive preimage
    reduced modulo R_d.  Degree 1 returns a complement of R_1 (all of V in a
    tower).

    For a graded braiding each kern row has the weight of its pivot, and
    each image row lies in one weight class.  So the coefficient kernel is
    eliminated per class of kern rows, and the product coefficients @ kern
    multiplies each class's coefficients by its kern rows, restricted to
    that class's columns of V^(x)d.
    """
    cached = q._prim_cache.get(d)
    if cached is not None:
        return cached
    if not 1 <= d <= q.cutoff:
        raise DegreeCap(f"degree {d} outside 1..{q.cutoff}")
    if not q.coideal_holds:
        raise BialgebraInvariantError(
            "the coproduct does not descend to this quotient (coideal re-check failed)"
        )
    space = q.space
    size = space.n**d
    weights = space.weights(d)
    kern = Subspace(size, q.section(d).transpose(), q.quotient_columns(d))
    for i in range(1, d):
        if kern.dim == 0:
            break
        images = q.tensor_coords(i, d - i, _apply_delta_rows(space, i, d - i, kern.basis))
        if images.is_zero():
            continue
        coeffs = kernel_basis(images.transpose(), weights[list(kern.pivots)])
        if coeffs.dim == 0:
            kern = Subspace.zero(space.field, size)
            break
        kern = Subspace.from_rows(graded_matmul(coeffs.basis, kern.basis, weights), weights)
    report = PrimitiveReport(d, kern)
    q._prim_cache[d] = report
    return report


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
    sec = q.section(1)
    left, right = (Matrix.zeros(q.space.field, q.space.n, k) for k in (q.offset(1), q.total_dim - q.offset(2)))
    return hstack([left, sec, right])


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
