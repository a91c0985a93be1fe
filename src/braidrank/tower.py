"""The quotient tower: step, stabilization, combinatorial rank, law checks.

One step divides a truncated quotient by the two-sided ideal generated by
its homogeneous primitives of degree at least two.  The rank reported is
truncation-relative: primitives above the cutoff could separate stages the
truncation sees as equal, so ``rank_le_cutoff`` is a lower bound for the
untruncated combinatorial rank and is labelled accordingly.

Also here: executable checks of the structural laws the construction
satisfies - the retraction law (degree-1 projection splits the unit), the
idempotency of unit-after-projection on the primitive space, the unit law
of Eilenberg-Moore algebra candidates, and the augmented-monad laws at
tiny sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bialgebra import (
    GradedQuotient,
    free_truncated,
    hilbert_series,
    ideal_saturate,
    primitives,
)
from .braiding import BraidedSpace, make_from_matrix
from .errors import BialgebraInvariantError, DimensionMismatch, EnvelopeExceeded
from .exactlin import Matrix, Subspace
from .shuffle import block_transposition

__all__ = [
    "StageReport",
    "RankReport",
    "step",
    "run",
    "gamma_retraction_check",
    "idempotent_check",
    "em_unit_check",
    "monad_augmentation_check",
    "gamma_matrix",
    "primitive_inclusion",
    "primitive_braiding",
]


@dataclass(frozen=True)
class StageReport:
    """One tower step: S_[n] -> S_[n+1].

    ``hilbert`` is the Hilbert series of the output quotient;
    ``new_relation_dims`` are the dimensions of the degree-2..D primitive
    spaces found in the input (the new relations); the stage map is an
    isomorphism up to the cutoff exactly when they are all zero.
    """

    stage: int
    hilbert: tuple[int, ...]
    new_relation_dims: tuple[int, ...]
    stage_map_iso: bool


@dataclass
class RankReport:
    """Stage-by-stage record of a tower run.

    ``rank_le_cutoff`` is the first stage whose map is an isomorphism up to
    the cutoff (None when not observed within max_iter); when stabilized,
    ``final`` is the truncated Nichols algebra.
    """

    stages: list[StageReport]
    rank_le_cutoff: int | None
    stabilized: bool
    final: GradedQuotient
    oracle_match: bool | None = None


def step(q: GradedQuotient, stage: int = 0) -> tuple[GradedQuotient, StageReport]:
    """Divide by the ideal generated by the degree >= 2 primitives.

    When no such primitives exist the output is the input itself and the
    stage map is an isomorphism up to the cutoff.
    """
    dims = []
    found = []
    for d in range(2, q.cutoff + 1):
        rep = primitives(q, d)
        dims.append(rep.subspace.dim)
        if rep.subspace.dim:
            found.append((d, rep.subspace))
    if not found:
        return q, StageReport(stage, tuple(hilbert_series(q)), tuple(dims), True)
    out = ideal_saturate(q, found)
    if not out.coideal_holds:
        # primitives always generate a bi-ideal; reaching this means a bug
        raise BialgebraInvariantError("tower stage failed the coideal re-check")
    return out, StageReport(stage, tuple(hilbert_series(out)), tuple(dims), False)


def run(
    space: BraidedSpace,
    cutoff: int,
    max_iter: int | None = None,
    *,
    resume: tuple[list[StageReport], GradedQuotient] | None = None,
    on_stage: Callable[[GradedQuotient, StageReport], None] | None = None,
) -> RankReport:
    """Iterate :func:`step` from the free object until stabilization.

    ``max_iter`` defaults to the cutoff (each productive step adds relations
    in some degree <= D).  Non-stabilization within max_iter is reported
    in-band via ``stabilized=False``, never raised.

    ``resume`` continues an earlier run from its stage reports and the
    quotient after the last of them; a resumed run that has already
    stabilized takes no further step.  ``on_stage(q, report)`` is called
    after each new step with the quotient that step produced.
    """
    if max_iter is None:
        max_iter = cutoff
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    stages, q = resume if resume is not None else ([], free_truncated(space, cutoff))
    stages = list(stages)
    # hold the start quotient only until the loop steps past it
    del resume
    rank = next((s.stage for s in stages if s.stage_map_iso), None)
    k = len(stages)
    while rank is None and k < max_iter:
        q, rep = step(q, k)
        stages.append(rep)
        if on_stage is not None:
            on_stage(q, rep)
        if rep.stage_map_iso:
            rank = k
        k += 1
    return RankReport(
        stages=stages,
        rank_le_cutoff=rank,
        stabilized=rank is not None,
        final=q,
    )


# ---------------------------------------------------------------------------
# the truncated primitive space of a quotient, with its degree-1 maps
# ---------------------------------------------------------------------------


class _PrimitiveSpace:
    """Representatives of all primitives of a quotient, degree-major."""

    def __init__(self, q: GradedQuotient):
        self.quotient = q
        self.reports = [primitives(q, d) for d in range(1, q.cutoff + 1)]
        self.dims = [r.subspace.dim for r in self.reports]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).tolist()
        self.total = int(self.offsets[-1])

    def inclusion(self) -> Matrix:
        """V -> primitive coordinates: v reduced mod R_1, in the P_1 basis."""
        q = self.quotient
        n = q.space.n
        p1 = self.reports[0].subspace
        red = q.relation(1).reduce_rows(Matrix.identity(q.space.field, n))
        coords = red.take_columns(p1.pivots)
        blk = coords.transpose()
        patch = np.zeros((self.total, n), dtype=object)
        patch[self.offsets[0] : self.offsets[0] + self.dims[0], :] = blk.num
        return Matrix.build(q.space.field, patch, blk.den)

    def gamma(self) -> Matrix:
        """Primitive coordinates -> V: the degree-1 component."""
        q = self.quotient
        n = q.space.n
        p1 = self.reports[0].subspace
        blk = p1.basis.transpose()
        patch = np.zeros((n, self.total), dtype=object)
        patch[:, self.offsets[0] : self.offsets[0] + self.dims[0]] = blk.num
        return Matrix.build(q.space.field, patch, blk.den)


def gamma_matrix(q: GradedQuotient) -> Matrix:
    """Degree-1 projection from the truncated primitive space onto V."""
    return _PrimitiveSpace(q).gamma()


def primitive_inclusion(q: GradedQuotient) -> Matrix:
    """Degree-1 inclusion of V into the truncated primitive space."""
    return _PrimitiveSpace(q).inclusion()


def gamma_retraction_check(q: GradedQuotient) -> bool:
    """Law: degree-1 projection after degree-1 inclusion is the identity on V.

    Holds exactly when R_1 = 0, which every tower stage guarantees.
    """
    ps = _PrimitiveSpace(q)
    composite = ps.gamma() @ ps.inclusion()
    return composite == Matrix.identity(q.space.field, q.space.n)


def idempotent_check(q: GradedQuotient) -> bool:
    """Law: e = inclusion o projection is idempotent on the primitive space."""
    ps = _PrimitiveSpace(q)
    e = ps.inclusion() @ ps.gamma()
    return e @ e == e


def em_unit_check(space: BraidedSpace, cutoff: int, action: Matrix) -> bool:
    """Unit law of an Eilenberg-Moore algebra candidate on the free object.

    ``action`` maps the truncated primitive space of the free object to V;
    the law requires action o (degree-1 inclusion) = Id_V.  The COMPANION
    associativity law needs the doubled tensor layer and is not checked here
    (see :func:`monad_augmentation_check` for the tiny-size version).
    """
    q = free_truncated(space, cutoff)
    ps = _PrimitiveSpace(q)
    if action.shape != (space.n, ps.total):
        raise DimensionMismatch(
            f"action must be {space.n}x{ps.total}, got {action.shape}"
        )
    return action @ ps.inclusion() == Matrix.identity(space.field, space.n)


# ---------------------------------------------------------------------------
# augmented-monad laws at tiny sizes
# ---------------------------------------------------------------------------


def primitive_braiding(space: BraidedSpace, cutoff: int):
    """The primitive space W of the free object with its induced braiding.

    W is the direct sum of the degree-d primitive representatives, d <= D.
    The braiding of the ambient tensor algebra restricts to W (x) W via the
    block transpositions; the restriction is verified coordinatewise and
    then validated as a braided space in its own right.

    Returns ``(degrees, basis_rows, braided_space_on_W)`` where basis_rows
    is a list of (degree, row Matrix) in W-coordinate order.
    """
    free = free_truncated(space, cutoff)
    blocks = [(d, primitives(free, d).subspace) for d in range(1, cutoff + 1)]
    degrees: list[int] = []
    rows: list[Matrix] = []
    for d, sub in blocks:
        for k in range(sub.dim):
            degrees.append(d)
            rows.append(sub.basis.take_rows([k]))
    dim_w = len(degrees)
    if dim_w > 8:
        raise EnvelopeExceeded(
            f"primitive space dimension {dim_w} exceeds the braidable cap 8"
        )
    field = space.field
    cw_rows = [[None] * (dim_w * dim_w) for _ in range(dim_w * dim_w)]
    for col_a, (da, va) in enumerate(zip(degrees, rows)):
        for col_b, (db, vb) in enumerate(zip(degrees, rows)):
            vec = va.kron(vb)
            moved = (block_transposition(space, da, db) @ vec.transpose()).transpose()
            coords = _w_pair_coords(moved, db, da, degrees, blocks)
            col = col_a * dim_w + col_b
            for r in range(dim_w * dim_w):
                cw_rows[r][col] = coords[r]
    cw = Matrix.from_scalars(field, cw_rows)
    return degrees, rows, make_from_matrix(dim_w, field, cw)


def _w_pair_coords(moved: Matrix, deg_first, deg_second, degrees, blocks):
    """Coordinates of a vector of V^(x)(a+b) in the w_mu (x) w_nu basis.

    Raises when the vector does not lie in W (x) W, i.e. the braiding does
    not restrict.
    """
    dim_w = len(degrees)
    out = [0] * (dim_w * dim_w)
    by_degree = dict(blocks)
    sub_a = by_degree.get(deg_first)
    sub_b = by_degree.get(deg_second)
    if sub_a is None or sub_b is None or sub_a.dim == 0 or sub_b.dim == 0:
        if not moved.is_zero():
            raise BialgebraInvariantError("braiding does not restrict to the primitive space")
        return out
    pair_basis = Subspace(
        moved.cols,
        sub_a.basis.kron(sub_b.basis),
        tuple(p * (moved.cols // sub_a.ambient_dim) + t for p in sub_a.pivots for t in sub_b.pivots),
    )
    if not pair_basis.contains_rows(moved):
        raise BialgebraInvariantError("braiding does not restrict to the primitive space")
    coords = moved.take_columns(pair_basis.pivots)
    offset_a = sum(1 for d in degrees if d < deg_first)
    offset_b = sum(1 for d in degrees if d < deg_second)
    k = 0
    for i in range(sub_a.dim):
        for j in range(sub_b.dim):
            out[(offset_a + i) * dim_w + (offset_b + j)] = coords.entry(0, k)
            k += 1
    return out


def monad_augmentation_check(space: BraidedSpace, d_outer: int, d_inner: int) -> bool:
    """Check the augmented-monad laws at a small doubled instance.

    With W the truncated primitive space of the free object on V, the outer
    layer is the free object on (W, induced braiding).  The check verifies,
    on the outer primitive space:

    * gamma o u = Id (unit law),
    * the images of outer primitives under the multiplication candidate
      (the algebra map T(W) -> T(V) extending the inclusion) remain
      primitive within the computable truncation,
    * gamma o m = gamma o gamma_W exactly.

    Components of the multiplication image above the inner cutoff have
    V-degree >= 2, so dropping them cannot change either side of the law.
    """
    if d_outer < 1 or d_inner < 1:
        raise EnvelopeExceeded("both truncation depths must be at least 1")
    degrees, rows, w_space = primitive_braiding(space, d_inner)
    dim_w = len(degrees)
    if dim_w**d_outer > 4096:
        raise EnvelopeExceeded(
            f"outer layer dimension {dim_w}**{d_outer} is outside the envelope"
        )
    field = space.field
    n = space.n

    # gamma_V on W: the V-degree-1 block of W-coordinates.
    free_inner = free_truncated(space, d_inner)
    w1 = primitives(free_inner, 1).subspace
    idx1 = [k for k, d in enumerate(degrees) if d == 1]
    blk = w1.basis.transpose()
    patch = np.zeros((n, dim_w), dtype=object)
    for t, k in enumerate(idx1):
        for r in range(n):
            patch[r, k] = blk.num[r, t]
    gam_v_mat = Matrix.build(field, patch, blk.den)

    # unit law: u includes V as the degree-1 block of W.
    unit = np.zeros((dim_w, n), dtype=object)
    red1 = free_inner.relation(1).reduce_rows(Matrix.identity(field, n))
    coords1 = red1.take_columns(w1.pivots)
    for t, k in enumerate(idx1):
        for c in range(n):
            unit[k, c] = coords1.num[c, t]
    unit_mat = Matrix.build(field, unit, coords1.den)
    if gam_v_mat @ unit_mat != Matrix.identity(field, n):
        return False

    free_outer = free_truncated(w_space, d_outer)
    outer_prims = [(k, primitives(free_outer, k).subspace) for k in range(1, d_outer + 1)]
    inner_blocks = {d: primitives(free_inner, d).subspace for d in range(1, d_inner + 1)}

    for k_deg, sub in outer_prims:
        for row_idx in range(sub.dim):
            x = sub.basis.take_rows([row_idx])
            # gamma(gamma_W(x)): only the k=1 layer survives gamma_W.
            if k_deg == 1:
                lhs = (gam_v_mat @ x.transpose()).transpose()
            else:
                lhs = Matrix.zeros(field, 1, n)
            m_coords = _multiply_into_w(space, x, k_deg, degrees, rows, inner_blocks, d_inner)
            if m_coords is None:
                return False
            rhs = (gam_v_mat @ m_coords.transpose()).transpose()
            if lhs != rhs:
                return False
    return True


def _multiply_into_w(space, x, k_deg, degrees, rows, inner_blocks, d_inner):
    """Expand an outer tensor through concatenation and express it in W.

    Returns the W-coordinates of the image (components of V-degree above the
    inner cutoff are dropped), or None when the image fails to be primitive.
    """
    field = space.field
    dim_w = len(degrees)
    by_degree: dict[int, Matrix] = {}
    for t in range(x.cols):
        coeff = x.entry(0, t)
        if coeff == 0:
            continue
        digits = []
        rem = t
        for _ in range(k_deg):
            digits.append(rem % dim_w)
            rem //= dim_w
        digits.reverse()
        total_deg = sum(degrees[a] for a in digits)
        if total_deg > d_inner:
            continue
        piece = rows[digits[0]]
        for a in digits[1:]:
            piece = piece.kron(rows[a])
        arr = by_degree.get(total_deg)
        add = piece.scale(coeff)
        by_degree[total_deg] = add if arr is None else arr + add
    coords = [0] * dim_w
    for deg, vec in sorted(by_degree.items()):
        if vec.is_zero():
            continue
        sub = inner_blocks[deg]
        if sub.dim == 0 or not sub.contains_rows(vec):
            return None
        offset = sum(1 for d in degrees if d < deg)
        cvals = vec.take_columns(sub.pivots)
        for i in range(sub.dim):
            coords[offset + i] = cvals.entry(0, i)
    return Matrix.from_scalars(field, [coords])
