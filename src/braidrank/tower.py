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
from functools import reduce
from itertools import accumulate, product
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
from .exactlin import Matrix, _place, vstack
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
        dims.append(rep.dim)
        if rep.dim:
            found.append((d, rep))
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
    """W = P_1 + ... + P_D: the primitive representatives of a quotient.

    ``blocks[d - 1]`` is P_d inside V^(x)d.  W-coordinates are degree-major:
    the coordinates of P_d start at ``offsets[d - 1]``, and ``degrees`` holds
    the degree of each of the ``total`` coordinates.
    """

    def __init__(self, q: GradedQuotient):
        self.quotient = q
        self.field = q.space.field
        self.blocks = [primitives(q, d).subspace for d in range(1, q.cutoff + 1)]
        self.offsets = list(accumulate((b.dim for b in self.blocks), initial=0))
        self.total = self.offsets[-1]
        self.degrees = [d for d, b in enumerate(self.blocks, 1) for _ in range(b.dim)]

    def _place(self, d: int, mat: Matrix) -> Matrix:
        """P_d-coordinate columns widened to W-coordinates by zero blocks."""
        return _place(mat, np.arange(self.offsets[d - 1], self.offsets[d]), self.total)

    def coords(self, d: int, rows: Matrix) -> Matrix | None:
        """W-coordinates of rows of V^(x)d; None when a row is not in P_d."""
        block = self.blocks[d - 1]
        if not block.contains_rows(rows):
            return None
        return self._place(d, rows.take_columns(block.pivots))

    def pair_coords(self, a: int, b: int, row: Matrix) -> Matrix:
        """Coordinates of a row of V^(x)(a+b) in the w_mu (x) w_nu basis of W (x) W.

        The row, reshaped to (n^a, n^b), lies in P_a (x) P_b exactly when each
        of its rows lies in P_b and each column of their P_b-coordinates in P_a.
        Raises when it does not, i.e. the braiding does not restrict to W.
        """
        n = self.quotient.space.n
        right = self.coords(b, Matrix.build(self.field, row.num.reshape(n**a, n**b), row.den))
        both = None if right is None else self.coords(a, right.transpose())
        if both is None:
            raise BialgebraInvariantError("braiding does not restrict to the primitive space")
        return Matrix.build(self.field, both.num.T.reshape(1, -1), both.den)

    def rows(self) -> list[Matrix]:
        """The basis vectors w_0, w_1, ... of W as rows of their V^(x)d."""
        return [b.basis.take_rows([k]) for b in self.blocks for k in range(b.dim)]

    def inclusion(self) -> Matrix:
        """V -> W: v reduced mod R_1, in the P_1 basis."""
        q = self.quotient
        return self.coords(1, q.relation(1).reduce_rows(Matrix.identity(self.field, q.space.n))).transpose()

    def gamma(self) -> Matrix:
        """W -> V: the degree-1 component."""
        return self._place(1, self.blocks[0].basis.transpose())

    def braiding(self) -> BraidedSpace:
        """W with the braiding of the tensor algebra restricted to W (x) W.

        Column (a, b) holds the coordinates of the block transposition of
        w_a (x) w_b; the result is validated as a braided space.
        """
        if self.total > 8:
            raise EnvelopeExceeded(f"primitive space dimension {self.total} exceeds the braidable cap 8")
        space = self.quotient.space
        basis = list(zip(self.rows(), self.degrees))
        pairs = [
            self.pair_coords(db, da, va.kron(vb) @ block_transposition(space, da, db).transpose())
            for va, da in basis
            for vb, db in basis
        ]
        return make_from_matrix(self.total, self.field, vstack(pairs).transpose())


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
    is the list of basis row Matrices in W-coordinate order.
    """
    ps = _PrimitiveSpace(free_truncated(space, cutoff))
    return ps.degrees, ps.rows(), ps.braiding()


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
    ps = _PrimitiveSpace(free_truncated(space, d_inner))
    w_space = ps.braiding()
    if ps.total**d_outer > 4096:
        raise EnvelopeExceeded(f"outer layer dimension {ps.total}**{d_outer} is outside the envelope")
    gam = ps.gamma()
    if gam @ ps.inclusion() != Matrix.identity(space.field, space.n):
        return False
    free_outer = free_truncated(w_space, d_outer)
    for k in range(1, d_outer + 1):
        x = primitives(free_outer, k).subspace.basis
        m_coords = _multiply_into_w(ps, x, k)
        if m_coords is None:
            return False
        # gamma(gamma_W(x)): only the k=1 layer survives gamma_W.
        lhs = x @ gam.transpose() if k == 1 else Matrix.zeros(space.field, x.rows, space.n)
        if lhs != m_coords @ gam.transpose():
            return False
    return True


def _multiply_into_w(ps: _PrimitiveSpace, x: Matrix, k: int) -> Matrix | None:
    """W-coordinates of the rows of x in W^(x)k, concatenated into T(V).

    The word w_a1 (x) ... (x) w_ak goes to the same tensor in V^(x)e, e the
    sum of its degrees; words with e above the inner cutoff are dropped.
    None when some image is not primitive.
    """
    rows = ps.rows()
    by_degree: dict[int, tuple[list[int], list[Matrix]]] = {}
    for t, word in enumerate(product(range(ps.total), repeat=k)):
        e = sum(ps.degrees[a] for a in word)
        if e <= ps.quotient.cutoff:
            cols, pieces = by_degree.setdefault(e, ([], []))
            cols.append(t)
            pieces.append(reduce(Matrix.kron, (rows[a] for a in word)))
    out = Matrix.zeros(ps.field, x.rows, ps.total)
    for e, (cols, pieces) in by_degree.items():
        coords = ps.coords(e, x.take_columns(cols) @ vstack(pieces))
        if coords is None:
            return None
        out = out + coords
    return out
