"""Graded quotients: saturation, primitives, series, augmentation maps."""

from __future__ import annotations

from fractions import Fraction

import pytest

from braidrank import (
    GF,
    RATIONALS,
    AmbientMismatch,
    BialgebraInvariantError,
    DegreeCap,
    Matrix,
    Subspace,
    augmentation_split,
    free_truncated,
    hilbert_series,
    ideal_saturate,
    make_flip,
    make_from_matrix,
    omega_projection,
    primitives,
)
from braidrank.bialgebra import GradedQuotient, _validate_quotient
from braidrank.exactlin import kernel_basis, vstack
from braidrank.tower import run

from conftest import diagonal_space, sym_dim, witt


def span(field, ambient, rows):
    return Subspace.from_rows(Matrix.from_scalars(field, rows))


def test_free_truncated_examples():
    assert hilbert_series(free_truncated(make_flip(1, RATIONALS), 3)) == [1, 1, 1, 1]
    assert hilbert_series(free_truncated(make_flip(2, RATIONALS), 2)) == [1, 2, 4]


def test_free_truncated_cap():
    with pytest.raises(DegreeCap):
        free_truncated(make_flip(2, RATIONALS), 0)
    with pytest.raises(DegreeCap):
        free_truncated(make_flip(2, RATIONALS), 13)


def test_saturate_empty_is_identity_op():
    q = free_truncated(make_flip(2, RATIONALS), 3)
    assert ideal_saturate(q, []) == q


def test_saturate_x_squared_kills_higher_degrees():
    space = make_flip(1, RATIONALS)
    q = free_truncated(space, 4)
    gen = span(RATIONALS, 1, [[1]])  # x (x) x inside the 1-dim degree-2 space
    out = ideal_saturate(q, [(2, gen)])
    assert hilbert_series(out) == [1, 1, 0, 0, 0]


def test_saturate_commutator_gives_polynomial_ring():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 3)
    commutator = span(RATIONALS, 4, [[0, 1, -1, 0]])  # e01 - e10
    out = ideal_saturate(q, [(2, commutator)])
    assert hilbert_series(out) == [1, 2, 3, 4]


def test_saturate_rejects_wrong_ambient():
    q = free_truncated(make_flip(2, RATIONALS), 3)
    with pytest.raises(AmbientMismatch):
        ideal_saturate(q, [(2, Subspace.full(RATIONALS, 3))])


def _jordan():
    return make_from_matrix(
        2, RATIONALS, Matrix.from_scalars(RATIONALS, [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]])
    )


@pytest.mark.parametrize(
    "space",
    [make_flip(2, RATIONALS), make_flip(2, GF(3)), _jordan()],
    ids=["flip-QQ", "flip-F3", "jordan-QQ"],
)
def test_saturate_flags_non_coideal_generators(space):
    # the ideal generated by the single monomial e01 is not a coideal:
    # Delta(e01) = e01 + c(e01) does not lie in R_1 (x) V + V (x) R_1 = 0.
    # The algebra quotient is still formed, but the coproduct does not
    # descend, so the primitive computation refuses it.  The cases cover
    # the monomial scatter over Q and over F_p and the dense product.
    q = free_truncated(space, 3)
    bad = span(space.field, 4, [[0, 1, 0, 0]])
    out = ideal_saturate(q, [(2, bad)])
    assert out.coideal_holds is False
    with pytest.raises(BialgebraInvariantError):
        primitives(out, 2)


def test_hilbert_series_examples():
    space = make_flip(3, RATIONALS)
    q = free_truncated(space, 3)
    gens = []
    basis = []
    # antisymmetric combinations e_ij - e_ji for i < j
    for i in range(3):
        for j in range(i + 1, 3):
            row = [0] * 9
            row[3 * i + j] = 1
            row[3 * j + i] = -1
            basis.append(row)
    out = ideal_saturate(q, [(2, span(RATIONALS, 9, basis))])
    assert hilbert_series(out) == [sym_dim(3, d) for d in range(4)]


def test_primitives_free_degree1_is_everything():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 2)
    rep = primitives(q, 1)
    assert rep.subspace == Subspace.full(RATIONALS, 2)


def test_primitives_free_flip_witt_dimensions():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 5)
    for d in range(2, 6):
        assert primitives(q, d).subspace.dim == witt(2, d)


def test_primitive_degree2_is_commutator_line():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 2)
    rep = primitives(q, 2)
    assert rep.subspace == span(RATIONALS, 4, [[0, 1, -1, 0]])


def test_primitive_sign_braiding_square():
    space = diagonal_space(RATIONALS, [[-1]])
    q = free_truncated(space, 2)
    rep = primitives(q, 2)
    assert rep.subspace == Subspace.full(RATIONALS, 1)


def test_primitive_representatives_meet_relations_trivially():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 4)
    commutator = span(RATIONALS, 4, [[0, 1, -1, 0]])
    out = ideal_saturate(q, [(2, commutator)])
    for d in range(2, 5):
        rep = primitives(out, d)
        for k in range(rep.subspace.dim):
            row = rep.subspace.basis.take_rows([k])
            assert not out.relation(d).contains_rows(row)


def test_primitives_respect_mixed_component_condition():
    from braidrank.bialgebra import _apply_delta_rows

    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 4)
    for d in range(2, 5):
        rep = primitives(q, d)
        if rep.subspace.dim == 0:
            continue
        for i in range(1, d):
            img = _apply_delta_rows(space, i, d - i, rep.subspace.basis)
            assert q.mixing_space(i, d - i).contains_rows(img)


def _tower_quotients(space, cutoff):
    """The free object and every stage of its quotient tower."""
    stages = [free_truncated(space, cutoff)]
    run(space, cutoff, cutoff, on_stage=lambda q, rep: stages.append(q))
    return stages


def test_tensor_coords_kernel_is_the_mixing_space():
    # pi_i (x) pi_j maps a row to zero exactly when the row lies in
    # R_i (x) V^(x)j + V^(x)i (x) R_j, the explicitly built reference.
    # The A2 pair (5/2, -2/5) at D=7 takes the object-dtype product path.
    from braidrank.bialgebra import _apply_delta_rows

    a2 = diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]])
    jordan = _jordan()
    cases = [
        (make_flip(2, RATIONALS), 5),
        (make_flip(3, RATIONALS), 4),
        (a2, 7),
        (diagonal_space(GF(7), [[2, 3], [4, 5]]), 5),
        (jordan, 5),
    ]
    for space, cutoff in cases:
        for q in _tower_quotients(space, cutoff):
            for d in range(2, cutoff + 1):
                for i in range(1, d):
                    mixing = q.mixing_space(i, d - i)
                    images = _apply_delta_rows(space, i, d - i, Matrix.identity(space.field, space.n**d))
                    rows = vstack([images, mixing.basis]) if mixing.dim else images
                    projected_zero = ~(q.tensor_coords(i, d - i, rows).num != 0).any(axis=1)
                    inside = ~(mixing.reduce_rows(rows).num != 0).any(axis=1)
                    assert projected_zero.tolist() == inside.tolist(), (space, d, i)
                    projected = kernel_basis(q.tensor_coords(i, d - i, images).transpose())
                    reference = kernel_basis(mixing.reduce_rows(images).transpose())
                    assert projected == reference, (space, d, i)


def test_scatter_application_matches_dense_product():
    # the monomial scatter path and the dense matrix product are two
    # implementations of rows @ Delta^T, and with the transposed terms of
    # rows @ Delta; they must agree entry for entry
    from braidrank import delta_component, shuffle
    from braidrank.bialgebra import _apply_delta_rows

    cases = [
        make_flip(2, RATIONALS),
        make_flip(2, GF(3)),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(GF(7), [[2, 3], [4, 5]]),
    ]
    for space in cases:
        for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            size = space.n ** (i + j)
            rows = Matrix.from_scalars(
                space.field,
                [[(r * 7 + c * 3 + 1) % 5 - 2 for c in range(size)] for r in range(3)],
            )
            delta = delta_component(space, i, j)
            assert _apply_delta_rows(space, i, j, rows) == rows @ delta.transpose(), (space, i, j)
            assert _apply_delta_rows(space, i, j, rows, transposed=True) == rows @ delta, (space, i, j)

    # at d = 8 these splits of the A2 pair have object-dtype terms; int64
    # row blocks whose bound is 0 (no rows, all zeros) must still promote
    space = cases[2]
    size = space.n**8
    blocks = [
        Matrix.zeros(RATIONALS, 0, size),
        Matrix.zeros(RATIONALS, 2, size),
        Matrix.identity(RATIONALS, size).take_rows(range(0, size, 37)),
    ]
    for (i, j) in [(3, 5), (4, 4), (5, 3)]:
        assert any(num.dtype == object for _, num in shuffle._monomial_delta(space, i, j)[0])
        delta = delta_component(space, i, j)
        for rows in blocks:
            assert _apply_delta_rows(space, i, j, rows) == rows @ delta.transpose(), (i, j, rows.rows)
            assert _apply_delta_rows(space, i, j, rows, transposed=True) == rows @ delta, (i, j, rows.rows)


def test_hilbert_nonincreasing_under_saturation():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 4)
    before = hilbert_series(q)
    out = ideal_saturate(q, [(2, span(RATIONALS, 4, [[0, 1, -1, 0]]))])
    after = hilbert_series(out)
    assert all(a <= b for a, b in zip(after, before))


def test_validate_quotient_catches_broken_closure():
    space = make_flip(2, RATIONALS)
    rels = [
        Subspace.zero(RATIONALS, 2),
        span(RATIONALS, 4, [[0, 1, -1, 0]]),
        Subspace.zero(RATIONALS, 8),  # missing the pushed-up relations
    ]
    broken = GradedQuotient(space, 3, rels, _validated=True)
    with pytest.raises(BialgebraInvariantError):
        _validate_quotient(broken)


def test_omega_projection_laws():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 3)
    omega = omega_projection(q)
    total = q.total_dim
    assert omega.shape == (2, total)
    unit_col = Matrix.from_scalars(RATIONALS, [[1 if k == 0 else 0] for k in range(total)])
    assert (omega @ unit_col).is_zero()
    off = q.offset(1)
    e0 = Matrix.from_scalars(RATIONALS, [[1 if k == off else 0] for k in range(total)])
    assert (omega @ e0).scalar_rows() == [[Fraction(1)], [Fraction(0)]]
    # degree-2 monomial is killed
    off2 = q.offset(2)
    mono = Matrix.from_scalars(RATIONALS, [[1 if k == off2 else 0] for k in range(total)])
    assert (omega @ mono).is_zero()
    # omega o (degree-1 inclusion) = Id
    incl = Matrix.zeros(RATIONALS, total, 2) + Matrix.from_scalars(
        RATIONALS,
        [[1 if (r == off and c == 0) or (r == off + 1 and c == 1) else 0 for c in range(2)] for r in range(total)],
    )
    assert omega @ incl == Matrix.identity(RATIONALS, 2)


def test_augmentation_split_roundtrip():
    space = make_flip(1, RATIONALS)
    q = free_truncated(space, 2)
    zeta, tau = augmentation_split(q)
    total = q.total_dim
    assert zeta.shape == (total, total - 1)
    assert tau.shape == (total - 1, total)
    assert tau @ zeta == Matrix.identity(RATIONALS, total - 1)
    # zeta o tau = Id - unit o counit: kills the unit, fixes positive degrees
    proj = zeta @ tau
    unit_col = Matrix.from_scalars(RATIONALS, [[1 if k == 0 else 0] for k in range(total)])
    assert (proj @ unit_col).is_zero()
    deg1 = Matrix.from_scalars(RATIONALS, [[1 if k == 1 else 0] for k in range(total)])
    assert proj @ deg1 == deg1


def test_mod_p_quotients():
    space = make_flip(1, GF(2))
    q = free_truncated(space, 4)
    # in characteristic 2 the square is already primitive
    assert primitives(q, 2).subspace.dim == 1
    out = ideal_saturate(q, [(2, Subspace.full(GF(2), 1))])
    assert hilbert_series(out) == [1, 1, 0, 0, 0]
