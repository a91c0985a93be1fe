"""Tower iteration, rank, and the augmentation / idempotent / EM law checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from braidrank import (
    GF,
    RATIONALS,
    BialgebraInvariantError,
    DimensionMismatch,
    Matrix,
    Subspace,
    augmentation_split,
    em_unit_check,
    free_truncated,
    gamma_retraction_check,
    hilbert_series,
    ideal_saturate,
    idempotent_check,
    make_flip,
    monad_augmentation_check,
    omega_projection,
    run,
    step,
)
from braidrank import tower
from braidrank.tower import gamma_matrix, primitive_braiding, primitive_inclusion

from conftest import diagonal_space, sym_dim, witt


def test_step_on_stabilized_input_is_fixpoint():
    space = diagonal_space(RATIONALS, [[-1]])
    rep = run(space, 4)
    final = rep.final
    again, stage = step(final, 99)
    assert again == final
    assert stage.stage_map_iso
    assert stage.stage == 99
    assert all(v == 0 for v in stage.new_relation_dims)


def test_step_free_flip_n2_matches_known_dims():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 3)
    out, stage = step(q)
    assert list(stage.hilbert) == [1, 2, 3, 4]
    assert list(stage.new_relation_dims) == [witt(2, 2), witt(2, 3)] == [1, 2]
    assert not stage.stage_map_iso
    assert hilbert_series(out) == [1, 2, 3, 4]


def test_step_sign_braiding():
    space = diagonal_space(RATIONALS, [[-1]])
    q = free_truncated(space, 4)
    out, stage = step(q)
    assert hilbert_series(out) == [1, 1, 0, 0, 0]


def test_run_flip_rank_bound_char0():
    # one generator: the tensor algebra is already the polynomial ring, no
    # degree >= 2 primitives exist, so the first stage map is invertible
    rep1 = run(make_flip(1, RATIONALS), 4)
    assert rep1.stabilized and rep1.rank_le_cutoff == 0
    # two generators: one productive step (the commutators), then stable
    rep2 = run(make_flip(2, RATIONALS), 4)
    assert rep2.stabilized and rep2.rank_le_cutoff == 1
    for n, rep in ((1, rep1), (2, rep2)):
        assert hilbert_series(rep.final) == [sym_dim(n, d) for d in range(5)]


def test_run_sign_braiding_rank_one():
    rep = run(diagonal_space(RATIONALS, [[-1]]), 6)
    assert rep.stabilized and rep.rank_le_cutoff == 1
    assert hilbert_series(rep.final) == [1, 1, 0, 0, 0, 0, 0]


def test_run_flip_char2():
    rep = run(make_flip(1, GF(2)), 4)
    assert rep.stabilized and rep.rank_le_cutoff == 1
    assert hilbert_series(rep.final) == [1, 1, 0, 0, 0]


def test_run_generic_q_has_rank_zero():
    # q not a root of unity: no degree >= 2 primitives at all, the free
    # object is already the Nichols algebra of the line
    for q in (Fraction(2), Fraction(1, 2)):
        rep = run(diagonal_space(RATIONALS, [[q]]), 4)
        assert rep.stabilized and rep.rank_le_cutoff == 0
        assert hilbert_series(rep.final) == [1, 1, 1, 1, 1]


def test_run_max_iter_zero_reports_unstabilized():
    rep = run(make_flip(2, RATIONALS), 3, max_iter=0)
    assert not rep.stabilized
    assert rep.rank_le_cutoff is None
    assert rep.stages == []
    assert hilbert_series(rep.final) == [1, 2, 4, 8]


def test_run_resumes_and_reports_each_new_stage():
    space = diagonal_space(RATIONALS, [[-1, -1], [1, -1]])
    full = run(space, 5)
    assert len(full.stages) >= 2
    seen = []
    partial = run(space, 5, max_iter=1, on_stage=lambda q, rep: seen.append((q, rep)))
    assert not partial.stabilized
    assert [rep for _, rep in seen] == partial.stages == full.stages[:1]
    seen.clear()
    resumed = run(
        space, 5, resume=(partial.stages, partial.final), on_stage=lambda q, rep: seen.append((q, rep))
    )
    assert resumed.stages == full.stages
    assert resumed.final == full.final
    assert resumed.rank_le_cutoff == full.rank_le_cutoff
    assert [rep for _, rep in seen] == full.stages[1:]
    assert seen[-1][0] == full.final
    # a resume point that already stabilized takes no further step
    seen.clear()
    again = run(space, 5, resume=(full.stages, full.final), on_stage=lambda q, rep: seen.append(rep))
    assert seen == [] and again.stages == full.stages and again.final == full.final


def test_monotone_stabilization():
    rep = run(make_flip(2, RATIONALS), 4)
    # once iso, every later step is iso as well
    q = rep.final
    for extra in range(2):
        q, stage = step(q)
        assert stage.stage_map_iso


def test_stage_hilbert_weakly_decreases():
    rep = run(make_flip(2, RATIONALS), 4)
    prev = hilbert_series(free_truncated(make_flip(2, RATIONALS), 4))
    for stage in rep.stages:
        assert all(a <= b for a, b in zip(stage.hilbert, prev))
        prev = list(stage.hilbert)


def test_gamma_retraction_free_and_stages():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 3)
    assert gamma_retraction_check(q)
    rep = run(space, 3)
    assert gamma_retraction_check(rep.final)


def test_gamma_retraction_fails_with_degree_one_relation():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 3)
    line = Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[1, 0]]))
    broken = ideal_saturate(q, [(1, line)])
    assert broken.coideal_holds
    assert not gamma_retraction_check(broken)


def test_idempotent_check_on_stages_and_free():
    space = make_flip(2, RATIONALS)
    free = free_truncated(space, 2)
    assert idempotent_check(free)
    rep = run(space, 4)
    assert idempotent_check(rep.final)
    sign = diagonal_space(RATIONALS, [[-1]])
    assert idempotent_check(free_truncated(sign, 4))


def test_idempotent_is_rank_two_projector_on_free_flip_d2():
    space = make_flip(2, RATIONALS)
    free = free_truncated(space, 2)
    incl = primitive_inclusion(free)
    gam = gamma_matrix(free)
    # primitive space = V + exterior square: dimension 3
    assert incl.shape == (3, 2)
    e = incl @ gam
    assert e @ e == e
    assert e.rank() == 2


@pytest.mark.parametrize("field", [RATIONALS, GF(7)])
def test_law_maps_pinned_with_degree_one_relation(field):
    # flip n=2 saturated by the line e0: Q_d = span(e1^d), W = P_1 = span(e1)
    q = free_truncated(make_flip(2, field), 3)
    line = Subspace.from_rows(Matrix.from_scalars(field, [[1, 0]]))
    cut = ideal_saturate(q, [(1, line)])
    assert hilbert_series(cut) == [1, 1, 1, 1]
    assert gamma_matrix(cut) == Matrix.from_scalars(field, [[0], [1]])
    assert primitive_inclusion(cut) == Matrix.from_scalars(field, [[0, 1]])
    assert omega_projection(cut) == Matrix.from_scalars(field, [[0, 0, 0, 0], [0, 1, 0, 0]])
    zeta = Matrix.from_scalars(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert augmentation_split(cut) == (zeta, zeta.transpose())
    assert not gamma_retraction_check(cut) and idempotent_check(cut)


def test_law_maps_pinned_when_degree_one_primitives_vanish():
    # flip n=1 saturated by all of V: every R_d is everything, W = 0
    q = free_truncated(make_flip(1, RATIONALS), 3)
    cut = ideal_saturate(q, [(1, Subspace.full(RATIONALS, 1))])
    assert hilbert_series(cut) == [1, 0, 0, 0]
    assert gamma_matrix(cut) == Matrix.zeros(RATIONALS, 1, 0)
    assert primitive_inclusion(cut) == Matrix.zeros(RATIONALS, 0, 1)
    assert omega_projection(cut) == Matrix.zeros(RATIONALS, 1, 1)
    assert augmentation_split(cut) == (Matrix.zeros(RATIONALS, 1, 0), Matrix.zeros(RATIONALS, 0, 1))
    assert not gamma_retraction_check(cut) and idempotent_check(cut)


def test_em_unit_check_gamma_vs_zero():
    for n in (1, 2):
        space = make_flip(n, RATIONALS)
        free = free_truncated(space, 3)
        gam = gamma_matrix(free)
        assert em_unit_check(space, 3, gam)
        zero = Matrix.zeros(RATIONALS, *gam.shape)
        assert not em_unit_check(space, 3, zero)
        assert not em_unit_check(space, 3, gam.scale(2))


def test_em_unit_check_shape_guard():
    space = make_flip(2, RATIONALS)
    with pytest.raises(DimensionMismatch):
        em_unit_check(space, 3, Matrix.identity(RATIONALS, 2))


# ---------------------------------------------------------------------------
# augmented monad at tiny sizes
# ---------------------------------------------------------------------------


def test_primitive_braiding_flip_n1_hand_table():
    space = make_flip(1, RATIONALS)
    degrees, rows, w_space = primitive_braiding(space, 3)
    # char-0 flip line: only x itself is primitive
    assert degrees == [1]
    assert w_space.c == Matrix.identity(RATIONALS, 1)


def test_primitive_braiding_sign_hand_table():
    # W = {x (degree 1), x(x)x (degree 2)}; the induced braiding is
    # diagonal with q^(deg a * deg b) on w_a (x) w_b
    space = diagonal_space(RATIONALS, [[-1]])
    degrees, rows, w_space = primitive_braiding(space, 3)
    assert degrees == [1, 2]
    expected = Matrix.from_scalars(
        RATIONALS,
        [
            [-1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
    )
    assert w_space.c == expected


@pytest.mark.parametrize(
    "space, degrees, table",
    [
        # char 3: x (x) x (x) x is primitive; the flip swaps the factors
        (make_flip(1, GF(3)), [1, 3], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        # q = -1 in GF(5): q^(deg a * deg b) on w_a (x) w_b
        (diagonal_space(GF(5), [[4]]), [1, 2], [[4, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    ],
)
def test_primitive_braiding_char_p_hand_tables(space, degrees, table):
    got_degrees, rows, w_space = primitive_braiding(space, 3)
    assert got_degrees == degrees
    # n = 1: each V^(x)d is a line and its basis row is [1]
    assert rows == [Matrix.identity(space.field, 1)] * 2
    assert w_space.c == Matrix.from_scalars(space.field, table)
    assert monad_augmentation_check(space, 2, 3)


def test_monad_augmentation_check_flip_and_sign():
    assert monad_augmentation_check(make_flip(1, RATIONALS), 2, 3)
    assert monad_augmentation_check(diagonal_space(RATIONALS, [[-1]]), 2, 3)
    # n = 2: words of W (x) W concatenate rows of different lengths
    assert monad_augmentation_check(make_flip(2, RATIONALS), 2, 3)
    assert monad_augmentation_check(diagonal_space(RATIONALS, [[-1, 1], [-1, -1]]), 2, 3)


def test_primitive_space_coordinates_check_membership():
    ps = tower._PrimitiveSpace(free_truncated(make_flip(2, RATIONALS), 2))
    assert ps.degrees == [1, 1, 2] and ps.offsets == [0, 2, 3]
    commutator = Matrix.from_scalars(RATIONALS, [[0, 1, -1, 0]])
    assert ps.coords(2, commutator) == Matrix.from_scalars(RATIONALS, [[0, 0, 1]])
    assert ps.coords(2, Matrix.from_scalars(RATIONALS, [[1, 0, 0, 0]])) is None
    # e0 (x) [e0, e1] is w_0 (x) w_2, at index 0 * 3 + 2 of W (x) W
    e0_commutator = Matrix.from_scalars(RATIONALS, [[0, 1, -1, 0, 0, 0, 0, 0]])
    assert ps.pair_coords(1, 2, e0_commutator) == Matrix.from_scalars(RATIONALS, [[0, 0, 1] + [0] * 6])
    with pytest.raises(BialgebraInvariantError):
        ps.pair_coords(1, 2, Matrix.from_scalars(RATIONALS, [[1] + [0] * 7]))


def test_monad_augmentation_check_char2():
    assert monad_augmentation_check(make_flip(1, GF(2)), 2, 2)


def test_monad_augmentation_check_fails_when_gamma_m_differs(monkeypatch):
    # doubling the multiplication image breaks gamma o m = gamma o gamma_W
    # on the degree-1 outer primitives, and nothing else
    real = tower._multiply_into_w

    def doubled(ps, x, k):
        out = real(ps, x, k)
        return None if out is None else out.scale(2)

    space = diagonal_space(RATIONALS, [[-1]])
    assert monad_augmentation_check(space, 2, 3)
    monkeypatch.setattr(tower, "_multiply_into_w", doubled)
    assert not monad_augmentation_check(space, 2, 3)


def test_monad_augmentation_envelope_guard():
    from braidrank import EnvelopeExceeded

    # flip n=2 at D_inner=5: the primitive space has dimension 14 > 8
    with pytest.raises(EnvelopeExceeded):
        monad_augmentation_check(make_flip(2, RATIONALS), 2, 5)


def test_idempotent_is_identity_on_stabilized_stage():
    space = make_flip(2, RATIONALS)
    rep = run(space, 4)
    incl = primitive_inclusion(rep.final)
    gam = gamma_matrix(rep.final)
    # all primitives sit in degree 1, so e = inclusion o projection = Id
    assert incl.shape == (2, 2)
    assert incl @ gam == Matrix.identity(RATIONALS, 2)


def test_rank_report_is_deterministic():
    from braidrank.cli import dumps_report, rank_report_doc

    a = run(make_flip(2, RATIONALS), 4)
    b = run(make_flip(2, RATIONALS), 4)
    assert dumps_report(rank_report_doc(a)) == dumps_report(rank_report_doc(b))


def test_tower_over_large_prime_field():
    # p > 2**31 runs entirely on the arbitrary-precision path
    p = 2147483659
    space = diagonal_space(GF(p), [[p - 1]])  # q = -1
    rep = run(space, 3)
    assert rep.stabilized and rep.rank_le_cutoff == 1
    assert hilbert_series(rep.final) == [1, 1, 0, 0]
