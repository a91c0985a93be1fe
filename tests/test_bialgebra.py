"""Graded quotients: saturation, primitives, series, augmentation maps."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    omega_projection,
    primitives,
)
from braidrank.bialgebra import GradedQuotient, GradedSubspace, _class_rows, _split, _validate_quotient
from braidrank.braiding import BraidedSpace
from braidrank.exactlin import _place, kernel_basis, vstack
from braidrank.tower import run

from conftest import diagonal_space, hecke_space, jordan_space, swap_space, sym_dim, witt


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
    # a quotient knows its degrees 1..D only
    q = free_truncated(make_flip(2, RATIONALS), 3)
    for d in (-1, 0, 4):
        for accessor in (q.classes, q.relation):
            with pytest.raises(DegreeCap):
                accessor(d)


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


@pytest.mark.parametrize(
    "space",
    [make_flip(2, RATIONALS), make_flip(2, GF(3)), jordan_space()],
    ids=["flip-QQ", "flip-F3", "jordan-QQ"],
)
def test_saturate_flags_non_coideal_generators(space):
    # the ideal generated by the single monomial e01 is not a coideal:
    # Delta(e01) = e01 + c(e01) does not lie in R_1 (x) V + V (x) R_1 = 0.
    # The algebra quotient is still formed, but the coproduct does not
    # descend, so the primitive computation refuses it.  The cases cover
    # the monomial gather over Q and over F_p and the dense product.
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
            img = _apply_delta_rows(space, i, d - i, rep.subspace.basis, np.arange(space.n**d))
            assert q.mixing_space(i, d - i).contains_rows(img)


def _tower_quotients(space, cutoff):
    """The free object and every stage of its quotient tower."""
    stages = [free_truncated(space, cutoff)]
    run(space, cutoff, cutoff, on_stage=lambda q, rep: stages.append(q))
    return stages


def _flat_tensor_coords(q, i, j, rows):
    """tensor_coords of flat rows: the coordinates of each class, side by side."""
    classes = q.classes(i + j).cols
    blocks = [q.tensor_coords(i, j, k, rows.take_columns(cols)) for k, cols in enumerate(classes)]
    return vstack([b.transpose() for b in blocks]).transpose()


def test_tensor_coords_kernel_is_the_mixing_space():
    # pi_i (x) pi_j maps a row to zero exactly when the row lies in
    # R_i (x) V^(x)j + V^(x)i (x) R_j, the explicitly built reference.
    # The A2 pair (5/2, -2/5) at D=7 takes the object-dtype product path.
    from braidrank.bialgebra import _apply_delta_rows

    a2 = diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]])
    jordan = jordan_space()
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
                    words = np.arange(space.n**d)
                    images = _apply_delta_rows(space, i, d - i, Matrix.identity(space.field, space.n**d), words)
                    rows = vstack([images, mixing.basis]) if mixing.dim else images
                    projected_zero = ~(_flat_tensor_coords(q, i, d - i, rows).num != 0).any(axis=1)
                    inside = ~(mixing.reduce_rows(rows).num != 0).any(axis=1)
                    assert projected_zero.tolist() == inside.tolist(), (space, d, i)
                    projected = kernel_basis(_flat_tensor_coords(q, i, d - i, images).transpose())
                    reference = kernel_basis(mixing.reduce_rows(images).transpose())
                    assert projected == reference, (space, d, i)


def test_gather_application_matches_dense_product():
    # the monomial gather path and the dense matrix product are two
    # implementations of rows @ Delta^T, and with the transposed terms of
    # rows @ Delta; they must agree entry for entry
    from braidrank import delta_component, shuffle
    from braidrank.bialgebra import _apply_delta_rows

    cases = [
        make_flip(2, RATIONALS),
        make_flip(2, GF(3)),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(GF(7), [[2, 3], [4, 5]]),
        swap_space(RATIONALS),
        swap_space(GF(3)),
    ]
    for space in cases:
        for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            size = space.n ** (i + j)
            rows = Matrix.from_scalars(
                space.field,
                [[(r * 7 + c * 3 + 1) % 5 - 2 for c in range(size)] for r in range(3)],
            )
            delta = delta_component(space, i, j)
            words = np.arange(size)
            assert _apply_delta_rows(space, i, j, rows, words) == rows @ delta.transpose(), (space, i, j)
            assert _apply_delta_rows(space, i, j, rows, words, transposed=True) == rows @ delta, (space, i, j)

    # each weight class's own terms, in both directions, against the class
    # block of the flat Delta
    def check_classes(space, i, j, delta):
        for cols in space.classes(i + j).cols:
            block = delta.take_rows(cols).take_columns(cols)
            rows = Matrix.from_scalars(
                space.field,
                [[(r * 7 + c * 3 + 1) % 5 - 2 for c in range(cols.size)] for r in range(3)],
            )
            assert delta_component(space, i, j, cols) == block, (space, i, j, cols)
            assert _apply_delta_rows(space, i, j, rows, cols) == rows @ block.transpose(), (space, i, j, cols)
            assert _apply_delta_rows(space, i, j, rows, cols, transposed=True) == rows @ block, (space, i, j, cols)

    for i in range(1, 4):
        check_classes(cases[0], i, 4 - i, delta_component(cases[0], i, 4 - i))

    # at d = 8 these splits of the A2 pair have object-dtype terms; int64
    # row blocks whose bound is 0 (no rows, all zeros) must still promote.
    # Each class's terms take their own dtype: the 1-word classes stay in
    # int64, the 70-word class (four of each letter) needs object
    space = cases[2]
    size = space.n**8
    words = np.arange(size)
    blocks = [
        Matrix.zeros(RATIONALS, 0, size),
        Matrix.zeros(RATIONALS, 2, size),
        Matrix.identity(RATIONALS, size).take_rows(range(0, size, 37)),
    ]
    middle = max(space.classes(8).cols, key=len)
    assert middle.size == 70
    for (i, j) in [(3, 5), (4, 4), (5, 3)]:
        assert shuffle._monomial_delta(space, i, j, words)[1].dtype == object
        delta = delta_component(space, i, j)
        for rows in blocks:
            assert _apply_delta_rows(space, i, j, rows, words) == rows @ delta.transpose(), (i, j, rows.rows)
            assert _apply_delta_rows(space, i, j, rows, words, transposed=True) == rows @ delta, (i, j, rows.rows)
        check_classes(space, i, j, delta)
        assert shuffle._monomial_delta(space, i, j, middle)[1].dtype == object


def test_graded_dense_delta_stays_on_the_class():
    # a graded braiding that is not monomial applies Delta from its class
    # blocks: on the largest class of Hecke gl_3 at d = 6 (90 words) every
    # split traces less than one flat 729 x 729 int64 matrix
    from braidrank.bialgebra import _apply_delta_rows

    space = hecke_space(RATIONALS, 3)
    cols = max(space.classes(6).cols, key=len)
    rows = Matrix.identity(RATIONALS, cols.size)
    tracemalloc.start()
    try:
        for i in range(1, 6):
            _apply_delta_rows(space, i, 6 - i, rows, cols)
            _apply_delta_rows(space, i, 6 - i, rows, cols, transposed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 729 * 729 * 8, peak


def test_hilbert_nonincreasing_under_saturation():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 4)
    before = hilbert_series(q)
    out = ideal_saturate(q, [(2, span(RATIONALS, 4, [[0, 1, -1, 0]]))])
    after = hilbert_series(out)
    assert all(a <= b for a, b in zip(after, before))


def _partitioned(space, d, graded, sub):
    """The flat subspace ``sub`` of V^(x)d as a GradedSubspace of that partition."""
    classes = space.classes(d, graded)
    return GradedSubspace(classes, tuple(Subspace.from_rows(r) for r in _class_rows(classes, sub.basis)))


def test_validate_quotient_catches_broken_closure():
    # R_2 is the commutator line; R_3 must hold both R_2 (x) V (tail) and
    # V (x) R_2 (head), so a closure check that skips either side fails
    # here, in the graded partition and in the one-class partition
    space = make_flip(2, RATIONALS)
    comm = Matrix.from_scalars(RATIONALS, [[0, 1, -1, 0]])
    tail, head = comm.kron(Matrix.identity(RATIONALS, 2)), Matrix.identity(RATIONALS, 2).kron(comm)
    for graded in (True, False):

        def quotient(r_3):
            rels = [Subspace.zero(RATIONALS, 2), Subspace.from_rows(comm), r_3]
            rels = [_partitioned(space, d, graded, r) for d, r in enumerate(rels, 1)]
            return GradedQuotient(space, 3, rels, _validated=True)

        _validate_quotient(quotient(Subspace.from_rows(vstack([tail, head]))))
        for r_3 in (Subspace.zero(RATIONALS, 8), Subspace.from_rows(tail), Subspace.from_rows(head)):
            broken = quotient(r_3)
            assert len(broken.classes(3).cols) == (4 if graded else 1)
            with pytest.raises(BialgebraInvariantError, match="ideal closure fails from degree 2 to 3"):
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


def _one_class(monkeypatch):
    """Make every quotient take the one-class partition, so each elimination is flat."""
    real = BraidedSpace.classes
    monkeypatch.setattr(BraidedSpace, "classes", lambda self, d, graded=True: real(self, d, False))


def _identical(x, y):
    """Equal bases, and equal pivots, den and numerator dtype."""
    assert x.pivots == y.pivots and x.basis.den == y.basis.den
    assert x.basis.num.dtype == y.basis.num.dtype and np.array_equal(x.basis.num, y.basis.num)


def _relations(q):
    return [q.relation(d) for d in range(1, q.cutoff + 1)]


@pytest.mark.parametrize("field", [RATIONALS, GF(3)], ids=["QQ", "F3"])
def test_saturate_inhomogeneous_generator_matches_flat(field, monkeypatch):
    # e00 + e11 mixes the weights 2e_0 and 2e_1, so that quotient takes the
    # one-class partition; e01 - e10 alone keeps the 4 classes of degree 3
    space = make_flip(2, field)
    mixed = span(field, 4, [[1, 0, 0, 1], [0, 1, -1, 0]])
    commutator = span(field, 4, [[0, 1, -1, 0]])
    graded = [ideal_saturate(free_truncated(space, 5), [(2, gen)]) for gen in (mixed, commutator)]
    assert [len(q.classes(3).cols) for q in graded] == [1, 4]
    expected = [_relations(q) for q in graded]
    _one_class(monkeypatch)
    for rels, gen in zip(expected, (mixed, commutator)):
        flat = ideal_saturate(free_truncated(space, 5), [(2, gen)])
        assert len(flat.classes(3).cols) == 1
        for x, y in zip(rels, _relations(flat)):
            _identical(x, y)


def _shifted(n, rel, dst):
    """For each nonzero class basis b of R_d and each letter e: (b, class w of
    ``dst``, the classes of V^(x)(d+1), places in w) of b (x) e, then of e (x) b."""
    size = rel.classes.label.size
    for part, cols in zip(rel.parts, rel.classes.cols):
        for words in [cols * n + e for e in range(n)] + [e * size + cols for e in range(n)]:
            if part.dim:
                w = dst.label[words[0]]
                yield part.basis, w, np.searchsorted(dst.cols[w], words)


def _stacked_saturate(q, new_relations):
    """Reference for the relations of ideal_saturate(q, new_relations): the
    generators are added class by class, then each class of R_{d+1}, in
    ascending d, is the span of its rows stacked with every b (x) e and
    e (x) b, b a class basis of R_d, that lands in it."""
    space = q.space
    gens = [(d, sub if isinstance(sub, GradedSubspace) else sub.basis) for d, sub in new_relations]
    graded, gens = _split(space, q.classes(1) is space.classes(1), gens)
    rels = [
        rel if rel.classes is space.classes(d, graded) else GradedSubspace(space.classes(d, False), (rel.subspace,))
        for d, rel in enumerate(q._rels, 1)
    ]
    for d, rows in gens:
        rel = rels[d - 1]
        rels[d - 1] = GradedSubspace(rel.classes, tuple(p.sum([r]) for p, r in zip(rel.parts, rows)))
    for d in range(1, q.cutoff):
        dst = rels[d].classes
        pieces = [[] for _ in dst.cols]
        for basis, w, pos in _shifted(space.n, rels[d - 1], dst):
            pieces[w].append(_place(basis, pos, dst.cols[w].size))
        rels[d] = GradedSubspace(dst, tuple(p.sum(rows) for p, rows in zip(rels[d].parts, pieces)))
    return rels


def _matches_stacked_saturate(q, gens):
    out = ideal_saturate(q, gens)
    for rel, ref in zip(out._rels, _stacked_saturate(q, gens)):
        assert rel.classes is ref.classes
        for x, y in zip(rel.parts, ref.parts):
            _identical(x, y)
    return out


# flip over Q, a graded diagonal braiding over GF(7), and the A2 pair
# (5/2, -2/5) over Q, the lane whose eliminations reach object dtype
SATURATION_SPACES = [
    make_flip(2, RATIONALS),
    diagonal_space(GF(7), [[2, 3], [4, 5]]),
    diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
]


@st.composite
def saturation_case(draw):
    """A quotient, free or saturated from a first batch of generators, and a
    batch of generators for it.  Each generator row lies in one weight class
    of degree 1, 2 or 3; sometimes a row crosses classes (the one-class
    partition) and sometimes an entry is near 2**62 (object dtype)."""
    space = draw(st.sampled_from(SATURATION_SPACES))
    cutoff = draw(st.integers(3, 5))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.integers(2**62 - 3, 2**62 + 3), st.integers(-(2**62) - 3, -(2**62) + 3))

    def batch():
        gens = []
        for d in draw(st.lists(st.sampled_from([1, 2, 2, 3, 3]), min_size=1, max_size=2)):
            classes, rows = space.classes(d), []
            for _ in range(draw(st.integers(1, 3))):
                cols = classes.cols[draw(st.integers(0, len(classes.cols) - 1))]
                rows.append([draw(entry) if t in cols else 0 for t in range(space.n**d)])
            if draw(st.integers(0, 4)) == 0:
                rows.append([draw(entry) for _ in range(space.n**d)])
            gens.append((d, Subspace.from_rows(Matrix.from_scalars(space.field, rows))))
        return gens

    q = free_truncated(space, cutoff)
    if draw(st.booleans()):
        q = ideal_saturate(q, batch())
    return q, batch()


@settings(max_examples=60, deadline=None)
@given(saturation_case())
def test_saturate_matches_the_stacked_sweep(case):
    _matches_stacked_saturate(*case)


@pytest.mark.parametrize("space", SATURATION_SPACES, ids=["flip-QQ", "diag-F7", "a2-QQ"])
def test_saturate_matches_the_stacked_sweep_on_zero_full_and_crossing(space):
    # e00 fills its one-word class in every degree and leaves the class of
    # e1...e1 at 0; a row across two classes takes the one-class partition;
    # a tower stage gives old rows in every degree to restrict by
    q = free_truncated(space, 5)
    square = Subspace.from_rows(Matrix.from_scalars(space.field, [[1, 0, 0, 0]]))
    out = _matches_stacked_saturate(q, [(2, square)])
    for d in range(2, 6):
        parts = out._rels[d - 1].parts
        assert parts[0].dim == 1 and parts[-1].dim == 0 and len(parts) == d + 1
    crossing = Subspace.from_rows(Matrix.from_scalars(space.field, [[1, 0, 0, 1]]))
    assert len(_matches_stacked_saturate(q, [(2, crossing)]).classes(3).cols) == 1
    # e01 + 3/(2**62 + 1) e10 is stored over the denominator 2**62 + 1: object dtype over Q
    big = Subspace.from_rows(Matrix.from_scalars(space.field, [[0, 2**62 + 1, 3, 0]]))
    out = _matches_stacked_saturate(q, [(2, big)])
    assert any(p.basis.num.dtype == object for p in out._rels[2].parts) is space.field.is_rationals
    stages = []
    run(space, 5, on_stage=lambda stage, _: stages.append(stage))
    e001 = Subspace.from_rows(Matrix.from_scalars(space.field, [[0, 1, 0, 0, 0, 0, 0, 0]]))
    for stage in stages:
        _matches_stacked_saturate(stage, [(3, e001)])


def test_graded_subspace_equality_across_partitions():
    # a graded relation space equals itself in the one-class partition, by
    # its flat basis, and a change in one class's part tells them apart
    space = make_flip(2, RATIONALS)
    q = ideal_saturate(free_truncated(space, 4), [(2, span(RATIONALS, 4, [[0, 1, -1, 0]]))])
    for d in range(1, 5):
        rel = q._rels[d - 1]
        flat = GradedSubspace(space.classes(d, False), (rel.subspace,))
        assert len(rel.classes.cols) == d + 1 and len(flat.classes.cols) == 1
        assert rel == flat and flat == rel and rel == GradedSubspace(rel.classes, rel.parts)
        assert rel.__eq__(rel.subspace) is NotImplemented
        # the last class holds one word, on which R_d is 0: make it all of it
        parts = rel.parts[:-1] + (Subspace.full(RATIONALS, 1),)
        other = GradedSubspace(rel.classes, parts)
        assert rel != other and flat != other and other != flat
    rels = [GradedSubspace(space.classes(d, False), (q.relation(d),)) for d in range(1, 5)]
    one_class = GradedQuotient(space, 4, rels, _validated=True)
    assert q == one_class and one_class == q


def test_graded_tower_matches_flat(monkeypatch):
    # every stage's relations and primitives, class by class and as one class
    cases = [
        (make_flip(3, RATIONALS), 4),
        (make_flip(2, GF(3)), 6),
        (diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]), 6),
    ]

    def stages(space, cutoff):
        out = [free_truncated(space, cutoff)]
        run(space, cutoff, on_stage=lambda q, _: out.append(q))
        assert {len(q.classes(cutoff).cols) for q in out} == {len(space.classes(cutoff).cols)}
        return [_relations(q) + [primitives(q, d).subspace for d in range(1, cutoff + 1)] for q in out]

    graded = [stages(space, cutoff) for space, cutoff in cases]
    assert all(len(space.classes(cutoff).cols) > 1 for space, cutoff in cases)
    _one_class(monkeypatch)
    for (space, cutoff), bases in zip(cases, graded):
        assert len(space.classes(cutoff).cols) == 1
        flat = stages(space, cutoff)
        assert len(bases) == len(flat)
        for a, b in zip(bases, flat):
            for x, y in zip(a, b):
                _identical(x, y)
