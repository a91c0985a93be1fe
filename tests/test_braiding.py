"""Braided space construction, validation, and braid lifts."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidrank import (
    GF,
    RATIONALS,
    DegreeCap,
    DimensionCap,
    IndexOutOfRange,
    Matrix,
    NotInvertible,
    YangBaxterViolation,
    ZeroParameter,
    braid_generator,
    braid_word,
    make_diagonal,
    make_flip,
    make_from_matrix,
)
from braidrank.braiding import (
    _multidegree,
    apply_generator,
    inversions,
    invert_perm,
    lexmin_reduced_word,
    permutation_tensor_matrix,
)

from conftest import acceptance_braidings, conjugated_space, diagonal_space, hecke_space, jordan_space


def test_flip_n1_is_identity():
    space = make_flip(1, RATIONALS)
    assert space.c == Matrix.identity(RATIONALS, 1)


def test_flip_n2_swaps_factors():
    space = make_flip(2, RATIONALS)
    # c(e_0 (x) e_1) = e_1 (x) e_0: column 1 has its one at row 2
    assert space.c.entry(2, 1) == 1
    assert space.c.entry(1, 2) == 1
    assert space.c.entry(0, 0) == 1
    assert space.c.entry(3, 3) == 1


def test_flip_is_involution():
    space = make_flip(3, RATIONALS)
    assert space.c @ space.c == Matrix.identity(RATIONALS, 9)


def test_diagonal_trivial_and_sign():
    one = diagonal_space(RATIONALS, [[1]])
    assert one.c == Matrix.identity(RATIONALS, 1)
    sign = diagonal_space(RATIONALS, [[-1]])
    assert sign.c.entry(0, 0) == Fraction(-1)


def test_diagonal_n2_passes_yang_baxter():
    space = diagonal_space(RATIONALS, [[-1, 1], [1, -1]])
    # monomial matrix: exactly one entry per column
    for j in range(4):
        nonzero = [r for r in range(4) if space.c.entry(r, j) != 0]
        assert len(nonzero) == 1


def test_diagonal_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        diagonal_space(RATIONALS, [[1, 0], [1, 1]])


def test_from_matrix_accepts_flip_and_identity():
    flip = make_flip(2, RATIONALS)
    again = make_from_matrix(2, RATIONALS, flip.c)
    assert again.c == flip.c
    trivial = make_from_matrix(2, RATIONALS, Matrix.identity(RATIONALS, 4))
    assert trivial.c == Matrix.identity(RATIONALS, 4)


def test_from_matrix_rejects_perturbed_flip():
    # rescaling an existing flip entry only produces a diagonal braiding
    # (which is genuinely Yang-Baxter), so perturb a zero slot instead
    flip = make_flip(2, RATIONALS)
    rows = flip.c.scalar_rows()
    rows[0][1] = Fraction(1)
    with pytest.raises((YangBaxterViolation, NotInvertible)):
        make_from_matrix(2, RATIONALS, Matrix.from_scalars(RATIONALS, rows))


def test_yang_baxter_witness_reported():
    flip = make_flip(2, RATIONALS)
    rows = flip.c.scalar_rows()
    rows[0][1] = Fraction(1)
    try:
        make_from_matrix(2, RATIONALS, Matrix.from_scalars(RATIONALS, rows))
    except YangBaxterViolation as exc:
        assert len(exc.witness) == 3
        assert all(0 <= t < 2 for t in exc.witness)
    except NotInvertible:
        pytest.fail("perturbation kept the matrix invertible")


def test_scaled_flip_entry_is_diagonal_type_and_accepted():
    # the one-entry 1 -> 2 rescale keeps the monomial pattern: it is the
    # diagonal braiding with q_01 = 2 and passes validation
    flip = make_flip(2, RATIONALS)
    rows = flip.c.scalar_rows()
    rows[2][1] = Fraction(2)
    space = make_from_matrix(2, RATIONALS, Matrix.from_scalars(RATIONALS, rows))
    assert space.is_monomial


def test_singular_braiding_rejected():
    with pytest.raises(NotInvertible):
        make_from_matrix(1, RATIONALS, Matrix.zeros(RATIONALS, 1, 1))


def test_braid_generator_edges():
    space = make_flip(2, RATIONALS)
    assert braid_generator(space, 2, 1) == space.c
    with pytest.raises(IndexOutOfRange):
        braid_generator(space, 3, 3)
    with pytest.raises(IndexOutOfRange):
        braid_generator(space, 3, 0)


def test_flip_generator_is_place_swap():
    space = make_flip(2, RATIONALS)
    g = braid_generator(space, 3, 2)
    assert g == permutation_tensor_matrix(RATIONALS, 2, (0, 2, 1))


def test_braid_relation_holds_for_validated_spaces():
    for space in [
        make_flip(2, RATIONALS),
        diagonal_space(GF(7), [[2, 3], [4, 5]]),
    ]:
        c1 = braid_generator(space, 3, 1)
        c2 = braid_generator(space, 3, 2)
        assert c1 @ c2 @ c1 == c2 @ c1 @ c2


def test_braid_word_empty_and_single():
    space = make_flip(2, RATIONALS)
    assert braid_word(space, 3, []) == Matrix.identity(RATIONALS, 8)
    assert braid_word(space, 2, [1]) == space.c


def test_single_letter_words_are_the_generators():
    spaces = [space for _, space in acceptance_braidings()] + [jordan_space(), conjugated_space()]
    for space in spaces:
        for d in range(2, 5):
            for i in range(1, d):
                assert braid_word(space, d, (i,)) == braid_generator(space, d, i), (space, d, i)
    with pytest.raises(IndexOutOfRange):
        braid_word(spaces[0], 3, (1, 3))


ACTION_SPACES = [
    make_flip(3, RATIONALS),
    diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
    diagonal_space(GF(7), [[2, 3], [4, 5]]),
    jordan_space(),
    conjugated_space(),
    hecke_space(RATIONALS),
    # residues near 2**61 square past 2**63: the object-dtype action
    diagonal_space(GF(2**61 - 1), [[2**60, 3], [5, 2**61 - 2]]),
]


@st.composite
def action_case(draw):
    """A space, degree d, a braid word of up to three generators, a word set
    (all words or one class) and a matrix on those rows.

    Rational entries reach 6 * 10**9, or 2**62 where the products need object dtype.
    """
    space = draw(st.sampled_from(ACTION_SPACES))
    d = draw(st.integers(2, 4))
    word = draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=3))
    words = draw(st.sampled_from([np.arange(space.n**d), *space.classes(d).cols]))
    if space.field.is_rationals:
        bound = draw(st.sampled_from([3, 3 * 2_000_000_000, 2**62]))
        entries = st.integers(-bound, bound)
    else:
        entries = st.integers(0, space.field.p - 1)
    rows, cols = len(words), draw(st.integers(0, 3))
    num = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=object)
    den = draw(st.sampled_from([1, 2, 6])) if space.field.is_rationals else 1
    return space, d, word, words, Matrix.build(space.field, num.reshape(rows, cols), den)


@settings(max_examples=200, deadline=None)
@given(action_case())
def test_generator_action_is_the_kronecker_product(case):
    # on all words, or on a class's rows with the class's block of c_k;
    # a braid word on the word set is the block of its flat lift
    space, d, word, words, mat = case
    k = word[0]
    block = braid_generator(space, d, k).take_rows(words).take_columns(words)
    assert apply_generator(space, d, k, words, mat) == block @ mat
    block = braid_word(space, d, word).take_rows(words).take_columns(words)
    assert braid_word(space, d, word, mat, words) == block @ mat


def test_braid_word_matsumoto():
    # two reduced words of the same permutation lift equally
    for space in [make_flip(2, RATIONALS), diagonal_space(GF(7), [[2, 3], [4, 5]])]:
        assert braid_word(space, 3, [1, 2, 1]) == braid_word(space, 3, [2, 1, 2])


def test_lift_is_independent_of_reduced_word_choice():
    # lex-minimal and bubble-sort words are generally different reduced
    # words of the same permutation; their lifts must coincide
    from braidrank.nichols_oracle import _bubble_word

    space = diagonal_space(GF(7), [[2, 3], [4, 5]])
    for perm in permutations(range(4)):
        lex = lexmin_reduced_word(perm)
        bubble = _bubble_word(perm)
        assert len(lex) == len(bubble) == inversions(perm)
        assert braid_word(space, 4, lex) == braid_word(space, 4, bubble)


def test_far_generators_commute():
    space = diagonal_space(GF(7), [[2, 3], [4, 5]])
    c1 = braid_generator(space, 4, 1)
    c3 = braid_generator(space, 4, 3)
    assert c1 @ c3 == c3 @ c1


def test_flip_lifts_are_permutation_matrices():
    space = make_flip(2, RATIONALS)
    for perm in permutations(range(3)):
        word = lexmin_reduced_word(perm)
        assert braid_word(space, 3, word) == permutation_tensor_matrix(RATIONALS, 2, perm)


def test_lexmin_words_are_reduced_and_minimal():
    for perm in permutations(range(4)):
        word = lexmin_reduced_word(perm)
        assert len(word) == inversions(perm)
        # brute-force check: no reduced word is lexicographically smaller
        smaller = _all_reduced_words(perm)
        assert word == min(smaller)


def _all_reduced_words(perm):
    if perm == tuple(range(len(perm))):
        return [()]
    pos = invert_perm(perm)
    out = []
    for i in range(1, len(perm)):
        if pos[i - 1] > pos[i]:
            w = list(perm)
            a, b = pos[i - 1], pos[i]
            w[a], w[b] = w[b], w[a]
            out.extend((i,) + rest for rest in _all_reduced_words(tuple(w)))
    return out


def test_caps_enforced():
    with pytest.raises(DimensionCap):
        make_flip(9, RATIONALS)
    with pytest.raises(DimensionCap):
        make_flip(0, RATIONALS)
    space = make_flip(2, RATIONALS)
    with pytest.raises(DegreeCap):
        braid_word(space, 13, [1])


def test_multidegree_grading_is_decided_at_validation():
    graded = [
        make_flip(1, RATIONALS),
        make_flip(3, GF(3)),
        diagonal_space(RATIONALS, [[-1, 1], [-1, -1]]),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(GF(7), [[2, 3], [4, 5]]),
        hecke_space(RATIONALS),
        hecke_space(GF(5)),
    ]
    for space in graded:
        assert space._graded, space
    for space in graded[-2:]:
        assert not space.is_monomial and len(space.classes(3).cols) == 4
    for space in (jordan_space(), conjugated_space()):
        assert not space.is_monomial and not space._graded
        for d in (0, 1, 3):
            label = space.classes(d).label
            assert label.shape == (2**d,) and not label.any()
            # one partition per degree: graded or not, the same object
            assert space.classes(d, graded=False) is space.classes(d)


def test_weights_code_letter_counts():
    space = make_flip(2, RATIONALS)
    # code of a word: sum over its letters of (d+1)**letter
    assert _multidegree(2, 2).tolist() == [2, 4, 4, 6]
    assert _multidegree(2, 0).tolist() == [0]
    assert space.classes(3) is space.classes(3) and space.classes(3, graded=False) is not space.classes(3)
    assert space.classes(2).label.tolist() == [0, 1, 1, 2]
    # equal codes exactly for equal letter counts
    for n, d in ((2, 5), (3, 4)):
        w = _multidegree(n, d)
        counts = [
            tuple([(idx // n ** (d - 1 - k)) % n for k in range(d)].count(a) for a in range(n))
            for idx in range(n**d)
        ]
        pairs = set(zip(counts, w.tolist()))
        assert len(pairs) == len(set(counts)) == len(set(w.tolist()))


def test_braid_lifts_preserve_weights():
    for space in (make_flip(2, RATIONALS), diagonal_space(RATIONALS, [[2, 3], [5, 7]])):
        w = space.classes(4).label
        mat = braid_word(space, 4, [1, 2, 3, 1])
        rows, cols = (mat.num != 0).nonzero()
        assert (w[rows] == w[cols]).all()
