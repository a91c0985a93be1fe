"""Coproduct components, symmetrizer, q-binomials: convention-pinning suite."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from braidrank import (
    GF,
    RATIONALS,
    DegreeCap,
    Matrix,
    delta_component,
    gaussian_binomial,
    make_flip,
    make_from_matrix,
    run,
    symmetrizer,
    unshuffles,
)
from braidrank.braiding import apply_generator, braid_word, inversions, invert_perm, lexmin_reduced_word
from braidrank.shuffle import _assemble_monomial_sum, block_transposition

from conftest import conjugated_space, diagonal_space, hecke_space, swap_space

F7 = GF(7)

TEST_SPACES = [
    make_flip(2, RATIONALS),
    diagonal_space(RATIONALS, [[-1]]),
    diagonal_space(GF(7), [[2, 3], [4, 5]]),
]

# the Jordan braiding: validated, but not monomial
JORDAN = make_from_matrix(
    2,
    RATIONALS,
    Matrix.from_scalars(RATIONALS, [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]),
)


def eye(space, m):
    return Matrix.identity(space.field, space.n**m)


# ---------------------------------------------------------------------------
# unshuffles
# ---------------------------------------------------------------------------


def test_unshuffles_1_1():
    perms = [w for w, _ in unshuffles(1, 1)]
    assert perms == [(0, 1), (1, 0)]


def test_unshuffles_0_d():
    assert [w for w, _ in unshuffles(0, 3)] == [(0, 1, 2)]
    assert [w for w, _ in unshuffles(3, 0)] == [(0, 1, 2)]


def test_unshuffles_2_2_count_and_monotone():
    entries = unshuffles(2, 2)
    assert len(entries) == 6
    for w, word in entries:
        assert w[0] < w[1] and w[2] < w[3]
        assert len(word) == inversions(w)


def test_unshuffle_words_multiply_out():
    space = make_flip(2, RATIONALS)
    from braidrank.braiding import permutation_tensor_matrix

    for w, word in unshuffles(2, 1):
        assert braid_word(space, 3, word) == permutation_tensor_matrix(RATIONALS, 2, w)


def test_unshuffles_degree_cap():
    with pytest.raises(DegreeCap):
        unshuffles(7, 7)


# ---------------------------------------------------------------------------
# delta components
# ---------------------------------------------------------------------------


def test_delta_trivial_components_are_identity():
    space = make_flip(2, RATIONALS)
    assert delta_component(space, 0, 3) == eye(space, 3)
    assert delta_component(space, 3, 0) == eye(space, 3)


def test_delta_1_1_is_id_plus_c():
    for space in TEST_SPACES:
        assert delta_component(space, 1, 1) == eye(space, 2) + space.c


def test_delta_flip_n1_doubles():
    space = make_flip(1, RATIONALS)
    assert delta_component(space, 1, 1).entry(0, 0) == Fraction(2)


def test_delta_sign_braiding_vanishes():
    space = diagonal_space(RATIONALS, [[-1]])
    assert delta_component(space, 1, 1).is_zero()


@pytest.mark.parametrize(
    "qval,field",
    [(Fraction(-1), RATIONALS), (Fraction(1, 2), RATIONALS), (3, F7), (2, F7)],
)
def test_delta_coefficient_is_gaussian_binomial(qval, field):
    space = diagonal_space(field, [[qval]])
    for d in range(1, 7):
        for i in range(d + 1):
            coeff = delta_component(space, i, d - i).entry(0, 0)
            assert coeff == gaussian_binomial(d, i, qval, field)


def test_recursion_and_factorization_match_definitions():
    # Delta by the q-Pascal recursion and S_d by the factorization, against
    # the defining sums of braid_word lifts over unshuffles and over S_d.
    # The swap braiding is monomial but mixes weights, so its Delta terms
    # are built on all n^d words, its one class
    spaces = [
        make_flip(2, RATIONALS),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(GF(7), [[2, 3], [4, 5]]),
        JORDAN,
        swap_space(RATIONALS),
        swap_space(GF(3)),
    ]
    assert not JORDAN.is_monomial
    assert spaces[-1].is_monomial and len(spaces[-1].classes(4).cols) == 1
    for space in spaces:
        for d in range(1, 6):
            zero = Matrix.zeros(space.field, space.n**d, space.n**d)
            for i in range(d + 1):
                total = zero
                for w, _ in unshuffles(i, d - i):
                    total = total + braid_word(space, d, lexmin_reduced_word(invert_perm(w)))
                assert delta_component(space, i, d - i) == total, (space, i, d)
            total = zero
            for w in permutations(range(d)):
                total = total + braid_word(space, d, lexmin_reduced_word(w))
            assert symmetrizer(space, d) == total, (space, d)
    # the Delta terms are stored in the narrowest dtypes: numerators at the
    # edges of int8, int16 and int32 (+128 does not fit int8)
    for q in [127, 128, -128, -129, 32767, 32768, 2**31 - 1, 2**31]:
        space = diagonal_space(RATIONALS, [[q, 1], [-1, q]])
        for d in range(1, 5):
            for i in range(d + 1):
                total = Matrix.zeros(RATIONALS, 2**d, 2**d)
                for w, _ in unshuffles(i, d - i):
                    total = total + braid_word(space, d, lexmin_reduced_word(invert_perm(w)))
                assert delta_component(space, i, d - i) == total, (q, i, d)
    # flip n=5: degree-6 sources fit uint16, but the class of three 3s and
    # four 4s in degree 7 has words above 65535; each lift of the (1, 6)
    # split acts on the identity on that class's 35 words
    flip5 = make_flip(5, RATIONALS)
    words = np.array(sorted(sum(5 ** (6 - t) * (3 if t in threes else 4) for t in range(7)) for threes in combinations(range(7), 3)))
    assert words.size == 35 and words.max() > 65535
    total = Matrix.zeros(RATIONALS, words.size, words.size)
    for w, _ in unshuffles(1, 6):
        lift = Matrix.identity(RATIONALS, words.size)
        for k in reversed(lexmin_reduced_word(invert_perm(w))):
            lift = apply_generator(flip5, 7, k, words, lift)
        total = total + lift
    assert delta_component(flip5, 1, 6, words) == total
    with pytest.raises(DegreeCap):
        delta_component(spaces[0], -1, 2)
    with pytest.raises(DegreeCap):
        delta_component(spaces[0], 6, 7)


def _unshuffle_sum(space, i, j, words):
    """Delta_{i,j} on ``words`` by definition: the lifts of the inverse (i,j)-unshuffles, summed."""
    total = Matrix.zeros(space.field, words.size, words.size)
    for w, _ in unshuffles(i, j):
        total = total + braid_word(space, i + j, lexmin_reduced_word(invert_perm(w)), words=words)
    return total


def test_delta_cache_holds_only_class_terms():
    # a tower over a graded monomial braiding builds each Delta_{i,j} and
    # each chain c_i ... c_{d-1} on one weight class from the classes below
    # it: every cached term array of degree >= 2 is exactly one class wide,
    # none is n^d wide, and each holds the operator itself, not its inverse
    a2 = diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]])
    for space in (make_flip(2, RATIONALS), a2):
        run(space, 7)
        degrees = set()
        for key, terms in space._delta_cache.items():
            # ("chain", d, i, words) or (i, j, words): every entry names its class
            chain = key[0] == "chain"
            assert len(key) == (4 if chain else 3) and isinstance(key[-1], bytes), key
            d = key[1] if chain else key[0] + key[1]
            words = np.frombuffer(key[-1], dtype=np.int64)
            if d < 2:
                continue
            degrees.add(d)
            assert any(np.array_equal(words, cols) for cols in space.classes(d).cols), (space, key[:-1])
            assert words.size < space.n**d and terms[0].shape[-1] == words.size, (space, key[:-1])
            if chain:
                src, num = terms
                lift = _assemble_monomial_sum(space, src[None, :], num[None, :], space.c.den ** (d - key[2]))
                assert lift == braid_word(space, d, range(key[2], d), words=words), (space, key[:-1])
            else:
                i, j, _ = key
                assert _assemble_monomial_sum(space, *terms) == _unshuffle_sum(space, i, j, words), (space, key[:-1])
        assert degrees == set(range(2, 8)), space


# sha256 over S_d and every Delta_{i,d-i}, d <= 7, of the spaces above,
# recorded before the symmetrizer and the dense lifts became slot products
GOLDEN_OPERATORS = "7cb95bde24e6956cc16e94b56d4e8762ab96d33c7dae33723290018b5bb5f1fe"


def test_symmetrizers_and_coproducts_are_golden():
    spaces = {
        "flip2": make_flip(2, RATIONALS),
        "A2": diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        "gf7": diagonal_space(GF(7), [[2, 3], [4, 5]]),
        "jordan": JORDAN,
    }
    digest = hashlib.sha256()
    for name, space in spaces.items():
        for d in range(1, 8):
            for m in [symmetrizer(space, d)] + [delta_component(space, i, d - i) for i in range(d + 1)]:
                digest.update(f"{name} {d} {m.den}:".encode())
                digest.update(",".join(map(str, m.num.ravel().tolist())).encode())
    assert digest.hexdigest() == GOLDEN_OPERATORS


def test_symmetrizer_class_columns_are_the_flat_columns():
    # the block of one weight class, computed from its identity alone, is
    # the flat S_d's block on the class, and S_d is zero off the class blocks
    spaces = [
        make_flip(3, RATIONALS),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(F7, [[2, 3], [4, 5]]),
        JORDAN,
        conjugated_space(),
        hecke_space(RATIONALS),
    ]
    for space in spaces:
        for d in range(1, 5):
            flat, classes = symmetrizer(space, d), space.classes(d)
            assert (len(classes.cols) > 1) == space._graded, (space, d)
            for cols in classes.cols:
                block = symmetrizer(space, d, cols)
                assert block == flat.take_rows(cols).take_columns(cols), (space, d, cols)
            assert not flat.num[classes.label[:, None] != classes.label].any(), (space, d)


def test_delta_class_blocks_are_the_flat_blocks():
    # Delta_{i,d-i} on one weight class, built from that class's words
    # alone, is the flat Delta's block on the class, and the flat Delta is
    # zero off the class blocks
    spaces = [
        make_flip(3, RATIONALS),
        diagonal_space(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]]),
        diagonal_space(F7, [[2, 3], [4, 5]]),
        JORDAN,
        conjugated_space(),
        hecke_space(RATIONALS),
        hecke_space(GF(5)),
        hecke_space(RATIONALS, 3),
    ]
    for space in spaces:
        for d in range(1, 5):
            classes = space.classes(d)
            for i in range(d + 1):
                flat = delta_component(space, i, d - i)
                for cols in classes.cols:
                    block = delta_component(space, i, d - i, cols)
                    assert block == flat.take_rows(cols).take_columns(cols), (space, d, i, cols)
                assert not flat.num[classes.label[:, None] != classes.label].any(), (space, d, i)


def coassoc_holds(space, i, j, k):
    lhs = delta_component(space, i, j).kron(eye(space, k)) @ delta_component(space, i + j, k)
    rhs = eye(space, i).kron(delta_component(space, j, k)) @ delta_component(space, i, j + k)
    return lhs == rhs


def test_coassociativity_up_to_total_degree_5():
    for space in TEST_SPACES:
        for total in range(1, 6):
            for i in range(total + 1):
                for j in range(total + 1 - i):
                    k = total - i - j
                    assert coassoc_holds(space, i, j, k), (space, i, j, k)


def test_multiplicativity_total_degree_4():
    # Delta(x . y) = (concat (x) concat) o (id (x) swap (x) id) o (Delta x (x) Delta y)
    for space in TEST_SPACES:
        for a in range(1, 4):
            for b in range(1, 5 - a):
                d = a + b
                for i in range(d + 1):
                    j = d - i
                    lhs = delta_component(space, i, j)
                    rhs = Matrix.zeros(space.field, space.n**d, space.n**d)
                    for i1 in range(min(i, a) + 1):
                        j1 = a - i1
                        i2 = i - i1
                        j2 = b - i2
                        if min(j1, i2, j2) < 0:
                            continue
                        inner = delta_component(space, i1, j1).kron(delta_component(space, i2, j2))
                        mid = eye(space, i1).kron(block_transposition(space, j1, i2)).kron(eye(space, j2))
                        rhs = rhs + mid @ inner
                    assert lhs == rhs, (space, a, b, i, j)


# ---------------------------------------------------------------------------
# symmetrizer
# ---------------------------------------------------------------------------


def test_symmetrizer_degree_one_is_identity():
    for space in TEST_SPACES:
        assert symmetrizer(space, 1) == eye(space, 1)


def test_symmetrizer_flip_n1_is_factorial():
    space = make_flip(1, RATIONALS)
    assert symmetrizer(space, 3).entry(0, 0) == Fraction(6)


def test_symmetrizer_sign_braiding_vanishes_in_degree_2():
    space = diagonal_space(RATIONALS, [[-1]])
    assert symmetrizer(space, 2).is_zero()


def test_symmetrizer_flip_fixes_symmetric_line():
    # on x (x) x (x) x with x = e_0 + e_1 the flip symmetrizer acts as 3!
    space = make_flip(2, RATIONALS)
    sym = symmetrizer(space, 3)
    x3 = Matrix.from_scalars(RATIONALS, [[1] * 8]).transpose()
    assert sym @ x3 == x3.scale(6)


def test_symmetrizer_dense_path_matches_monomial_path():
    # a dense (non-monomial) braiding against term-by-term assembly
    space = JORDAN
    sym = symmetrizer(space, 2)
    assert sym == eye(space, 2) + space.c


# ---------------------------------------------------------------------------
# gaussian binomials vs. brute enumeration
# ---------------------------------------------------------------------------


def brute_gaussian(d, i, q, field):
    """Independent oracle: sum q^inv(w) over value-set unshuffles."""
    one = Fraction(1) if field.is_rationals else 1
    total = one - one
    for chosen in combinations(range(d), i):
        rest = [v for v in range(d) if v not in chosen]
        w = tuple(chosen) + tuple(rest)
        total = total + q ** inversions(w)
    if not field.is_rationals:
        total %= field.p
    return total


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0, Fraction(3), RATIONALS) == 1
    assert gaussian_binomial(5, 5, Fraction(3), RATIONALS) == 1
    assert gaussian_binomial(2, 1, Fraction(-1), RATIONALS) == 0
    assert gaussian_binomial(3, 1, Fraction(-1), RATIONALS) == 1


def test_gaussian_binomial_against_brute_force():
    for d in range(7):
        for i in range(d + 1):
            for q in [Fraction(2), Fraction(-1), Fraction(1, 2)]:
                assert gaussian_binomial(d, i, q, RATIONALS) == brute_gaussian(d, i, q, RATIONALS)
            for q in [2, 3, 6]:
                assert gaussian_binomial(d, i, q, F7) == brute_gaussian(d, i, q, F7)


def test_gaussian_binomial_range_check():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, Fraction(1), RATIONALS)


def test_symmetrizer_degree_cap():
    with pytest.raises(DegreeCap):
        symmetrizer(make_flip(1, RATIONALS), 13)
