"""Symmetrizer-kernel oracle and brute-force primitive cross-checks."""

from __future__ import annotations

import tracemalloc

import pytest

from braidrank import (
    GF,
    RATIONALS,
    ConfigMismatch,
    brute_force_primitives,
    compare,
    free_truncated,
    hilbert_series,
    make_flip,
    nichols_truncation,
    symmetrizer,
    primitives,
    run,
)

from conftest import acceptance_braidings, conjugated_space, diagonal_space, swap_space, sym_dim, witt


def test_oracle_flip_n2_is_symmetric_algebra():
    space = make_flip(2, RATIONALS)
    q = nichols_truncation(space, 3)
    assert hilbert_series(q) == [1, 2, 3, 4]
    assert hilbert_series(q) == [sym_dim(2, d) for d in range(4)]


def test_oracle_flip_n3_matches_tower():
    space = make_flip(3, RATIONALS)
    rep = run(space, 4)
    oracle = nichols_truncation(space, 4)
    assert rep.stabilized
    assert hilbert_series(oracle) == [sym_dim(3, d) for d in range(5)]
    assert compare(rep.final, oracle)


def test_oracle_sign_braiding():
    space = diagonal_space(RATIONALS, [[-1]])
    q = nichols_truncation(space, 3)
    assert hilbert_series(q) == [1, 1, 0, 0]


def test_oracle_flip_char2():
    space = make_flip(1, GF(2))
    q = nichols_truncation(space, 2)
    assert hilbert_series(q) == [1, 1, 0]


def test_brute_primitives_free_flip_witt():
    space = make_flip(2, RATIONALS)
    q = free_truncated(space, 4)
    assert brute_force_primitives(space, q, 2).dim == witt(2, 2) == 1
    assert brute_force_primitives(space, q, 4).dim == witt(2, 4) == 3


def test_brute_primitives_stabilized_stage_empty():
    space = make_flip(2, RATIONALS)
    rep = run(space, 4)
    for d in range(2, 5):
        assert brute_force_primitives(space, rep.final, d).dim == 0


def test_brute_primitives_match_engine_everywhere():
    for name, space in acceptance_braidings(max_n=2):
        cutoff = 4
        q = free_truncated(space, cutoff)
        stages = [q]
        rep = run(space, cutoff)
        stages.append(rep.final)
        for stage_q in stages:
            for d in range(1, cutoff + 1):
                engine = primitives(stage_q, d).subspace
                brute = brute_force_primitives(space, stage_q, d)
                assert engine == brute, (name, d)


def test_compare_examples():
    space = make_flip(2, RATIONALS)
    rep = run(space, 4)
    oracle = nichols_truncation(space, 4)
    assert rep.stabilized
    assert compare(rep.final, oracle)
    assert compare(oracle, oracle)
    free = free_truncated(diagonal_space(RATIONALS, [[-1]]), 3)
    sign_oracle = nichols_truncation(diagonal_space(RATIONALS, [[-1]]), 3)
    assert not compare(free, sign_oracle)


def test_compare_rejects_mismatched_configs():
    a = nichols_truncation(make_flip(1, RATIONALS), 2)
    b = nichols_truncation(make_flip(2, RATIONALS), 2)
    with pytest.raises(ConfigMismatch):
        compare(a, b)
    c = nichols_truncation(make_flip(1, RATIONALS), 3)
    with pytest.raises(ConfigMismatch):
        compare(a, c)


def test_stabilized_towers_match_oracle_on_matrix():
    for name, space in acceptance_braidings(max_n=2):
        rep = run(space, 4)
        if rep.stabilized:
            oracle = nichols_truncation(space, 4)
            assert compare(rep.final, oracle), name


def test_tower_relations_inside_symmetrizer_kernels():
    # every stage's relations are Nichols relations, not only the final ones
    from braidrank import step

    for name, space in acceptance_braidings(max_n=2):
        oracle = nichols_truncation(space, 4)
        q = free_truncated(space, 4)
        for k in range(4):
            q, rep = step(q, k)
            for d in range(1, 5):
                rel = q.relation(d)
                if rel.dim:
                    assert oracle.relation(d).contains_rows(rel.basis), (name, k, d)
            if rep.stage_map_iso:
                break


def test_conjugated_braiding_exercises_dense_path():
    # a diagonal braiding conjugated by a unipotent change of basis:
    # Yang-Baxter is preserved but the matrix is no longer monomial, so the
    # dense lift machinery and the brute oracle's tuple expansion both run
    from braidrank import RATIONALS

    base = diagonal_space(RATIONALS, [[2, 1], [1, 3]])
    space = conjugated_space()
    assert not space.is_monomial
    rep = run(space, 3)
    base_rep = run(base, 3)
    # the tower is equivariant: conjugated braidings give the same series
    assert rep.stabilized and rep.rank_le_cutoff == base_rep.rank_le_cutoff
    assert hilbert_series(rep.final) == hilbert_series(base_rep.final)
    assert compare(rep.final, nichols_truncation(space, 3))
    # every stage, so the dense path also meets quotients with R_d != 0
    stages = [free_truncated(space, 3)]
    run(space, 3, on_stage=lambda q, _: stages.append(q))
    assert any(q.relation(d).dim for q in stages for d in (2, 3))
    for q in stages:
        for d in (1, 2, 3):
            assert primitives(q, d).subspace == brute_force_primitives(space, q, d)


def test_ungraded_monomial_braiding_matches_brute_force():
    # the swap braiding is monomial but mixes weights: the primitives of the
    # free object come from Delta terms built on all n^d words at once
    for field in (RATIONALS, GF(3)):
        space = swap_space(field)
        q = free_truncated(space, 4)
        for d in (1, 2, 3, 4):
            assert primitives(q, d).subspace == brute_force_primitives(space, q, d), (field, d)


def test_order3_and_order4_roots_give_truncated_lines():
    # one generator, q of multiplicative order N: Nichols algebra k[x]/(x^N)
    space3 = diagonal_space(GF(7), [[2]])
    assert hilbert_series(nichols_truncation(space3, 5)) == [1, 1, 1, 0, 0, 0]
    space4 = diagonal_space(GF(13), [[5]])
    assert hilbert_series(nichols_truncation(space4, 5)) == [1, 1, 1, 1, 0, 0]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_oracle_traces_less_memory_than_a_flat_symmetrizer():
    # S_6 of flip n=3 is computed one weight class of columns at a time, so
    # the trace stays below one flat int64 S_6
    q, peak = _traced_peak(nichols_truncation, make_flip(3, RATIONALS), 6)
    assert hilbert_series(q) == [sym_dim(3, d) for d in range(7)]
    assert peak < 3**12 * 8


def test_class_symmetrizer_traces_less_than_its_unit_columns():
    # the largest class of flip n=3 in degree 7 has 210 words; its block of
    # S_7 never meets the other words, so the trace stays below its
    # 2187 x 210 int64 unit columns
    space = make_flip(3, RATIONALS)
    cols = max(space.classes(7).cols, key=len)
    block, peak = _traced_peak(symmetrizer, space, 7, cols)
    assert block.shape == (210, 210) and not block.is_zero()
    assert peak < 3**7 * 210 * 8


def test_compare_traces_no_flat_relation_space():
    # both quotients are in the graded partition, so they are compared class
    # by class and no flat basis is built
    space = make_flip(3, RATIONALS)
    final, oracle = run(space, 6).final, nichols_truncation(space, 6)
    match, peak = _traced_peak(compare, final, oracle)
    assert match and peak < 1 << 20
