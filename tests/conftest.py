"""Shared fixtures: standard braidings, fields, and small math oracles."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from braidrank import GF, RATIONALS, Matrix, make_diagonal, make_flip, make_from_matrix

F2 = GF(2)
F3 = GF(3)
F7 = GF(7)
F13 = GF(13)

# 2 has order 3 in F_7*, 5 has order 4 in F_13*
ORDER3_F7 = 2
ORDER4_F13 = 5


def diagonal_space(field, qgrid):
    return make_diagonal(field, Matrix.from_scalars(field, qgrid))


def jordan_space():
    """The non-monomial Jordan braiding of the dense_q benchmark (Q, n=2)."""
    entries = [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    return make_from_matrix(2, RATIONALS, Matrix.from_scalars(RATIONALS, entries))


def conjugated_space():
    """A diagonal braiding conjugated by a unipotent change of basis (Q, n=2).

    Yang-Baxter is preserved, but the matrix is neither monomial nor
    multidegree-preserving."""
    base = diagonal_space(RATIONALS, [[2, 1], [1, 3]])
    t = Matrix.from_scalars(RATIONALS, [[1, 1], [0, 1]])
    t_inv = Matrix.from_scalars(RATIONALS, [[1, -1], [0, 1]])
    return make_from_matrix(2, RATIONALS, t.kron(t) @ base.c @ t_inv.kron(t_inv))


def hecke_space(field, n=2):
    """The Hecke braiding of U_q(gl_n) at q = 2 (default n=2): graded, not monomial.

    c(e_i e_i) = q e_i e_i; for i < j, c(e_i e_j) = e_j e_i and
    c(e_j e_i) = e_i e_j + (q - 1/q) e_j e_i, so c has two terms on e_j e_i,
    inside its weight class."""
    h = Fraction(3, 2) if field.is_rationals else 3 * pow(2, -1, field.p) % field.p
    entries = [[0] * n**2 for _ in range(n**2)]
    for i in range(n):
        entries[i * n + i][i * n + i] = 2
        for j in range(i + 1, n):
            entries[j * n + i][i * n + j] = entries[i * n + j][j * n + i] = 1
            entries[j * n + i][j * n + i] = h
    return make_from_matrix(n, field, Matrix.from_scalars(field, entries))


# c(e_i (x) e_j) = e_f(j) (x) e_f(i), f swapping e0 and e1, column convention
SWAP_ENTRIES = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]


def swap_space(field):
    """c(x (x) y) = f(y) (x) f(x), f the swap of e0 and e1 (n=2): monomial, not graded.

    A permutation solution of the braid equation (Lyubashenko).  It mixes
    weights (e0 e0 goes to e1 e1), so each V^(x)d is one class.  In the
    basis e0 + e1, e0 - e1 it is diagonal with q = [[1, -1], [-1, 1]]."""
    return make_from_matrix(2, field, Matrix.from_scalars(field, SWAP_ENTRIES))


def witt(n: int, d: int) -> int:
    """Free Lie algebra dimension via the Witt formula (necklace count)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += moebius(e) * n ** (d // e)
    assert total % d == 0
    return total // d


def moebius(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    k = 2
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return 0
            out = -out
        k += 1
    if m > 1:
        out = -out
    return out


def sym_dim(n: int, d: int) -> int:
    """dim Sym^d of an n-dimensional space."""
    return comb(n + d - 1, d)


def acceptance_braidings(max_n: int = 2):
    """The acceptance test matrix: (name, braided space) pairs, n <= max_n."""
    spaces = []
    for n in range(1, max_n + 1):
        spaces.append((f"flip{n}/QQ", make_flip(n, RATIONALS)))
        spaces.append((f"flip{n}/F2", make_flip(n, F2)))
        spaces.append((f"flip{n}/F3", make_flip(n, F3)))
        qm1 = [[Fraction(-1) if i == j else Fraction(1) for j in range(n)] for i in range(n)]
        spaces.append((f"diag(-1){n}/QQ", diagonal_space(RATIONALS, qm1)))
        q3 = [[ORDER3_F7 if i == j else 1 for j in range(n)] for i in range(n)]
        spaces.append((f"diag(ord3){n}/F7", diagonal_space(F7, q3)))
        q4 = [[ORDER4_F13 if i == j else 1 for j in range(n)] for i in range(n)]
        spaces.append((f"diag(ord4){n}/F13", diagonal_space(F13, q4)))
    return spaces


@pytest.fixture(scope="session")
def flip2q():
    return make_flip(2, RATIONALS)


@pytest.fixture(scope="session")
def flip1q():
    return make_flip(1, RATIONALS)


@pytest.fixture(scope="session")
def qminus1():
    return diagonal_space(RATIONALS, [[Fraction(-1)]])
