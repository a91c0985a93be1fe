"""Known answers: `rank --json --oracle` against closed forms from the literature.

Each expected Hilbert series is computed here from its product formula,
truncated at the cutoff, and never taken from a run.  Sources:

- flip n=2 over GF(3): the restricted enveloping algebra of the abelian
  2-dimensional Lie algebra, Hilbert series ((1 - t^3) / (1 - t))^2.
- Cartan type A2 at q = -1 over Q (q_ii = -1, q_12 q_21 = -1) and at q = 2,
  of order 3 in GF(7)* (q_ii = 2, q_12 q_21 = 4 = 2^-1): Andruskiewitsch-
  Schneider, *Pointed Hopf algebras*, MSRI Publ. 43 (2002).  The series are
  (1 + t)^2 (1 + t^2) and (1 + t + t^2)^2 (1 + t^2 + t^4), the products over
  the positive roots a1, a2, a1 + a2 of the truncated series of their root
  vectors; dimensions 8 and 27.
- the super Jordan plane: Andruskiewitsch-Angiono-Heckenberger, *On finite
  GK-dimensional Nichols algebras over abelian groups*, Mem. AMS 271
  (2021); Hilbert series 1 / (1 - t)^2.
- the permutation braiding c(x (x) y) = f(y) (x) f(x), f the swap of e0
  and e1 (Lyubashenko, *Hopf algebras and vector symmetries*, Russian
  Math. Surveys 41 (1986)), over Q and over GF(3).  It is monomial but not
  graded, so every degree is one class of words.  In the basis e0 + e1,
  e0 - e1 it is diagonal with q = [[1, -1], [-1, 1]]: the quantum plane
  x y = -y x, with x^3 = y^3 = 0 in characteristic 3, so the series are
  1 / (1 - t)^2 and (1 + t + t^2)^2.
- combinatorial rank 2 (both A2 jobs and the super Jordan plane, each with
  a relation that is primitive only after the first stage): Ardizzoni, *On the
  combinatorial rank of a graded braided bialgebra*, J. Pure Appl. Algebra
  215 (2011).

Two more jobs are recorded answers, not closed forms: the Hecke braiding of
U_q(gl_2) at q = 2 over Q and over GF(5), graded but not monomial, whose
series were printed by the program before braid generators acted on one
weight class's words.  Every job also runs the oracle.

The rank-2 jobs also resume from a stage cache written by `--max-iter 1`
and by `--max-iter 2`, and must print the same report bytes as a cold run.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from braidrank.cli import main

from conftest import SWAP_ENTRIES


def invoke(args, doc):
    return CliRunner().invoke(main, args, input=json.dumps(doc))


def _series(factors, cutoff):
    """Coefficients of t^0..t^cutoff of the product of the factor polynomials."""
    out = [1] + [0] * cutoff
    for poly in factors:
        out = [sum(poly[k] * out[d - k] for k in range(min(d, len(poly) - 1) + 1)) for d in range(cutoff + 1)]
    return out


def _geometric(cutoff):
    """1 / (1 - t), truncated."""
    return [1] * (cutoff + 1)


def _job(field, n, braiding, cutoff):
    return {"field": field, "dimension": n, "braiding": braiding, "degree_cutoff": cutoff}


QQ = {"kind": "rationals"}
SWAP = {"kind": "matrix", "entries": [[str(x) for x in row] for row in SWAP_ENTRIES]}

# (job, Hilbert series factors, rank at the cutoff)
GALLERY = {
    "flip n=2 GF(3)": (
        _job({"kind": "prime", "p": 3}, 2, {"kind": "flip"}, 7),
        [[1, 1, 1], [1, 1, 1]],
        1,
    ),
    "A2 q=-1 QQ": (
        _job(QQ, 2, {"kind": "diagonal", "q": [["-1", "1"], ["-1", "-1"]]}, 7),
        [[1, 1], [1, 1], [1, 0, 1]],
        2,
    ),
    "A2 q=2 GF(7)": (
        _job({"kind": "prime", "p": 7}, 2, {"kind": "diagonal", "q": [["2", "1"], ["4", "2"]]}, 8),
        [[1, 1, 1], [1, 1, 1], [1, 0, 1, 0, 1]],
        2,
    ),
    "super Jordan plane QQ": (
        _job(
            QQ,
            2,
            {
                "kind": "matrix",
                "entries": [
                    ["-1", "1", "0", "0"],
                    ["0", "0", "-1", "1"],
                    ["0", "-1", "0", "0"],
                    ["0", "0", "0", "-1"],
                ],
            },
            7,
        ),
        [_geometric(7), _geometric(7)],
        2,
    ),
    "swap braiding QQ": (_job(QQ, 2, SWAP, 7), [_geometric(7), _geometric(7)], 1),
    "swap braiding GF(3)": (_job({"kind": "prime", "p": 3}, 2, SWAP, 7), [[1, 1, 1], [1, 1, 1]], 1),
}


def _hecke(field, h):
    entries = [["2", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", h, "0"], ["0", "0", "0", "2"]]
    return _job(field, 2, {"kind": "matrix", "entries": entries}, 7)


# (job, final Hilbert series, rank at the cutoff); q - 1/q is 3/2, or 4 in GF(5)
RECORDED = {
    "Hecke q=2 QQ": (_hecke(QQ, "3/2"), [1, 2, 4, 6, 9, 12, 16, 20], 1),
    "Hecke q=2 GF(5)": (_hecke({"kind": "prime", "p": 5}, "4"), [1, 2, 4, 6, 6, 6, 4, 2], 1),
}


@pytest.mark.parametrize("name", list(GALLERY))
def test_known_answer(tmp_path, name):
    job, factors, rank = GALLERY[name]
    _check_answer(tmp_path, job, _series(factors, job["degree_cutoff"]), rank)


@pytest.mark.parametrize("name", list(RECORDED))
def test_recorded_answer(tmp_path, name):
    _check_answer(tmp_path, *RECORDED[name])


def _check_answer(tmp_path, job, hilbert, rank):
    cold = invoke(["rank", "--json", "--oracle"], doc=job)
    assert cold.exit_code == 0, cold.output
    report = json.loads(cold.stdout)
    assert report["final_hilbert"] == hilbert
    assert report["rank_le_cutoff"] == rank
    assert report["stabilized"] is True
    assert report["oracle_match"] is True
    if rank < 2:
        return
    for max_iter in (1, 2):
        cache = tmp_path / f"cache{max_iter}"
        partial = invoke(["rank", "--json", "--max-iter", str(max_iter), "--cache", str(cache)], doc=job)
        assert partial.exit_code == 3, partial.output
        (path,) = cache.iterdir()
        assert len(json.loads(path.read_text())["stage_relations"]) == max_iter
        resumed = invoke(["rank", "--json", "--oracle", "--cache", str(cache)], doc=job)
        assert resumed.exit_code == 0, resumed.output
        assert resumed.stdout == cold.stdout
