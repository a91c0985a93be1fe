"""CLI: exit codes, report schema, round-trips, caching."""

from __future__ import annotations

import contextlib
import errno
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from braidrank import (
    GF,
    RATIONALS,
    Matrix,
    Subspace,
    cli,
    free_truncated,
    ideal_saturate,
    make_diagonal,
    make_flip,
    tower,
)
from braidrank.cli import main

ROOT = Path(__file__).resolve().parent.parent

FLIP2 = {
    "field": {"kind": "rationals"},
    "dimension": 2,
    "braiding": {"kind": "flip"},
    "degree_cutoff": 5,
}

SIGN1 = {
    "field": {"kind": "rationals"},
    "dimension": 1,
    "braiding": {"kind": "diagonal", "q": [["-1"]]},
    "degree_cutoff": 5,
}

BAD_MATRIX = {
    "field": {"kind": "rationals"},
    "dimension": 2,
    "braiding": {
        "kind": "matrix",
        "entries": [
            ["1", "1", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "0", "1"],
        ],
    },
    "degree_cutoff": 3,
}


def invoke(args, doc=None, text=None):
    runner = CliRunner()
    payload = text if text is not None else json.dumps(doc)
    return runner.invoke(main, args, input=payload)


def test_check_flip_ok():
    res = invoke(["check"], doc=FLIP2)
    assert res.exit_code == 0
    assert "ok" in res.stdout


def test_check_reports_witness_on_bad_braiding():
    res = invoke(["check", "--json"], doc=BAD_MATRIX)
    assert res.exit_code == 1
    doc = json.loads(res.stdout)
    assert doc["valid"] is False
    assert doc["witness"] is not None and len(doc["witness"]) == 3


# nesting past the interpreter's recursion limit
DEEPLY_NESTED = "[" * 200000 + "]" * 200000


def test_check_malformed_json_exits_2():
    for command, text in [("check", "{not json"), ("check", DEEPLY_NESTED), ("rank", DEEPLY_NESTED)]:
        res = invoke([command], text=text)
        assert res.exit_code == 2, (command, text[:9])
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error: malformed JSON:"), (command, text[:9])


def test_check_takes_only_input_and_json(tmp_path):
    # check never runs the tower: options it would ignore are usage errors
    cache = tmp_path / "cache"
    for extra in (["--cache", str(cache)], ["--cutoff", "3"], ["--max-iter", "1"]):
        assert invoke(["check", *extra], doc=FLIP2).exit_code == 2, extra
    assert not cache.exists()
    assert invoke(["check", "--json", "--input", "-"], doc=FLIP2).exit_code == 0


def test_check_schema_error_exits_2():
    res = invoke(["check"], doc={"field": {"kind": "rationals"}, "dimension": 0, "braiding": {"kind": "flip"}})
    assert res.exit_code == 2


def test_rank_flip_n2():
    res = invoke(["rank", "--json"], doc=FLIP2)
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["rank_le_cutoff"] == 1
    assert doc["stabilized"] is True
    assert doc["final_hilbert"] == [1, 2, 3, 4, 5, 6]
    # deterministic key order, exactly as specified
    assert list(doc.keys()) == ["rank_le_cutoff", "stabilized", "stages", "final_hilbert", "oracle_match"]
    assert all(list(s.keys()) == ["hilbert", "new_relation_dims", "iso"] for s in doc["stages"])


def test_rank_report_roundtrip_bytes():
    res = invoke(["rank", "--json"], doc=SIGN1)
    assert res.exit_code == 0
    text = res.stdout
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text
    assert doc["final_hilbert"] == [1, 1, 0, 0, 0, 0]
    assert doc["rank_le_cutoff"] == 1


def test_rank_with_oracle_flag():
    res = invoke(["rank", "--json", "--oracle"], doc=SIGN1)
    doc = json.loads(res.stdout)
    assert doc["oracle_match"] is True


def test_rank_max_iter_zero_exits_3():
    res = invoke(["rank", "--json", "--max-iter", "0"], doc=FLIP2)
    assert res.exit_code == 3
    doc = json.loads(res.stdout)
    assert doc["stabilized"] is False
    assert doc["rank_le_cutoff"] is None
    assert doc["stages"] == []


def test_rank_human_table():
    res = invoke(["rank"], doc=FLIP2)
    assert res.exit_code == 0
    assert "rank at cutoff" in res.stdout
    assert "final hilbert" in res.stdout


def test_rank_cutoff_override():
    res = invoke(["rank", "--json", "--cutoff", "3"], doc=FLIP2)
    doc = json.loads(res.stdout)
    assert doc["final_hilbert"] == [1, 2, 3, 4]


def test_nichols_match():
    res = invoke(["nichols", "--json", "--cutoff", "4"], doc=FLIP2)
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["match"] is True
    assert doc["oracle_hilbert"] == [1, 2, 3, 4, 5]
    assert doc["final_hilbert"] == [1, 2, 3, 4, 5]
    res2 = invoke(["nichols", "--json"], doc=SIGN1)
    doc2 = json.loads(res2.stdout)
    assert doc2["match"] is True
    assert doc2["final_hilbert"] == [1, 1, 0, 0, 0, 0]


def test_nichols_rejects_non_yang_baxter():
    res = invoke(["nichols"], doc=BAD_MATRIX)
    assert res.exit_code == 1


def test_primitives_free_commutator():
    res = invoke(["primitives", "--stage", "0", "--degree", "2"], doc=FLIP2)
    assert res.exit_code == 0
    assert "e01 - e10" in res.stdout


def test_primitives_stabilized_stage_empty():
    res = invoke(["primitives", "--stage", "2", "--degree", "2", "--json"], doc=FLIP2)
    doc = json.loads(res.stdout)
    assert doc["dimension"] == 0
    assert doc["vectors"] == []


def test_primitives_degree_one_full():
    res = invoke(["primitives", "--stage", "0", "--degree", "1", "--json"], doc=FLIP2)
    doc = json.loads(res.stdout)
    assert doc["dimension"] == 2


def test_primitives_stage_out_of_range():
    res = invoke(["primitives", "--stage", "9", "--degree", "2"], doc=FLIP2)
    assert res.exit_code == 2


def test_cache_hit_is_bit_identical(tmp_path):
    cache = str(tmp_path / "cache")
    cold = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    warm = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    nocache = invoke(["rank", "--json"], doc=FLIP2)
    assert cold.exit_code == warm.exit_code == 0
    assert cold.stdout == warm.stdout == nocache.stdout
    files = os.listdir(cache)
    assert len(files) == 1 and files[0].endswith(".json")
    assert not any(f.endswith(".tmp") for f in os.listdir(cache))


def test_cache_resumes_partial_runs(tmp_path):
    cache = str(tmp_path / "cache")
    partial = invoke(["rank", "--json", "--cache", cache, "--max-iter", "1"], doc=FLIP2)
    assert partial.exit_code == 3
    full = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    fresh = invoke(["rank", "--json"], doc=FLIP2)
    assert full.exit_code == 0
    assert full.stdout == fresh.stdout


def test_cache_short_request_does_not_truncate(tmp_path):
    cache = str(tmp_path / "cache")
    invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    short = invoke(["rank", "--json", "--cache", cache, "--max-iter", "1"], doc=FLIP2)
    assert short.exit_code == 3
    again = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    assert again.exit_code == 0


def test_report_file_written(tmp_path):
    path = str(tmp_path / "report.json")
    res = invoke(["rank", "--json", "--report", path], doc=FLIP2)
    with open(path) as fh:
        assert fh.read() == res.stdout
    assert os.listdir(tmp_path) == ["report.json"]


def test_input_from_file(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(FLIP2))
    res = invoke(["rank", "--json", "--input", str(path)])
    assert res.exit_code == 0


def test_prime_field_job():
    doc = {
        "field": {"kind": "prime", "p": 2},
        "dimension": 1,
        "braiding": {"kind": "flip"},
        "degree_cutoff": 4,
    }
    res = invoke(["rank", "--json"], doc=doc)
    out = json.loads(res.stdout)
    assert out["rank_le_cutoff"] == 1
    assert out["final_hilbert"] == [1, 1, 0, 0, 0]


def test_raw_matrix_braiding_job():
    # flip given explicitly as a raw matrix: same report as the flip kind
    raw = {
        "field": {"kind": "rationals"},
        "dimension": 2,
        "braiding": {
            "kind": "matrix",
            "entries": [
                ["1", "0", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "0", "1"],
            ],
        },
        "degree_cutoff": 5,
    }
    res_raw = invoke(["rank", "--json"], doc=raw)
    res_flip = invoke(["rank", "--json"], doc=FLIP2)
    assert res_raw.exit_code == 0
    assert res_raw.stdout == res_flip.stdout


def test_check_zero_diagonal_parameter_exits_1():
    doc = {
        "field": {"kind": "rationals"},
        "dimension": 2,
        "braiding": {"kind": "diagonal", "q": [["1", "0"], ["1", "1"]]},
        "degree_cutoff": 2,
    }
    res = invoke(["check"], doc=doc)
    assert res.exit_code == 1


def test_nonprime_field_exits_2():
    doc = {
        "field": {"kind": "prime", "p": 6},
        "dimension": 1,
        "braiding": {"kind": "flip"},
        "degree_cutoff": 3,
    }
    res = invoke(["rank"], doc=doc)
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", True),
        ("dimension", 9),
        ("degree_cutoff", True),
        ("degree_cutoff", 13),
        ("max_iter", True),
        ("max_iter", False),
    ],
)
def test_bad_integer_fields_exit_2(field, value):
    res = invoke(["rank", "--json"], doc={**FLIP2, field: value})
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")


# FLIP2 with a note whose one byte, 0xff, is no UTF-8
NOT_UTF8 = json.dumps(FLIP2)[:-1].encode() + b', "note": "\xff"}'


def test_input_file_not_utf8_exits_2(tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes(NOT_UTF8)
    res = invoke(["rank", "--json", "--input", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")


# stdin is decoded strictly under PYTHONIOENCODING=utf-8, and with
# surrogateescape under the POSIX locale: the job is UTF-8 either way
@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8"}, {"LC_ALL": "C"}], ids=["strict", "posix_locale"])
def test_stdin_not_utf8_exits_2(env):
    unset = ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "braidrank", "rank", "--json"],
        input=NOT_UTF8,
        capture_output=True,
        env={**base, **env},
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"parse error:")


DIAG2 = {
    "field": {"kind": "rationals"},
    "dimension": 2,
    "braiding": {"kind": "diagonal", "q": [["1", "1"], ["1", "1"]]},
    "degree_cutoff": 5,
}


@pytest.mark.parametrize("command", ["rank", "check"])
@pytest.mark.parametrize(
    "braiding",
    [
        {"kind": "diagonal", "q": [["1", "1"], ["1"]]},
        {"kind": "matrix", "entries": [["1", "0", "0", "0"]] * 3 + [["1", "0", "0"]]},
        # Fraction would expand 10**100000 before any size check
        {"kind": "diagonal", "q": [["1e100000", "1"], ["1", "1"]]},
        # Python's int and Fraction read these as 10, 1, 3 and 3/2
        {"kind": "diagonal", "q": [["1_0", "1"], ["1", "1"]]},
        {"kind": "diagonal", "q": [["\u0661", "1"], ["1", "1"]]},
        {"kind": "diagonal", "q": [["+3", "1"], ["1", "1"]]},
        {"kind": "diagonal", "q": [["1.5", "1"], ["1", "1"]]},
        # JSON true is no scalar, though Python's True is the int 1: these
        # would be DIAG2 and the flip
        {"kind": "diagonal", "q": [[True, "1"], ["1", "1"]]},
        {
            "kind": "matrix",
            "entries": [[True, "0", "0", "0"], ["0", "0", True, "0"], ["0", True, "0", "0"], ["0", "0", "0", True]],
        },
    ],
    ids=[
        "ragged_q",
        "ragged_entries",
        "exponent_scalar",
        "underscore_digits",
        "non_ascii_digit",
        "plus_sign",
        "decimal_point",
        "bool_scalar_q",
        "bool_scalar_entries",
    ],
)
def test_malformed_scalar_grids_exit_2(command, braiding):
    res = invoke([command, "--json"], doc={**DIAG2, "braiding": braiding})
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")


@pytest.mark.parametrize(
    "args, job, line",
    [
        (["check", "--input", os.path.join(os.devnull, "job.json")], {}, None),
        (["rank"], "[]", "job document must be a JSON object"),
        (["rank"], {"field": "rationals"}, 'field must be {"kind": "rationals"} or {"kind": "prime", "p": ...}'),
        (["rank"], {"field": {"kind": "prime", "p": "7"}}, "prime field needs an integer p"),
        (["rank"], {"field": {"kind": "reals"}}, "unknown field kind 'reals'"),
        (["rank"], {"braiding": {"kind": "diagonal", "q": "x"}}, "q must be a list of lists of scalar strings"),
        (["rank"], {"braiding": {"q": [["1"]]}}, 'braiding must have a "kind"'),
        (["rank"], {"degree_cutoff": None}, "degree_cutoff missing (or pass --cutoff)"),
        (["rank"], {"oracle": "yes"}, "oracle must be a boolean"),
        (["rank"], {"braiding": {"kind": "diagonal", "q": [["1"]]}}, "q must be 2x2"),
        (["rank"], {"braiding": {"kind": "matrix", "entries": [["1", "0"], ["0", "1"]]}}, "entries must be 4x4"),
        (["rank"], {"braiding": {"kind": "hecke"}}, "unknown braiding kind 'hecke'"),
        (["check"], {"braiding": {"kind": "hecke"}}, "unknown braiding kind 'hecke'"),
        (["primitives", "--degree", "0"], {}, "degree must lie in 1..5"),
    ],
    ids=[
        "unreadable_input",
        "array_document",
        "field_not_an_object",
        "prime_p_a_string",
        "unknown_field_kind",
        "q_a_string",
        "braiding_without_kind",
        "cutoff_missing",
        "oracle_a_string",
        "q_wrong_shape",
        "entries_wrong_shape",
        "unknown_braiding_kind_rank",
        "unknown_braiding_kind_check",
        "degree_zero",
    ],
)
def test_parse_errors_exit_2_with_one_line(args, job, line):
    # each ParseError of the job or its options: exit 2, no report, one line.
    # ``job`` is a text, or changes to FLIP2 where None drops the key
    if isinstance(job, str):
        res = invoke([*args, "--json"], text=job)
    else:
        res = invoke([*args, "--json"], doc={k: v for k, v in {**FLIP2, **job}.items() if v is not None})
    if line is None:
        line = f"cannot read input: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {args[-1]!r}"
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.splitlines() == [f"parse error: {line}"]


def test_closed_stdout_pipe_exits_1_without_a_message(monkeypatch):
    # a reader that closed the pipe is left to click: exit 1, nothing on stderr
    echo = click.echo

    def echo_to_closed_pipe(message=None, *args, err=False, **kwargs):
        if not err:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        echo(message, *args, err=err, **kwargs)

    monkeypatch.setattr(click, "echo", echo_to_closed_pipe)
    res = invoke(["rank", "--json"], doc=FLIP2)
    assert res.exit_code == 1 and res.stderr == ""


def _drop_hilbert(doc):
    del doc["report"]["stages"][0]["hilbert"]


def _tampered_hilbert(doc):
    # more than n**d in degree d: no row count fits it
    doc["report"]["stages"][-1]["hilbert"] = [1, 9, 9, 9, 9, 9]


def _short_hilbert(doc):
    doc["report"]["stages"][0]["hilbert"].pop()


def _long_new_relation_dims(doc):
    doc["report"]["stages"][-1]["new_relation_dims"].append(0)


def _iso_with_new_relations(doc):
    doc["report"]["stages"][-1]["new_relation_dims"][0] = 1


def _iso_before_the_last_stage(doc):
    stage = doc["report"]["stages"][0]
    stage["iso"], stage["new_relation_dims"] = True, [0, 0, 0, 0]


def _max_iter_of_a_shorter_request(doc):
    # a stabilized document holds the cutoff, whatever request wrote it
    doc["max_iter"] = 2


def _deeply_nested(doc):
    # the returned text replaces the document
    return DEEPLY_NESTED


def _tampered_earlier_hilbert(doc):
    # well-formed and weakly above the next stage, but degree 5 of stage 0
    # holds 26 relation rows, not 32 - 7
    doc["report"]["stages"][0]["hilbert"] = [1, 2, 3, 4, 5, 7]


def _earlier_hilbert_not_1_in_degree_0(doc):
    doc["report"]["stages"][0]["hilbert"][0] = 2


def _negative_earlier_hilbert(doc):
    # -1 in degree 2, with the n**2 - (-1) = 5 rows that value asks for
    doc["report"]["stages"][0]["hilbert"][2] = -1
    doc["stage_relations"][0]["2"] += [["0"] * 4] * 4


# stage 0 is not the stage the run resumes from: its scalars are never
# parsed, but it must still have the shape its report gives


def _entries_not_strings(doc):
    doc["stage_relations"][0]["2"] = [["0", 1, None, ["0"]]]


def _rows_not_a_list(doc):
    # degree 1 holds no rows, but an empty object is not an empty list
    doc["stage_relations"][0]["1"] = {}


def _row_not_a_list(doc):
    # a string as long as a row
    doc["stage_relations"][0]["4"][0] = "0" * 16


def _empty_row(doc):
    doc["stage_relations"][0]["4"][0] = []


def _degree_key_missing(doc):
    del doc["stage_relations"][0]["5"]


def _degree_keys_out_of_order(doc):
    doc["stage_relations"][0] = dict(reversed(doc["stage_relations"][0].items()))


def _row_count_off(doc):
    doc["stage_relations"][0]["3"].pop()


def _bad_scalar(doc):
    doc["stage_relations"][-1]["2"][0][0] = "1/x"


def _exponent_scalar(doc):
    doc["stage_relations"][-1]["2"][0][0] = "1e100000"


def _relations_not_a_dict(doc):
    doc["stage_relations"][-1] = []


def _row_too_long(doc):
    doc["stage_relations"][-1]["2"][0].append("0")


def _nul_suffixed_entry(doc):
    # "1\u0000" is no scalar, though a NumPy string array drops the NUL
    row = doc["stage_relations"][-1]["2"][0]
    row[row.index("1")] = "1\u0000"


def _non_canonical_entry(doc):
    # -1 to Fraction, but the writer writes "-1"
    row = doc["stage_relations"][-1]["2"][0]
    row[row.index("-1")] = "-2/2"


def _negative_zero_entry(doc):
    # at e010, in the weight class of the row e001 - e100
    doc["stage_relations"][-1]["3"][0][2] = "-0"


def _row_across_two_classes(doc):
    # e001 - e100 plus e011 - e110: R_3 keeps its span, but the writer
    # writes no row with nonzeros in two weight classes
    rows = doc["stage_relations"][-1]["3"]
    rows[0] = [str(Fraction(a) + Fraction(b)) for a, b in zip(rows[0], rows[2])]


def _two_rows_of_one_class_added(doc):
    # e001 - e100 plus e010 - e100: the span and the class are kept, but
    # the rows are no longer the class's rref basis
    rows = doc["stage_relations"][-1]["3"]
    rows[0] = [str(Fraction(a) + Fraction(b)) for a, b in zip(rows[0], rows[1])]


def _rows_of_two_classes_swapped(doc):
    # rows 0 and 2, each the other class's: out of pivot order, and the
    # first class's rows out of rref order
    rows = doc["stage_relations"][-1]["3"]
    rows[0], rows[2] = rows[2], rows[0]


def _rows_out_of_pivot_order(doc):
    # rows 1 and 2: each class's rows stay its rref basis, but the rows
    # are not in pivot order
    rows = doc["stage_relations"][-1]["3"]
    rows[1], rows[2] = rows[2], rows[1]


def _compact_layout(doc):
    # the same document in another layout
    return json.dumps(doc)


def _stage_0_text(doc, *edits):
    # the writer's text, each (old, new) of ``edits`` made once in the
    # relations of stage 0, which no run parses: only their layout is read
    head, rels = (json.dumps(doc, indent=1) + "\n").split('\n "stage_relations"')
    for old, new in edits:
        rels = rels.replace(old, new, 1)
    return head + '\n "stage_relations"' + rels


def _escaped_entry(doc):
    # "0" to json.loads, but the writer escapes no entry
    return _stage_0_text(doc, ('"0"', '"\\u0030"'))


def _tab_in_entry(doc):
    return _stage_0_text(doc, ('"0"', '"0\t"'))


def _newline_in_entry(doc):
    return _stage_0_text(doc, ('"0"', '"0\n"'))


def _quote_in_entry(doc):
    return _stage_0_text(doc, ('"0"', '"0"0"'))


def _entry_separator_respaced(doc):
    return _stage_0_text(doc, ('",\n     "', '", \n    "'))


def _opening_quote_moved_to_the_end(doc):
    # degree 2 of stage 0 is one row, [0, 1, -1, 0]
    return _stage_0_text(doc, ('[\n     "0",', '[\n     0",'), ('"0"\n    ]', '"0""\n    ]'))


def _text_after_the_end(doc):
    return json.dumps(doc, indent=1) + "\n\n"


def _breaks_ideal_closure(doc):
    # as many rows as the report gives, but the degree-2 commutator times V
    # no longer lies in their span
    doc["stage_relations"][-1]["3"] = [["1" if c == r else "0" for c in range(8)] for r in range(4)]


def _breaks_only_the_coideal(doc):
    # the monomial ideal of e01 is ideal-closed, but Delta(e01) = e01 + e10
    # leaves R_1 (x) V + V (x) R_1 = 0, so only the coideal re-check fails
    space = make_flip(2, RATIONALS)
    e01 = Subspace.from_rows(Matrix.from_scalars(RATIONALS, [[0, 1, 0, 0]]))
    q = ideal_saturate(free_truncated(space, FLIP2["degree_cutoff"]), [(2, e01)])
    assert q.coideal_holds is False
    doc["stage_relations"][-1] = cli._quotient_relations_doc(q)


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_hilbert,
        _bad_scalar,
        _exponent_scalar,
        _relations_not_a_dict,
        _row_too_long,
        _nul_suffixed_entry,
        _non_canonical_entry,
        _negative_zero_entry,
        _row_across_two_classes,
        _two_rows_of_one_class_added,
        _rows_of_two_classes_swapped,
        _rows_out_of_pivot_order,
        _compact_layout,
        _escaped_entry,
        _tab_in_entry,
        _newline_in_entry,
        _quote_in_entry,
        _entry_separator_respaced,
        _opening_quote_moved_to_the_end,
        _text_after_the_end,
        _breaks_ideal_closure,
        _breaks_only_the_coideal,
        _tampered_hilbert,
        _short_hilbert,
        _long_new_relation_dims,
        _iso_with_new_relations,
        _iso_before_the_last_stage,
        _max_iter_of_a_shorter_request,
        _deeply_nested,
        _tampered_earlier_hilbert,
        _earlier_hilbert_not_1_in_degree_0,
        _negative_earlier_hilbert,
        _entries_not_strings,
        _rows_not_a_list,
        _row_not_a_list,
        _empty_row,
        _degree_key_missing,
        _degree_keys_out_of_order,
        _row_count_off,
    ],
)
def test_corrupt_cache_is_recomputed(tmp_path, corrupt):
    cache = str(tmp_path / "cache")
    cold = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path) as fh:
        written = fh.read()
    doc = json.loads(written)
    text = corrupt(doc)
    with open(path, "w") as fh:
        # in the writer's layout, unless the corruption is the layout
        fh.write(json.dumps(doc, indent=1) + "\n" if text is None else text)
    again = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    nocache = invoke(["rank", "--json"], doc=FLIP2)
    assert again.exit_code == nocache.exit_code == cold.exit_code == 0
    assert again.stdout == nocache.stdout
    with open(path) as fh:
        assert fh.read() == written


def _cache_is_a_file(tmp_path):
    path = tmp_path / "cache"
    path.write_text("")
    return ["--cache", str(path)]


def _report_in_missing_dir(tmp_path):
    return ["--report", str(tmp_path / "missing" / "report.json")]


def _report_is_a_directory(tmp_path):
    (tmp_path / "report.json").mkdir()
    return ["--report", str(tmp_path / "report.json")]


@pytest.mark.parametrize(
    "command, output",
    [
        ("rank", _cache_is_a_file),
        ("nichols", _cache_is_a_file),
        ("primitives", _cache_is_a_file),
        ("rank", _report_in_missing_dir),
        ("rank", _report_is_a_directory),
    ],
)
def test_unusable_output_path_exits_2(tmp_path, monkeypatch, command, output):
    # the path is checked before any computation: neither the tower nor
    # the symmetrizer oracle is entered
    def tower_entered(*args, **kwargs):
        raise AssertionError("the tower ran before the output path was checked")

    def oracle_entered(*args, **kwargs):
        raise AssertionError("the oracle ran before the output path was checked")

    monkeypatch.setattr(cli.tower, "run", tower_entered)
    monkeypatch.setattr(cli, "nichols_truncation", oracle_entered)
    extra = ["--degree", "2"] if command == "primitives" else []
    res = invoke([command, "--json", *extra, *output(tmp_path)], doc=FLIP2)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output:")
    assert not list(tmp_path.rglob("*.tmp"))


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (134217728,) and data type int64")


@pytest.mark.parametrize(
    "args, module, name",
    [
        (["rank"], tower, "step"),
        (["rank", "--oracle"], cli, "nichols_truncation"),
        (["nichols"], tower, "step"),
        (["nichols"], cli, "nichols_truncation"),
        (["primitives", "--stage", "1", "--degree", "2"], tower, "step"),
    ],
)
def test_out_of_memory_exits_4(tmp_path, monkeypatch, args, module, name):
    # an allocation that fails inside the job, raised in process so that no
    # large allocation happens: one stderr line, no traceback, no output
    monkeypatch.setattr(module, name, _out_of_memory)
    res = invoke([*args, "--json", "--cache", str(tmp_path / "cache")], doc=FLIP2)
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr.splitlines() == [
        "out of memory: Unable to allocate 1.00 GiB for an array with shape (134217728,) and data type int64"
    ]
    assert not list(tmp_path.rglob("*.tmp"))


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cache_resume_rebuilds_only_the_last_stage(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cold = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    steps = _count_calls(monkeypatch, tower, "step")
    rebuilt = _count_calls(monkeypatch, cli, "_quotient_from_doc")
    warm = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    assert warm.stdout == cold.stdout
    assert steps == [] and len(rebuilt) == 1


def test_primitives_cache_cold_and_resumed(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    args = ["primitives", "--stage", "1", "--degree", "2", "--json"]
    nocache = invoke(args, doc=FLIP2)
    cold = invoke(args + ["--cache", cache], doc=FLIP2)
    assert len(os.listdir(cache)) == 1
    steps = _count_calls(monkeypatch, tower, "step")
    resumed = invoke(args + ["--cache", cache], doc=FLIP2)
    assert steps == []
    assert nocache.exit_code == cold.exit_code == resumed.exit_code == 0
    assert cold.stdout == resumed.stdout == nocache.stdout


def test_benchmark_tracer_selftest_passes():
    """The benchmark tracer patches names bound in braidrank's modules; an
    unbound name fails its self-test (which works in .perfbench_work/)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# sha256 of json.dumps(cli._quotient_relations_doc(run(space, D).final)),
# recorded before relation spaces were eliminated one weight block at a
# time; the A2 pair (5/2, -2/5) at D=8 takes the object-dtype path
GOLDEN_RELATIONS = {
    "flip n=3 D=6 QQ": (
        lambda: make_flip(3, RATIONALS),
        6,
        "8d879cbf178a9210d3073bb17533f3ff905ab7b23bd1f8b62f76bbe4af40f558",
    ),
    "A2 (5/2,-2/5) D=8 QQ": (
        lambda: make_diagonal(
            RATIONALS, Matrix.from_scalars(RATIONALS, [[-1, Fraction(5, 2)], [Fraction(-2, 5), -1]])
        ),
        8,
        "bb96b46ead6181e81cb2e013e4673f73189302e115b5c6e04cfc5d9493770b6f",
    ),
    "flip n=2 D=8 GF(5)": (
        lambda: make_flip(2, GF(5)),
        8,
        "ba6eafb676ed8436e08fe5d334c6484b881114a220933f9131689734207e5a5c",
    ),
}


@functools.lru_cache(maxsize=None)
def _golden_run(name):
    """The tower report of a GOLDEN_RELATIONS space and the quotient of each stage."""
    make_space, cutoff, _ = GOLDEN_RELATIONS[name]
    quotients = []
    report = tower.run(make_space(), cutoff, on_stage=lambda q, rep: quotients.append(q))
    return report, quotients


@pytest.mark.parametrize("name", list(GOLDEN_RELATIONS))
def test_relation_documents_are_golden(name):
    report, _ = _golden_run(name)
    text = json.dumps(cli._quotient_relations_doc(report.final))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RELATIONS[name][2]


# sha256 of the stdout of `primitives --json --stage S --degree d`, the one
# CLI output built from the flat form of a per-class primitive space;
# recorded before that space had its own value type
PRIMITIVE_JOBS = {
    "flip n=3 D=5 QQ": {**FLIP2, "dimension": 3},
    "A2 q=-1 D=6 QQ": {**FLIP2, "braiding": {"kind": "diagonal", "q": [["-1", "1"], ["-1", "-1"]]}, "degree_cutoff": 6},
    "flip n=2 D=6 GF(3)": {**FLIP2, "field": {"kind": "prime", "p": 3}, "degree_cutoff": 6},
}
GOLDEN_PRIMITIVES = {
    ("flip n=3 D=5 QQ", 0, 2): "353f49a89565b6a5da4edea7d8d750a383ed469300cc1234f662ea1a07eb2292",
    ("flip n=3 D=5 QQ", 0, 3): "e67287d122b03ab057e49b42f4fadbe849882f8916b748cfc148a4c477bbcf2a",
    ("flip n=3 D=5 QQ", 0, 4): "807aef86240889993817df3e9df61c9803a379debef0e95f3813ca4ff2837c65",
    ("A2 q=-1 D=6 QQ", 0, 2): "654458c4e27c891857a8ce4a229e456a7ce1ced9b9f7d71dedd0d85c0e5845b5",
    ("A2 q=-1 D=6 QQ", 0, 3): "bec24b89c6e56b6e58bff298e9fa840126b3805df18393de57c2634357a88417",
    ("A2 q=-1 D=6 QQ", 0, 4): "3fa722d677cbffd1986ed0e86506e535a985352955786854fa3d11f45b7dd40e",
    ("A2 q=-1 D=6 QQ", 1, 2): "157bd3a75b23b4b539f2364a31157f9083450e013133953908117e78898d5110",
    ("A2 q=-1 D=6 QQ", 1, 3): "b007286a7916420069321f2bed68b10b65266dbd4b553d43a67110f8d0c56479",
    ("A2 q=-1 D=6 QQ", 1, 4): "4a67152be173c4bc17ad8079a477bae771a6e4e5b1ad5a3aebb5503f67b5e3a8",
    ("flip n=2 D=6 GF(3)", 0, 2): "b709749ca0c444cd85454f6e06b5fc2d381140117556bb7a5afc08aff1f59e72",
    ("flip n=2 D=6 GF(3)", 0, 3): "015396830d856a34dafb1fd00e167ba2af6d8b41aafe63fbfdbf269e222f640f",
    ("flip n=2 D=6 GF(3)", 0, 4): "22e1edc38313a4c1fd2ad0e58921c12a1e98980533fb1336d83dc1cdf000b305",
}


@pytest.mark.parametrize("key", list(GOLDEN_PRIMITIVES), ids=lambda key: f"{key[0]} stage {key[1]} degree {key[2]}")
def test_primitive_documents_are_golden(key):
    job, stage, degree = key
    res = invoke(["primitives", "--json", "--stage", str(stage), "--degree", str(degree)], doc=PRIMITIVE_JOBS[job])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_PRIMITIVES[key]


def _saved_document(path, report, quotients, max_iter):
    """The text ``_StageCache.save`` writes for ``quotients``, one per stage."""
    cache = cli._StageCache(str(path))
    for q in quotients:
        cache.record(q, None)
    cache.save(report)
    return path.read_text()


def _dumped_document(report, quotients, max_iter):
    payload = {
        "version": 1,
        "max_iter": max_iter,
        "report": cli.rank_report_doc(report),
        "stage_relations": [cli._quotient_relations_doc(q) for q in quotients],
    }
    return json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("name", list(GOLDEN_RELATIONS))
def test_streamed_cache_document_is_json_dumps(tmp_path, name):
    report, quotients = _golden_run(name)
    cutoff = GOLDEN_RELATIONS[name][1]
    streamed = _saved_document(tmp_path / "doc.json", report, quotients, cutoff)
    assert streamed == _dumped_document(report, quotients, cutoff)


def test_streamed_cache_document_with_empty_parts(tmp_path):
    # no stage at all, then the free object: every degree holds "d": []
    space = make_flip(2, RATIONALS)
    report = tower.run(space, 3, 0)
    assert report.stages == []
    assert _saved_document(tmp_path / "none.json", report, [], 0) == _dumped_document(report, [], 0)
    free = free_truncated(space, 3)
    streamed = _saved_document(tmp_path / "free.json", report, [free], 1)
    assert streamed == _dumped_document(report, [free], 1)
    assert json.loads(streamed)["stage_relations"] == [{"1": [], "2": [], "3": []}]


def _cache_document(cache):
    (name,) = os.listdir(cache)
    return Path(cache, name).read_text()


A2_D4 = {
    "field": {"kind": "rationals"},
    "dimension": 2,
    "braiding": {"kind": "diagonal", "q": [["-1", "1"], ["-1", "-1"]]},
    "degree_cutoff": 4,
}


def test_resumed_cache_document_is_the_cold_one(tmp_path):
    # the stages loaded on resume are written out again next to the new
    # ones: flip n=2 has two stages and A2 three, so A2 also resumes past
    # a stage it carries without parsing it; a first run that stabilizes
    # below the default max_iter writes the cold document itself
    for job, stages in ((FLIP2, 2), (A2_D4, 3)):
        cold = str(tmp_path / f"cold{stages}")
        invoke(["rank", "--json", "--cache", cold], doc=job)
        text = _cache_document(cold)
        assert len(json.loads(text)["stage_relations"]) == stages
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        for max_iter in map(str, range(1, stages + 1)):
            resumed = str(tmp_path / f"resumed{stages}_{max_iter}")
            invoke(["rank", "--json", "--cache", resumed, "--max-iter", max_iter], doc=job)
            res = invoke(["rank", "--json", "--cache", resumed], doc=job)
            assert res.exit_code == 0
            assert _cache_document(resumed) == text, (stages, max_iter)


def test_cached_series_must_be_the_rebuilt_quotients(tmp_path):
    # stage 1 of A2 adds one relation in degree 4 to stage 0's; with stage
    # 0's degree-4 rows instead (one repeated, to keep the row count), the
    # stage has its report's shape and rebuilds to a quotient that passes
    # every invariant re-check, but its series is stage 0's
    cache = str(tmp_path / "cache")
    args = ["rank", "--json", "--cache", cache, "--max-iter", "2"]
    cold = invoke(args, doc=A2_D4)
    (name,) = os.listdir(cache)
    written = _cache_document(cache)
    doc = json.loads(written)
    stage0, stage1 = doc["stage_relations"]
    stage1["4"] = stage0["4"] + stage0["4"][:1]
    Path(cache, name).write_text(json.dumps(doc, indent=1) + "\n")
    again = invoke(args, doc=A2_D4)
    assert again.exit_code == cold.exit_code == 3
    assert again.stdout == cold.stdout
    assert _cache_document(cache) == written


def test_cache_document_replaced_before_save(tmp_path):
    # the rows of the stages read are copied from the document that was
    # read, whatever has replaced it by the time the resumed run writes
    cold, resumed = tmp_path / "cold", tmp_path / "resumed"
    invoke(["rank", "--json", "--cache", str(cold)], doc=A2_D4)
    invoke(["rank", "--json", "--cache", str(resumed), "--max-iter", "2"], doc=A2_D4)
    (path,) = resumed.iterdir()
    space = cli.JobSpec(A2_D4).build_space()
    with contextlib.closing(cli._StageCache(str(path))) as cache:
        resume = cache.resume_point(space, 4, 4)
        assert len(resume[0]) == 2
        (tmp_path / "other.json").write_text("{}")
        os.replace(tmp_path / "other.json", path)
        cache.save(tower.run(space, 4, 4, resume=resume, on_stage=cache.record))
    assert path.read_text() == _cache_document(cold)


def test_cache_read_in_blocks_shorter_than_a_row(tmp_path, monkeypatch):
    # the head, each literal and each row straddle blocks: the resume is
    # still a hit, and the rows read are copied back from their offsets
    monkeypatch.setattr(cli, "_BLOCK", 7)
    cold, resumed = str(tmp_path / "cold"), str(tmp_path / "resumed")
    invoke(["rank", "--json", "--cache", cold], doc=A2_D4)
    invoke(["rank", "--json", "--cache", resumed, "--max-iter", "2"], doc=A2_D4)
    steps = _count_calls(monkeypatch, tower, "step")
    res = invoke(["rank", "--json", "--cache", resumed], doc=A2_D4)
    assert res.exit_code == 0 and len(steps) == 1
    assert _cache_document(resumed) == _cache_document(cold)


def test_cache_read_traces_less_memory_than_twice_the_document(tmp_path):
    # an exact hit holds a block and a row of the text, not the document
    job = {**FLIP2, "degree_cutoff": 8}
    invoke(["rank", "--json", "--cache", str(tmp_path)], doc=job)
    (path,) = tmp_path.iterdir()
    space = cli.JobSpec(job).build_space()
    with contextlib.closing(cli._StageCache(str(path))) as cache:
        tracemalloc.start()
        try:
            stages, _ = cache.resume_point(space, 8, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(stages) == 2
    assert peak < 2 * path.stat().st_size


def test_exact_hit_traces_less_memory_than_a_flat_relation_space(tmp_path):
    # the resumed stage is kept one weight class at a time; no array of it
    # is n**d wide but the row being read, so the trace stays below R_6 of
    # flip n=3 as one flat int64 matrix
    job = {**FLIP2, "dimension": 3, "degree_cutoff": 6}
    invoke(["rank", "--json", "--cache", str(tmp_path)], doc=job)
    (path,) = tmp_path.iterdir()
    space = cli.JobSpec(job).build_space()
    with contextlib.closing(cli._StageCache(str(path))) as cache:
        tracemalloc.start()
        try:
            stages, _ = cache.resume_point(space, 6, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert stages and stages[-1].stage_map_iso
    assert peak < (3**6 - stages[-1].hilbert[6]) * 3**6 * 8


def test_cache_save_traces_less_memory_than_it_writes(tmp_path):
    path = tmp_path / "doc.json"
    cache = cli._StageCache(str(path))
    report = tower.run(make_flip(2, RATIONALS), 8, on_stage=cache.record)
    tracemalloc.start()
    try:
        cache.save(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < peak < path.stat().st_size


def test_failed_cache_write_keeps_the_previous_document(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    invoke(["rank", "--json", "--cache", cache, "--max-iter", "1"], doc=FLIP2)
    before = _cache_document(cache)
    atomic_write = cli._atomic_write

    def disk_full_midway(path, chunks):
        def some_chunks_then_enospc():
            yield from itertools.islice(chunks, 3)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        atomic_write(path, some_chunks_then_enospc())

    monkeypatch.setattr(cli, "_atomic_write", disk_full_midway)
    res = invoke(["rank", "--json", "--cache", cache], doc=FLIP2)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output:")
    assert not any(f.endswith(".tmp") for f in os.listdir(cache))
    assert _cache_document(cache) == before
