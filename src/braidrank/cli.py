"""Command-line front end: validate braidings, run rank / Nichols / primitives.

Input is a single UTF-8 JSON document (file or stdin) with exact scalars
as strings ("3/7", "-1", residues as decimals); float and boolean entries
are rejected.  Reports go to stdout (human table by default, the
machine-readable document with --json); diagnostics go to stderr.

Exit codes: 0 ok, 1 braiding validation failure, 2 parse error or an
unusable --cache / --report path, 3 tower not stabilized within max_iter
(a report is still written), 4 out of memory; :class:`_Commands` maps 2 and 4.

The optional cache directory stores per-stage relation bases keyed by a
stable hash of (field, braiding entries, cutoff).  It is a thin layer over
``tower.run``: hits are bit-identical to recomputation, partial runs are
resumed instead of restarted, and a document that fails any check is
recomputed and overwritten.  A document is read only in the layout its
writer gives it, ``json.dumps(doc, indent=1) + "\n"`` in ASCII, and it is
read in blocks, never whole: the head is parsed and must render back to
its own text, and the relation rows are checked by counting as they pass.
Every stage must fit its report: degree d holds n**d - hilbert[d] rows of
n**d strings with no escape.  Only the stage a run resumes from is parsed,
re-checked and has its series recomputed; no stage's ``new_relation_dims``
is recomputed, only checked for length and ``iso``.  A row is parsed onto
its weight class's words, and must lie in one class; the rows must be the
canonical basis in the writer's order, and an entry must be the text the
writer gives its value ("-2/2" and "-0" are misses).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import itertools
import json
import os
import sys
from fractions import Fraction

import click
import numpy as np

from . import bialgebra, tower
from .bialgebra import GradedQuotient, GradedSubspace, free_truncated, hilbert_series, primitives
from .braiding import DEGREE_CAP, DIMENSION_CAP, BraidedSpace, make_diagonal, make_flip, make_from_matrix
from .errors import BraidrankError, InvalidField
from .exactlin import FieldSpec, GF, Matrix, RATIONALS, Subspace, format_scalar
from .nichols_oracle import compare, nichols_truncation
from .tower import RankReport, StageReport


class ParseError(Exception):
    """Malformed job document (exit code 2)."""


# ---------------------------------------------------------------------------
# job documents
# ---------------------------------------------------------------------------


def _read_document(input_path: str) -> dict:
    try:
        # bytes, decoded below as strict UTF-8 whatever the locale's encoding
        if input_path == "-":
            data = click.get_binary_stream("stdin").read()
        else:
            with open(input_path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from None
    try:
        doc = json.loads(data.decode("utf-8"))
    # nesting deeper than the interpreter's recursion limit raises RecursionError
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("job document must be a JSON object")
    return doc


def _parse_field(doc) -> FieldSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError('field must be {"kind": "rationals"} or {"kind": "prime", "p": ...}')
    kind = doc["kind"]
    try:
        if kind == "rationals":
            return RATIONALS
        if kind == "prime":
            if not _is_int(doc.get("p")):
                raise ParseError("prime field needs an integer p")
            return GF(doc["p"])
    except InvalidField as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field kind {kind!r}")


def _is_int(value) -> bool:
    """True for JSON integers; ``true`` / ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar_grid(field, grid, what):
    if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
        raise ParseError(f"{what} must be a list of lists of scalar strings")
    if len({len(r) for r in grid}) > 1:
        raise ParseError(f"{what} has ragged rows")
    try:
        return Matrix.from_scalars(field, grid)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad scalar in {what}: {exc}") from None


class JobSpec:
    """Validated job: field, dimension, braiding constructor, run options."""

    def __init__(self, doc: dict, cutoff=None, max_iter=None, oracle=None):
        self.field = _parse_field(doc.get("field"))
        n = doc.get("dimension")
        if not _is_int(n) or n < 1:
            raise ParseError("dimension must be a positive integer")
        if n > DIMENSION_CAP:
            raise ParseError(f"dimension must be at most {DIMENSION_CAP}")
        self.dimension = n
        br = doc.get("braiding")
        if not isinstance(br, dict) or "kind" not in br:
            raise ParseError('braiding must have a "kind"')
        self.braiding_doc = br
        cut = cutoff if cutoff is not None else doc.get("degree_cutoff")
        if cut is None:
            raise ParseError("degree_cutoff missing (or pass --cutoff)")
        if not _is_int(cut) or cut < 1:
            raise ParseError("degree_cutoff must be a positive integer")
        if cut > DEGREE_CAP:
            raise ParseError(f"degree_cutoff must be at most {DEGREE_CAP}")
        self.cutoff = cut
        mi = max_iter if max_iter is not None else doc.get("max_iter")
        if mi is None:
            mi = cut
        if not _is_int(mi) or mi < 0:
            raise ParseError("max_iter must be a nonnegative integer")
        self.max_iter = mi
        orc = oracle if oracle else doc.get("oracle", False)
        if not isinstance(orc, bool):
            raise ParseError("oracle must be a boolean")
        self.oracle = orc

    def build_space(self) -> BraidedSpace:
        """Construct and validate the braided space; may raise BraidrankError."""
        br = self.braiding_doc
        kind = br["kind"]
        n = self.dimension
        if kind == "flip":
            return make_flip(n, self.field)
        if kind == "diagonal":
            q = _parse_scalar_grid(self.field, br.get("q"), "q")
            if q.shape != (n, n):
                raise ParseError(f"q must be {n}x{n}")
            return make_diagonal(self.field, q)
        if kind == "matrix":
            entries = _parse_scalar_grid(self.field, br.get("entries"), "entries")
            if entries.shape != (n * n, n * n):
                raise ParseError(f"entries must be {n * n}x{n * n}")
            return make_from_matrix(n, self.field, entries)
        raise ParseError(f"unknown braiding kind {kind!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rank_report_doc(rep: RankReport) -> dict:
    """The machine-readable rank report (deterministic key order)."""
    return {
        "rank_le_cutoff": rep.rank_le_cutoff,
        "stabilized": rep.stabilized,
        "stages": [
            {
                "hilbert": list(s.hilbert),
                "new_relation_dims": list(s.new_relation_dims),
                "iso": s.stage_map_iso,
            }
            for s in rep.stages
        ],
        "final_hilbert": hilbert_series(rep.final),
        "oracle_match": rep.oracle_match,
    }


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class _Memo(dict):
    """``fn`` of each distinct key, computed once: a basis has few distinct entries."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _scalar_text(field, den):
    """The scalar string of a basis entry, given its numerator over ``den``."""
    if field.is_rationals:
        return lambda v: format_scalar(Fraction(v, den), field)
    return lambda v: format_scalar(v, field)


def _subspace_doc(sub: Subspace, field) -> list:
    texts = _Memo(_scalar_text(field, sub.basis.den))
    return [list(map(texts.__getitem__, row)) for row in sub.basis.num.tolist()]


def _row_bodies(rel: GradedSubspace, field):
    """The body of each row of the flat canonical basis of ``rel``, in pivot
    order, made from its class part's numerators by :func:`_scalar_text`."""
    pairs = [(cols.tolist(), part) for cols, part in zip(rel.classes.cols, rel.parts)]
    texts = [_Memo(lambda v, text=_scalar_text(field, part.basis.den): _json_str(text(v))) for _, part in pairs]
    for _, k, r in sorted((cols[p], k, r) for k, (cols, part) in enumerate(pairs) for r, p in enumerate(part.pivots)):
        (cols, part), row = pairs[k], [_json_str("0")] * rel.classes.label.size
        for c, text in zip(cols, map(texts[k].__getitem__, part.basis.num[r].tolist())):
            row[c] = text
        yield _ROW_SEP.join(row)


def _rows_from_doc(field, classes, bodies) -> GradedSubspace:
    """R_d on the weight ``classes`` from the bodies of its rows, each checked
    by :class:`_DocReader`.  Each distinct entry text is parsed once, in one
    call over one common denominator, and must be the text the writer gives
    its value, so "0", index 0, is the only zero.  Each row is kept on its
    class's words as the indices of its texts until every row is read.
    """
    # each distinct text's index, in order of first appearance
    where = _Memo(lambda text: len(where))
    where[b"0"] = 0
    blocks, lead = [[] for _ in classes.cols], -1
    for body in bodies:
        row = np.fromiter(map(where.__getitem__, body[1:-1].split(_ENTRY_SEP)), np.int64, classes.label.size)
        # a ValueError unless one class holds the nonzeros, after the last row's
        nz = row.nonzero()[0]
        (k,) = set(classes.label[nz].tolist())
        if nz[0] <= lead:
            raise ValueError("cached rows not in pivot order")
        lead = nz[0]
        blocks[k].append(row[classes.cols[k]])
    texts = [text.decode("ascii") for text in where]
    values = Matrix.from_scalars(field, [texts])
    table = values.num[0]
    if list(map(_scalar_text(field, values.den), table.tolist())) != texts:
        raise ValueError("cached entry not in the writer's form")
    nums = (table[np.array(rows, np.int64).reshape(len(rows), cols.size)] for rows, cols in zip(blocks, classes.cols))
    mats = [Matrix.build(field, num, values.den) for num in nums]
    parts = tuple(map(Subspace.from_rows, mats))
    if any(part.basis != mat for part, mat in zip(parts, mats)):
        raise ValueError("cached rows not the canonical basis of their span")
    return GradedSubspace(classes, parts)


def _quotient_relations_doc(q: GradedQuotient) -> dict:
    return {
        str(d): _subspace_doc(q.relation(d), q.space.field)
        for d in range(1, q.cutoff + 1)
    }


def _quotient_from_doc(space: BraidedSpace, cutoff: int, degrees) -> GradedQuotient:
    """The re-checked quotient of one cached stage; ``degrees[d - 1]`` gives
    the bodies of the rows of R_d."""
    rels = [_rows_from_doc(space.field, space.classes(d), bodies) for d, bodies in enumerate(degrees, 1)]
    q = GradedQuotient(space, cutoff, rels, _validated=True)
    bialgebra._validate_quotient(q)
    return q


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_key(spec: JobSpec, space: BraidedSpace) -> str:
    payload = {
        "field": {"kind": spec.field.kind, "p": spec.field.p},
        "dimension": spec.dimension,
        "braiding": [
            [format_scalar(v, spec.field) for v in row] for row in space.c.scalar_rows()
        ],
        "cutoff": spec.cutoff,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:24]


def _atomic_write(path: str, chunks):
    """Write the text ``chunks`` to ``path.tmp``, then rename it over ``path``.

    On any failure, a write error or one raised while producing the chunks,
    the ``.tmp`` file is removed and ``path`` keeps its earlier content.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _claim_output(path: str):
    """Raise the OSError of writing ``path`` before any computation.

    The probe creates the same ``.tmp`` file as :func:`_atomic_write` and,
    when ``path`` names a directory, tries the same rename, so a missing
    directory or a directory path fails with the message of the final write.
    """
    tmp = path + ".tmp"
    open(tmp, "w").close()
    try:
        if os.path.isdir(path):
            os.replace(tmp, path)
    finally:
        os.remove(tmp)


def _stage_from_doc(k, report, n: int, cutoff: int, last: int) -> StageReport:
    """Stage ``k`` of a document whose last stage is ``last``: its series (1 in
    degree 0, in 0..n**d in degree d) and dimensions have the cutoff's
    lengths, and only the last stage is iso."""
    hilbert, dims, iso = report["hilbert"], report["new_relation_dims"], report["iso"]
    if not (
        _int_list(hilbert)
        and len(hilbert) == cutoff + 1
        and hilbert[0] == 1
        and all(0 <= h <= n**d for d, h in enumerate(hilbert))
        and _int_list(dims)
        and len(dims) == cutoff - 1
        and isinstance(iso, bool)
        and iso == (not any(dims))
        and (k == last or not iso)
    ):
        raise ValueError(f"cached stage {k} is malformed")
    return StageReport(
        stage=k,
        hilbert=tuple(hilbert),
        new_relation_dims=tuple(dims),
        stage_map_iso=iso,
    )


def _int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


# The cache document is json.dumps(doc, indent=1) + "\n", written as a stream
# of chunks instead of one string: the relation rows of every stage are
# formatted one row at a time, at the depth they take in the document.
_json_str = json.encoder.encode_basestring_ascii  # json.dumps of a str
_ROW_SEP = ",\n     "  # between the entries of a relation row, at depth 5
_HEAD_END = ',\n "stage_relations": '


def _json_chunks(parts, depth: int, brackets: str = "[]"):
    """A JSON list (or object) ``depth`` levels deep, in chunks; each part
    yields the chunks of one item."""
    pad = "\n" + " " * (depth + 1)
    empty = True
    for part in parts:
        yield (brackets[0] if empty else ",") + pad
        yield from part
        empty = False
    yield brackets if empty else "\n" + " " * depth + brackets[1]


def _stage_chunks(rels):
    """One entry of ``stage_relations``: under the keys "1".."D", the rows of
    R_1..R_D in ``rels``, each given by its body (the JSON texts of its
    entries joined by _ROW_SEP), which is one chunk of its own."""

    def degree(d, rows):
        yield f'"{d}": '
        yield from _json_chunks((("[\n     ", body, "\n    ]") for body in rows), 3)

    return _json_chunks((degree(d, rows) for d, rows in enumerate(rels, 1)), 2, "{}")


def _document_chunks(head: dict, stages):
    """``json.dumps({**head, "stage_relations": ...}, indent=1) + "\n"`` in chunks."""
    # reopen the head object before its closing "\n}"
    yield json.dumps(head, indent=1)[:-2] + _HEAD_END
    yield from _json_chunks(stages, 1)
    yield "\n}\n"


# The reader takes a document only as the writer above gives it, read in
# blocks of _BLOCK bytes.
_BLOCK = 1 << 16
_ENTRY_SEP = f'"{_ROW_SEP}"'.encode()  # between the JSON texts of two entries
# the only bytes the writer writes: a newline and printable ASCII
_LAYOUT_BYTES = b"\n" + bytes(range(0x20, 0x7F))


class _DocReader:
    """A cache document compared, as it is read, with the text its writer
    gives it.  It holds one block and the current row."""

    def __init__(self, fh):
        self.fh = fh
        # the unread text starts at buf[pos]; buf[0] is at file offset base
        self.buf, self.pos, self.base = b"", 0, 0

    def _more(self) -> bool:
        """Drop the text before ``pos`` and read a block; False at the end."""
        block = self.fh.read(_BLOCK)
        if block.translate(None, _LAYOUT_BYTES):
            raise ValueError("cache document holds a byte its writer never writes")
        self.base += self.pos
        self.buf, self.pos = self.buf[self.pos :] + block, 0
        return bool(block)

    def _find(self, text: bytes) -> int:
        """The index in ``buf`` of the next ``text`` at or after ``pos``."""
        seen = 0
        while (at := self.buf.find(text, self.pos + seen)) < 0:
            seen = max(len(self.buf) - self.pos - len(text) + 1, 0)
            if not self._more():
                raise ValueError("cache document ends early")
        return at

    def _expect(self, text: bytes):
        while len(self.buf) - self.pos < len(text) and self._more():
            pass
        if not self.buf.startswith(text, self.pos):
            raise ValueError("cache document is not in its writer's layout")
        self.pos += len(text)

    def head(self) -> dict:
        """The object before "stage_relations"; :meth:`check` compares its text."""
        # a document that does not open like the writer's is not searched
        self._expect(b'{\n "version": ')
        self.pos = 0
        end = self._find(_HEAD_END.encode())
        return json.loads(self.buf[:end] + b"\n}")

    def check(self, head: dict, n: int, hilberts) -> list:
        """Compare the whole document with the writer's text for ``head`` and
        n**d - hilbert[d] rows in degree d of each stage, and return the
        (start, stop) file offsets of each row's body, an int64 array per stage and degree."""
        counts = [[n**d - h for d, h in enumerate(hilbert[1:], 1)] for hilbert in hilberts]
        # the writer's chunks, with each row's body given by its width
        stages = [[itertools.repeat(n**d, c) for d, c in enumerate(cs, 1)] for cs in counts]
        spans = []
        for chunk in _document_chunks(head, map(_stage_chunks, stages)):
            if type(chunk) is int:
                spans.append(self._row(chunk))
            else:
                self._expect(chunk.encode())
        if self.pos < len(self.buf) or self._more():
            raise ValueError("cache document continues after its end")
        rows = iter(spans)
        return [[np.array(list(itertools.islice(rows, c)), np.int64).reshape(c, 2) for c in cs] for cs in counts]

    def _row(self, width: int) -> tuple[int, int]:
        """A row body of ``width`` JSON strings with no escape, up to the next
        "\n    ]".  Its 2 * width quotes and width - 1 newlines must all lie
        in its first and last byte (two quotes) and in width - 1 disjoint
        entry separators, so every entry lies between two quotes and holds
        neither."""
        stop = self._find(b"\n    ]")
        buf, start = self.buf, self.pos
        if not (
            buf[start] == buf[stop - 1] == ord('"')
            and buf.count(b'"', start, stop) == 2 * width
            and buf.count(_ENTRY_SEP, start + 1, stop - 1) == width - 1
            and buf.count(b"\n", start, stop) == width - 1
            and buf.find(b"\\", start, stop) < 0
        ):
            raise ValueError("cached relation row out of shape")
        self.pos = stop
        return self.base + start, self.base + stop


class _StageCache:
    """One cache document: the resume point it holds, and its rewrite.

    The document read stays open until :meth:`close`: the rows of the
    stages read are copied from it to the rewrite.  A document is only ever
    replaced by a rename, so the open file keeps the text that was checked.
    """

    def __init__(self, path: str):
        self.path = path
        self.fh = None
        # the stage count of the document read; None on a miss
        self.doc_stages = None
        # each stage's rows of R_1..R_D, given by their bodies: those read
        # from the document, then each new stage's
        self.stages: list = []

    def close(self):
        if self.fh is not None:
            self.fh.close()
            self.fh = None

    def _bodies(self, spans):
        """The body of each row at the (start, stop) offsets ``spans``."""
        for start, stop in spans.tolist():
            self.fh.seek(start)
            yield self.fh.read(stop - start)

    def resume_point(self, space: BraidedSpace, cutoff: int, max_iter: int):
        """The cached stages usable under ``max_iter`` and the quotient after them.

        The document must be in its writer's layout (:class:`_DocReader`),
        every stage must fit its report (:func:`_stage_from_doc`), and
        ``max_iter`` must be the one :meth:`save` writes.  Only the last
        usable stage's relations are parsed, and they go through the full
        invariant re-check; its Hilbert series must be the rebuilt
        quotient's.  A missing document, or one that fails any check, is a
        miss: the run starts from the free object and the document is
        rewritten.
        """
        try:
            self.fh = open(self.path, "rb")
            reader = _DocReader(self.fh)
            head = reader.head()
            doc_stages = head["report"]["stages"]
            if head["version"] != 1 or not isinstance(doc_stages, list):
                raise ValueError("cache document out of shape")
            last = len(doc_stages) - 1
            stages = [_stage_from_doc(k, rep, space.n, cutoff, last) for k, rep in enumerate(doc_stages)]
            written = cutoff if stages and stages[-1].stage_map_iso else len(stages)
            if not _is_int(head["max_iter"]) or head["max_iter"] != written:
                raise ValueError("cached max_iter is not the one save writes for its stages")
            spans = reader.check(head, space.n, [s.hilbert for s in stages])[:max_iter]
            if spans:
                q = _quotient_from_doc(space, cutoff, map(self._bodies, spans[-1]))
                if list(stages[len(spans) - 1].hilbert) != hilbert_series(q):
                    raise ValueError("cached Hilbert series disagrees with the cached relations")
            else:
                q = free_truncated(space, cutoff)
        # a file on disk can hold anything: each of these is a malformed
        # document, and a failed re-check raises a BraidrankError
        except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError, BraidrankError):
            self.close()
            return [], free_truncated(space, cutoff)
        self.doc_stages = len(stages)
        self.stages = [[map(bytes.decode, self._bodies(rows)) for rows in stage] for stage in spans]
        return stages[: len(spans)], q

    def record(self, q: GradedQuotient, rep: StageReport):
        self.stages.append([_row_bodies(rel, q.space.field) for rel in q._rels])

    def save(self, report: RankReport):
        """Rewrite the document when new stages were computed, so a shorter
        request never truncates a longer cached run.  Its "max_iter" is the
        cutoff once the tower stabilized, for any longer request reads the
        same stages, and the stage count otherwise: the document does not
        depend on the order of the requests that built it."""
        if self.doc_stages is not None and len(self.stages) <= self.doc_stages:
            return
        head = {
            "version": 1,
            "max_iter": report.final.cutoff if report.stabilized else len(self.stages),
            "report": rank_report_doc(report),
        }
        _atomic_write(self.path, _document_chunks(head, map(_stage_chunks, self.stages)))


def _run_tower_cached(
    spec: JobSpec, space: BraidedSpace, cache_dir: str | None, max_iter: int
) -> RankReport:
    """Tower run with optional cache: exact hits are served, partials resumed."""
    if not cache_dir:
        return tower.run(space, spec.cutoff, max_iter)
    os.makedirs(cache_dir, exist_ok=True)
    with contextlib.closing(_StageCache(os.path.join(cache_dir, _cache_key(spec, space) + ".json"))) as cache:
        report = tower.run(
            space,
            spec.cutoff,
            max_iter,
            resume=cache.resume_point(space, spec.cutoff, max_iter),
            on_stage=cache.record,
        )
        cache.save(report)
    return report


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------


def _basis_label(idx: int, n: int, d: int) -> str:
    digits = []
    for _ in range(d):
        digits.append(idx % n)
        idx //= n
    return "e" + "".join(str(t) for t in reversed(digits))


def _pretty_vector(row: list, field, n: int, d: int) -> str:
    terms = []
    for idx, v in enumerate(row):
        if v == 0:
            continue
        label = _basis_label(idx, n, d)
        negative = field.is_rationals and v < 0
        mag = -v if negative else v
        body = label if mag == 1 else f"{format_scalar(mag, field)}*{label}"
        terms.append(("-" if negative else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = body if sign == "+" else "-" + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _human_rank_lines(spec: JobSpec, rep: RankReport) -> list[str]:
    lines = ["stage  iso  hilbert / new relation dims (deg 2..D)"]
    for s in rep.stages:
        lines.append(
            f"{s.stage:>5}  {'yes' if s.stage_map_iso else 'no ':<3}  "
            f"{list(s.hilbert)}  new={list(s.new_relation_dims)}"
        )
    if rep.stabilized:
        lines.append(
            f"rank at cutoff D={spec.cutoff} (lower bound on the untruncated rank): "
            f"{rep.rank_le_cutoff}"
        )
    else:
        lines.append(f"not stabilized within max_iter={spec.max_iter}")
    lines.append(f"final hilbert: {hilbert_series(rep.final)}")
    if rep.oracle_match is not None:
        lines.append(f"oracle match: {rep.oracle_match}")
    return lines


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_input_option = click.option("--input", "input_path", default="-", help="job JSON (file or - for stdin)")
_json_option = click.option("--json", "as_json", is_flag=True, help="machine-readable stdout")


def _common(fn):
    """The options of every command that runs the tower."""
    fn = _input_option(fn)
    fn = click.option("--cutoff", type=int, default=None, help="override degree_cutoff")(fn)
    fn = click.option("--max-iter", "max_iter", type=int, default=None, help="override max_iter")(fn)
    fn = click.option("--cache", "cache_dir", default=None, help="stage cache directory")(fn)
    return _json_option(fn)


class _Commands(click.Group):
    """Every command, with the one table from the errors a job raises to its
    exit code and stderr line.  A closed stdout pipe (EPIPE) is left to
    click, which exits 1 without a message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as exc:
            _fail(2, f"parse error: {exc}")
        except MemoryError as exc:
            _fail(4, f"out of memory: {exc}")
        except OSError as exc:
            # a --cache or --report write: reads raise ParseError or are misses
            if exc.errno == errno.EPIPE:
                raise
            _fail(2, f"cannot write output: {exc}")


@click.group(cls=_Commands)
def main():
    """Exact braided bialgebra towers, combinatorial rank, Nichols truncations."""


def _fail(code: int, message: str) -> "NoReturn":
    """One stderr line, then exit ``code`` (the README lists the codes)."""
    click.echo(message, err=True)
    sys.exit(code)


def _build_space(spec: JobSpec) -> BraidedSpace:
    """The job's validated braided space, or exit 1."""
    try:
        return spec.build_space()
    except BraidrankError as exc:
        _fail(1, f"invalid braiding: {exc}")


@main.command()
@_input_option
@_json_option
def check(input_path, as_json):
    """Validate a braiding: invertibility plus the braid equation."""
    try:
        doc = _read_document(input_path)
        doc.setdefault("degree_cutoff", 1)
        space = JobSpec(doc).build_space()
    except BraidrankError as exc:
        witness = list(getattr(exc, "witness", ())) or None
        if as_json:
            click.echo(dumps_report({"valid": False, "witness": witness, "error": str(exc)}), nl=False)
        else:
            click.echo(f"invalid: {exc}")
        sys.exit(1)
    if as_json:
        click.echo(dumps_report({"valid": True, "witness": None, "error": None}), nl=False)
    else:
        click.echo(f"ok: braiding validated (n={space.n}, field={space.field})")
    sys.exit(0)


@main.command()
@_common
@click.option("--oracle", is_flag=True, help="cross-check the final stage against the symmetrizer oracle")
@click.option("--report", "report_path", default=None, help="also write the JSON report to a file")
def rank(input_path, cutoff, max_iter, cache_dir, as_json, oracle, report_path):
    """Run the quotient tower and report the rank visible below the cutoff."""
    spec = JobSpec(_read_document(input_path), cutoff, max_iter, oracle)
    space = _build_space(spec)
    if report_path:
        _claim_output(report_path)
    rep = _run_tower_cached(spec, space, cache_dir, spec.max_iter)
    if spec.oracle and rep.stabilized:
        rep.oracle_match = compare(rep.final, nichols_truncation(space, spec.cutoff))
    doc = rank_report_doc(rep)
    text = dumps_report(doc)
    if report_path:
        _atomic_write(report_path, (text,))
    if as_json:
        click.echo(text, nl=False)
    else:
        for line in _human_rank_lines(spec, rep):
            click.echo(line)
    sys.exit(0 if rep.stabilized else 3)


@main.command()
@_common
def nichols(input_path, cutoff, max_iter, cache_dir, as_json):
    """Compute the symmetrizer-oracle truncation and compare with the tower."""
    spec = JobSpec(_read_document(input_path), cutoff, max_iter)
    space = _build_space(spec)
    # the tower first: it checks the --cache path before any computation
    rep = _run_tower_cached(spec, space, cache_dir, spec.max_iter)
    oracle_q = nichols_truncation(space, spec.cutoff)
    match = compare(rep.final, oracle_q) if rep.stabilized else None
    doc = {
        "oracle_hilbert": hilbert_series(oracle_q),
        "final_hilbert": hilbert_series(rep.final),
        "stabilized": rep.stabilized,
        "rank_le_cutoff": rep.rank_le_cutoff,
        "match": match,
    }
    if as_json:
        click.echo(dumps_report(doc), nl=False)
    else:
        click.echo(f"oracle hilbert: {doc['oracle_hilbert']}")
        click.echo(f"tower hilbert:  {doc['final_hilbert']}")
        if match is None:
            click.echo(f"match: undetermined (not stabilized within max_iter={spec.max_iter})")
        else:
            click.echo(f"match: {match}")
    sys.exit(0 if rep.stabilized else 3)


@main.command("primitives")
@_common
@click.option("--stage", type=int, default=0, help="tower stage (0 = free object)")
@click.option("--degree", type=int, required=True, help="tensor degree to report")
def primitives_cmd(input_path, cutoff, max_iter, cache_dir, as_json, stage, degree):
    """Print a basis of the primitive space at a given stage and degree."""
    spec = JobSpec(_read_document(input_path), cutoff, max_iter)
    # options first: a bad one exits 2 before the braid equation is checked
    if stage < 0 or stage > spec.max_iter:
        raise ParseError(f"stage must lie in 0..max_iter={spec.max_iter}")
    if not 1 <= degree <= spec.cutoff:
        raise ParseError(f"degree must lie in 1..{spec.cutoff}")
    space = _build_space(spec)
    # the tower stops early once stabilized, leaving the quotient unchanged
    q = _run_tower_cached(spec, space, cache_dir, stage).final
    report = primitives(q, degree)
    sub = report.subspace
    if as_json:
        doc = {
            "stage": stage,
            "degree": degree,
            "dimension": sub.dim,
            "vectors": _subspace_doc(sub, space.field),
        }
        click.echo(dumps_report(doc), nl=False)
    else:
        click.echo(f"primitives at stage {stage}, degree {degree}: dimension {sub.dim}")
        for row in sub.basis.scalar_rows():
            click.echo(_pretty_vector(row, space.field, space.n, degree))
    sys.exit(0)


if __name__ == "__main__":
    main()
