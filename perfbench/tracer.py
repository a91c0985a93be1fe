"""Outside-in tracer for braidrank: spans around each layer's cross-module calls.

The program has no trace points of its own, so this file wraps, from
outside, the calls each module makes through the next module's name: the
attributes of ``braidrank._accel`` that ``exactlin`` calls, the methods of
``Matrix`` and ``Subspace``, the ``shuffle`` functions ``bialgebra`` calls,
and the names that ``from .x import y`` copied into ``cli``, ``tower`` and
``nichols_oracle`` (those must be patched in the importing module).  Each
span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory and
are written once, when the traced command exits.  Counts (MACs, rref cells,
object-dtype fallbacks) are taken at the same boundaries.

Run one traced command (arguments as for ``python3 -m braidrank``)::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json rank --input job.json --json

Stdout and the exit code are the command's own; the wrappers do not touch
arguments or results.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types


def _counter(*names):
    def count(counts, args, out):
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return count


def _kernel_counter(kind):
    """Counts for one ``_accel`` kernel; ``kind`` is rref, matmul or kron."""

    def count(counts, args, out):
        counts["accel.kernel.calls"] = counts.get("accel.kernel.calls", 0) + 1
        result = out[0] if kind == "rref" else out
        if result.dtype == object:
            counts["accel.object_fallback.count"] = counts.get("accel.object_fallback.count", 0) + 1
        if kind == "rref":
            rows, cols = args[0].shape
            pivots = out[-1]
            counts["accel.rref.calls"] = counts.get("accel.rref.calls", 0) + 1
            counts["accel.rref.rows"] = counts.get("accel.rref.rows", 0) + rows
            counts["accel.rref.cells"] = counts.get("accel.rref.cells", 0) + rows * cols
            counts["accel.rref.max_cells"] = max(counts.get("accel.rref.max_cells", 0), rows * cols)
            counts["accel.rref.rank"] = counts.get("accel.rref.rank", 0) + len(pivots)
        elif kind == "matmul":
            a, b = args[0], args[1]
            counts["accel.matmul.calls"] = counts.get("accel.matmul.calls", 0) + 1
            counts["accel.matmul.macs"] = (
                counts.get("accel.matmul.macs", 0) + a.shape[0] * a.shape[1] * b.shape[1]
            )

    return count


class Tracer:
    """Installs span wrappers on braidrank's module and class attributes.

    ``install`` records every attribute it replaces and ``remove`` puts the
    originals back, so the program is unchanged after a traced call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def _tally(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return tallied

    def _patch(self, owner, attr, name, count=None, span=True):
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        new = self.wrap(name, fn, count) if span else self._tally(name, fn)
        setattr(owner, attr, staticmethod(new) if is_static else new)

    def install(self):
        from braidrank import _accel, bialgebra, cli, exactlin, nichols_oracle, shuffle, tower

        p = self._patch
        # _accel, as exactlin calls it
        p(_accel, "rref_frac", "accel.rref_frac", _kernel_counter("rref"))
        p(_accel, "rref_mod", "accel.rref_mod", _kernel_counter("rref"))
        p(_accel, "matmul_int", "accel.matmul_int", _kernel_counter("matmul"))
        p(_accel, "matmul_mod", "accel.matmul_mod", _kernel_counter("matmul"))
        p(_accel, "kron_int", "accel.kron_int", _kernel_counter("kron"))
        # exactlin, through the Matrix / Subspace classes every module shares
        M, S = exactlin.Matrix, exactlin.Subspace
        p(M, "build", "exactlin.build.count", span=False)
        for attr in ("from_scalars", "__matmul__", "__add__", "kron", "transpose", "take_columns", "rref"):
            p(M, attr, f"exactlin.Matrix.{attr}")
        for attr in ("from_rows", "reduce_rows", "sum"):
            p(S, attr, f"exactlin.Subspace.{attr}")
        for mod in (exactlin, bialgebra, nichols_oracle):
            p(mod, "kernel_basis", "exactlin.kernel_basis")
        for mod in (exactlin, bialgebra):
            p(mod, "vstack", "exactlin.vstack")
        # shuffle, as bialgebra and nichols_oracle call it
        p(shuffle, "_monomial_lift", "shuffle._monomial_lift", _counter("shuffle.lift.count"))
        p(shuffle, "_dense_lift", "shuffle._dense_lift", _counter("shuffle.lift.count", "shuffle.dense_lift.count"))
        p(shuffle, "_assemble_monomial_sum", "shuffle._assemble_monomial_sum")
        p(shuffle, "delta_component", "shuffle.delta_component")
        p(shuffle, "symmetrizer", "shuffle.symmetrizer", _counter("shuffle.symmetrizer.count"))
        p(nichols_oracle, "symmetrizer", "shuffle.symmetrizer", _counter("shuffle.symmetrizer.count"))
        # bialgebra, as tower, cli and nichols_oracle call it
        p(bialgebra, "_validate_quotient", "bialgebra.validate")
        p(nichols_oracle, "_validate_quotient", "bialgebra.validate")
        p(bialgebra, "_apply_delta_rows", "bialgebra.delta_apply")
        p(bialgebra.GradedQuotient, "mixing_space", "bialgebra.mixing_space")
        p(tower, "primitives", "bialgebra.primitives")
        p(tower, "ideal_saturate", "bialgebra.saturate")
        p(cli, "free_truncated", "bialgebra.free_truncated")
        # tower, as cli calls it
        p(tower, "step", "tower.step", _counter("tower.step.count"))
        # braiding constructors (exact braid-equation validation), as cli calls them
        for attr in ("make_flip", "make_diagonal", "make_from_matrix"):
            p(cli, attr, f"braiding.{attr}")
        # the oracle, as cli calls it
        p(cli, "nichols_truncation", "nichols_oracle.nichols_truncation")
        p(cli, "compare", "nichols_oracle.compare")
        # cli's own stages: cache read, serialization
        p(cli, "_quotient_from_doc", "cli.cache_read")
        p(cli, "_quotient_relations_doc", "cli.serialize")
        p(cli, "_atomic_write", "cli.serialize")
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap("cli.serialize", json.dumps)
        proxy.load = self.wrap("cli.cache_read", json.load)
        self._saved.append((cli, "json", vars(cli)["json"]))
        cli.json = proxy

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def run_cli(tracer: Tracer, args: list[str]) -> int:
    """Run ``braidrank <args>`` in this process under ``tracer``; the exit code."""
    from braidrank import cli

    with tracer:
        main = tracer.wrap("cli.main", cli.main.main)
        try:
            main(args=args, prog_name="braidrank", standalone_mode=True)
        except SystemExit as exc:
            return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return 0


# ---------------------------------------------------------------------------
# analysis: self time, outermost totals, per-layer sums
# ---------------------------------------------------------------------------


def analyse(spans: list[list]) -> dict:
    """Per span name: ``self_s`` (duration minus direct children) and
    ``total_s`` (summed over spans with no same-named ancestor), plus
    ``layer_self_s`` per module (the first part of the name)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    per_name: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = per_name.setdefault(name, {"self_s": 0.0, "total_s": 0.0})
        self_s = (end - start - child_ns[i]) / 1e9
        rec["self_s"] += self_s
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            rec["total_s"] += (end - start) / 1e9
    return {"names": per_name, "layer_self_s": layers}


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        code = run_cli(tracer, args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh, separators=(",", ":"))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
