"""braidrank benchmark: fixed job documents through the CLI, timed from outside.

    python3 perfbench/run.py --workload tower_q --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is used from ``src/`` as it is,
so nothing is built or installed.  The load is a closed loop with one
client: one job process at a time, the next started when the previous one
exits.

``--trace 0`` (timed run) reports, as medians over the passes of the run:

* ``setup_s``: one ``braidrank check`` per job of the workload (interpreter
  start, import, job parsing, exact braid-equation validation), summed
  over the jobs.
* ``cold_s``: each job as ``<cmd> --json --cache <fresh empty dir>``, summed.
* ``resume_s``: the same jobs again, against the cache the cold pass wrote.
* ``peak_rss_mb``: the largest max-RSS of any job process of the pass.

A round is one check pass, one cold pass and one resume pass; rounds
repeat for about ``--seconds`` (at least ``MIN_ROUNDS``).

``--trace 1`` runs the same jobs untraced and under ``tracer.py`` in turn,
twice each, and reports per-layer self times and exact counts; the mean
difference between the traced and untraced cold passes is
``trace.overhead_s``.  It also runs the harness self-test.

Every job output is checked (see ``harness.check_run``); a wrong exit code,
fingerprint or dimension, or a resume whose report bytes differ from the
cold run, counts as a failed job.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

import harness as H
from selftest import run_selftest
from tracer import analyse

SETUP_WARM = 3
MIN_ROUNDS = 3

END_TO_END_UNITS = {"cold_s": "s", "resume_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Ledger:
    """Attempted and failed jobs, with the reason for each failure.

    One attempt is one ``check`` of a job, or one cold run of a job together
    with its resume (the two are checked against each other).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def write_docs(jobs, seed):
    items = []
    for job in jobs:
        perm = H.permutation(job.n, seed)
        path = H.WORK / f"{job.name}.job.json"
        path.write_text(json.dumps(H.conjugate(job.doc, perm)), encoding="utf-8")
        items.append((job, perm, path))
    return items


def check_pass(items, ledger, tracer_dir=None):
    """One ``check`` per job; returns (summed wall seconds, traces)."""
    total, traces = 0.0, []
    for job, _, path in items:
        args = H.braidrank_argv("check", path, None)
        proc, trace = _run(args, f"check_{job.name}", tracer_dir)
        ledger.record(H.check_setup(job, proc))
        total += proc.wall_s
        traces.append(trace)
    return total, traces


def _run(args, tag, tracer_dir):
    if tracer_dir is None:
        return H.spawn(["-m", "braidrank", *args], tag), None
    trace_path = tracer_dir / f"{tag}.trace.json"
    proc = H.spawn([str(H.HERE / "tracer.py"), str(trace_path), *args], tag)
    try:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        trace = {"spans": [], "counts": {}}
    trace["wall_s"] = proc.wall_s
    return proc, trace


def tower_pass(items, expected, ledger, tracer_dir=None):
    """Cold pass over fresh caches, then the resume pass over those caches.

    Returns a dict of the pass's figures, stdout per job and the traces.
    """
    cold, resume = {}, {}
    for job, _, _ in items:
        H.fresh_dir(H.WORK / f"cache_{job.name}")
    for phase, procs in (("cold", cold), ("resume", resume)):
        for job, _, path in items:
            cache_dir = H.WORK / f"cache_{job.name}"
            args = H.braidrank_argv(job.command, path, cache_dir)
            proc, trace = _run(args, f"{phase}_{job.name}", tracer_dir)
            procs[job.name] = (proc, H.cache_document(cache_dir), trace)
    for job, perm, _ in items:
        c_proc, c_cache, _ = cold[job.name]
        r_proc, r_cache, _ = resume[job.name]
        problems = H.check_run(job, perm, expected, c_proc, c_cache, r_proc, r_cache)
        ledger.record(problems)
    return {
        "cold_s": sum(p.wall_s for p, _, _ in cold.values()),
        "resume_s": sum(p.wall_s for p, _, _ in resume.values()),
        "peak_rss_mb": max(p.maxrss_mb for p, _, _ in (*cold.values(), *resume.values())),
        "cache_bytes": sum(len(c) for _, c, _ in cold.values()),
        "stdout": {name: (v[0].stdout, resume[name][0].stdout) for name, v in cold.items()},
        "cold_traces": [t for _, _, t in cold.values()],
        "resume_traces": [t for _, _, t in resume.values()],
    }


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------


def timed_run(items, expected, seconds, ledger):
    """Rounds of (check pass, cold pass, resume pass) for about ``seconds``.

    A round is not started when the mean round so far would overrun the
    time; at least ``MIN_ROUNDS`` are run.  ``SETUP_WARM`` extra check
    passes come first so that set-up is sampled more often than the tower.
    """
    samples = {name: [] for name in END_TO_END_UNITS}
    start = time.monotonic()
    for _ in range(SETUP_WARM):
        samples["setup_s"].append(check_pass(items, ledger)[0])
    rounds = 0
    while True:
        samples["setup_s"].append(check_pass(items, ledger)[0])
        fig = tower_pass(items, expected, ledger)
        for name in ("cold_s", "resume_s", "peak_rss_mb"):
            samples[name].append(fig[name])
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<12} median {med:.4f} {END_TO_END_UNITS[name]}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    return {name: statistics.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# per-layer metric -> unit; README.md says which end-to-end metric and
# workload each one should move.
PER_LAYER_UNITS = {
    "accel.self_s": "s",
    "accel.rref.self_s": "s",
    "accel.matmul.self_s": "s",
    "accel.kron.self_s": "s",
    "accel.rref.calls": "count",
    "accel.rref.rows": "count",
    "accel.rref.rank": "count",
    "accel.rref.rank_ratio": "ratio",
    "accel.rref.cells": "count",
    "accel.rref.max_cells": "count",
    "accel.matmul.calls": "count",
    "accel.matmul.macs": "count",
    "accel.kernel.calls": "count",
    "accel.object_fallback.count": "count",
    "accel.object_fallback.share": "ratio",
    "exactlin.self_s": "s",
    "exactlin.build.count": "count",
    "shuffle.self_s": "s",
    "shuffle.lift.self_s": "s",
    "shuffle.lift.count": "count",
    "shuffle.dense_lift.count": "count",
    "shuffle.symmetrizer.count": "count",
    "bialgebra.self_s": "s",
    "bialgebra.primitives.total_s": "s",
    "bialgebra.saturate.total_s": "s",
    "bialgebra.mixing_space.total_s": "s",
    "bialgebra.delta_apply.self_s": "s",
    "bialgebra.validate.total_s": "s",
    "bialgebra.validate.resume_s": "s",
    "tower.self_s": "s",
    "tower.step.total_s": "s",
    "tower.step.count": "count",
    "cli.self_s": "s",
    "cli.serialize.total_s": "s",
    "cli.cache_bytes": "bytes",
    "cli.cache_read.self_s": "s",
    "braiding.validate_s": "s",
    "unattributed_s": "s",
    "trace.cold_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# counts that must repeat exactly between two traced cold passes
EXACT_COUNTS = (
    "accel.rref.calls", "accel.rref.rows", "accel.rref.rank", "accel.rref.cells",
    "accel.rref.max_cells", "accel.matmul.calls", "accel.matmul.macs", "accel.kernel.calls",
    "accel.object_fallback.count", "exactlin.build.count", "shuffle.lift.count",
    "shuffle.dense_lift.count", "shuffle.symmetrizer.count", "tower.step.count", "trace.spans",
)


def merge(traces):
    """Sum the analysed spans and counts of several traced job processes."""
    names, layers, counts = {}, {}, {}
    wall = 0.0
    for trace in traces:
        res = analyse(trace["spans"])
        for name, rec in res["names"].items():
            acc = names.setdefault(name, {"self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for layer, value in res["layer_self_s"].items():
            layers[layer] = layers.get(layer, 0.0) + value
        for key, value in trace["counts"].items():
            if key == "accel.rref.max_cells":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        counts["trace.spans"] = counts.get("trace.spans", 0) + len(trace["spans"])
        wall += trace["wall_s"]
    return names, layers, counts, wall


def per_layer(check_traces, traced, overhead_s):
    """Per-layer metrics of one traced pass (cold, resume) and check pass."""
    names, layers, counts, wall = merge(traced["cold_traces"])
    r_names = merge(traced["resume_traces"])[0]
    c_names = merge(check_traces)[0]

    def field(table, name, key):
        return table.get(name, {}).get(key, 0.0)

    m = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in ("accel", "exactlin", "shuffle", "bialgebra", "tower", "cli")}
    m["accel.rref.self_s"] = field(names, "accel.rref_frac", "self_s") + field(names, "accel.rref_mod", "self_s")
    m["accel.matmul.self_s"] = field(names, "accel.matmul_int", "self_s") + field(names, "accel.matmul_mod", "self_s")
    m["accel.kron.self_s"] = field(names, "accel.kron_int", "self_s")
    for key in EXACT_COUNTS:
        m[key] = counts.get(key, 0)
    m["accel.rref.rank_ratio"] = m["accel.rref.rank"] / max(1, m["accel.rref.rows"])
    m["accel.object_fallback.share"] = m["accel.object_fallback.count"] / max(1, m["accel.kernel.calls"])
    m["shuffle.lift.self_s"] = field(names, "shuffle._monomial_lift", "self_s") + field(names, "shuffle._dense_lift", "self_s")
    m["bialgebra.primitives.total_s"] = field(names, "bialgebra.primitives", "total_s")
    m["bialgebra.saturate.total_s"] = field(names, "bialgebra.saturate", "total_s")
    m["bialgebra.mixing_space.total_s"] = field(names, "bialgebra.mixing_space", "total_s")
    m["bialgebra.delta_apply.self_s"] = field(names, "bialgebra.delta_apply", "self_s")
    m["bialgebra.validate.total_s"] = field(names, "bialgebra.validate", "total_s")
    m["bialgebra.validate.resume_s"] = field(r_names, "bialgebra.validate", "total_s")
    m["tower.step.total_s"] = field(names, "tower.step", "total_s")
    m["cli.serialize.total_s"] = field(names, "cli.serialize", "total_s")
    m["cli.cache_bytes"] = traced["cache_bytes"]
    m["cli.cache_read.self_s"] = field(r_names, "cli.cache_read", "self_s")
    m["braiding.validate_s"] = sum(rec["total_s"] for n, rec in c_names.items() if n.startswith("braiding."))
    m["unattributed_s"] = wall - sum(layers.values())
    m["trace.cold_s"] = wall
    m["trace.overhead_s"] = overhead_s
    return m


def traced_run(items, expected, ledger):
    """Self-test, then untraced and traced passes in turn (U T U T).

    Per-layer figures come from the first traced pass; the second must
    repeat its exact counts.  ``trace.overhead_s`` is the mean traced cold
    pass minus the mean untraced one.
    """
    ledger.record(run_selftest())
    traces = H.fresh_dir(H.WORK / "traces")
    _, check_traces = check_pass(items, ledger, traces)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(tower_pass(items, expected, ledger))
        traced.append(tower_pass(items, expected, ledger, traces))
    overhead = statistics.mean(p["cold_s"] for p in traced) - statistics.mean(p["cold_s"] for p in untraced)
    first, second = traced
    metrics = per_layer(check_traces, first, overhead)

    problems = []
    if any(p["stdout"] != untraced[0]["stdout"] for p in (*untraced, *traced)):
        problems.append("traced stdout differs from untraced stdout")
    counts_a = merge(first["cold_traces"])[2]
    counts_b = merge(second["cold_traces"])[2]
    counts_a["cli.cache_bytes"], counts_b["cli.cache_bytes"] = first["cache_bytes"], second["cache_bytes"]
    for key in (*EXACT_COUNTS, "cli.cache_bytes"):
        if counts_a.get(key, 0) != counts_b.get(key, 0):
            problems.append(f"count {key} differs between traced runs: {counts_a.get(key)} vs {counts_b.get(key)}")
    ledger.record(problems)
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<32} {metrics[name]:.6g} {unit}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(H.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (H.SRC / "braidrank" / "cli.py").is_file():
        print(f"braidrank sources not found under {H.SRC}", file=sys.stderr)
        return 2
    expected = H.load_expected()
    H.fresh_dir(H.WORK)
    try:
        env = H.environment(args.seed)
        env["workload"] = args.workload
        print("environment " + json.dumps(env, sort_keys=True))
        items = write_docs(H.WORKLOADS[args.workload], args.seed)
        for job, perm, _ in items:
            print(f"job {job.name}: braidrank {job.command}, basis permutation {H.perm_key(perm)}")
        ledger = Ledger()
        if args.trace:
            values, units = traced_run(items, expected, ledger), PER_LAYER_UNITS
        else:
            values, units = timed_run(items, expected, args.seconds, ledger), END_TO_END_UNITS
    finally:
        shutil.rmtree(H.WORK, ignore_errors=True)
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.4f}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
