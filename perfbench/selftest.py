"""Self-test of the benchmark harness on a tiny job (flip n=1, D=3).

Checks that the output check rejects a tampered fingerprint, that the
tracer's wrappers leave the ``rank --json`` bytes and the cache document
unchanged and are all removed afterwards, and that the traced counts
repeat.  ``run.py --trace 1`` runs it; on its own::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import harness as H
from tracer import Tracer, run_cli


def _tamper(expected: dict, job: H.Job, key: str, perm) -> dict:
    out = json.loads(json.dumps(expected))
    entry = out["jobs"][job.name]
    if key == "stdout_sha256":
        entry[key] = "0" * 64
    else:
        entry[key][H.perm_key(perm)] = "0" * 64
    return out


def _traced_in_process(args):
    tracer = Tracer()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(tracer, args)
    return code, buf.getvalue().encode("utf-8"), tracer


def run_selftest() -> list[str]:
    if str(H.SRC) not in sys.path:
        sys.path.insert(0, str(H.SRC))

    job, perm = H.TINY, (0,)
    expected = H.load_expected()
    problems = []
    H.WORK.mkdir(exist_ok=True)
    doc_path = H.WORK / "selftest.job.json"
    doc_path.write_text(json.dumps(job.doc), encoding="utf-8")

    cache = H.fresh_dir(H.WORK / "cache_selftest")
    proc = H.spawn(["-m", "braidrank", *H.braidrank_argv(job.command, doc_path, cache)], "selftest")
    cache_doc = H.cache_document(cache)
    found = H.check_run(job, perm, expected, proc, cache_doc)
    if found:
        problems.append(f"selftest: the true fingerprints are rejected: {found}")
    for key in ("stdout_sha256", "cache_sha256"):
        if not H.check_run(job, perm, _tamper(expected, job, key, perm), proc, cache_doc):
            problems.append(f"selftest: a tampered {key} is accepted")

    counts = []
    for k in range(2):
        cache = H.fresh_dir(H.WORK / f"cache_selftest_{k}")
        code, out, tracer = _traced_in_process(H.braidrank_argv(job.command, doc_path, cache))
        if code != 0 or out != proc.stdout or H.cache_document(cache) != cache_doc:
            problems.append(f"selftest: traced run changed the output (exit code {code})")
        if not tracer.spans:
            problems.append("selftest: the tracer recorded no spans")
        counts.append((tracer.counts, len(tracer.spans)))
    if counts[0] != counts[1]:
        problems.append(f"selftest: counts differ between traced runs: {counts}")

    tracer = Tracer()
    tracer.install()
    patched = list(tracer._saved)
    left_unpatched = [attr for owner, attr, raw in patched if vars(owner)[attr] is raw]
    tracer.remove()
    not_restored = [attr for owner, attr, raw in patched if vars(owner)[attr] is not raw]
    if left_unpatched:
        problems.append(f"selftest: install did not replace {left_unpatched}")
    if not_restored:
        problems.append(f"selftest: remove did not restore {not_restored}")
    return problems


def main() -> int:
    H.fresh_dir(H.WORK)
    try:
        problems = run_selftest()
    finally:
        shutil.rmtree(H.WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
