"""Write expected.json: the output fingerprints of every benchmark job.

For each job and each permutation of V's basis that a seed can pick, runs
``<cmd> --json --cache <fresh dir>`` once and records the sha256 of the
stdout and of the stage-cache document.  The stdout must be the same for
every permutation and the dimensions must be the documented ones; the
script refuses to write the file otherwise.  A later change may re-record
only when it means to change the program's output::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import permutations

import harness as H


def record() -> dict:
    jobs = {}
    for job in H.ALL_JOBS:
        stdout_sha, caches = None, {}
        for perm in permutations(range(job.n)):
            path = H.WORK / f"{job.name}.job.json"
            path.write_text(json.dumps(H.conjugate(job.doc, perm)), encoding="utf-8")
            cache = H.fresh_dir(H.WORK / f"cache_{job.name}")
            proc = H.spawn(["-m", "braidrank", *H.braidrank_argv(job.command, path, cache)], job.name)
            problems = H.check_dimensions(job, proc.stdout)
            if proc.code != 0 or problems:
                raise SystemExit(f"{job.name} {perm}: exit code {proc.code}, {problems}")
            sha = H.sha256(proc.stdout)
            if stdout_sha not in (None, sha):
                raise SystemExit(f"{job.name}: stdout depends on the basis permutation")
            stdout_sha = sha
            caches[H.perm_key(perm)] = H.sha256(H.cache_document(cache))
            print(f"{job.name} {H.perm_key(perm)} {proc.wall_s:.2f}s", flush=True)
        jobs[job.name] = {"stdout_sha256": stdout_sha, "cache_sha256": caches}
    return {"jobs": jobs}


def main() -> int:
    H.fresh_dir(H.WORK)
    try:
        table = record()
    finally:
        shutil.rmtree(H.WORK, ignore_errors=True)
    with open(H.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
