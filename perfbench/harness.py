"""Workloads, job processes and output checks shared by the benchmark scripts.

Every job is a JSON job document handed to the ``braidrank`` CLI in a fresh
interpreter, exactly as a user runs it (``python3 -m braidrank <cmd>`` with
the checkout's ``src`` on ``PYTHONPATH``).  Nothing here imports the program;
``tracer.py`` is the only file that reaches inside it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED_PATH = HERE / "expected.json"

# A job process that runs longer than this is killed and counted as failed;
# the largest job here takes under 10 s on a 2-core machine.
JOB_TIMEOUT_S = 150.0

Q = {"kind": "rationals"}
F3 = {"kind": "prime", "p": 3}
A2_GRID = [["-1", "1"], ["-1", "-1"]]
JORDAN = [
    ["1", "1", "0", "0"],
    ["0", "0", "1", "1"],
    ["0", "1", "0", "0"],
    ["0", "0", "0", "1"],
]


def _doc(field, n, braiding, cutoff):
    return {"field": field, "dimension": n, "braiding": braiding, "degree_cutoff": cutoff}


# ---------------------------------------------------------------------------
# seeded inputs: conjugate the braiding by a permutation of V's basis
# ---------------------------------------------------------------------------


def permutation(n: int, seed: int) -> tuple[int, ...]:
    """The seed's permutation of an n-dimensional basis (one per seed and n,
    so the jobs of a workload keep their relative orientation)."""
    perm = list(range(n))
    random.Random(f"{seed}/{n}").shuffle(perm)
    return tuple(perm)


def perm_key(perm) -> str:
    return ",".join(str(p) for p in perm)


def conjugate(doc: dict, perm) -> dict:
    """The job document with e_i renamed to e_perm[i].

    Flip commutes with every permutation; a diagonal grid becomes
    q'[i][j] = q[perm[i]][perm[j]]; a full matrix is conjugated by perm (x) perm.
    Dimensions, shapes and coefficient sizes are unchanged.
    """
    out = json.loads(json.dumps(doc))
    br = out["braiding"]
    n = doc["dimension"]
    if br["kind"] == "diagonal":
        q = doc["braiding"]["q"]
        br["q"] = [[q[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    elif br["kind"] == "matrix":
        e = doc["braiding"]["entries"]
        idx = [perm[k] * n + perm[l] for k in range(n) for l in range(n)]
        br["entries"] = [[e[idx[r]][idx[c]] for c in range(n * n)] for r in range(n * n)]
    return out


@dataclass(frozen=True)
class Job:
    """One job document plus the dimensions every seed must reproduce.

    ``rank`` is ``rank_le_cutoff`` for ``rank`` jobs; ``nichols`` jobs must
    report ``match: true`` with oracle and tower Hilbert series both equal
    to ``hilbert``.
    """

    name: str
    command: str
    doc: dict
    rank: int
    hilbert: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.doc["dimension"]


FLIP3_D5 = Job("flip3_d5", "rank", _doc(Q, 3, {"kind": "flip"}, 5), 1, (1, 3, 6, 10, 15, 21))
A2_D7 = Job(
    "a2_d7", "rank", _doc(Q, 2, {"kind": "diagonal", "q": A2_GRID}, 7), 2, (1, 2, 2, 2, 1, 0, 0, 0)
)
F3_FLIP2_D8 = Job(
    "f3_flip2_d8", "rank", _doc(F3, 2, {"kind": "flip"}, 8), 1, (1, 2, 3, 2, 1, 0, 0, 0, 0)
)
A2_ORACLE_D5 = Job(
    "a2_oracle_d5", "nichols", _doc(Q, 2, {"kind": "diagonal", "q": A2_GRID}, 5), 2, (1, 2, 2, 2, 1, 0)
)
JORDAN_UPPER_D7 = Job(
    "jordan_upper_d7", "rank", _doc(Q, 2, {"kind": "matrix", "entries": JORDAN}, 7), 1, tuple(range(1, 9))
)
# The same braiding conjugated by the basis swap: lower-triangular.
JORDAN_LOWER_D7 = Job(
    "jordan_lower_d7", "rank", conjugate(JORDAN_UPPER_D7.doc, (1, 0)), 1, tuple(range(1, 9))
)
# The harness self-test job; it belongs to no workload.
TINY = Job("tiny_flip1_d3", "rank", _doc(Q, 1, {"kind": "flip"}, 3), 0, (1, 1, 1, 1))

# Why each workload exists, and which layer it stresses, is in README.md.
WORKLOADS: dict[str, list[Job]] = {
    "tower_q": [FLIP3_D5, A2_D7, A2_ORACLE_D5],
    "tower_f3": [F3_FLIP2_D8],
    "dense_q": [JORDAN_UPPER_D7, JORDAN_LOWER_D7],
}
ALL_JOBS = [job for jobs in WORKLOADS.values() for job in jobs] + [TINY]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# job processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


@dataclass
class Proc:
    """One finished job process: wall seconds, max RSS, exit code, stdout."""

    wall_s: float
    maxrss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], tag: str) -> Proc:
    """Run ``python3 <argv>`` to completion, timed from start to exit.

    The child is reaped with ``wait4`` so its own max RSS is read from its
    rusage.  A timer kills a child that outlives ``JOB_TIMEOUT_S``.
    """
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, code, out_path.read_bytes(), err_path.read_bytes())


def braidrank_argv(command: str, doc_path: Path, cache_dir: Path | None) -> list[str]:
    args = [command, "--input", str(doc_path), "--json"]
    if cache_dir is not None:
        args += ["--cache", str(cache_dir)]
    return args


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cache_document(cache_dir: Path) -> bytes:
    """The single stage-cache document a job wrote (empty when missing)."""
    docs = sorted(cache_dir.glob("*.json"))
    return docs[0].read_bytes() if len(docs) == 1 else b""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

CHECK_OK = b'{\n  "valid": true,\n  "witness": null,\n  "error": null\n}\n'


def check_dimensions(job: Job, stdout: bytes) -> list[str]:
    try:
        rep = json.loads(stdout)
    except ValueError:
        return [f"{job.name}: stdout is not JSON"]
    want = list(job.hilbert)
    problems = []
    if rep.get("final_hilbert") != want:
        problems.append(f"{job.name}: final_hilbert {rep.get('final_hilbert')} != {want}")
    if rep.get("rank_le_cutoff") != job.rank or rep.get("stabilized") is not True:
        problems.append(f"{job.name}: rank {rep.get('rank_le_cutoff')} != {job.rank}")
    if job.command == "nichols":
        if rep.get("match") is not True:
            problems.append(f"{job.name}: oracle match is {rep.get('match')}")
        if rep.get("oracle_hilbert") != want:
            problems.append(f"{job.name}: oracle_hilbert {rep.get('oracle_hilbert')} != {want}")
    return problems


def check_run(job: Job, perm, expected: dict, cold: Proc, cold_cache: bytes,
              resume: Proc | None = None, resume_cache: bytes | None = None) -> list[str]:
    """Every way a cold (and optionally resumed) run of ``job`` can be wrong.

    Fingerprints: the sha256 of the ``--json`` stdout (the same for every
    permutation, since all reported numbers are dimensions) and of the stage
    cache document, which carries every stage's canonical relation bases bit
    for bit and so depends on the permutation.
    """
    want = expected["jobs"][job.name]
    problems = []
    for label, proc in (("cold", cold), ("resume", resume)):
        if proc is not None and proc.code != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{job.name} {label}: exit code {proc.code} {tail}")
    if sha256(cold.stdout) != want["stdout_sha256"]:
        problems.append(f"{job.name}: stdout fingerprint differs")
    if sha256(cold_cache) != want["cache_sha256"][perm_key(perm)]:
        problems.append(f"{job.name}: cache document fingerprint differs (perm {perm_key(perm)})")
    problems += check_dimensions(job, cold.stdout)
    if resume is not None:
        if resume.stdout != cold.stdout:
            problems.append(f"{job.name}: resume stdout differs from cold stdout")
        if resume_cache != cold_cache:
            problems.append(f"{job.name}: resume rewrote the cache document")
    return problems


def check_setup(job: Job, proc: Proc) -> list[str]:
    if proc.code != 0 or proc.stdout != CHECK_OK:
        return [f"{job.name} check: exit code {proc.code}, stdout {proc.stdout[:80]!r}"]
    return []


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_gb": round(mem_bytes / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }
