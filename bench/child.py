"""One benchmark repetition in a fresh interpreter (started by run.py).

Set-up imports rbt_lab and writes the workload's inputs; the pass then runs
every job in-process through rbt_lab.cli.main with stdout captured, and the
oracle checks the outputs after the pass.  A calibration loop runs after
set-up and after the pass.  Prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import rbt_lab.cli as cli
import workloads


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=Path, default=None, help="write spans to this file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--tamper", action="store_true")
    return p.parse_args(argv)


def calibrate(rounds: int = 300) -> float:
    """Seconds taken by a fixed pure-Python loop of int bit operations, dicts and lists.

    It touches nothing of rbt_lab, so a change to rbt_lab cannot move it; it
    does slow down with the host, whose speed drifts by tens of percent
    over minutes on a shared machine.
    """
    started = time.perf_counter()
    table = {}
    for r in range(rounds):
        rows = [(r * 0x9E3779B97F4A7C15 >> (v % 61)) & ((1 << 64) - 1) for v in range(64)]
        for v in range(64):
            row = rows[v]
            for u in range(v):
                common = row & rows[u]
                table[u * 64 + v] = common.bit_count() + (common >> 3 & 7)
    return time.perf_counter() - started


def _run_job(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    jobs = workloads.build(args.workload, args.seed, args.workdir, args.smoke)
    ready = time.monotonic()
    setup_calibration = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "rbt_lab": cli.__file__,
                          "setup_calibration_s": setup_calibration}))
        return 0

    canonical_bits = sys.modules["rbt_lab.canonical"].canonical_bits
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = []
    started = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        runs.append(_run_job(job.argv))
    wall = time.perf_counter() - started
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache = canonical_bits.cache_info()
    calibration = setup_calibration + calibrate()

    docs = {}
    for job, (code, out, _, _) in zip(jobs, runs):
        try:
            docs[job.id] = json.loads(out)
        except json.JSONDecodeError:
            pass
    failures = []
    search = {"nodes": 0, "pruned": 0, "seconds": 0.0, "evals": 0, "rejected": 0}
    for index, (job, (code, out, err, seconds)) in enumerate(zip(jobs, runs)):
        problem = workloads.check(job, code, out, docs, tamper=args.tamper and index == 0)
        if problem:
            failures.append({"job": job.id, "problem": problem, "stderr": err[-500:]})
        doc = docs.get(job.id, {})
        if job.role == "local":
            search["evals"] += int(doc.get("nodes", 0))
            search["rejected"] += int(doc.get("pruned", 0))
        elif job.argv[0] == "search" and job.role != "resume":
            # the resumed job replays stored counts; it expands no nodes
            search["nodes"] += int(doc.get("nodes", 0))
            search["pruned"] += int(doc.get("pruned", 0))
            search["seconds"] += seconds

    result = {
        "ready": ready,
        "rbt_lab": cli.__file__,
        "wall_s": wall,
        "setup_calibration_s": setup_calibration,
        "calibration_s": calibration,
        "rss_kib": rss_kib,
        "calls": [{"job": job.id, "seconds": r[3]} for job, r in zip(jobs, runs)],
        "failures": failures,
        "search": search,
        "cache": {"hits": cache.hits, "misses": cache.misses},
    }
    if tracer:
        tracer.write(args.trace, [job.id for job in jobs])
        result["layers"] = tracer.layer_totals()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
