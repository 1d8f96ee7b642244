"""rbt-lab benchmark: end-to-end and per-layer metrics with an exact-output oracle.

    python3 bench/run.py --workload {exhaustive,local,verify} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; no build step is needed.  Every
repetition is a fresh interpreter (bench/child.py) that imports rbt_lab from
src/, writes the workload's inputs, runs one pass of CLI jobs in-process and
checks their outputs.  Repetitions start until --seconds have passed.

--trace 0 reports the end-to-end metrics, with times scaled by a calibration
loop to a reference host speed; --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it holds the run context.  A full record goes to
.bench_work/results/.  The exit code is 1 if any output differed from the
oracle and 2 if the benchmark could not run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_REPETITIONS = 4  # untraced; a traced run needs one untraced and one traced
RUN_LIMIT_S = 170  # a whole run, repetitions included, ends within this
MAX_SECONDS = 120  # leaves room for the repetition that is running at the deadline
# child.calibrate() runs after set-up and after the pass.  Set-up times are
# scaled by CALIBRATION_S / (the first calibration's time), pass times by
# 2 * CALIBRATION_S / (both calibrations' time): both are expressed on a host
# where one calibration takes CALIBRATION_S
CALIBRATION_S = 0.175

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
}

# per-layer metric -> unit; "<layer>.calls" and "<layer>.self_s" come from the tracer
PER_LAYER = {
    "search.closure.calls": "count",
    "search.closure.self_s": "s",
    "search.guard.calls": "count",
    "search.guard.self_s": "s",
    "search.exhaustive.self_s": "s",
    "search.local.self_s": "s",
    "search.nodes": "count",
    "search.pruned": "count",
    "search.prune_ratio": "ratio",
    "search.nodes_per_s": "1/s",
    "search.local_evals": "count",
    "search.local_reject_ratio": "ratio",
    "canonical.canonical_bits.calls": "count",
    "canonical.canonical_bits.self_s": "s",
    "canonical.cache_hit_ratio": "ratio",
    "canonical.canonical_system_bits.calls": "count",
    "canonical.canonical_system_bits.self_s": "s",
    "systems.find_rainbow.calls": "count",
    "systems.find_rainbow.self_s": "s",
    "systems.parse.self_s": "s",
    "systems.nest_reduce.self_s": "s",
    "graph.Graph.calls": "count",
    "graph.Graph.self_s": "s",
    "graph.algebra.self_s": "s",
    "graph.triangles.self_s": "s",
    "matching.maximum_matching.calls": "count",
    "matching.maximum_matching.self_s": "s",
    "partition.mantel_partition.self_s": "s",
    "certify.claims.self_s": "s",
    "certify.scan.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# layers each workload is designed to bypass: their call counts must read 0
PREDICTED_ZERO = {
    "exhaustive": ["systems.find_rainbow.calls"],
    "local": ["search.closure.calls", "search.guard.calls", "systems.find_rainbow.calls"],
    "verify": ["search.closure.calls", "search.guard.calls", "canonical.canonical_bits.calls",
               "canonical.canonical_system_bits.calls"],
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help=f"measuring time, at most {MAX_SECONDS}")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    p.add_argument("--tamper", action="store_true",
                   help="corrupt one expected value, for the self-test")
    args = p.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RBT_LAB_BUDGET", None)
    # bytecode is cached under .bench_work, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: argparse.Namespace, workdir: Path, env: dict[str, str], stop: float, *,
           setup_only: bool = False, trace: Path | None = None) -> dict[str, Any]:
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    argv += ["--setup-only"] if setup_only else []
    argv += ["--trace", str(trace)] if trace else []
    argv += ["--smoke"] if args.smoke else []
    argv += ["--tamper"] if args.tamper else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(stop - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["rbt_lab"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"imported rbt_lab from {result['rbt_lab']}, not from {ROOT / 'src'}")
    result["setup_s"] = result["ready"] - spawned
    return result


def _summary(values: list[float]) -> dict[str, Any]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "samples": len(values)}


def _timings(reps: list[dict], scale) -> dict[str, dict]:
    """wall_s and the verdict percentiles, with each repetition's times multiplied by scale(rep)."""
    calls = [c["seconds"] * scale(rep) * 1000 for rep in reps for c in rep["calls"]]
    p90 = statistics.quantiles(calls, n=10, method="inclusive")[8]
    return {
        "wall_s": _summary([rep["wall_s"] * scale(rep) for rep in reps]),
        "verdict_p50_ms": _summary(calls),
        "verdict_p90_ms": {"value": p90, "samples": len(calls),
                           "above": sum(1 for c in calls if c > p90)},
    }


def _end_to_end(reps: list[dict], probes: list[dict]) -> dict[str, dict]:
    setups = probes + reps
    out = {
        "setup_s": _summary([r["setup_s"] * CALIBRATION_S / r["setup_calibration_s"]
                             for r in setups]),
        "raw_setup_s": _summary([r["setup_s"] for r in setups]),
        "peak_rss_mib": _summary([rep["rss_kib"] / 1024 for rep in reps]),
        "calibration_s": _summary([rep["calibration_s"] for rep in reps]),
    }
    out.update(_timings(reps, lambda rep: 2 * CALIBRATION_S / rep["calibration_s"]))
    out.update({f"raw_{k}": v for k, v in _timings(reps, lambda rep: 1.0).items()})
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_values(rep: dict) -> dict[str, float]:
    out = {}
    for layer, totals in rep["layers"].items():
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_s"]
    search, cache = rep["search"], rep["cache"]
    out["search.nodes"] = search["nodes"]
    out["search.pruned"] = search["pruned"]
    out["search.prune_ratio"] = _ratio(search["pruned"], search["nodes"] + search["pruned"])
    out["search.local_evals"] = search["evals"]
    out["search.local_reject_ratio"] = _ratio(search["rejected"], search["evals"])
    out["canonical.cache_hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    return out


def _per_layer(reps: list[dict], traced: list[dict]) -> dict[str, dict]:
    values = [_layer_values(rep) for rep in traced]
    metrics = {name: _summary([v[name] for v in values])
               for name in PER_LAYER if name in values[0]}
    # throughput from the untraced repetitions, so tracing does not slow it
    metrics["search.nodes_per_s"] = _summary(
        [_ratio(rep["search"]["nodes"], rep["search"]["seconds"]) for rep in reps])
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in reps),
        "samples": len(traced)}
    return metrics


def _context(args: argparse.Namespace, reps: int, traced: int) -> dict[str, Any]:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
        except OSError:  # no git program
            proc = None
        if proc and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "repetitions": reps,
        "traced_repetitions": traced,
        "setup_probes": SETUP_PROBES,
        "note": "each repetition is a fresh interpreter running one pass of the jobs "
                "in-process through rbt_lab.cli.main with --threads 1; rbt_lab's caches "
                "start cold in every repetition",
    }


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "rbt_lab" / "__init__.py").is_file():
        raise BenchError(f"no rbt_lab package under {ROOT / 'src'}; run from a checkout")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / "runs" / tag
    env = _child_env()
    deadline = time.monotonic() + args.seconds
    stop = time.monotonic() + RUN_LIMIT_S
    try:
        # untimed: fills the bytecode cache
        _child(args, run_dir / "warmup", env, stop, setup_only=True)
        probes = [_child(args, run_dir / f"probe{i}", env, stop, setup_only=True)
                  for i in range(SETUP_PROBES)]
        reps: list[dict] = []
        traced: list[dict] = []
        least = 1 if args.trace else MIN_REPETITIONS
        cost = 0.0
        # start another repetition only while it should end before the deadline
        while len(reps) < least or time.monotonic() + cost <= deadline:
            started = time.monotonic()
            rep = _child(args, run_dir / f"rep{len(reps)}", env, stop)
            reps.append(rep)
            if args.trace:
                spans = results / f"{tag}-spans{len(traced)}.json"
                traced.append(_child(args, run_dir / f"traced{len(traced)}", env, stop,
                                     trace=spans))
            cost = time.monotonic() - started
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(rep["calls"]) for rep in reps + traced)
    failures = [f for rep in reps + traced for f in rep["failures"]]
    context = _context(args, len(reps), len(traced))
    context["error_ratio"] = f"{len(failures)}/{attempted}"
    if args.trace:
        detail, units = _per_layer(reps, traced), PER_LAYER
        zero = {name: detail[name]["value"] for name in PREDICTED_ZERO[args.workload]
                if detail[name]["value"] != 0}
        missing = sorted({t for rep in traced for t in rep["missing_targets"]})
        context["predicted_zero_violations"] = zero
        context["missing_trace_targets"] = missing
        for name, value in zero.items():
            print(f"PREDICTION {name} reads {value}, predicted 0", file=sys.stderr)
        for target in missing:
            print(f"NOTE trace target {target} not found; its layer reads 0", file=sys.stderr)
    else:
        detail, units = _end_to_end(reps, probes), END_TO_END
    record = {"context": context, "metrics": detail, "units": units, "failures": failures}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for f in failures[:10]:
        print(f"MISMATCH {f['job']}: {f['problem']}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": detail[name]["value"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
