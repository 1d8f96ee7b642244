"""Self-test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

1. A reduced-size (--smoke) run of every workload, untraced and traced,
   exits 0 with correct outputs, reports exactly the metrics BENCHMARK.json
   declares, and reads 0 calls on every layer the workload bypasses.
2. A run with one tampered expected value reports failed > 0 and exits 1.
3. A directory holding only BENCHMARK.json and bench/ makes the benchmark
   exit non-zero without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            code, lines = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            found = []
            if code != 0 or not result["correct"] or result["failed"]:
                found.append(f"{label}: exit {code}, {result['failed']} failed")
            if units != declared[trace]:
                found.append(f"{label}: metrics differ from BENCHMARK.json")
            if context.get("predicted_zero_violations"):
                found.append(f"{label}: {context['predicted_zero_violations']}")
            print(f"{label}: {result['attempted']} jobs, {'FAIL' if found else 'ok'}", flush=True)
            problems += found

    code, lines = _run("verify", 0, "--tamper")
    result = json.loads(lines[-1])
    if code != 1 or result["correct"] or not result["failed"]:
        problems.append(f"tampered run: exit {code}, failed {result['failed']}")
    print(f"tampered run: exit {code}, error ratio {result['failed']}/{result['attempted']}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = _run("verify", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        problems.append(f"bare directory: exit {code}, printed {lines[-1:]}")
    print(f"bare directory: exit {code}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
