#!/usr/bin/env python3
"""Smoke test of the benchmark command at tiny sizes.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It runs every workload untraced on seeds 0 and 1 and traced on seed 0,
and checks that each run passes its gates and prints every metric named
in BENCHMARK.json with that metric's unit.  It then checks that a
corrupted scenario-ladder reference makes the gate fail and the command
exit nonzero, and that the command refuses, without printing a result,
a directory that holds only the benchmark.  Exits nonzero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180
SEEDS = (0, 1)

CORRUPT = """
import sys
sys.path.insert(0, "perfbench")
import run
sys.path.insert(0, "src")
import workloads
key = next(iter(workloads.SCENARIO_LADDER))
fmse, improvement = workloads.SCENARIO_LADDER[key]
workloads.SCENARIO_LADDER[key] = (fmse * 1.01, improvement)
sys.exit(run.main(["--workload", "study", "--seed", "0", "--seconds", "0",
                   "--trace", "0", "--tiny"]))
"""


def invoke(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(ok: bool, what: str, proc: subprocess.CompletedProcess | None = None) -> None:
    if ok:
        print(f"ok   {what}")
        return
    print(f"FAIL {what}")
    if proc is not None:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    sys.exit(1)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return out if isinstance(out, dict) else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    runs = [(w["name"], seed, 0) for w in spec["workloads"] for seed in SEEDS]
    runs += [(w["name"], SEEDS[0], 1) for w in spec["workloads"]]
    for workload, seed, trace in runs:
        proc = invoke(spec["command"] + [
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--tiny",
        ], ROOT)
        out = result_line(proc)
        problems = []
        if proc.returncode != 0 or out is None:
            problems.append(f"exit code {proc.returncode}, result {out is not None}")
        elif set(out) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(out)}")
        else:
            if not (out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1):
                problems.append(f"gates: {out['failed']} of {out['attempted']} failed")
            metrics = out["metrics"]
            if set(metrics) != set(wanted[trace]):
                problems.append(f"metrics {sorted(set(metrics) ^ set(wanted[trace]))}")
            for name, unit in wanted[trace].items():
                value = metrics.get(name, {}).get("value")
                if metrics.get(name, {}).get("unit") != unit or not isinstance(value, (int, float)):
                    problems.append(f"{name}: want a number in {unit}")
                elif trace == 0 and not value > 0:
                    problems.append(f"{name}: {value} is not positive")
        check(not problems, f"{workload} seed {seed} trace {trace}: "
              + ("; ".join(problems) or f"{out['attempted']} gates, every metric with its unit"),
              proc)

    proc = invoke([sys.executable, "-c", CORRUPT], ROOT)
    out = result_line(proc)
    check(proc.returncode == 1 and out is not None and out["correct"] is False
          and out["failed"] >= 1, "corrupted ladder reference fails the gate", proc)

    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = invoke(spec["command"] + ["--workload", "study", "--seed", "0",
                                         "--seconds", "1", "--trace", "0"], bare)
        check(proc.returncode != 0 and result_line(proc) is None,
              "a directory with only the benchmark is refused", proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
