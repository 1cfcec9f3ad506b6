"""Smoke test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload, in both trace modes, ends with a result line
that names exactly the metrics of ``BENCHMARK.json`` with their units (and
that ``BENCHMARK.json`` names only workloads the harness has); that
a run exits non-zero and reports itself incorrect when one op's output is
corrupted; and that the benchmark refuses to run, printing no result, when
the program's sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, timed op to corrupt): a solution file, stdout, a generated file.
CORRUPT = (("tree-dp", 0), ("ptas-dag", 1), ("brute-small", 0), ("large-io", 2), ("large-io", 6))


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = [f"unknown workload {w['name']}" for w in spec["workloads"]
                if w["name"] not in workloads.WORKLOADS]
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"])
            res = result_line(proc)
            if proc.returncode != 0 or not res or not res["correct"]:
                problems.append(f"{w} trace {trace}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w} trace {trace}: metrics {sorted(set(got) ^ set(expected[trace]))} differ")
            print(f"ok   {w} trace {trace}: {len(got)} metrics, {res['attempted']} ops")
    for w, op in CORRUPT:
        proc = run(["--workload", w, "--seed", "3", "--seconds", "1", "--tiny", "--corrupt-op", str(op)])
        res = result_line(proc)
        if proc.returncode == 0 or not res or res["correct"]:
            problems.append(f"{w}: corrupting op {op} went unnoticed")
        else:
            print(f"ok   {w}: corrupted op {op} detected (exit {proc.returncode})")
    stripped = os.path.join(ROOT, ".perfbench_work", "smoke-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    try:
        proc = run(["--workload", "tree-dp", "--seed", "3", "--seconds", "1", "--trace", "0"], cwd=stripped)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    if proc.returncode == 0 or result_line(proc) is not None:
        problems.append("ran without the program's sources")
    else:
        print(f"ok   without sources: exit {proc.returncode}, no result")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
