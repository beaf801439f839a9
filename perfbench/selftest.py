#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for a couple of ops, untraced and
traced, and asserts that the last output line is the result object, that no
op failed, and that every end-to-end (untraced) or per-layer (traced) metric
is printed with the unit BENCHMARK.json gives it.  Then runs the benchmark in
a directory that holds only BENCHMARK.json and the benchmark's files, where
it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench: dict, workload: str, trace: int):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {sorted(set(got) ^ set(want))}"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)
    if not trace:
        for k, v in res["metrics"].items():
            assert v["value"] > 0, f"{workload}: end-to-end metric {k} is {v['value']}"
    print(f"ok  {workload} trace {trace}: {res['attempted']} ops")


def check_bare_directory():
    bare = os.path.join(HERE, "work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, "manifold-roundtrip", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
