#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace-seeds 1,2]
                               [--out perfbench/baseline.json]

For every workload of BENCHMARK.json and every seed this runs
``run.py --trace 0`` with the ``run_seconds`` of BENCHMARK.json and reports,
per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to a third of the metric's bound.  With
``--trace-seeds`` it also runs ``--trace 1`` on those seeds and checks that
every ``.calls`` count is the same on each.  Runs are made one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run; exits unless it succeeded and every op in it was correct."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env:"))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: "
                 f"{res['failed']} of {res['attempted']} ops failed")
    return env, res


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1,
            "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            env, res = run(name, seed, seconds, 0)
            report["env"] = {k: env[k] for k in ("nproc", "python", "numpy")}
            runs.append(res)
        entry = {"attempted": [r["attempted"] for r in runs], "end_to_end": {}}
        print(f"{name}: ops per run {entry['attempted']}")
        for metric in bench["end_to_end"]:
            m = metric["name"]
            s = summarize([r["metrics"][m]["value"] for r in runs])
            s["unit"], s["bound"] = metric["unit"], metric["bound"]
            ok = s["spread"] < metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][m] = s
            print(f"  {m:14s} median {s['median']:12.4f} {metric['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound/3 {metric['bound'] / 3:.4f})"
                  f"{'' if ok else '  UNSTEADY'}")
        if trace_seeds:
            traced = [run(name, seed, seconds, 1)[1] for seed in trace_seeds]
            layer = {}
            for metric in bench["per_layer"]:
                vals = [t["metrics"][metric["name"]]["value"] for t in traced]
                layer[metric["name"]] = {"unit": metric["unit"], "values": vals,
                                         "median": statistics.median(vals)}
            calls = {k: v["values"] for k, v in layer.items() if k.endswith(".calls")}
            unequal = sorted(k for k, v in calls.items() if len(set(v)) > 1)
            entry["per_layer"] = layer
            entry["calls_repeat_exactly"] = not unequal
            print(f"  .calls repeat exactly over seeds {trace_seeds}: {not unequal}"
                  + (f" (differ: {unequal})" if unequal else ""))
            steady &= not unequal
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
