#!/usr/bin/env python3
"""Measure the baseline: repeated runs of run.py, summarised per metric.

Each workload runs ``--runs`` times untraced, with seeds first-seed,
first-seed+1, ...; every end-to-end metric is summarised as its median,
quartiles (``statistics.quantiles(values, n=4)``) and spread (quartile
distance over median).  One traced run per workload adds the per-layer
metrics.  The summary, the machine facts and the intended coupling between
layer and end-to-end metrics are written to ``--out``.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --runs 5 --workloads family-lv --no-trace
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))

# which per-layer metrics should move which end-to-end metric, and where
COUPLING = [
    {"layer": "gb.groebner_from_matrices.*", "moves": "solve_s_p50",
     "on": ["family-lv", "family-bigp (LV half)"],
     "note": "zero on family-det and small-mixed"},
    {"layer": "quotient.build_matrices_echelon.*", "moves": "solve_s_p50",
     "on": ["family-det (most)", "family-lv (next)"]},
    {"layer": "linalg.* and recur.hankel_solve.*", "moves": "solve_s_p50",
     "on": ["family-bigp (most)", "family-det (less)"]},
    {"layer": "gb.buchberger.*, sysfile.*, poly.*", "moves": "solve_s_p50, solves_per_s",
     "on": ["small-mixed"], "note": "matrix kernels predict no change here"},
    {"layer": "solver.rational_solutions.*", "moves": "roots_s_p50 (printed, not in the JSON)",
     "on": ["family-det", "family-lv"], "note": "measured only where p <= 2^20"},
]


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; its JSON result plus the run's wall time as ``wall_s``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="*", default=list(wl.NAMES))
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"machine": None, "seconds": seconds, "runs": args.runs,
           "seeds": [args.first_seed, args.first_seed + args.runs - 1],
           "workloads": {}, "coupling": COUPLING}
    ok = True
    for name in args.workloads:
        runs = [run_once(name, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "run_wall_s": summarise([r["wall_s"] for r in runs]), "end_to_end": {}}
        ok &= all(r["correct"] for r in runs)
        for metric in runs[0]["metrics"]:
            entry["end_to_end"][metric] = summarise([r["metrics"][metric]["value"] for r in runs])
            s = entry["end_to_end"][metric]
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- spread >= bound/3"
            print(f"{name:12s} {metric:13s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  bound {bounds[metric]}{flag}", flush=True)
        print(f"{name:12s} failed {entry['failed']} of {entry['attempted']}, run wall "
              f"median {entry['run_wall_s']['median']:.1f} s", flush=True)
        if not args.no_trace:
            traced = run_once(name, args.first_seed, seconds, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_run_wall_s"] = traced["wall_s"]
        out["workloads"][name] = entry
    if args.out:
        import run

        run.require_library()
        out["machine"] = run.machine_facts()
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
