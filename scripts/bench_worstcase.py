#!/usr/bin/env python3
"""Sweep the worst-case quadric family and print the pipeline comparison.

For each n both pipelines run on the same seed-fixed instance: the usual
path (T_n from the degree-by-degree builder, 2^(n-1)-1 computed normal
forms) and the Las Vegas path (random change of variables, the transformed
basis rebuilt from the normal-form table, T_n read off with zero
arithmetic).

With ``--out FILE`` every (n, pipeline, p) solve runs in a fresh process,
at p = 65521 and at p = 2^31 - 1, and FILE receives one JSON object: the
machine facts (``machine``: nproc, Python, numpy, BLAS, git HEAD and
``git_changes``, the files under ``src/`` or ``scripts/`` that differ from it)
and one record per solve (``records``): the ``bench --json`` row plus ``p`` and
``peak_rss_mb``, the peak resident memory of that process.

Example:
    python scripts/bench_worstcase.py --min-n 5 --max-n 10
    python scripts/bench_worstcase.py --min-n 8 --max-n 11 --json
    python scripts/bench_worstcase.py --out BENCH_worstcase.json
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

# run from a checkout without installing, as pytest does (pythonpath = src)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from polysolve.bench import PIPELINES, format_table, run_bench  # noqa: E402
from polysolve.field import PrimeField  # noqa: E402

PRIMES = (65521, 2 ** 31 - 1)


def _fresh_record(n: int, pipeline: str, p: int, seed: int) -> dict:
    """One solve's row, run in a process of its own, with its peak RSS."""
    record = run_bench(n, seed=seed, field=PrimeField(p), pipelines=[pipeline])[0]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {**record, "p": p, "peak_rss_mb": round(peak_kb / 1024, 1)}


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = ["git", "-C", ROOT]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        changed = subprocess.run([*git, "status", "--porcelain", "src", "scripts"],
                                 capture_output=True, text=True, check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        head = changed = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "git_head": head, "git_changes": changed}


def write_bench_file(path: str, ns, seed: int) -> None:
    # a pool of one spawned worker that is replaced after every task, so
    # each solve starts from a fresh interpreter
    ctx = multiprocessing.get_context("spawn")
    records = []
    with ProcessPoolExecutor(1, mp_context=ctx, max_tasks_per_child=1) as pool:
        for p in PRIMES:
            for n in ns:
                for pipeline in PIPELINES:
                    rec = pool.submit(_fresh_record, n, pipeline, p, seed).result()
                    print(json.dumps(rec), file=sys.stderr)
                    records.append(rec)
    with open(path, "w") as fh:
        json.dump({"machine": _machine(), "seed": seed, "records": records}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=7, help="smallest n (default 7)")
    ap.add_argument("--max-n", type=int, default=11, help="largest n, inclusive (default 11)")
    ap.add_argument("--seed", type=int, default=0, help="family / pipeline seed (default 0)")
    ap.add_argument("--json", action="store_true", help="emit one JSON object per n")
    ap.add_argument("--out", help="write the per-process records at both primes to this file")
    args = ap.parse_args(argv)

    if args.min_n < 1 or args.max_n < args.min_n:
        ap.error("need 1 <= min-n <= max-n")

    ns = range(args.min_n, args.max_n + 1)
    if args.out:
        write_bench_file(args.out, ns, args.seed)
        return 0
    for n in ns:
        records = run_bench(n, seed=args.seed)
        if args.json:
            print(json.dumps({"n": n, "records": records}))
        else:
            print(f"n = {n} (D = {2 ** n}), seed = {args.seed}")
            print(format_table(records))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
