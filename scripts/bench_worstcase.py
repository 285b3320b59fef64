#!/usr/bin/env python3
"""Sweep the worst-case quadric family and print the pipeline comparison.

For each n both pipelines run on the same seed-fixed instance: the usual
path (T_n from the degree-by-degree builder, 2^(n-1)-1 computed normal
forms) and the Las Vegas path (random change of variables, the transformed
basis rebuilt from the normal-form table, T_n read off with zero
arithmetic).

Example:
    python scripts/bench_worstcase.py --min-n 5 --max-n 10
    python scripts/bench_worstcase.py --min-n 8 --max-n 11 --json
"""

import argparse
import json
import os
import sys

# run from a checkout without installing, as pytest does (pythonpath = src)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from polysolve.bench import format_table, run_bench  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=5, help="smallest n (default 5)")
    ap.add_argument("--max-n", type=int, default=10, help="largest n, inclusive (default 10)")
    ap.add_argument("--seed", type=int, default=0, help="family / pipeline seed (default 0)")
    ap.add_argument("--json", action="store_true", help="emit one JSON object per n")
    args = ap.parse_args(argv)

    if args.min_n < 1 or args.max_n < args.min_n:
        ap.error("need 1 <= min-n <= max-n")

    for n in range(args.min_n, args.max_n + 1):
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
