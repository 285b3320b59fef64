#!/usr/bin/env python3
"""Record the reference answers that run.py checks solves against.

For every input the chosen workloads build from each seed, this solves the
input with both pipelines (Las Vegas with the job's own random seed),
cross-checks them (deg h_n, verify_rep, equal rational solutions where
p <= 2^20) and stores digests of the input and of both representations,
plus the rational solutions, in references.json.  It also checks that the
benchmark's family generator reproduces ``polysolve.bench.appendix_family``.

    python3 perfbench/record.py --seeds 0-31
    python3 perfbench/record.py --seeds 0-7 --workloads family-bigp
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import checks
import inputs
import run
import workloads as wl


def check_family_generator(ps) -> None:
    """The benchmark's copy of the appendix family equals the library's."""
    for n, p in ((wl.N_MID, wl.P_MID), (wl.N_BIG, inputs.BIG_P)):
        for seed in range(3):
            lib = ps.bench.appendix_family(n, ps.field.PrimeField(p), seed=seed)
            own = wl.polys_of(wl.family_jobs(n, p, seed, ("det",))[0], ps)
            if [f.terms for f in lib] != [f.terms for f in own]:
                sys.exit(f"family generator differs from appendix_family at n={n} seed={seed}")
    print("family generator reproduces polysolve.bench.appendix_family", flush=True)


def record_key(jobs, ps) -> dict:
    """Solve one input with both pipelines and cross-check the answers."""
    entry = {"input": jobs[0].input_digest()}
    roots = {}
    for pipeline in ("det", "lv"):
        job = dataclasses.replace(jobs[0], pipeline=pipeline)
        rep = wl.run_job(job, ps)
        if rep.rep.degree != job.D:
            sys.exit(f"{job.key} {pipeline}: deg h_n = {rep.rep.degree}, expected {job.D}")
        entry[pipeline] = checks.rep_digest(rep)
        if job.p <= checks.ROOT_SCAN_LIMIT:
            system = rep.transformed_system if rep.g is not None else rep.system
            if not ps.change_order.verify_rep(rep.rep, system):
                sys.exit(f"{job.key} {pipeline}: verify_rep failed")
            roots[pipeline] = checks.roots_of(rep, ps)
    if roots:
        if roots["det"] != roots["lv"]:
            sys.exit(f"{jobs[0].key}: det and LV rational solutions differ")
        entry["roots"] = roots["det"]
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range a-b (default 0-31)")
    ap.add_argument("--workloads", nargs="*", default=["family-det", "family-bigp", "small-mixed"],
                    help="family-det also covers family-lv, which solves the same inputs")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))

    ps = run.require_library()
    check_family_generator(ps)
    refs = checks.load_references()
    for name in args.workloads:
        for seed in range(lo, hi + 1):
            by_key = {}
            for job in wl.build(name, seed):
                by_key.setdefault(job.key, []).append(job)
            for key, jobs in by_key.items():
                if key not in refs:
                    refs[key] = record_key(jobs, ps)
            print(f"{name} seed {seed}: {len(by_key)} inputs recorded", flush=True)
            with open(checks.REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
