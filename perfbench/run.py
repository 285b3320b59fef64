#!/usr/bin/env python3
"""polysolve benchmark: one closed-loop client, one solve at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family-det --seed 0 --seconds 15 --trace 0

The run builds its inputs from ``--seed`` (see workloads.py), runs the
workload's unit of jobs once untimed to warm up, then repeats the unit
through the public API until ``--seconds`` seconds have passed and at least
two repeats are done.  numpy/BLAS run at their default thread count.  Every solve is
checked afterwards (checks.py).  Lines
starting with ``#`` describe the run: machine facts, all end-to-end metrics
with units, and any check failures.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* solve_s_p50  median over the repeats of the unit of the mean seconds of one
               solve call in that repeat (small-mixed: from text); with one
               job in the unit, the median seconds of one solve;
* solves_per_s solves completed per second of solving;
* setup_s      median over fresh processes, half run before the timed loop and
               half after it, of importing polysolve plus one tiny solve of
               each pipeline (setup_probe.py);
* peak_rss_mb  peak resident memory of this process after the warm-up and two
               repeats of the unit, a fixed count so that it does not depend
               on run speed.

``--trace 1`` runs the unit untraced for half of ``--seconds``, then as many
times traced (tracer.py), and
reports per-layer busy time, self time, calls and counters per solve, plus
the tracing overhead; the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4   # before the timed loop, and as many again after it
RSS_REPEATS = 2    # peak_rss_mb is read after this many repeats of the unit
TAIL_BEYOND = 10   # samples a reported tail percentile must have above it


def require_library():
    """Import polysolve from this checkout's sources, never from elsewhere."""
    pkg = os.path.join(SRC, "polysolve")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no polysolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import polysolve

    if os.path.dirname(os.path.abspath(polysolve.__file__)) != pkg:
        sys.exit(f"perfbench: imported polysolve from {polysolve.__file__}, not {pkg}")
    return polysolve


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_head():
    """HEAD of the checkout, or None outside a git work tree (git is not
    allowed to look above the checkout for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "git_head": _git_head()}


def setup_seconds() -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, SRC], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def run_units(unit, ps, polys, count=None, seconds=None, on_unit=None):
    """Run ``unit`` ``count`` times, or until ``seconds`` have elapsed and
    RSS_REPEATS repeats are done.  ``on_unit(i)`` is called before repeat i.  Returns
    [(job, report or exception, seconds)] and the mean seconds per solve of
    each repeat."""
    import workloads

    results, means = [], []
    start = perf_counter()
    while True:
        if on_unit:
            on_unit(len(means))
        for job in unit:
            t0 = perf_counter()
            try:
                rep = workloads.run_job(job, ps, polys.get(job))
            except Exception as exc:  # a failed solve is counted, not fatal
                rep = exc
            results.append((job, rep, perf_counter() - t0))
        means.append(sum(dt for _, _, dt in results[-len(unit):]) / len(unit))
        n = len(means)
        if n == count or count is None and n >= RSS_REPEATS and perf_counter() - start >= seconds:
            return results, means


def _tail(times):
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    pct = int(100 * (n - TAIL_BEYOND) / n)
    return pct, sorted(times)[n - TAIL_BEYOND - 1]


def main(argv=None) -> int:
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ps = require_library()
    import checks
    import tracer as tr

    facts = machine_facts()
    refs = checks.load_references()
    setup = setup_seconds() if not args.trace else []
    unit = wl.build(args.workload, args.seed)
    polys = {job: wl.polys_of(job, ps) for job in unit if job.text is None}
    for job in unit:
        try:
            wl.run_job(job, ps, polys.get(job))
        except Exception:  # the timed loop runs the job again and counts it
            pass

    rss_kb = []

    def read_rss(i):
        if i == RSS_REPEATS and not rss_kb:
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    seconds = args.seconds / 2 if args.trace else args.seconds
    results, unit_means = run_units(unit, ps, polys, seconds=seconds, on_unit=read_rss)
    units = len(unit_means)
    read_rss(units)  # a run of exactly RSS_REPEATS repeats
    rss_mb = rss_kb[0] / 1024.0
    if not args.trace:
        setup += setup_seconds()
    solve_s = [dt for _, _, dt in results]

    layer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, _ = run_units(unit, ps, polys, count=units,
                                  on_unit=lambda i: setattr(tracer, "unit", i))
            for _, rep, _ in traced:
                if not isinstance(rep, Exception) and rep.rep.field.p <= checks.ROOT_SCAN_LIMIT:
                    checks.roots_of(rep, ps)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(sum(solve_s), sum(dt for _, _, dt in traced))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"machine": facts, "workload": args.workload, "seed": args.seed,
                       "bindings": tracer.bindings, "missing": tracer.missing,
                       "span_fields": ["id", "parent", "name", "unit", "start", "end"],
                       "spans": tracer.spans}, fh)
        results = results + traced

    outcome = checks.check(results, refs, ps)
    attempted = len(results)

    print(f"# machine {json.dumps(facts)}")
    print(f"# workload {args.workload} seed {args.seed}: {units} x {len(unit)} jobs, "
          f"closed loop, 1 client, {facts['blas_threads']} BLAS threads")
    by_pipe = {}
    for job, _, dt in results[:len(solve_s)]:
        by_pipe.setdefault(job.pipeline, []).append(dt)
    for pipe, times in sorted(by_pipe.items()):
        print(f"# {pipe}: {len(times)} solves, p50 {statistics.median(times):.6f} s")
    tail = _tail(solve_s)
    metrics = {
        "solve_s_p50": (statistics.median(unit_means), "s"),
        "solves_per_s": (len(solve_s) / sum(solve_s), "1/s"),
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "solve_s_tail": (f"p{tail[0]} {tail[1]:.6f} s over {len(solve_s)} solves"
                         if tail else f"n/a, {len(solve_s)} solves < {2 * TAIL_BEYOND}"),
        "roots_s_p50": (f"{statistics.median(outcome.roots_s):.6f} s over "
                        f"{len(outcome.roots_s)} calls" if outcome.roots_s
                        else f"n/a, p > {checks.ROOT_SCAN_LIMIT}"),
        "fail_ratio": f"{outcome.failed / attempted:g} ({outcome.failed} of {attempted})",
    }
    for name, (value, unit_name) in metrics.items():
        if value is not None:
            print(f"# {name} {value:.6f} {unit_name}")
    for name, text in extra.items():
        print(f"# {name} {text}")
    for msg in outcome.messages[:20]:
        print(f"# FAILED {msg}")

    if args.trace:
        units_of = dict(tr.metric_names())
        reported = {k: {"value": v, "unit": units_of[k]} for k, v in layer.items()}
        if tracer.missing:
            print(f"# not found, reported as 0: {', '.join(tracer.missing)}")
        print(f"# spans: {spans_path}")
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": outcome.failed == 0, "attempted": attempted,
                      "failed": outcome.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
