"""Correctness checks, run on every solve after the timed region.

A solve fails when it raised, or when any of these does not hold:

* ``deg h_n`` equals the quotient dimension the input has by construction;
* the representation (and, for Las Vegas, the transform ``g``) is
  bit-identical to the one recorded in ``references.json`` for that input
  and seed, and to every repeat of the same job in the run;
* where p <= 2^20, on the first solve of each job (repeats are identical):
  ``verify_rep`` passes on the system the representation describes, and
  the rational solutions mapped back to the original coordinates equal the
  recorded ones or, without a reference, those of the other pipeline on
  the same input (solved here, untimed, if the run did not solve it).
"""

from __future__ import annotations

import dataclasses
import json
import os
from time import perf_counter

import inputs
import workloads

ROOT_SCAN_LIMIT = 1 << 20
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def rep_digest(report) -> str:
    g = report.g.tolist() if report.g is not None else None
    return inputs.digest((report.rep.coeffs, g))


def roots_of(report, ps) -> list[list[int]]:
    return [list(v) for v in ps.solver.rational_solutions(report, ROOT_SCAN_LIMIT)]


@dataclasses.dataclass
class Outcome:
    failed: int = 0
    roots_s: list = dataclasses.field(default_factory=list)
    messages: list = dataclasses.field(default_factory=list)


def check(results, refs: dict, ps) -> Outcome:
    """``results`` is a list of (job, report or exception, seconds)."""
    out = Outcome()
    bad: set[int] = set()
    first: dict = {}       # (key, pipeline) -> (digest, report)
    roots: dict = {}       # (key, pipeline) -> rational solutions

    def fail(i, job, why):
        if i not in bad:
            bad.add(i)
            out.messages.append(f"{job.key} {job.pipeline}: {why}")

    for i, (job, rep, _) in enumerate(results):
        ref = refs.get(job.key)
        if ref is not None and job.input_digest() != ref["input"]:
            fail(i, job, "generated input differs from the recorded one")
        if isinstance(rep, BaseException):
            fail(i, job, f"raised {type(rep).__name__}: {rep}")
            continue
        if rep.rep.degree != job.D:
            fail(i, job, f"deg h_n = {rep.rep.degree}, expected {job.D}")
        d = rep_digest(rep)
        group = (job.key, job.pipeline)
        if ref is not None and d != ref[job.pipeline]:
            fail(i, job, "representation differs from the reference")
        if group not in first:
            first[group] = (d, rep)
            if job.p <= ROOT_SCAN_LIMIT:
                t0 = perf_counter()
                roots[group] = roots_of(rep, ps)
                out.roots_s.append(perf_counter() - t0)
        elif d != first[group][0]:
            fail(i, job, "representation differs between repeats")

    for (key, pipeline), (d, rep) in first.items():
        members = [i for i, (job, r, _) in enumerate(results)
                   if (job.key, job.pipeline) == (key, pipeline)
                   and not isinstance(r, BaseException)]
        job = results[members[0]][0]
        if job.p > ROOT_SCAN_LIMIT:
            continue
        system = rep.transformed_system if rep.g is not None else rep.system
        why = None
        if not ps.change_order.verify_rep(rep.rep, system):
            why = "verify_rep failed"
        elif key in refs:
            if roots[(key, pipeline)] != refs[key]["roots"]:
                why = "rational solutions differ from the reference"
        else:
            other = "lv" if pipeline == "det" else "det"
            if (key, other) not in roots:
                twin = dataclasses.replace(job, pipeline=other)
                try:
                    roots[(key, other)] = roots_of(workloads.run_job(twin, ps), ps)
                except Exception as exc:  # the cross-check solve itself failed
                    roots[(key, other)] = f"{type(exc).__name__}: {exc}"
            if roots[(key, pipeline)] != roots[(key, other)]:
                why = "det and LV rational solutions differ"
        if why:
            for i in members:
                fail(i, job, why)
    out.failed = len(bad)
    return out
