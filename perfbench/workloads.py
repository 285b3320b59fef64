"""The four workloads: what each run solves, built from the run's seed.

A run repeats one *unit*, a fixed list of jobs, until its time is up.  A
job is one ``solve_*`` call through the public API, with a fresh
``random.Random(rng_seed)`` so that every repeat of a job is the same
computation and must give a bit-identical answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import inputs

P_MID = 65521
N_MID = 9    # family size at P_MID: D = 512
N_BIG = 7    # family size at BIG_P: D = 128


@dataclass(frozen=True)
class Job:
    key: str              # reference key of the input, see references.json
    pipeline: str         # "det" or "lv"
    p: int
    n: int
    D: int                # quotient dimension the input has by construction
    rng_seed: int
    terms: tuple | None = None   # polynomials as plain term lists, or
    text: str | None = None      # the system as text, parsed inside the solve

    def input_digest(self) -> str:
        return inputs.digest(self.text if self.text is not None else self.terms)


def family_jobs(n: int, p: int, seed: int, pipelines) -> tuple[Job, ...]:
    """One appendix-family input at (n, p, seed), a job per pipeline."""
    terms = tuple(tuple(f) for f in inputs.family_terms(n, p, seed))
    key = f"family/{n}/{p}/{seed}"
    return tuple(Job(key, pl, p, n, 1 << n, seed, terms=terms) for pl in pipelines)


def _small_jobs(seed: int) -> tuple[Job, ...]:
    jobs = []
    for index, (p, degrees) in enumerate(inputs.SMALL_SHAPES):
        text = inputs.small_system_text(p, degrees, seed, index)
        for pl in ("det", "lv"):
            jobs.append(Job(f"small/{seed}/{index}", pl, p, len(degrees), math.prod(degrees),
                            seed * 1000 + index, text=text))
    return tuple(jobs)


def build(name: str, seed: int) -> tuple[Job, ...]:
    """The unit of jobs a run of workload ``name`` repeats, from ``seed``."""
    if name == "family-det":
        return family_jobs(N_MID, P_MID, seed, ("det",))
    if name == "family-lv":
        return family_jobs(N_MID, P_MID, seed, ("lv",))
    if name == "family-bigp":
        return family_jobs(N_BIG, inputs.BIG_P, seed, ("det", "lv"))
    if name == "small-mixed":
        return _small_jobs(seed)
    raise KeyError(name)


NAMES = ("family-det", "family-lv", "family-bigp", "small-mixed")


def polys_of(job: Job, ps):
    """The job's system as library polynomials (parsed when given as text)."""
    if job.text is not None:
        return ps.sysfile.parse_system(job.text).polys
    fld = ps.field.PrimeField(job.p)
    Monomial = ps.poly.Monomial
    return [ps.poly.Polynomial.from_terms(fld, job.n, [(Monomial(m), c) for m, c in f])
            for f in job.terms]


def run_job(job: Job, ps, polys=None):
    """One solve through the public API; text inputs are parsed here, so the
    parse is part of the solve's time."""
    if polys is None:
        polys = polys_of(job, ps)
    rng = random.Random(job.rng_seed)
    if job.pipeline == "det":
        return ps.solver.solve_deterministic(polys, rng)
    return ps.solver.solve_lasvegas(polys, rng)

