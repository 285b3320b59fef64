"""Worst-case benchmark family and the statistics rows and table.

The family: f_i = x_i^2 + (random combination of every monomial strictly
below x_i^2 in the degree order, pure squares excluded) for i = 1..n over
F_65521.  The leading terms are the squares x_i^2, which are pairwise
coprime and whose tails are standard monomials, so the input is already a
reduced basis in the degree order, the quotient has dimension D = 2^n
(squarefree monomials), and the frontier is as large as it gets: building
T_n column by column costs 2^(n-1) - 1 computed normal forms, while after a
random change of variables the last matrix can typically be read off with
zero arithmetic (and comes out sparser, too).

A row is a plain dict, one per solve (``record_from_report``);
``bench --json``, the ``stats`` of ``solve --json`` and
``scripts/bench_worstcase.py`` print it.
"""

from __future__ import annotations

import random
from itertools import combinations

from .field import DEFAULT_PRIME, PrimeField
from .poly import Monomial, Polynomial, TermOrder
from .solver import SolveReport, solve_deterministic, solve_lasvegas


def appendix_family(n: int, field: PrimeField | None = None, seed: int = 0) -> list[Polynomial]:
    """n quadrics f_i = x_i^2 + random lower-order tail, seed-reproducible.

    Tail support: the squarefree quadratic monomials below x_i^2 in the
    degree order, all variables, and 1.  (For the last variable the square
    is the smallest degree-2 monomial, so that tail is purely linear.)
    """
    field = field or PrimeField(DEFAULT_PRIME)
    rng = random.Random(seed)
    order = TermOrder.drl(n)
    quads = []
    for j, k in combinations(range(n), 2):
        e = [0] * n
        e[j] = 1
        e[k] = 1
        quads.append(Monomial(tuple(e)))
    polys = []
    for i in range(n):
        sq = [0] * n
        sq[i] = 2
        lead = Monomial(tuple(sq))
        pairs = [(lead, 1)]
        for m in quads:
            if order.greater(lead, m):
                pairs.append((m, rng.randrange(field.p)))
        for j in range(n):
            pairs.append((Monomial.variable(n, j), rng.randrange(field.p)))
        pairs.append((Monomial.one(n), rng.randrange(field.p)))
        polys.append(Polynomial.from_terms(field, n, pairs))
    return polys


def record_from_report(report: SolveReport) -> dict:
    """One row; its keys, in this order, are the printed JSON keys."""
    s = report.stats
    return {"n": s.n, "D": s.D, "pipeline": report.pipeline, "gb_time": s.gb_time,
            "matrix_time": s.matrix_time, "chord_time": s.chord_time,
            "nf_count": s.nf_type2_tn, "density": s.tn_density, "total_time": s.total_time,
            "retries": s.retries, "restarts": s.restarts}


# each pipeline, with the offset of its rng's seed from the family's
PIPELINES = {"deterministic": (solve_deterministic, 1), "las_vegas": (solve_lasvegas, 2)}


def run_bench(n: int, seed: int = 0, field: PrimeField | None = None,
              pipelines=tuple(PIPELINES)) -> list[dict]:
    """The given pipelines, by default both, on the same seed-fixed
    instance over ``field`` (default F_65521)."""
    F = appendix_family(n, field, seed=seed)
    return [record_from_report(solve(F, random.Random(seed + offset)))
            for solve, offset in (PIPELINES[name] for name in pipelines)]


def format_table(records: list[dict]) -> str:
    headers = ["pipeline", "n", "D", "gb_time", "matrix_time", "chord_time",
               "nf_count", "density", "total_time"]
    def cell(key, v):
        return f"{v:.4f}" if key == "density" else f"{v:.3f}" if isinstance(v, float) else str(v)
    rows = [[cell(h, r[h]) for h in headers] for r in records]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
