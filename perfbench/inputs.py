"""Seeded input generators owned by the benchmark.

Inputs are plain data (exponent tuples and residues, or system text), built
without calling into ``polysolve``, so a later library edit cannot change
what a workload feeds the solver.  ``family_terms`` reproduces
``polysolve.bench.appendix_family`` term for term; ``record.py`` checks that
and stores a digest of every generated input in ``references.json``.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations, combinations_with_replacement

import numpy as np

BIG_P = (1 << 31) - 1
SCREEN_BELOW = 1 << 10


def _drl_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    # degree reverse lexicographic: total degree, then the smaller power of
    # the last differing variable is the larger monomial
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def family_terms(n: int, p: int, seed: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """The appendix family f_i = x_i^2 + random lower tail, as term lists.

    Tail support: the squarefree quadratic monomials below x_i^2 in the
    degree order, every variable, and 1, in that draw order.  Zero draws
    are dropped, as a polynomial stores no zero terms.
    """
    rng = random.Random(seed)
    quads = []
    for j, k in combinations(range(n), 2):
        e = [0] * n
        e[j] = e[k] = 1
        quads.append(tuple(e))
    polys = []
    for i in range(n):
        sq = [0] * n
        sq[i] = 2
        lead = tuple(sq)
        terms = [(lead, 1)]
        for m in quads:
            if _drl_key(lead) > _drl_key(m):
                terms.append((m, rng.randrange(p)))
        for j in range(n):
            terms.append((tuple(1 if k == j else 0 for k in range(n)), rng.randrange(p)))
        terms.append(((0,) * n, rng.randrange(p)))
        polys.append([(m, c) for m, c in terms if c])
    return polys


def _monomials_up_to(n: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for deg in range(d, -1, -1):
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for v in combo:
                e[v] += 1
            out.append(tuple(e))
    return out


def _term_text(mono: tuple[int, ...], c: int) -> str:
    factors = [str(c)]
    for i, e in enumerate(mono):
        if e:
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(factors)


def _dense_terms(n: int, degrees: tuple[int, ...], p: int, rng: random.Random):
    # every monomial up to each degree, with a nonzero random coefficient
    return [[(m, rng.randrange(1, p)) for m in _monomials_up_to(n, d)] for d in degrees]


def _pow_vec(xs, e: int, p: int):
    out = np.ones_like(xs)
    for _ in range(e):
        out = out * xs % p
    return out


def _all_points_simple(terms, p: int, D: int) -> bool:
    """True when a bivariate system has exactly D zeros in F_p^2, with
    pairwise distinct second coordinates.  Bezout allows at most D zeros
    counted with multiplicity, so the ideal is then radical, of degree D
    and in shape position: every solve of it must succeed."""
    xs = np.arange(p, dtype=np.int64)
    zero = np.ones((p, p), dtype=bool)
    for f in terms:
        acc = np.zeros((p, p), dtype=np.int64)
        for (a, b), c in f:
            acc = (acc + c * np.outer(_pow_vec(xs, a, p), _pow_vec(xs, b, p)) % p) % p
        zero &= acc == 0
    _, ys = np.nonzero(zero)
    return ys.size == D and np.unique(ys).size == D


# (p, degrees) of each system in one small-mixed batch; coefficients come
# from the seed, the shapes never change, so batches are comparable.
SMALL_SHAPES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (101, (2, 2)), (101, (2, 2)), (101, (2, 2)),
    (65521, (2, 2)), (65521, (2, 3)), (65521, (3, 3)),
    (65521, (2, 2, 2)), (65521, (2, 2, 3)), (65521, (2, 3, 3)), (65521, (3, 3, 3)),
    (65521, (2, 2, 2, 2)), (65521, (2, 2, 2, 3)), (65521, (2, 2, 3, 3)),
    (BIG_P, (2, 2)), (BIG_P, (3, 3)), (BIG_P, (2, 2, 3)), (BIG_P, (2, 3, 3)),
    (BIG_P, (2, 2, 2, 2)), (BIG_P, (2, 2, 3, 3)),
)


def small_system_text(p: int, degrees: tuple[int, ...], seed: int, index: int) -> str:
    """A dense random system in the text format ``sysfile.parse_system`` reads.

    A generic system is out of shape position with probability about 1/p.
    Below ``SCREEN_BELOW`` that is too likely, so there (bivariate systems
    only) the generator redraws until every solution is rational and
    simple, which it checks by enumerating F_p^2.
    """
    n, D = len(degrees), math.prod(degrees)
    rng = random.Random(f"small/{seed}/{index}")
    while True:
        terms = _dense_terms(n, degrees, p, rng)
        if p >= SCREEN_BELOW or _all_points_simple(terms, p, D):
            break
    lines = [f"p = {p}", "vars = " + ",".join(f"x{i + 1}" for i in range(n))]
    lines += [" + ".join(_term_text(m, c) for m, c in f) for f in terms]
    return "\n".join(lines) + "\n"


def digest(obj) -> str:
    """Short stable digest of nested lists, tuples, ints and strings."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
