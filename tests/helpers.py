"""Shared generators for randomized tests: zero-dimensional systems,
shape-position instances, and ideal-preserving disguises."""

from __future__ import annotations

import itertools
import random

import numpy as np

from polysolve.field import PrimeField
from polysolve.gb import buchberger, is_zero_dimensional
from polysolve.linalg import _unit_ut_solve
from polysolve.poly import Monomial, Polynomial, TermOrder
from polysolve.change_order import UnivariateRep
from polysolve.recur import hankel_matrix, is_squarefree


def monomials_up_to(n: int, deg: int) -> list[Monomial]:
    out = []
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) <= deg:
            out.append(Monomial(exps))
    return out


def random_polynomial(field: PrimeField, n: int, deg: int, rng: random.Random) -> Polynomial:
    """Dense random polynomial of exact total degree ``deg``."""
    pairs = [(m, rng.randrange(field.p)) for m in monomials_up_to(n, deg)]
    f = Polynomial.from_terms(field, n, pairs)
    while f.total_degree() != deg:  # resample until the top degree survives
        pairs = [(m, rng.randrange(field.p)) for m in monomials_up_to(n, deg)]
        f = Polynomial.from_terms(field, n, pairs)
    return f


def random_zero_dim_system(field: PrimeField, n: int, degrees, rng: random.Random,
                           max_attempts: int = 50):
    """n random dense equations of the given degrees, redrawn until the
    ideal is zero-dimensional; returns (system, its DRL basis)."""
    order = TermOrder.drl(n)
    for _ in range(max_attempts):
        F = [random_polynomial(field, n, d, rng) for d in degrees]
        gb = buchberger(F, order, field=field)
        if not gb.contains_one() and is_zero_dimensional(gb):
            return F, gb
    raise AssertionError("could not draw a zero-dimensional system")


def random_shape_rep(field: PrimeField, n: int, D: int, rng: random.Random,
                     squarefree: bool = True) -> UnivariateRep:
    """Random shape-position representation: monic degree-D minimal
    polynomial (squarefree by default, hence a radical ideal) and random
    parametrizations of degree < D."""
    while True:
        hn = [rng.randrange(field.p) for _ in range(D)] + [1]
        if not squarefree or is_squarefree(hn, field):
            break
    coeffs = [[rng.randrange(field.p) for _ in range(D)] for _ in range(n - 1)]
    coeffs.append(hn)
    return UnivariateRep(field, n, coeffs)


def disguise(system: list[Polynomial], rng: random.Random) -> list[Polynomial]:
    """Ideal-preserving scramble: invertible constant mixing of the
    generators plus adding polynomial multiples of other generators."""
    field = system[0].field
    n = system[0].n
    k = len(system)
    m = field.random_nonsingular_matrix(k, rng)
    mixed = []
    for i in range(k):
        acc = Polynomial.zero(field, n)
        for j in range(k):
            acc = acc + system[j].scale(m[i, j])
        mixed.append(acc)
    # a couple of triangular additions f_i += q * f_j (unimodular, so the
    # generated ideal is unchanged)
    for _ in range(2):
        i, j = rng.sample(range(k), 2)
        q = Polynomial.from_terms(field, n, [
            (Monomial.one(n), rng.randrange(field.p)),
            (Monomial.variable(n, rng.randrange(n)), rng.randrange(field.p)),
        ])
        mixed[i] = mixed[i] + q * mixed[j]
    return mixed


def shape_instance(field: PrimeField, n: int, D: int, rng: random.Random,
                   squarefree: bool = True):
    """(system, rep): a scrambled generating set together with the canonical
    representation its ideal must reproduce."""
    rep = random_shape_rep(field, n, D, rng, squarefree=squarefree)
    return disguise(rep.polynomials(), rng), rep


def levinson_breakdown_sequence(field: PrimeField, dim: int, rng: random.Random) -> list[int]:
    """2 dim - 1 entries whose dim x dim Hankel matrix is nonsingular but
    whose entry dim - 1, the first leading minor of the reversed system,
    is zero: the Levinson recursion breaks down at its first step."""
    while True:
        seq = [rng.randrange(field.p) for _ in range(2 * dim - 1)]
        seq[dim - 1] = 0
        if hankel_matrix(seq, dim, field).rank() == dim:
            return seq


def eliminate_block_by_rows(w: np.ndarray, p: int):
    """Row-by-row oracle for ``linalg._eliminate_block``, same outputs: each row
    is reduced by the pivot rows above it and, if anything is left, becomes
    a pivot row on its first nonzero entry; a final unit-triangular solve
    makes the pivot rows reduced."""
    c, f = w.shape
    a = np.hstack([w, np.eye(c, dtype=np.int64)])  # row ops ride along
    new: list[int] = []
    dep: list[int] = []
    pcols: list[int] = []
    for i in range(c):
        nz = np.flatnonzero(a[i, :f])
        if nz.size == 0:
            dep.append(i)
            continue
        q = int(nz[0])
        end = f + i + 1  # the row operations so far touch rows 0..i only
        a[i, :end] = a[i, :end] * pow(int(a[i, q]), -1, p) % p
        rows = np.flatnonzero(a[i + 1:, q]) + (i + 1)
        if rows.size:
            a[rows, :end] = (a[rows, :end] - np.outer(a[rows, q], a[i, :end])) % p
        new.append(i)
        pcols.append(q)
    ops = f + np.array(new, dtype=np.intp)
    # each pivot row is zero at the pivot columns of the rows above it, so
    # at the pivot columns the pivot rows form a unit upper triangle
    piv = a[new]
    red = _unit_ut_solve(piv[:, pcols], np.hstack([piv[:, :f], piv[:, ops]]), p)
    return new, dep, red[:, :f], pcols, red[:, f:]
