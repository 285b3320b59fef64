"""Shared generators for randomized tests: zero-dimensional systems,
shape-position instances, and ideal-preserving disguises."""

from __future__ import annotations

import itertools
import random

import numpy as np

from polysolve.errors import ClassificationFailure, NotReadable
from polysolve.field import PrimeField
from polysolve.gb import buchberger, is_zero_dimensional
from polysolve.linalg import _mul_arrays, _sub_mod, _unit_ut_solve_in_place
from polysolve.poly import MAX_EXPONENT, Monomial, Polynomial, TermOrder, _Reducer, _reduce_prepped
from polysolve.quotient import Frontier
from polysolve.change_order import UnivariateRep
from polysolve.recur import hankel_matrix, is_squarefree


def mul_var(m: Monomial, i: int) -> Monomial:
    """x_i m."""
    e = m.exps
    if e[i] >= MAX_EXPONENT:
        raise OverflowError(f"exponent above {MAX_EXPONENT}")
    return Monomial(e[:i] + (e[i] + 1,) + e[i + 1:])


def div_var(m: Monomial, i: int) -> Monomial:
    """m / x_i, for m divisible by x_i."""
    e = m.exps
    return Monomial(e[:i] + (e[i] - 1,) + e[i + 1:])


def normal_form(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by ``basis``.

    The result is the true normal form when ``basis`` is a Groebner basis
    for ``order``; otherwise it is the deterministic remainder obtained by
    always using the first listed divisor whose leading monomial divides the
    current term.
    """
    reducers = [_Reducer(g, order) for g in basis if not g.is_zero()]
    return _reduce_prepped(f, reducers, order)


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
        if is_zero_dimensional(gb):
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


def shape_system(rep: UnivariateRep) -> list[Polynomial]:
    """The shape system {x_1 - h_1, ..., x_{n-1} - h_{n-1}, h_n} of a
    representation."""
    last = rep.n - 1
    out = []
    for i in range(last):
        h = Polynomial.univariate(rep.field, rep.n, last, rep.coeffs[i])
        out.append(Polynomial.variable(rep.field, rep.n, i) - h)
    out.append(Polynomial.univariate(rep.field, rep.n, last, rep.coeffs[last]))
    return out


def shape_instance(field: PrimeField, n: int, D: int, rng: random.Random,
                   squarefree: bool = True):
    """(system, rep): a scrambled generating set together with the canonical
    representation its ideal must reproduce."""
    rep = random_shape_rep(field, n, D, rng, squarefree=squarefree)
    return disguise(shape_system(rep), rng), rep


def levinson_breakdown_sequence(field: PrimeField, dim: int, rng: random.Random) -> list[int]:
    """2 dim - 1 entries whose dim x dim Hankel matrix is nonsingular but
    whose entry dim - 1, the first leading minor of the reversed system,
    is zero: the Levinson recursion breaks down at its first step."""
    while True:
        seq = [rng.randrange(field.p) for _ in range(2 * dim - 1)]
        seq[dim - 1] = 0
        if hankel_matrix(seq, dim, field).rank() == dim:
            return seq


def unit_ut_solve(t: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray:
    """Solve T X = R for a dense unit upper-triangular T (canonical int64
    residues): ``linalg._unit_ut_solve_in_place`` with N the negated entries
    above T's diagonal."""
    rows, cols = np.nonzero(np.triu(t, 1))
    x = rhs.astype(np.int64)
    _unit_ut_solve_in_place(x, rows, cols, _sub_mod(0, t[rows, cols], p), p)
    return x


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
    red = unit_ut_solve(piv[:, pcols], np.hstack([piv[:, :f], piv[:, ops]]), p)
    return new, dep, red[:, :f], pcols, red[:, f:]


def frontier_by_monomials(quotient, gb) -> Frontier:
    """Per-monomial oracle for ``quotient.compute_frontier``, same outputs:
    every product x_i eps_l is looked up in dicts of ``Monomial``s, and a
    member that leads no generator takes the first variable k of its
    support for which t / x_k is a member."""
    n = quotient.n
    dim = quotient.dimension
    index = {m: j for j, m in enumerate(quotient.basis)}
    lead_row = {m: r for r, m in enumerate(gb.leading_monomials)}
    targets = [[0] * dim for _ in range(n)]
    cells: dict[Monomial, list[tuple[int, int]]] = {}
    for l, eps in enumerate(quotient.basis):
        for i in range(n):
            t = mul_var(eps, i)
            j = index.get(t)
            if j is None:
                cells.setdefault(t, []).append((i, l))
            else:
                targets[i][l] = j
    monomials = sorted(cells, key=quotient.order.key)
    row = {t: f for f, t in enumerate(monomials)}
    witness_var = [-1] * len(monomials)
    source = [-1] * len(monomials)
    for f, t in enumerate(monomials):
        for i, l in cells[t]:
            targets[i][l] = dim + f
        if t in lead_row:
            source[f] = lead_row[t]
            continue
        for k in t.support():
            w = row.get(div_var(t, k))
            if w is not None:
                witness_var[f], source[f] = k, w
                break
        else:
            raise ClassificationFailure(f"{t} is neither a leading monomial nor a shifted frontier monomial")
    exps = np.array([t.exps for t in monomials], dtype=np.int64).reshape(-1, n)
    return Frontier(exps, *(np.array(a, dtype=np.int64)
                            for a in (targets, witness_var, source)))


def normal_form_table_int64(quotient, frontier) -> np.ndarray:
    """Dense int64 oracle for ``quotient.normal_form_table``, same residues:
    each degree slice's right sides and its unit upper-triangular system
    (an s x s identity plus the entries) are formed in full, and
    ``unit_ut_solve`` solves them."""
    n = quotient.n
    p = quotient.field.p
    dim = quotient.dimension
    total = len(frontier)
    targets = frontier.targets
    witness_var, source = frontier.witness_var, frontier.source
    basis_deg = np.array([eps.deg for eps in quotient.basis], dtype=np.int64)
    deg = np.zeros(total, dtype=np.int64)
    front = targets >= dim
    deg[targets[front] - dim] = np.broadcast_to(basis_deg + 1, targets.shape)[front]
    cuts = (np.flatnonzero(np.diff(deg)) + 1).tolist()
    nf = np.zeros((total, dim), dtype=np.int64)
    for lo, hi in zip([0] + cuts, cuts + [total]):
        s = hi - lo
        low = int(np.searchsorted(basis_deg, deg[lo]))
        rhs = np.zeros((s, dim), dtype=np.int64)
        t = np.eye(s, dtype=np.int64)
        rg = np.flatnonzero(witness_var[lo:hi] < 0)
        rhs[rg] = quotient.tails[source[lo + rg]]
        for k in range(n):
            rk = np.flatnonzero(witness_var[lo:hi] == k)
            if not rk.size:
                continue
            w = nf[source[lo + rk], :low]
            tgt = targets[k, :low]
            basis = tgt < dim
            inside = tgt >= dim + lo
            early = ~(basis | inside)
            part = np.zeros((rk.size, dim), dtype=np.int64)
            part[:, tgt[basis]] = w[:, basis]
            if early.any():
                part = (part + _mul_arrays(w[:, early], nf[tgt[early] - dim], p)) % p
            rhs[rk] = part
            t[s - 1 - rk[:, None], dim + hi - 1 - tgt[inside]] = -w[:, inside] % p
        nf[lo:hi] = unit_ut_solve(t, rhs[::-1], p)[::-1]
    return nf


def nf_rows_by_monomials(quotient, monomials: list[Monomial]) -> np.ndarray:
    """Per-monomial oracle for ``quotient._nf_rows``: a unit row for a
    standard monomial, its ``tails`` row for a leading monomial, and
    NotReadable for the first other one."""
    index = {m: j for j, m in enumerate(quotient.basis)}
    lead_row = {Monomial(e): r for r, e in enumerate(quotient.lead_exps.tolist())}
    out = np.zeros((len(monomials), quotient.dimension), dtype=np.int64)
    for r, m in enumerate(monomials):
        if m in index:
            out[r, index[m]] = 1
        elif m in lead_row:
            out[r] = quotient.tails[lead_row[m]]
        else:
            raise NotReadable(m)
    return out
