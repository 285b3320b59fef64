import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (levinson_breakdown_sequence, random_zero_dim_system, shape_instance,
                     shape_system)
from polysolve import change_order, recur, solver
from polysolve.bench import appendix_family
from polysolve.change_order import UnivariateRep, _root_points, change_ordering, verify_rep
from polysolve.errors import BudgetExceeded, ChangeOrderingFailed
from polysolve.field import PrimeField
from polysolve.gb import buchberger, lex_oracle
from polysolve.linalg import (KrylovStats, Matrix, _krylov_doubling, _krylov_steps, _unit_rows,
                              krylov_columns)
from polysolve.poly import Monomial, Polynomial, TermOrder
from polysolve.quotient import build_matrices_fglm, compute_basis
from polysolve.recur import berlekamp_massey


def _xy(field):
    return (Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1))


def _pipeline_inputs(field, polys):
    gb = buchberger(polys, TermOrder.drl(2))
    q = compute_basis(gb)
    mats, _ = build_matrices_fglm(q, gb)
    return gb, q, mats


def test_univariate_rep_basics(f7):
    rep = UnivariateRep(f7, 2, [[0, 0, 1, 0], [5, 0, 0, 1]])
    assert rep.coeffs[0] == [0, 0, 1]  # trailing zeros trimmed
    assert rep.degree == 3
    x, y = _xy(f7)
    assert shape_system(rep) == [x - y * y, y ** 3 + Polynomial.constant(f7, 2, 5)]
    # h_2 = (y - 2)(y - 6) and h_1 = y^2: the points are (4, 2) and (1, 6)
    rep = UnivariateRep(f7, 2, [[0, 0, 1], [5, 6, 1]])
    assert _root_points(rep, np.arange(7)).T.tolist() == [[4, 2], [1, 6]]


def test_change_ordering_worked_example(f7):
    x, y = _xy(f7)
    gb, q, mats = _pipeline_inputs(f7, [x - y * y,
                                        y ** 3 - Polynomial.constant(f7, 2, 2)])
    rep, stats = change_ordering(mats[1], gb, q, random.Random(0))
    assert rep.coeffs == [[0, 0, 1], [5, 0, 0, 1]]
    # 2D = 6 Krylov columns take ceil(log2 6) = 3 squarings and 3 block products
    assert (stats.square_mults, stats.rect_mults) == (3, 3)


@functools.lru_cache(maxsize=None)
def _family_change_ordering(n: int, p: int, pipeline: str):
    """(T_n, KrylovStats) of the first change of ordering in a solve of the
    appendix family (seed 0), det seeded with Random(1) and LV with Random(2)."""
    calls = []

    def spy(tn, gb, q, rng):
        rep, stats = change_ordering(tn, gb, q, rng)
        calls.append((tn.matrix, stats))
        return rep, stats

    solve, seed = {"det": (solver.solve_deterministic, 1), "lv": (solver.solve_lasvegas, 2)}[pipeline]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "change_ordering", spy)
        solve(appendix_family(n, PrimeField(p)), random.Random(seed))
    return calls[0]


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
@pytest.mark.parametrize("pipeline", ["det", "lv"])
def test_krylov_routes_agree_on_family_tn(pipeline, p):
    # appendix n = 8, D = 256: the smallest T_n that krylov_columns steps through
    tn, _ = _family_change_ordering(8, p, pipeline)
    t = tn.transpose()
    D = t.nrows
    unit, src = _unit_rows(t.a)
    assert D == 256 and 2 * np.count_nonzero(unit) >= D
    r = np.array(t.field.random_vector(D, random.Random(8)), dtype=np.int64)
    assert np.array_equal(_krylov_steps(t.a, r, 2 * D, p, unit, src),
                          _krylov_doubling(t, r, 2 * D, None))


def test_change_ordering_reports_its_krylov_route():
    # LV's T_n at n = 8 (D = 256): one matrix-vector step per column after r
    _, stats = _family_change_ordering(8, 65521, "lv")
    assert (stats.steps, stats.square_mults, stats.rect_mults) == (2 * 256 - 1, 0, 0)
    # the family at n = 7 (D = 128, as family-bigp runs it) stays on the doubling
    for pipeline in ("det", "lv"):
        _, stats = _family_change_ordering(7, 2 ** 31 - 1, pipeline)
        assert (stats.steps, stats.square_mults, stats.rect_mults) == (0, 8, 8)
    # so does a dense T of D = 256, which has no unit rows
    field = PrimeField(65521)
    rng = np.random.default_rng(256)
    stats = KrylovStats()
    krylov_columns(Matrix(field, rng.integers(1, field.p, (256, 256))),
                   rng.integers(0, field.p, 256), 256, stats=stats)
    assert (stats.steps, stats.square_mults, stats.rect_mults) == (0, 9, 9)


@pytest.mark.parametrize("n, pipeline, steps", [(4, "deterministic", False), (8, "lasvegas", True)])
def test_change_ordering_runs_one_euclid(n, pipeline, steps, monkeypatch):
    # Berlekamp-Massey's half Euclid also yields the Hankel solves' inverse,
    # on the doubling route (n = 4) and on the step route (n = 8)
    euclids, seen = [], []
    real_euclid = recur._euclid

    def euclid(*args, **kwargs):
        euclids.append(1)
        return real_euclid(*args, **kwargs)

    def spy(*args):
        before = len(euclids)
        rep, stats = change_ordering(*args)
        seen.append((len(euclids) - before, stats.steps > 0))
        return rep, stats

    monkeypatch.setattr(recur, "_euclid", euclid)
    monkeypatch.setattr(solver, "change_ordering", spy)
    getattr(solver, "solve_" + pipeline)(appendix_family(n, PrimeField(65521)), random.Random(1))
    assert seen and all(s == (1, steps) for s in seen)


def test_change_ordering_is_canonical_across_vectors(f7):
    # shape position makes the representation unique, so the random
    # projection vector must not leak into the output
    x, y = _xy(f7)
    gb, q, mats = _pipeline_inputs(f7, [x - y * y,
                                        y ** 3 - Polynomial.constant(f7, 2, 2)])
    reps = [change_ordering(mats[1], gb, q, random.Random(s))[0].coeffs
            for s in range(5)]
    assert all(r == reps[0] for r in reps)


def test_change_ordering_deferred_variable(f7):
    # when x_1 itself is a leading term its sequence comes from the
    # generator's tail, through the same product with the Krylov matrix
    x, y = _xy(f7)
    polys = [x + y + Polynomial.constant(f7, 2, 1),
             y * y + Polynomial.constant(f7, 2, 1)]
    gb, q, mats = _pipeline_inputs(f7, polys)
    rep, _ = change_ordering(mats[1], gb, q, random.Random(0))
    assert rep.coeffs == [[6, 6], [1, 0, 1]]   # x = -y - 1, y^2 = -1
    assert rep.coeffs == lex_oracle(polys, 2).coeffs


def test_change_ordering_failure_reports_degrees(f7):
    x, y = _xy(f7)
    # (x^2 - y, y^2 - 1): D = 4 but the last variable only reaches degree 2
    gb, q, mats = _pipeline_inputs(f7, [x * x - y,
                                        y * y - Polynomial.constant(f7, 2, 1)])
    with pytest.raises(ChangeOrderingFailed) as err:
        change_ordering(mats[1], gb, q, random.Random(0))
    assert err.value.degree == 2
    assert err.value.expected == 4


def test_minimal_polynomial_annihilates_the_matrix():
    rng = random.Random(2)
    field = PrimeField(101)
    for trial in range(5):
        n = 2 + trial % 2
        system, rep = shape_instance(field, n, rng.randrange(3, 9), rng)
        gb = buchberger(system, TermOrder.drl(n))
        q = compute_basis(gb)
        mats, _ = build_matrices_fglm(q, gb)
        for _attempt in range(8):   # a degenerate vector asks for a retry
            try:
                got, _ = change_ordering(mats[n - 1], gb, q, rng)
                break
            except ChangeOrderingFailed:
                continue
        assert got.coeffs == rep.coeffs
        # h_n(T_n) = 0 as a matrix, and deg h_n = D
        tn = mats[n - 1].matrix.a
        acc = np.zeros_like(tn)
        for c in reversed(got.coeffs[-1]):
            acc = (acc @ tn + c * np.eye(q.dimension, dtype=np.int64)) % 101
        assert not acc.any()
        assert got.degree == q.dimension


class _Feed:
    """A stand-in rng whose ``randrange`` returns fixed values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, stop):
        return next(self._values)


def test_levinson_breakdown_input_matches_lex_oracle(f101):
    # S is a sequence whose Hankel matrix is nonsingular while seq[D - 1],
    # the first leading minor of the row-reversed (Toeplitz) system, is 0:
    # it starts the sequence of <x - y, mu(y)> when r(y^j) = seq[j] for
    # j < D, and mu, its recurrence, makes the rest of S agree with seq
    dim = 6
    seq = levinson_breakdown_sequence(f101, dim, random.Random(5))
    mu = berlekamp_massey(seq + [0], f101)
    assert len(mu) == dim + 1   # the Hankel matrix is nonsingular
    x, y = _xy(f101)
    polys = [x - y, Polynomial.univariate(f101, 2, 1, mu)]
    gb, q, mats = _pipeline_inputs(f101, polys)
    r = [0] * dim
    for j in range(dim):
        r[q.basis.index(Monomial((0, j)))] = seq[j]
    rep, _ = change_ordering(mats[1], gb, q, _Feed(r))
    assert rep.coeffs == lex_oracle(polys, 2).coeffs


def test_verify_rep_full_scan(f7):
    x, y = _xy(f7)
    system = [x - y * y, y ** 3 - Polynomial.constant(f7, 2, 1)]
    rep = lex_oracle(system, 2)
    res = verify_rep(rep, system)
    assert res.ok and bool(res)
    assert res.points_checked == 3   # cube roots of 1 mod 7: 1, 2, 4
    # corrupt the parametrization: those roots no longer solve the system
    bad = UnivariateRep(f7, 2, [[1] + rep.coeffs[0][1:], rep.coeffs[1]])
    res = verify_rep(bad, system)
    assert not res.ok


def test_verify_rep_vacuous_when_no_roots(f7):
    x, y = _xy(f7)
    system = [x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)]
    rep = lex_oracle(system, 2)
    res = verify_rep(rep, system)   # 2 is not a cube mod 7
    assert res.ok and res.points_checked == 0


def test_verify_rep_refuses_fields_past_the_scan_limit():
    # the scan certifies every root or raises; it never samples
    field = PrimeField(2 ** 31 - 1)
    y = Polynomial.variable(field, 1, 0)
    rep = UnivariateRep(field, 1, [[field.p - 1, 1]])
    with pytest.raises(BudgetExceeded):
        verify_rep(rep, [y - Polynomial.constant(field, 1, 1)])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
def test_change_ordering_mixed_targets_one_hankel_solve(p, n, monkeypatch):
    # x_0 leads the linear generator and x_1 .. x_{n-2} are standard: every
    # sequence comes from one product with the Krylov matrix (on digits
    # at p = 2^31 - 1) and one call of the univariate core solves all
    field = PrimeField(p)
    rng = random.Random(11)
    polys, gb = random_zero_dim_system(field, n, (1,) + (2,) * (n - 1), rng)
    q = compute_basis(gb)
    assert Monomial.variable(n, 0) in gb.leading_monomials
    assert all(Monomial.variable(n, i) in q.basis for i in range(1, n - 1))
    mats, _ = build_matrices_fglm(q, gb)
    calls = []
    real = change_order.parametrizations

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(change_order, "parametrizations", counting)
    rep, _ = change_ordering(mats[n - 1], gb, q, rng)
    assert rep.coeffs == lex_oracle(polys, n, field).coeffs
    assert len(calls) == 1
