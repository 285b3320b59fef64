import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (div_var, frontier_by_monomials, mul_var, nf_rows_by_monomials,
                     normal_form, normal_form_table_int64, random_zero_dim_system)
from polysolve import gb as gb_module
from polysolve.bench import appendix_family
from polysolve.errors import NotReadable, NotZeroDimensional
from polysolve.field import PrimeField
from polysolve.gb import buchberger
from polysolve.linalg import OpCounter
from polysolve.poly import MAX_EXPONENT, Monomial, Polynomial, TermOrder
from polysolve.quotient import (_codes, _locate, _rows, build_matrices_echelon,
                                build_matrices_fglm, compute_basis, compute_frontier,
                                normal_form_table, try_read_Tn)
from polysolve.solver import _transformed_gb


def _xy(field):
    return (Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1))


def test_basis_worked_example(f7):
    x, y = _xy(f7)
    gb = buchberger([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                    TermOrder.drl(2))
    q = compute_basis(gb)
    assert q.basis == [Monomial((0, 0)), Monomial((0, 1)), Monomial((1, 0))]
    assert q.dimension == 3
    assert q.basis.index(Monomial((1, 0))) == 2
    # the normal form of x^2 is -5y = 2y, supported on B
    assert normal_form(x * x, gb.polys, gb.order).terms == {q.basis[1]: 2}


def test_basis_staircases(f7):
    x, y = _xy(f7)
    # leading terms {x^2, y^2}: basis {1, y, x, xy}
    gb = buchberger([x * x, y * y], TermOrder.drl(2))
    q = compute_basis(gb)
    assert q.basis == [Monomial((0, 0)), Monomial((0, 1)), Monomial((1, 0)),
                       Monomial((1, 1))]
    # leading terms {x^2, xy, y^3}: basis {1, y, x, y^2}
    gb = buchberger([x * x, x * y, y ** 3], TermOrder.drl(2))
    q = compute_basis(gb)
    assert q.basis == [Monomial((0, 0)), Monomial((0, 1)), Monomial((1, 0)),
                       Monomial((0, 2))]


def test_basis_is_divisor_closed_and_drl_sorted():
    rng = random.Random(19)
    field = PrimeField(101)
    for n, degs in ((2, (2, 3)), (3, (2, 2, 2))):
        _, gb = random_zero_dim_system(field, n, degs, rng)
        q = compute_basis(gb)
        members = set(q.basis)
        order = TermOrder.drl(n)
        for m in q.basis:
            for i in range(n):
                if m.exps[i]:
                    assert div_var(m, i) in members
        for a, b in zip(q.basis, q.basis[1:]):
            assert order.greater(b, a)


def _brute_staircase(gb):
    """Every monomial below the pure-power bounds that no leading monomial
    divides, sorted by the basis order."""
    lms = gb.leading_monomials
    bounds = [min(m.exps[i] for m in lms if m.support() == [i]) for i in range(gb.n)]
    return sorted((Monomial(e) for e in itertools.product(*map(range, bounds))
                   if not any(lm.divides(Monomial(e)) for lm in lms)), key=gb.order.key)


def test_basis_is_the_whole_staircase(f7):
    rng = random.Random(23)
    for p in (101, 65521, 2 ** 31 - 1):
        field = PrimeField(p)
        for n, degs in ((2, (2, 3)), (3, (2, 2, 2)), (4, (2, 2, 1, 2))):
            F, gb = random_zero_dim_system(field, n, degs, rng)
            for basis in (gb, buchberger(F, TermOrder.lex(n))):
                q = compute_basis(basis)
                assert q.basis == _brute_staircase(basis)
                assert q.basis[0] == Monomial.one(n)   # change_ordering reads S at row 0
    for n in range(2, 7):
        gb = buchberger(appendix_family(n, seed=n), TermOrder.drl(n))
        assert compute_basis(gb).basis == _brute_staircase(gb)
    # a staircase whose LEX order is not the degree order: y^2 < x
    x, y = _xy(f7)
    for order in (TermOrder.drl(2), TermOrder.lex(2)):
        gb = buchberger([x * x, y ** 3], order)
        assert compute_basis(gb).basis == _brute_staircase(gb)


def test_compute_basis_walks_without_the_cover(f7, monkeypatch):
    # the greedy variable cover serves the rebuild's products only
    def refuse(*args):
        raise AssertionError("compute_basis built the rebuild's cover")

    monkeypatch.setattr(gb_module, "_cover", refuse)
    x, y = _xy(f7)
    for gb in (buchberger([x * x, x * y, y ** 3], TermOrder.drl(2)),
               buchberger(appendix_family(5, seed=5), TermOrder.drl(5))):
        assert compute_basis(gb).basis == _brute_staircase(gb)


def test_compute_basis_rejects_positive_dimension(f7):
    x, y = _xy(f7)
    gb = buchberger([x * y], TermOrder.drl(2))
    with pytest.raises(NotZeroDimensional):
        compute_basis(gb)


def _parent_vars(fr, f):
    """The variables i for which member f is a column of the i-th matrix."""
    return [i for i in range(fr.targets.shape[0])
            if fr.targets.shape[1] + f in fr.targets[i]]


def test_frontier_worked_example(f7):
    x, y = _xy(f7)
    gb = buchberger([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                    TermOrder.drl(2))
    q = compute_basis(gb)
    fr = compute_frontier(q, gb)
    # frontier = {y^2, xy, x^2}, every one a leading monomial (no products)
    assert [m.exps for m in fr.monomials] == [(0, 2), (1, 1), (2, 0)]
    assert [gb.leading_monomials[r] for r in fr.source] == fr.monomials
    assert fr.witness_var.tolist() == [-1, -1, -1]
    assert fr.type2_nf == 0


def test_frontier_product_classification(f7):
    x, y = _xy(f7)
    # staircase {x^2, xy, y^3}: x*y^2 is not a leading monomial but
    # (x*y^2)/y = xy is on the frontier, so it is a one-step product
    gb = buchberger([x * x, x * y, y ** 3], TermOrder.drl(2))
    q = compute_basis(gb)
    fr = compute_frontier(q, gb)
    row = {m.exps: f for f, m in enumerate(fr.monomials)}
    assert set(row) == {(2, 0), (1, 1), (0, 3), (1, 2)}
    f = row[(1, 2)]
    assert fr.witness_var[f] == 1
    assert fr.monomials[fr.source[f]] == Monomial((1, 1))
    for exps in ((2, 0), (1, 1), (0, 3)):
        g = row[exps]
        assert fr.witness_var[g] == -1
        assert gb.leading_monomials[fr.source[g]] == Monomial(exps)
    assert fr.type2_nf == 1
    # x*y^2 arises as x * (y^2): only parent variable is x (index 0)
    assert _parent_vars(fr, f) == [0]
    assert fr.type2_for_var(0) == 1 and fr.type2_for_var(1) == 0


def test_frontier_covers_all_products():
    rng = random.Random(4)
    field = PrimeField(101)
    _, gb = random_zero_dim_system(field, 3, (2, 2, 3), rng)
    q = compute_basis(gb)
    fr = compute_frontier(q, gb)
    basis = set(q.basis)
    products = {mul_var(b, i) for b in q.basis for i in range(3)} - basis
    assert set(fr.monomials) == products and len(fr) == len(products)
    assert fr.monomials == sorted(products, key=gb.order.key)
    for f, m in enumerate(fr.monomials):
        assert _parent_vars(fr, f) == [i for i in range(3)
                                       if m.exps[i] and div_var(m, i) in basis]
        # a leading monomial, or x_k times a member one degree down
        if m in gb.leading_monomials:
            assert fr.witness_var[f] == -1
            assert gb.leading_monomials[fr.source[f]] == m
        else:
            w = fr.monomials[fr.source[f]]
            assert mul_var(w, int(fr.witness_var[f])) == m
    witnessed = [f for f in range(len(fr)) if fr.witness_var[f] >= 0]
    assert fr.type2_nf == len(witnessed)
    for i in range(3):
        assert fr.type2_for_var(i) == sum(i in _parent_vars(fr, f) for f in witnessed)


def test_frontier_targets_locate_products():
    rng = random.Random(8)
    for p, n, degs in ((101, 2, (2, 3)), (101, 3, (2, 2, 3)), (65521, 3, (1, 2, 3))):
        _, gb = random_zero_dim_system(PrimeField(p), n, degs, rng)
        q = compute_basis(gb)
        fr = compute_frontier(q, gb)
        dim = q.dimension
        assert fr.targets.shape == (n, dim)
        for k in range(n):
            for l, eps in enumerate(q.basis):
                t = mul_var(eps, k)
                v = int(fr.targets[k, l])
                if v < dim:
                    assert q.basis[v] == t
                else:
                    assert fr.monomials[v - dim] == t
            assert len(set(fr.targets[k].tolist())) == dim


def _oracle_bases(p, kind):
    """Reduced bases for the oracle comparisons at one prime, under DRL or
    LEX: the appendix family (n = 2..8 under DRL, where it is already a
    basis; n = 2, 3 under LEX), random dense systems, and n = 1."""
    field = PrimeField(p)
    rng = random.Random(p)
    order = (lambda n: TermOrder(kind, n))
    bases = [buchberger(appendix_family(n, field, seed=n), order(n))
             for n in (range(2, 9) if kind == "drl" else (2, 3))]
    # a LEX basis of (2, 3, 3) takes seconds; the pair loop computes it
    for n, degs in ((2, (2, 3)), (3, (2, 2, 2)), (3, (1, 2, 3))) + (((3, (2, 3, 3)),)
                                                                    if kind == "drl" else ()):
        F, gb = random_zero_dim_system(field, n, degs, rng)
        bases.append(gb if kind == "drl" else buchberger(F, order(n)))
    x = Polynomial.variable(field, 1, 0)
    bases.append(buchberger([x ** 7 - Polynomial.constant(field, 1, 3)], order(1)))
    return bases


def _assert_same_frontier(got, want):
    assert got.monomials == want.monomials
    for field in ("exps", "targets", "witness_var", "source"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("kind", ["drl", "lex"])
@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_frontier_matches_the_per_monomial_oracle(p, kind):
    bases = _oracle_bases(p, kind)
    assert len(bases) >= 6
    for gb in bases:
        q = compute_basis(gb)
        _assert_same_frontier(compute_frontier(q, gb), frontier_by_monomials(q, gb))


def test_frontier_at_the_largest_exponent():
    # x^65535 = x^MAX_EXPONENT is a frontier member, and every y x^a above
    # y is one by the witness chain y x^a = x (y x^(a-1))
    field = PrimeField(65521)
    x, y = (Polynomial.variable(field, 2, i) for i in range(2))
    one = Polynomial.constant(field, 2, 1)
    gb = buchberger([x ** MAX_EXPONENT - one, y - one], TermOrder.drl(2))
    q = compute_basis(gb)
    fr = compute_frontier(q, gb)
    _assert_same_frontier(fr, frontier_by_monomials(q, gb))
    assert fr.monomials[-1] == Monomial((MAX_EXPONENT, 0)) and fr.type2_nf == MAX_EXPONENT - 1


@pytest.mark.parametrize("kind", ["drl", "lex"])
def test_codes_rank_monomials_by_the_order(kind):
    # exponents over the whole range at n <= 8, small exponents in many
    # variables, and rows at MAX_EXPONENT among small ones at n = 12, each
    # with repeated rows; at n = 40 and at MAX_EXPONENT the key columns
    # span more than 2^62 together, so no int64 word could hold the key
    rng = np.random.default_rng(7)
    cases = [rng.integers(0, MAX_EXPONENT + 1, (60, n)) >> rng.integers(0, 17, (60, n))
             for n in range(1, 9)]
    cases += [rng.integers(0, 3, (60, n)) for n in (12, 20, 40)]
    top = rng.integers(0, 3, (60, 12))
    top[np.arange(6), 2 * np.arange(6)] = MAX_EXPONENT
    top[6] = MAX_EXPONENT
    cases.append(top)
    for exps in cases:
        order = TermOrder(kind, exps.shape[1])
        exps = np.vstack([exps, exps[:20]])
        ranked = sorted({tuple(e) for e in exps.tolist()}, key=lambda e: order.key(Monomial(e)))
        rank = {e: r for r, e in enumerate(ranked)}
        assert _codes(exps, order).tolist() == [rank[tuple(e)] for e in exps.tolist()]


@pytest.mark.parametrize("kind", ["drl", "lex"])
@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_row_codes_decode_to_unit_and_stored_rows(p, kind):
    # _locate codes B, the leading monomials and every product x_k eps_l as
    # dicts of Monomials would, and _rows decodes a code array of T_n's
    # shape and of a rebuild band's, in int64 and float64, as a loop would
    rng = np.random.default_rng(p)
    for gb in _oracle_bases(p, kind):
        q = compute_basis(gb)
        n, dim = q.n, q.dimension
        where = {m: c for c, m in enumerate(q.basis)}
        where.update((m, dim + r) for r, m in enumerate(gb.leading_monomials))
        monos = q.basis + gb.leading_monomials
        monos += [mul_var(eps, k) for k in range(n) for eps in q.basis]
        code, _ = _locate(q, np.array([m.exps for m in monos], dtype=np.int64))
        assert code.tolist() == [where.get(m, -1) for m in monos]
        source = rng.integers(0, p, (5, dim)).astype(np.float64)
        for codes in (rng.integers(0, dim + 5, dim), rng.integers(0, dim + 5, (n, 16))):
            for dtype in (np.int64, np.float64):
                got = _rows(source, codes, dim, dtype)
                want = np.zeros(codes.shape + (dim,), dtype=dtype)
                for at in np.ndindex(codes.shape):
                    c = int(codes[at])
                    if c < dim:
                        want[at + (c,)] = 1
                    else:
                        want[at] = source[c - dim]
                assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_normal_form_table_matches_the_int64_oracle(p):
    for gb in _oracle_bases(p, "drl"):
        q = compute_basis(gb)
        fr = compute_frontier(q, gb)
        table = normal_form_table(q, fr)
        assert table.dtype == np.float64
        assert np.array_equal(table.astype(np.int64), normal_form_table_int64(q, fr))
        assert np.array_equal(table, normal_form_table_int64(q, fr))


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_free_read_matches_the_per_monomial_oracle(p):
    # the original family is never readable, a transformed one mostly is:
    # either both reads raise on the same first column monomial in basis
    # order, or both give the same matrix
    field = PrimeField(p)
    rng = random.Random(p)
    outcomes = set()
    for n in range(2, 7):
        gb0 = buchberger(appendix_family(n, field, seed=n), TermOrder.drl(n))
        q0 = compute_basis(gb0)
        fr = compute_frontier(q0, gb0)
        table = normal_form_table(q0, fr)
        bases = [gb0] + [_transformed_gb(table, fr.targets, field.random_nonsingular_matrix(n, rng),
                                         field, n) for _ in range(3)]
        for gb in bases:
            q = compute_basis(gb)
            column = [mul_var(eps, n - 1) for eps in q.basis]
            counter = OpCounter()
            try:
                want = nf_rows_by_monomials(q, column)
            except NotReadable as exc:
                with pytest.raises(NotReadable) as err:
                    try_read_Tn(q, gb, counter)
                assert err.value.offending == exc.offending
                outcomes.add("unreadable")
            else:
                assert np.array_equal(try_read_Tn(q, gb, counter).matrix.a, want.T)
                outcomes.add("read")
            assert counter.is_zero()
    assert outcomes == {"read", "unreadable"}


def test_echelon_rejects_non_drl_basis():
    # a LEX frontier is not sorted by degree, so the degree slices the
    # builder relies on do not exist
    rng = random.Random(12)
    F, _ = random_zero_dim_system(PrimeField(101), 3, (2, 2, 2), rng)
    gb = buchberger(F, TermOrder.lex(3))
    q = compute_basis(gb)
    with pytest.raises(ValueError, match="DRL"):
        build_matrices_echelon(q, gb)


def _frozen_system(f7):
    x, y = _xy(f7)
    return buchberger([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                      TermOrder.drl(2))


def test_multiplication_matrices_worked_example(f7):
    gb = _frozen_system(f7)
    q = compute_basis(gb)
    mats, fr = build_matrices_fglm(q, gb)
    ty = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
    tx = [[0, 2, 0], [0, 0, 2], [1, 0, 0]]
    assert mats[1].matrix.tolist() == ty
    assert mats[0].matrix.tolist() == tx
    assert mats[0].var == 0 and mats[1].var == 1
    assert q.dimension == 3 and len(fr) == 3 and fr.type2_nf == 0


def test_matrix_columns_are_normal_forms():
    rng = random.Random(23)
    field = PrimeField(101)
    for n, degs in ((2, (2, 2)), (2, (3, 3)), (3, (2, 2, 2))):
        _, gb = random_zero_dim_system(field, n, degs, rng)
        q = compute_basis(gb)
        mats, _ = build_matrices_echelon(q, gb)
        xs = [Polynomial.variable(field, n, i) for i in range(n)]
        for i in range(n):
            for j, eps in enumerate(q.basis):
                prod = xs[i].mul_term(eps, 1)
                nf = normal_form(prod, gb.polys, gb.order)
                col = mats[i].matrix.a[:, j]
                assert {q.basis[k]: c for k, c in enumerate(col.tolist()) if c} == nf.terms


def test_builders_agree():
    rng = random.Random(31)
    # (3, (2, 3, 3)) and (3, (1, 2, 3)) mix generator rows with product rows
    # of two witness variables in one degree; p = 2^31 - 1 cuts an operand
    # of every block product into digits
    for p in (101, 65521, 2**31 - 1):
        field = PrimeField(p)
        for n, degs in ((2, (2, 3)), (3, (2, 2, 2)), (3, (2, 3, 3)), (3, (1, 2, 3))):
            _, gb = random_zero_dim_system(field, n, degs, rng)
            q = compute_basis(gb)
            fr = compute_frontier(q, gb)
            a, _ = build_matrices_fglm(q, gb, fr)
            b, _ = build_matrices_echelon(q, gb, fr)
            for ma, mb in zip(a, b):
                assert ma.matrix == mb.matrix
    # the appendix family at n = 5..7: per degree several witness variables
    # reach earlier frontier members, and some slice members no other
    # member uses
    for p in (65521, 2**31 - 1):
        field = PrimeField(p)
        for n in (5, 6, 7):
            gb = buchberger(appendix_family(n, field), TermOrder.drl(n), field=field)
            q = compute_basis(gb)
            fr = compute_frontier(q, gb)
            a, _ = build_matrices_fglm(q, gb, fr)
            b, _ = build_matrices_echelon(q, gb, fr)
            for ma, mb in zip(a, b):
                assert ma.matrix == mb.matrix


def test_echelon_variable_restriction():
    rng = random.Random(37)
    field = PrimeField(101)
    _, gb = random_zero_dim_system(field, 3, (2, 2, 2), rng)
    q = compute_basis(gb)
    full, _ = build_matrices_echelon(q, gb)
    last_only, _ = build_matrices_echelon(q, gb, variables=[2])
    assert len(last_only) == 1
    assert last_only[0].var == 2
    assert last_only[0].matrix == full[2].matrix


def test_try_read_worked_example(f7):
    gb = _frozen_system(f7)
    q = compute_basis(gb)
    counter = OpCounter()
    tn = try_read_Tn(q, gb, counter)
    assert tn.var == 1
    assert tn.matrix.tolist() == [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
    assert counter.is_zero()


def test_try_read_not_readable(f7):
    x, y = _xy(f7)
    # staircase {x^2, y^3}: y * (x y^2) = x y^3 is neither in the basis nor
    # a leading monomial, so the last matrix cannot be copied off
    gb = buchberger([x * x - y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                    TermOrder.drl(2))
    q = compute_basis(gb)
    counter = OpCounter()
    with pytest.raises(NotReadable) as err:
        try_read_Tn(q, gb, counter)
    assert counter.is_zero()
    assert err.value.offending == Monomial((1, 3))  # the offender is x*y^3


def test_try_read_on_family_needs_the_transform():
    from polysolve.bench import appendix_family
    from polysolve.poly import apply_change_of_variables

    # On the family itself, columns x_n * eps with eps already containing
    # x_n land strictly inside the staircase: not free to read.
    n = 4
    field = PrimeField(65521)
    F = appendix_family(n, field, seed=3)
    gb = buchberger(F, TermOrder.drl(n))
    q = compute_basis(gb)
    with pytest.raises(NotReadable):
        try_read_Tn(q, gb)
    # After a random invertible change of variables the read goes through
    # and agrees with the computed matrix, spending no field operations.
    rng = random.Random(5)
    g = field.random_nonsingular_matrix(n, rng)
    gbT = buchberger([apply_change_of_variables(f, g) for f in F],
                     TermOrder.drl(n))
    qT = compute_basis(gbT)
    counter = OpCounter()
    tn = try_read_Tn(qT, gbT, counter)
    assert counter.is_zero()
    built, _ = build_matrices_echelon(qT, gbT, variables=[n - 1])
    assert tn.matrix == built[0].matrix


def test_build_stats_counts(f7):
    x, y = _xy(f7)
    gb = buchberger([x * x, x * y, y ** 3], TermOrder.drl(2))
    q = compute_basis(gb)
    fr = compute_frontier(q, gb)
    for build in (build_matrices_fglm, build_matrices_echelon):
        assert build(q, gb, fr)[1] is fr
        assert build(q, gb)[1].type2_nf == 1
    assert q.dimension == 4
    assert len(fr) == 4
    assert fr.type2_nf == 1
    assert [fr.type2_for_var(i) for i in range(2)] == [1, 0]
