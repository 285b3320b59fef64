import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (eliminate_block_by_rows, monomials_up_to, normal_form, random_polynomial,
                     random_zero_dim_system, shape_instance, shape_system)
from polysolve import gb as gb_module
from polysolve.bench import appendix_family
from polysolve.cli import main
from polysolve.errors import DimensionMismatch, NotShapePosition, NotZeroDimensional
from polysolve.field import PrimeField
from polysolve.gb import (buchberger, groebner_from_matrices, is_zero_dimensional, lex_oracle,
                          shape_rep_from_lex)
from polysolve.linalg import _ELIM_LEAF, _eliminate_block
from polysolve.poly import (Monomial, Polynomial, TermOrder, apply_change_of_variables,
                            s_polynomial)
from polysolve.quotient import (build_matrices_echelon, compute_basis, compute_frontier,
                                normal_form_table)
from polysolve.solver import _BAND, SolveConfig, _transformed_gb, _transformed_gb_from_matrices


def _xy(field):
    return (Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1))


def test_worked_example_drl_basis(f7):
    x, y = _xy(f7)
    gb = buchberger([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                    TermOrder.drl(2))
    # reduced basis, ascending by leading term: {y^2 - x, xy + 5, x^2 + 5y}
    assert [g.leading_monomial(gb.order) for g in gb.polys] == \
        [Monomial((0, 2)), Monomial((1, 1)), Monomial((2, 0))]
    assert gb.polys[0] == y * y - x
    assert gb.polys[1] == x * y + Polynomial.constant(f7, 2, 5)
    assert gb.polys[2] == x * x + y.scale(5)
    assert set(gb.leading_monomials) == {Monomial((0, 2)), Monomial((1, 1)), Monomial((2, 0))}


def test_worked_example_lex_basis(f7):
    x, y = _xy(f7)
    gb = buchberger([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)],
                    TermOrder.lex(2))
    assert len(gb) == 2
    assert gb.polys[0] == y ** 3 + Polynomial.constant(f7, 2, 5)
    assert gb.polys[1] == x - y * y


def test_reduced_basis_properties():
    rng = random.Random(21)
    field = PrimeField(101)
    order = TermOrder.drl(2)
    for _ in range(10):
        _, gb = random_zero_dim_system(field, 2, (2, 2), rng)
        lms = [g.leading_monomial(order) for g in gb.polys]
        for i, g in enumerate(gb.polys):
            assert g.leading_coefficient(order) == 1  # monic
            for m, _c in g.terms.items():
                for j, lm in enumerate(lms):
                    if i != j or m != lms[i]:
                        assert not lm.divides(m)  # fully interreduced
        # ascending order of leading terms
        for a, b in zip(lms, lms[1:]):
            assert order.greater(b, a)


def test_s_polynomials_reduce_to_zero():
    rng = random.Random(33)
    field = PrimeField(101)
    order = TermOrder.drl(3)
    _, gb = random_zero_dim_system(field, 3, (2, 2, 2), rng)
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            s = s_polynomial(gb.polys[i], gb.polys[j], order)
            assert normal_form(s, gb.polys, order).is_zero()


def test_ideal_membership_of_inputs():
    rng = random.Random(8)
    field = PrimeField(101)
    order = TermOrder.drl(2)
    system, gb = random_zero_dim_system(field, 2, (2, 3), rng)
    for f in system:
        assert normal_form(f, gb.polys, order).is_zero()


def test_contains_one(f7):
    x, y = _xy(f7)
    one = Polynomial.constant(f7, 2, 1)
    gb = buchberger([x, x + one], TermOrder.drl(2))
    assert gb.contains_one()
    assert not is_zero_dimensional(gb)
    gb2 = buchberger([x - y, y * y - y], TermOrder.drl(2))
    assert not gb2.contains_one()


def test_zero_dimensionality_detection(f7):
    x, y = _xy(f7)
    curve = buchberger([x * y], TermOrder.drl(2))  # positive-dimensional
    assert not is_zero_dimensional(curve)
    pts = buchberger([x * x - y, y * y - Polynomial.constant(f7, 2, 1)], TermOrder.drl(2))
    assert is_zero_dimensional(pts)
    assert compute_basis(pts).dimension == 4


def test_buchberger_infers_field_and_checks_input(f7):
    with pytest.raises(ValueError):
        buchberger([], TermOrder.drl(2))
    x, y = _xy(f7)
    gb = buchberger([x, y], TermOrder.drl(2))
    assert gb.field.p == 7 and len(gb) == 2


def test_buchberger_rejects_mixed_rings(f7, f101):
    x101 = Polynomial.variable(f101, 2, 0)
    y7 = Polynomial.variable(f7, 2, 1)
    y7_3 = Polynomial.variable(f7, 3, 1)
    x7 = Polynomial.variable(f7, 2, 0)
    for polys in ([x101, y7], [x7, y7_3], [x7, y7, Polynomial.zero(f101, 2)]):
        with pytest.raises(DimensionMismatch, match="different rings"):
            buchberger(polys, TermOrder.drl(2))
        with pytest.raises(DimensionMismatch):
            lex_oracle(polys, 2)


def test_buchberger_rejects_a_mismatched_field(f7, f101):
    x, y = _xy(f7)
    for order in (TermOrder.drl(2), TermOrder.lex(2)):
        with pytest.raises(DimensionMismatch, match="different rings"):
            buchberger([x, y], order, field=f101)
        with pytest.raises(DimensionMismatch, match="different rings"):
            buchberger([Polynomial.zero(f7, 2)], order, field=f101)
        assert buchberger([x, y], order, field=PrimeField(7)).field.p == 7


def _oracle_systems(field):
    """Inputs for the F4 route against the pair-by-pair loop: dense random
    systems of mixed degrees (with linear equations, and one more equation
    than variables), and the edge cases of the reduced basis."""
    rng = random.Random(field.p)
    shapes = ((2, (1, 3)), (2, (2, 3)), (2, (3, 3)), (2, (2, 2, 2)), (3, (1, 2, 2)),
              (3, (2, 2, 3)), (3, (2, 2, 2, 2)), (4, (2, 2, 2, 2)), (4, (1, 2, 2, 3)),
              (5, (1, 1, 2, 2, 2)), (5, (1, 2, 2, 2, 2)), (5, (2, 2, 2, 2, 2)))
    systems = [[random_polynomial(field, n, d, rng) for d in degrees] for n, degrees in shapes]
    x, y = _xy(field)
    one = Polynomial.constant(field, 2, 1)
    systems.append([x * x - y, one.scale(3), x * y])                 # a nonzero constant
    # zero and duplicate generators, not monic
    systems.append([Polynomial.zero(field, 2), (x * x - y).scale(5), x * x - y,
                    Polynomial.zero(field, 2), (y * y - x).scale(2)])
    systems.append([x * y])                                          # positive-dimensional
    systems.append([(x * y).scale(4), y ** 3 - x])                   # one S-pair, one new element
    systems.append([y * y - x, x ** 3 - x * y * y])                  # a basis, tail not reduced
    for n in range(2, 8):                                            # already reduced
        systems.append(appendix_family(n, field, seed=n))
    # a reduced basis with overlapping leading terms: every S-pair reduces to 0
    systems.append(random_zero_dim_system(field, 3, (2, 2, 2), rng)[1].polys)
    return systems


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_f4_matches_pair_by_pair(p):
    field = PrimeField(p)
    for system in _oracle_systems(field):
        n = system[0].n
        order = TermOrder.drl(n)
        got = buchberger(system, order)
        want = gb_module._buchberger_pairs([f.monic(order) for f in system if not f.is_zero()],
                                           order)
        assert [list(g.terms.items()) for g in got.polys] == \
            [list(g.terms.items()) for g in want]
        assert got.leading_monomials == [g.leading_monomial(order) for g in want]
        assert all(type(c) is int for g in got.polys for c in g.terms.values())


def test_solvers_never_run_the_pair_loop(f101, monkeypatch):
    from polysolve.solver import solve_deterministic, solve_lasvegas

    def refuse(*args):
        raise AssertionError("the pair-by-pair loop ran")

    monkeypatch.setattr(gb_module, "_buchberger_pairs", refuse)
    system, _gb = random_zero_dim_system(f101, 2, (2, 3), random.Random(5))
    assert solve_deterministic(system, random.Random(1)).rep.degree == 6
    assert solve_lasvegas(system, random.Random(2)).rep.degree == 6


def test_lex_routes_never_run_f4(f7, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("F4 ran")

    monkeypatch.setattr(gb_module, "_f4", refuse)
    x, y = _xy(f7)
    rep = lex_oracle([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)], 2)
    assert rep.coeffs == [[0, 0, 1], [5, 0, 0, 1]]
    path = tmp_path / "system.txt"
    path.write_text("p = 7\nvars = x, y\nx - y^2\ny^3 - 2\n")
    assert main(["gb", str(path), "--order", "lex"]) == 0
    assert "y^3 + 5" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="F4 ran"):
        buchberger([x, y], TermOrder.drl(2))


def test_f4_hands_long_sparse_chains_to_the_pair_loop(f7, monkeypatch, tmp_path, capsys):
    """Inputs whose F4 matrix would be a tall chain of two-term rows (up to
    16384 x 16385), or whose first step passes MAX_EXPONENT in degree, give
    the pair loop's basis without any elimination."""
    def refuse(*args):
        raise AssertionError("F4 eliminated")

    monkeypatch.setattr(gb_module, "_row_echelon", refuse)

    def poly(n, terms):
        return Polynomial.from_terms(f7, n, [(Monomial(e), c) for e, c in terms])

    cases = [
        ([poly(1, [((e,), 1), ((0,), 6)]), poly(1, [((4,), 1), ((0,), 6)])],
         [poly(1, [((1,), 1), ((0,), 6)])]) for e in (8001, 65535)]
    cases += [
        ([poly(2, [((40000, 40000), 1), ((0, 0), 1)]), poly(2, [((1, 1), 1), ((0, 0), 6)])],
         [poly(2, [((0, 0), 1)])]),
        # a first step of degree 80000, a 2 x 3 matrix
        ([poly(2, [((40000, 40000), 1), ((0, 0), 1)]), poly(2, [((40000, 39999), 1), ((0, 1), 1)])],
         [poly(2, [((0, 2), 1), ((0, 0), 6)]), poly(2, [((40000, 0), 1), ((0, 0), 1)])]),
        # no S-pair: only the final reduction is a long chain
        ([poly(3, [((2, 0, 0), 1), ((0, 1, 0), 6)]), poly(3, [((0, 0, 40001), 1), ((40000, 0, 0), 1)])],
         [poly(3, [((2, 0, 0), 1), ((0, 1, 0), 6)]), poly(3, [((0, 0, 40001), 1), ((0, 20000, 0), 1)])]),
    ]
    for system, want in cases:
        order = TermOrder.drl(system[0].n)
        assert gb_module._f4(system, order, f7) is None
        assert buchberger(system, order).polys == want
    path = tmp_path / "system.txt"
    path.write_text("p = 7\nvars = x, y\nx^40000*y^40000 + 1\nx*y - 1\n")
    assert main(["gb", str(path)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "1"


def test_f4_hands_large_matrices_to_the_pair_loop(f101, monkeypatch):
    rng = random.Random(3)
    system = [random_polynomial(f101, 3, 2, rng) for _ in range(3)]
    order = TermOrder.drl(3)
    want = buchberger(system, order).polys
    monkeypatch.setattr(gb_module, "_DENSE_LIMIT", 50)
    assert gb_module._f4(system, order, f101) is None
    assert buchberger(system, order).polys == want


def test_lex_oracle_worked_example(f7):
    x, y = _xy(f7)
    rep = lex_oracle([x - y * y, y ** 3 - Polynomial.constant(f7, 2, 2)], 2)
    assert rep.coeffs == [[0, 0, 1], [5, 0, 0, 1]]
    assert rep.degree == 3


def test_shape_rep_from_lex_rejections(f7):
    x, y = _xy(f7)
    # (x^2 - y, y^2 - 1) is zero-dimensional but not in shape position
    gb = buchberger([x * x - y, y * y - Polynomial.constant(f7, 2, 1)], TermOrder.lex(2))
    with pytest.raises(NotShapePosition):
        shape_rep_from_lex(gb)
    with pytest.raises(NotZeroDimensional):
        shape_rep_from_lex(buchberger([x * y], TermOrder.lex(2)))


def test_groebner_from_matrices_matches_buchberger():
    rng = random.Random(14)
    field = PrimeField(101)
    for n, degs in ((2, (2, 2)), (2, (2, 3)), (3, (2, 2, 2))):
        _, gb = random_zero_dim_system(field, n, degs, rng)
        quotient = compute_basis(gb)
        mats, _stats = build_matrices_echelon(quotient, gb)
        rebuilt = groebner_from_matrices([m.matrix.a for m in mats], field, n)
        assert rebuilt.polys == gb.polys


def _assert_same_basis(rebuilt, reference):
    assert rebuilt.polys == reference.polys
    assert rebuilt.leading_monomials == reference.leading_monomials
    assert all(type(c) is int for g in rebuilt.polys for c in g.terms.values())
    # the rebuild's rows, handed over, equal the rows walked from Buchberger's
    q_rebuilt, q_reference = compute_basis(rebuilt), compute_basis(reference)
    assert q_rebuilt.basis == q_reference.basis
    assert np.array_equal(q_rebuilt.lead_exps, q_reference.lead_exps)
    assert np.array_equal(q_rebuilt.tails, q_reference.tails)
    # each poly is its leading monomial, then its tail in ascending basis order
    index = {m: i for i, m in enumerate(q_reference.basis)}
    for lm, g in zip(rebuilt.leading_monomials, rebuilt.polys):
        terms = list(g.terms)
        assert terms[0] == lm
        assert [index[m] for m in terms[1:]] == sorted(index[m] for m in terms[1:])


# p = 65521 keeps every product on the single float64 GEMM; at 2^31 - 1 the
# products cut one operand into digits and the matrix combination reduces
# after every two terms
@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_transformed_rebuild_matches_buchberger(p, n):
    field = PrimeField(p)
    F = appendix_family(n, field, seed=n)
    g = field.random_nonsingular_matrix(n, random.Random(p + n))
    order = TermOrder.drl(n)
    gb0 = buchberger(F, order)
    quotient = compute_basis(gb0)
    mats, _stats = build_matrices_echelon(quotient, gb0)
    rebuilt = _transformed_gb_from_matrices(gb0, quotient, [m.matrix.a for m in mats],
                                            g, SolveConfig())
    reference = buchberger([apply_change_of_variables(f, g) for f in F], order)
    _assert_same_basis(rebuilt, reference)


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
def test_table_route_matches_gathered_matrices(p):
    # the solver forms the transformed matrices from the normal-form table,
    # with unit rows for basis targets; fed the gathered matrices, whose
    # every row is a table row, the same rebuild must give the same basis
    field = PrimeField(p)
    rng = random.Random(p)
    bases = [buchberger(appendix_family(n, field, seed=n), TermOrder.drl(n)) for n in range(2, 8)]
    bases += [random_zero_dim_system(field, n, degs, rng)[1]
              for n, degs in ((2, (2, 3)), (3, (2, 2, 5)))]
    dims = []
    for gb0 in bases:
        n = gb0.n
        quotient = compute_basis(gb0)
        frontier = compute_frontier(quotient, gb0)
        mats, _ = build_matrices_echelon(quotient, gb0, frontier)
        g = field.random_nonsingular_matrix(n, rng)
        got = _transformed_gb(normal_form_table(quotient, frontier), frontier.targets, g, field, n)
        want = _transformed_gb_from_matrices(gb0, quotient, [m.matrix.a for m in mats],
                                             g, SolveConfig())
        assert got.standard == want.standard
        assert got.leading_monomials == want.leading_monomials
        assert got.tails.dtype == want.tails.dtype and np.array_equal(got.tails, want.tails)
        dims.append(quotient.dimension)
    # one quotient fits in a single band, one ends in a partial band
    assert dims[-2] < _BAND and dims[-1] > _BAND and dims[-1] % _BAND


def _pure_power_system(field, n, degrees, rng):
    """x_i^d_i plus a random coefficient on every monomial below it in DRL:
    dense, and already a Groebner basis (coprime leading terms)."""
    order = TermOrder.drl(n)
    system = []
    for i, d in enumerate(degrees):
        lead = Monomial(tuple(d if j == i else 0 for j in range(n)))
        tail = [(m, rng.randrange(field.p)) for m in monomials_up_to(n, d)
                if order.greater(lead, m)]
        system.append(Polynomial.from_terms(field, n, [(lead, 1)] + tail))
    return system


def _interleaves(gb, standard) -> bool:
    """Some leading monomial lies strictly between two standard monomials
    of its own degree."""
    for lm in gb.leading_monomials:
        same = [s for s in standard if s.deg == lm.deg]
        if (any(gb.order.greater(lm, s) for s in same)
                and any(gb.order.greater(s, lm) for s in same)):
            return True
    return False


@pytest.mark.parametrize("p", [65521, 2 ** 31 - 1])
def test_rebuild_interleaved_degree_blocks(p):
    # generic coordinates put the standard monomials of each degree below
    # its leading monomials; pure-power leading terms do not
    rng = random.Random(p)
    field = PrimeField(p)
    for degrees in ((3, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 3)):
        n = len(degrees)
        gb = buchberger(_pure_power_system(field, n, degrees, rng), TermOrder.drl(n))
        quotient = compute_basis(gb)
        assert _interleaves(gb, quotient.basis)
        mats, _stats = build_matrices_echelon(quotient, gb)
        rebuilt = groebner_from_matrices([m.matrix.a for m in mats], field, n)
        _assert_same_basis(rebuilt, gb)


@pytest.mark.parametrize("p", [101, 2 ** 31 - 1])
def test_eliminate_block_identities(p):
    # independent rows, rows dependent on earlier ones, and a chunk whose
    # rows are all dependent, where the unit-triangular solve has size 0
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (3, 8))
    mixed = np.vstack([a[:2], (5 * a[0] + a[1]) % p, a[2], np.zeros(8, dtype=np.int64), a[1]])
    for w, rank in ((mixed, 3), (np.zeros((3, 8), dtype=np.int64), 0)):
        new, dep, echelon, pcols, gmat = _eliminate_block(w, p)
        assert len(new) == rank and sorted(new + dep) == list(range(len(w)))
        kept = w[new].astype(object)
        assert np.array_equal(echelon, gmat.astype(object).dot(kept) % p)
        assert np.array_equal(echelon[:, pcols], np.eye(rank, dtype=np.int64))


def _blocks(c: int, p: int, rng):
    """Blocks of height c: full rank, rank-deficient, every third row zero,
    all dependent (zero, and without columns), and rows whose pivot lies
    far right, past any window of the first few nonzero columns."""
    f = c + 5
    full = rng.integers(0, p, (c, f))
    r = max(c // 3, 1)
    deficient = rng.integers(0, p, (c, r)).astype(object).dot(rng.integers(0, p, (r, f))) % p
    zero_rows = full.copy()
    zero_rows[::3] = 0
    late = np.repeat(rng.integers(0, p, (1, 4 * f)), c, axis=0)
    late[1:, -1] = rng.integers(1, p, c - 1)  # row i > 0: row 0 with another last entry
    late[c // 2:] = rng.integers(0, p, (c - c // 2, 1)) * late[c // 2:] % p
    return [full, deficient.astype(np.int64), zero_rows, np.zeros((c, f), dtype=np.int64),
            np.zeros((c, 0), dtype=np.int64), late]


@pytest.mark.parametrize("p", [101, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("c", [1, _ELIM_LEAF - 1, _ELIM_LEAF, _ELIM_LEAF + 1,
                               63, 64, 65, 128, 129, 200])
def test_eliminate_block_matches_row_by_row(p, c):
    rng = np.random.default_rng(c * p)
    for w in _blocks(c, p, rng):
        before = w.tobytes()
        got = _eliminate_block(w, p)
        want = eliminate_block_by_rows(w, p)
        assert w.tobytes() == before
        assert got[0] == want[0] and got[1] == want[1] and list(got[3]) == want[3]
        for g, e in zip(got[2:], want[2:]):
            assert np.array_equal(g, e) and np.shape(g) == np.shape(e)


def test_rebuild_leaves_its_inputs_unchanged():
    p = 65521
    field = PrimeField(p)
    n = 4
    gb0 = buchberger(appendix_family(n, field), TermOrder.drl(n))
    quotient = compute_basis(gb0)
    mats, _stats = build_matrices_echelon(quotient, gb0)
    arrays = [m.matrix.a for m in mats]
    g = field.random_nonsingular_matrix(n, random.Random(3))
    before = [a.tobytes() for a in arrays] + [g.a.tobytes()]
    groebner_from_matrices([m.matrix.a for m in mats], field, n)
    _transformed_gb_from_matrices(gb0, quotient, arrays, g, SolveConfig())
    assert [a.tobytes() for a in arrays] + [g.a.tobytes()] == before


def test_groebner_from_matrices_rejects_bad_input():
    field = PrimeField(65521)
    n = 3
    gb = buchberger(appendix_family(n, field), TermOrder.drl(n))
    quotient = compute_basis(gb)
    mats, _stats = build_matrices_echelon(quotient, gb)
    with pytest.raises(ValueError):
        groebner_from_matrices([], field, n)
    # one extra coordinate that no monomial ever reaches: the matrices span
    # a D-dimensional quotient inside a (D+1)-dimensional space
    dim = quotient.dimension
    padded = []
    for m in mats:
        a = np.zeros((dim + 1, dim + 1), dtype=np.int64)
        a[:dim, :dim] = m.matrix.a
        padded.append(a)
    with pytest.raises(NotZeroDimensional):
        groebner_from_matrices(padded, field, n)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_disguised_generators_reproduce_the_basis(seed):
    # scrambling a generating set with invertible operations never changes
    # the reduced basis
    rng = random.Random(seed)
    field = PrimeField(101)
    system, rep = shape_instance(field, 2, rng.randrange(2, 7), rng)
    gb = buchberger(system, TermOrder.drl(2))
    gb2 = buchberger(shape_system(rep), TermOrder.drl(2))
    assert gb.polys == gb2.polys
