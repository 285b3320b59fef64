import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import div_var, monomials_up_to, mul_var, normal_form, random_polynomial
from polysolve.change_order import _eval_points
from polysolve.field import PrimeField
from polysolve.linalg import Matrix, mat_mul
from polysolve.poly import (Monomial, Polynomial, TermOrder, apply_change_of_variables,
                            s_polynomial, to_string)
from polysolve.sysfile import parse_system


def M(*exps):
    return Monomial(exps)


def test_monomial_basics():
    m = M(2, 1)
    assert m.deg == 3
    assert not m.is_one() and M(0, 0).is_one()
    assert Monomial.one(2) == M(0, 0)
    assert Monomial.variable(3, 1) == M(0, 1, 0)
    assert m * M(1, 1) == M(3, 2)
    assert mul_var(m, 1) == M(2, 2)
    assert div_var(m, 0) == M(1, 1)
    assert M(1, 0).divides(m) and not M(3, 0).divides(m)
    assert m.divided_by(M(1, 1)) == M(1, 0)
    assert M(2, 0).lcm(M(1, 1)) == M(2, 1)
    assert M(2, 0).is_coprime_with(M(0, 3))
    assert not M(1, 1).is_coprime_with(M(0, 3))
    assert list(m.support()) == [0, 1]


def test_drl_order_facts():
    drl = TermOrder.drl(2)
    x2, xy, y2 = M(2, 0), M(1, 1), M(0, 2)
    # within a degree the power of the LAST variable decides, reversed:
    # fewer powers of y wins, so x^2 > xy > y^2
    assert drl.greater(x2, xy) and drl.greater(xy, y2)
    assert drl.greater(x2, M(0, 3)) is False  # total degree dominates
    assert max([y2, xy, x2], key=drl.key) == x2
    assert sorted([x2, y2, xy], key=drl.key) == [y2, xy, x2]
    assert sorted([x2, y2, xy], key=drl.key, reverse=True) == [x2, xy, y2]
    drl3 = TermOrder.drl(3)
    # x1^2 is the largest and x3^2 the smallest degree-2 monomial
    deg2 = [m for m in monomials_up_to(3, 2) if m.deg == 2]
    assert max(deg2, key=drl3.key) == M(2, 0, 0)
    assert sorted(deg2, key=drl3.key)[0] == M(0, 0, 2)


def test_lex_order_facts():
    lex = TermOrder.lex(2)
    assert lex.greater(M(1, 0), M(0, 5))  # any x beats any pure power of y
    assert lex.greater(M(1, 1), M(1, 0)) and lex.greater(M(2, 0), M(1, 9))
    assert not lex.greater(M(1, 2), M(1, 2))


def test_order_equality():
    assert TermOrder.drl(2) == TermOrder.drl(2)
    assert TermOrder.drl(2) != TermOrder.lex(2)
    assert TermOrder.drl(2) != TermOrder.drl(3)


def test_polynomial_constructors(f7):
    x = Polynomial.variable(f7, 2, 0)
    y = Polynomial.variable(f7, 2, 1)
    f = x * x + y.scale(3) + Polynomial.constant(f7, 2, 9)
    assert f.terms == {M(2, 0): 1, M(0, 1): 3, M(0, 0): 2}
    assert f.total_degree() == 2
    assert Polynomial.zero(f7, 2).is_zero()
    assert Polynomial.from_terms(f7, 2, [(M(1, 0), 7)]).is_zero()  # 7 == 0 mod 7
    g = Polynomial.univariate(f7, 2, 1, [5, 0, 1])  # y^2 + 5
    assert g.terms == {M(0, 2): 1, M(0, 0): 5}
    assert g.is_univariate_in(1) and not g.is_univariate_in(0)
    assert g.univariate_coeffs(1) == [5, 0, 1]


def test_polynomial_arithmetic(f7):
    x = Polynomial.variable(f7, 2, 0)
    y = Polynomial.variable(f7, 2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y  # cross terms cancel
    assert (x + y) ** 2 == x * x + x * y.scale(2) + y * y
    assert (f - f).is_zero()
    assert (-f) + f == Polynomial.zero(f7, 2)
    assert f.mul_term(M(1, 0), 2) == (x * x * x - x * y * y).scale(2)
    assert _eval_points(f, np.array([[3], [2]]), 7).tolist() == [(9 - 4) % 7]


def test_leading_terms(f7):
    drl = TermOrder.drl(2)
    f = Polynomial.from_terms(f7, 2, [(M(0, 2), 1), (M(1, 1), 5), (M(0, 0), 2)])
    assert f.leading_monomial(drl) == M(1, 1)  # xy > y^2 under DRL
    assert f.leading_coefficient(drl) == 5
    monic = f.monic(drl)
    assert monic.leading_coefficient(drl) == 1
    assert monic.scale(5) == f


def test_normal_form_worked_example(f7):
    drl = TermOrder.drl(2)
    x = Polynomial.variable(f7, 2, 0)
    y = Polynomial.variable(f7, 2, 1)
    basis = [x * x - y]
    # x^3 = x (x^2 - y) + xy
    assert normal_form(x ** 3, basis, drl) == x * y
    assert normal_form(x * x, basis, drl) == y
    assert normal_form(y ** 5, basis, drl) == y ** 5
    assert normal_form(Polynomial.zero(f7, 2), basis, drl).is_zero()


def test_s_polynomial(f7):
    drl = TermOrder.drl(2)
    x = Polynomial.variable(f7, 2, 0)
    y = Polynomial.variable(f7, 2, 1)
    f = x * x - y
    g = x * y - x
    # lcm = x^2 y: S = y f - x g = x^2 - y^2
    assert s_polynomial(f, g, drl) == x * x - y * y


def test_apply_change_of_variables(f101):
    x = Polynomial.variable(f101, 2, 0)
    y = Polynomial.variable(f101, 2, 1)
    f = x * x + x * y.scale(3) + y.scale(7)
    g = Matrix.from_rows(f101, [[1, 2], [3, 4]])
    fg = apply_change_of_variables(f, g)
    # direct expansion: x -> x + 2y, y -> 3x + 4y
    xi = x + y.scale(2)
    eta = x.scale(3) + y.scale(4)
    assert fg == xi * xi + xi * eta.scale(3) + eta.scale(7)
    # composing transforms composes the substitution
    h = Matrix.from_rows(f101, [[0, 1], [1, 1]])
    assert apply_change_of_variables(fg, h) == apply_change_of_variables(f, mat_mul(g, h))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_apply_change_commutes_with_evaluation(seed):
    rng = random.Random(seed)
    field = PrimeField(101)
    f = random_polynomial(field, 2, rng.randrange(1, 4), rng)
    g = field.random_nonsingular_matrix(2, rng)
    v = Matrix.from_rows(field, [[c] for c in field.random_vector(2, rng)])
    assert np.array_equal(_eval_points(apply_change_of_variables(f, g), v.a, 101),
                          _eval_points(f, mat_mul(g, v).a, 101))


def test_to_string_drl_descending(f7):
    f = Polynomial.from_terms(f7, 2, [(M(0, 2), 6), (M(1, 0), 1)])
    assert to_string(f, ["x", "y"]) == "6*y^2 + x"
    g = Polynomial.from_terms(f7, 2, [(M(1, 1), 5), (M(0, 2), 1), (M(0, 0), 3)])
    assert to_string(g, ["x", "y"]) == "5*x*y + y^2 + 3"
    assert to_string(Polynomial.zero(f7, 2), ["x", "y"]) == "0"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_to_string_round_trips_through_parser(seed):
    rng = random.Random(seed)
    field = PrimeField(101)
    f = random_polynomial(field, 2, rng.randrange(1, 4), rng)
    text = f"p = 101\nvars = x, y\n{to_string(f, ['x', 'y'])}\n"
    parsed = parse_system(text)
    assert parsed.polys == [f]
