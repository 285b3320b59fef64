import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_polynomial
from polysolve.errors import NonPrimeModulus, ParseError, UnknownVariable
from polysolve.field import PrimeField
from polysolve.poly import Monomial, Polynomial
from polysolve.sysfile import format_system, parse_system


GOOD = """p = 7
vars = x, y

x - y^2
y^3 - 2
"""


def test_parse_worked_example():
    parsed = parse_system(GOOD)
    assert parsed.field.p == 7
    assert parsed.varnames == ["x", "y"]
    assert parsed.n == 2
    x = Polynomial.variable(parsed.field, 2, 0)
    y = Polynomial.variable(parsed.field, 2, 1)
    assert parsed.polys == [x - y * y,
                            y ** 3 - Polynomial.constant(parsed.field, 2, 2)]


def test_operator_precedence_and_parens():
    parsed = parse_system("p = 101\nvars = x, y\nx + y*x^2\n(x + y)*x^2\n")
    x = Polynomial.variable(parsed.field, 2, 0)
    y = Polynomial.variable(parsed.field, 2, 1)
    assert parsed.polys[0] == x + y * x * x      # ^ binds over *, * over +
    assert parsed.polys[1] == (x + y) * x * x


def test_unary_minus_and_constants():
    parsed = parse_system("p = 7\nvars = x\n-x + 10\n-3\n")
    x = Polynomial.variable(parsed.field, 1, 0)
    assert parsed.polys[0] == -x + Polynomial.constant(parsed.field, 1, 3)
    assert parsed.polys[1] == Polynomial.constant(parsed.field, 1, 4)


def test_coefficients_reduce_mod_p():
    parsed = parse_system("p = 7\nvars = x\n14*x + 8\n")
    assert parsed.polys[0].terms == {Monomial((0,)): 1}


def test_double_operator_is_an_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_system("p = 7\nvars = x, y\nx + + y\n")
    assert "column 5" in str(err.value)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x\n2x\n")
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x, y\nx y\n")


def test_exponent_cap():
    parse_system("p = 7\nvars = x\nx^65535\n")   # largest allowed
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x\nx^65536\n")


def test_unknown_variable_reported():
    with pytest.raises(UnknownVariable) as err:
        parse_system("p = 7\nvars = x, y\nx + z\n")
    assert "z" in str(err.value)


def test_header_validation():
    with pytest.raises(NonPrimeModulus):
        parse_system("p = 6\nvars = x\nx\n")
    with pytest.raises(ParseError):
        parse_system("vars = x\nx\n")             # missing modulus line
    with pytest.raises(ParseError):
        parse_system("p = 7\nx\n")                # missing vars line
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x, x\nx\n")   # duplicate variable
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x, 2y\nx\n")  # not an identifier
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x\n")         # no polynomials


def test_stray_character():
    with pytest.raises(ParseError):
        parse_system("p = 7\nvars = x\nx % 2\n")


@pytest.mark.parametrize("text, line, col", [
    ("p = 7\u00b2\nvars = x\nx\n", 1, 1),
    ("p = 7\nvars = x\nx^\u00b2\n", 3, 3),
    ("p = 7\nvars = x\n2\u00b2*x\n", 3, 2),
], ids=["modulus", "exponent", "coefficient"])
def test_unicode_digits_are_parse_errors(text, line, col):
    # superscripts pass str.isdigit() but int() rejects them
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert f"line {line}, column {col}" in str(err.value)


def test_format_round_trip():
    parsed = parse_system(GOOD)
    text = format_system(parsed)
    again = parse_system(text)
    assert again.field.p == parsed.field.p
    assert again.varnames == parsed.varnames
    assert again.polys == parsed.polys


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_random_systems_round_trip(seed):
    rng = random.Random(seed)
    field = PrimeField(101)
    from polysolve.sysfile import ParsedSystem

    polys = [random_polynomial(field, 3, rng.randrange(1, 4), rng)
             for _ in range(rng.randrange(1, 4))]
    parsed = ParsedSystem(field, ["a", "b", "c"], polys)
    assert parse_system(format_system(parsed)).polys == polys
