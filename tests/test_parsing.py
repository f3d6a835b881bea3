"""Polynomial expression grammar and canonical printing."""

import random
from fractions import Fraction

import pytest

from fieldlab import (
    EmptyInput,
    PolySyntaxError,
    UPoly,
    format_elem,
    format_poly,
    parse_poly,
)
from fieldlab.parsing import MAX_DEGREE, MAX_POWER_BITS, _size
from conftest import random_upoly


def coeffs(text):
    return [c for c in parse_poly(text).coeffs]


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_reads_standard_form():
    assert coeffs("x^4 - 10*x^2 + 1") == [1, 0, -10, 0, 1]


def test_expands_products():
    assert parse_poly("(x+1)*(x-1)") == parse_poly("x^2-1")
    assert parse_poly("(x+1)*(x+1)*(x+1)") == parse_poly("x^3+3*x^2+3*x+1")


def test_powers_of_parenthesized_expressions():
    assert parse_poly("(x+1)^2") == parse_poly("x^2+2*x+1")
    assert parse_poly("2*(x+1)^3") == parse_poly("2*x^3+6*x^2+6*x+2")
    assert parse_poly("-(x-1)^2") == parse_poly("-x^2+2*x-1")
    assert parse_poly("(x^2+1)^2*(x-1)") == parse_poly("x^5-x^4+2*x^3-2*x^2+x-1")
    assert coeffs("(3/7)^2") == [Fraction(9, 49)]
    assert coeffs("(x+1)^0") == [1]
    assert coeffs("(x+1)^1") == [1, 1]


def test_rational_literals():
    assert coeffs("3/5 + 4/5*x") == [Fraction(3, 5), Fraction(4, 5)]
    assert coeffs("1/2*x") == [0, Fraction(1, 2)]


def test_unary_minus():
    assert coeffs("-x") == [0, -1]
    assert coeffs("--x") == [0, 1]
    assert coeffs("2-(-3)") == [5]


def test_implicit_whitespace():
    assert parse_poly("  x ^ 2 + 1 ") == parse_poly("x^2+1")


def test_syntax_error_position():
    with pytest.raises(PolySyntaxError) as e:
        parse_poly("x^^2")
    assert e.value.position == 2


def test_syntax_errors():
    # division applies only to rational literals, '^' only to x and to a
    # parenthesized expression, once, with an unsigned exponent
    for bad in ["x^", "(x+1", "x+", "*x", "x x", "1//2", "x^-2",
                "x/2", "(x+1)^", "(x+1)^-2", "(x+1)^2^2", "(x+1)/(x-1)"]:
        with pytest.raises(PolySyntaxError):
            parse_poly(bad)


def test_bad_character_position():
    with pytest.raises(PolySyntaxError) as e:
        parse_poly("x^2 + y")
    assert e.value.position == 6


def test_empty_input():
    with pytest.raises(EmptyInput):
        parse_poly("")
    with pytest.raises(EmptyInput):
        parse_poly("   ")


def test_degree_cap_at_parse_time():
    assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE == 64
    assert parse_poly("x^32*x^32").degree == 64
    assert parse_poly("(x^2+1)^32").degree == 64
    # the error points at the exponent, or at the '*' of the product; a
    # power of a parenthesized expression is checked at its exponent before
    # anything is expanded: the exponent itself, then the degree
    for bad, at in [("x^65", 2), ("x^100000000+1", 2), ("x^40*x^30", 4),
                    ("2*(x^40+1)*(x^30-x)", 10), ("(3/7)^1000000", 6),
                    ("(x^2+1)^33", 8), ("2*(x+1)^65", 8)]:
        with pytest.raises(PolySyntaxError) as e:
            parse_poly(bad)
        assert e.value.position == at


def test_power_size_budget_at_parse_time():
    assert MAX_POWER_BITS == 8192
    # degree 0 passes every degree check, so nested powers of a constant
    # would multiply their exponents; the budget stops them at the exponent
    # whose charge passes it, before anything is expanded
    for bad, at in [("((3/7)^64)^64", 11), ("((((3/7)^64)^64)^64)^64", 13),
                    ("(((((3/7)^64)^64)^64)^64)^64", 14),
                    ("*".join(["((3/7)^64)^2"] * 200), 115),
                    ("(" + "9" * 40 + "*x+1)^64", 47)]:
        with pytest.raises(PolySyntaxError) as e:
            parse_poly(bad)
        assert e.value.position == at
    # the charges: 384 for (3/7)^64 (size 5, degree 0), 64*(282+1) after it
    assert _size(parse_poly("(3/7)^64")) == 282
    assert parse_poly("((3/7)^64)^27") == UPoly([Fraction(3, 7) ** 1728])
    assert parse_poly("(1/1000*x+1)^64").degree == 64
    # x^e is not charged, so power-free input is bounded by its length only
    assert parse_poly("+".join(["x^64"] * 200)) == UPoly.monomial(64, 200)


def test_size_bounds_powers():
    # size(p^e) <= e * (size(p) + bits(deg p + 1)), the charge of p^e
    rng = random.Random(73)
    for _ in range(200):
        p = random_upoly(rng, max_deg=4, span=30)
        e = rng.randint(0, 6)
        charge = e * (_size(p) + (p.degree + 1).bit_length())
        assert _size(p ** e) <= max(charge, 2)


def test_zero_denominator():
    with pytest.raises(PolySyntaxError) as e:
        parse_poly("1/0")
    assert e.value.position == 2


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_format_poly_canonical():
    assert format_poly(parse_poly("x^4-10*x^2+1")) == "x^4 - 10*x^2 + 1"
    assert format_poly(parse_poly("-x+1")) == "-x + 1"
    assert format_poly(UPoly([])) == "0"
    assert format_poly(UPoly([Fraction(1, 2)])) == "1/2"
    assert format_poly(parse_poly("x")) == "x"


def test_format_elem():
    assert format_elem([Fraction(3, 5), Fraction(4, 5)]) == "3/5 + 4/5*θ"
    assert format_elem([0, -1]) == "-θ"
    assert format_elem([0, 0]) == "0"
    assert format_elem([Fraction(1), Fraction(0), Fraction(-2)]) == "1 - 2*θ^2"


def test_round_trip_200():
    rng = random.Random(71)
    for _ in range(200):
        p = random_upoly(rng, max_deg=7, span=30)
        assert parse_poly(format_poly(p)) == p
