"""Shared fixtures: the reference fields and seeded random element factories."""

import math
import random
from fractions import Fraction

import pytest

from fieldlab import NumberField, UPoly, make_field, parse_poly, poly_eval

# Defining polynomials exercised throughout the suite.  Degrees 2..4 cover
# quadratic, non-Galois cubic, and three flavors of quartic Galois group
# (Klein four twice, cyclic once).
REFERENCE_POLYS = [
    "x^2+1",
    "x^2-2",
    "x^3-2",
    "x^3-x-1",
    "x^4-10*x^2+1",
    "x^4+x^3+x^2+x+1",
    "x^4+1",
]

GALOIS_POLYS = ["x^2+1", "x^2-2", "x^4-10*x^2+1", "x^4+x^3+x^2+x+1", "x^4+1"]


def field(text: str) -> NumberField:
    return make_field(parse_poly(text))


def shifted(text: str, k: int) -> NumberField:
    """The field of f(x + k)."""
    return make_field(poly_eval(parse_poly(text), UPoly([k, 1])))


def euler_bounds(E: NumberField) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of f, and the bounds n*B*C(n-1, i)*B^(n-1-i)
    on coefficient i of F'(theta')*sigma(theta') in powers of theta' = D*theta,
    where F = D^n f(y/D) is monic integral and B = 1 + max |F_j|."""
    f, n = E.minpoly, E.degree
    D = math.lcm(*(c.denominator for c in f.coeffs))
    B = 1 + max(abs(c) * D ** (n - i) for i, c in enumerate(f.coeffs))
    return D, [n * B * math.comb(n - 1, i) * B ** (n - 1 - i) for i in range(n)]


def check_euler_coordinates(E: NumberField, automorphisms) -> None:
    """Each D^n*f'(theta)*sigma(theta) = F'(theta')*sigma(theta') has integer
    coordinates in the basis 1, theta', ..., theta'^(n-1), each within its bound."""
    D, bounds = euler_bounds(E)
    fprime = E.reduce_poly(E.minpoly.derivative()) * D ** E.degree
    for s in automorphisms:
        coords = [c / D ** i for i, c in enumerate((fprime * s.r).coeffs)]
        assert all(c.denominator == 1 for c in coords), (E, s, coords)
        assert all(abs(c) <= b for c, b in zip(coords, bounds)), (E, s, coords)


@pytest.fixture(scope="session")
def reference_fields():
    return [field(t) for t in REFERENCE_POLYS]


@pytest.fixture(scope="session")
def galois_fields():
    return [field(t) for t in GALOIS_POLYS]


@pytest.fixture
def qi():
    return field("x^2+1")


def random_rational(rng: random.Random, span: int = 20) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_elem(E: NumberField, rng: random.Random, span: int = 20):
    return E.element([random_rational(rng, span) for _ in range(E.degree)])


def random_nonzero_elem(E: NumberField, rng: random.Random, span: int = 20):
    while True:
        a = random_elem(E, rng, span)
        if not a.is_zero:
            return a


def random_upoly(rng: random.Random, max_deg: int = 6, span: int = 9) -> UPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [random_rational(rng, span) for _ in range(deg + 1)]
    return UPoly(coeffs)
