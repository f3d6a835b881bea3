"""sympy as an independent oracle for the modular tests of f: irreducibility
mod p, the smallest split prime and the irreducibility certificate; for the
factors make_field finds in products; and for the automorphism group, from
the linear factors of f over E."""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fieldlab import (  # noqa: E402
    AssumedIrreducible,
    CertifiedModP,
    CertifiedSplitPrime,
    ModPoly,
    UPoly,
    ZeroDivisor,
    automorphisms,
    automorphisms_with_diagnostics,
    make_field,
    parse_poly,
    poly_eval,
)
from fieldlab.polynomials import primes_from  # noqa: E402
from conftest import REFERENCE_POLYS, check_euler_coordinates, mod_is_irreducible  # noqa: E402

X = sympy.Symbol("x")

# the defining polynomials of the benchmark workloads (perfbench/workloads.py)
LADDER_POLYS = [
    "x^2+1", "x^4-10*x^2+1", "x^4+x^3+x^2+x+1", "x^4+1",
    "x^6+x^5+x^4+x^3+x^2+x+1", "x^6-2", "x^6+x^3+1", "x^8+1", "x^7-2",
    "x^7-x-1", "x^3-2", "x^5-2", "x^8-2", "x^3-x-1",
]
# each field as written and shifted by x -> x+1, as the benchmark sends it
FIELD_POLYS = sorted(
    {poly_eval(parse_poly(t), UPoly([k, 1]))
     for t in REFERENCE_POLYS + LADDER_POLYS for k in (0, 1)},
    key=lambda f: f.coeffs,
)
SPLIT_BOUND = 1000  # above every split prime here; x^7-x-1 has none below it


def sympy_irreducible(coeffs, p) -> bool:
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p).is_irreducible


def int_coeffs(f: UPoly) -> list[int]:
    # every polynomial here is monic with integer coefficients
    return [int(c) for c in f.coeffs]


def random_mod_polys(rng: random.Random):
    # (p, coefficients low degree first, leading coefficient a unit mod p)
    for p in (2, 3, 5, 7, 11, 101):
        for degree in range(1, 9):
            for _ in range(4):
                lead = rng.randrange(1, p)
                yield p, [rng.randrange(p) for _ in range(degree)] + [lead]
        # squares and products of two factors, so repeated factors occur
        for _ in range(12):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            h = g if rng.random() < 0.5 else (
                [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1])
            yield p, list((ModPoly(p, g) * ModPoly(p, h)).coeffs)


def test_mod_irreducibility_matches_sympy():
    cases = list(random_mod_polys(random.Random(4)))
    # x^4+1 = (x^2+x+2)(x^2+2x+2) mod 3 has no root: only the last Ben-Or
    # step, i = n/2, sees its factors
    cases.append((3, [1, 0, 0, 0, 1]))
    assert len(cases) > 250
    verdicts = set()
    for p, coeffs in cases:
        ours = mod_is_irreducible(ModPoly(p, coeffs))
        assert ours == sympy_irreducible(coeffs, p), (p, coeffs)
        verdicts.add(ours)
    assert verdicts == {True, False}


def brute_force_split_prime(f: UPoly, bound: int):
    # the smallest prime p <= bound at which f has deg f distinct roots,
    # found by evaluating f at every residue
    cs = int_coeffs(f)
    for p in primes_from(2):
        if p > bound:
            return None
        roots = tuple(t for t in range(p)
                      if sum(c * pow(t, i, p) for i, c in enumerate(cs)) % p == 0)
        if len(roots) == f.degree:
            return p, roots


@pytest.mark.parametrize("f", FIELD_POLYS, ids=str)
def test_split_prime_matches_brute_force(f):
    # the walk stops at the least split prime, unless a prime with one root
    # before it has proved Aut = {id}
    expected = brute_force_split_prime(f, SPLIT_BOUND)
    E = make_field(f)
    data = automorphisms_with_diagnostics(E, prime_bound=SPLIT_BOUND)[1]
    if len(data.lifted_roots) == E.degree:
        assert (data.p, tuple(m % data.p for m in data.lifted_roots)) == expected
    else:
        assert expected is None or data.p < expected[0]


def sympy_splits(coeffs, p) -> bool:
    # n distinct linear factors mod p
    factors = sympy.Poly(list(reversed(coeffs)), X, modulus=p).factor_list()[1]
    n = len(coeffs) - 1
    return len(factors) == n and all(g.degree() == 1 and e == 1 for g, e in factors)


def expected_certificate(cs: list[int]):
    # the first prime <= 200 at which f is irreducible, or split with n <= 8
    for p in primes_from(2):
        if p > 200:
            return AssumedIrreducible
        if sympy_irreducible(cs, p):
            return CertifiedModP, p
        if len(cs) - 1 <= 8 and sympy_splits(cs, p):
            return CertifiedSplitPrime, p


@pytest.mark.parametrize("f", FIELD_POLYS, ids=str)
def test_certificate_prime_matches_sympy(f):
    expected = expected_certificate(int_coeffs(f))
    certificate = make_field(f).certificate
    if expected is AssumedIrreducible:
        assert certificate == AssumedIrreducible()
    else:
        assert (type(certificate), certificate.prime) == expected


def mignotte_bound(f: UPoly) -> int:
    # the largest C(n/2, i) (isqrt(||F||_2^2) + 1) for F = D^n f(y/D)
    n = f.degree
    D = math.lcm(*(c.denominator for c in f.coeffs))
    F = [c * D ** (n - i) for i, c in enumerate(f.coeffs)]
    norm = math.isqrt(sum(int(c) ** 2 for c in F)) + 1
    return max(math.comb(n // 2, i) * norm for i in range(n // 2 + 1))


def random_irreducible(rng: random.Random, degree: int) -> UPoly:
    # monic, coefficients in -3..3, irreducible over Q
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [1]
        if sympy.Poly(list(reversed(coeffs)), X).is_irreducible:
            return UPoly(coeffs)


def random_products(rng: random.Random, count: int) -> list[tuple[UPoly, UPoly]]:
    # (g, h): distinct factors of degree >= 2 with deg g + deg h in 4..8
    out = []
    while len(out) < count:
        total = rng.randint(4, 8)
        d = rng.randint(2, total - 2)
        g, h = random_irreducible(rng, d), random_irreducible(rng, total - d)
        if g != h:
            out.append((g, h))
    return out


def test_products_are_never_certified():
    caught = 0
    for g, h in random_products(random.Random(11), 100):
        f = g * h
        try:
            certificate = make_field(f).certificate
        except ZeroDivisor as e:
            assert 1 <= e.factor.degree < f.degree and not f % e.factor, (f, e.factor)
            caught += 1
            continue
        assert certificate == AssumedIrreducible(), (g, h, certificate)
    assert caught >= 58


def random_irreducible_polys(rng: random.Random, count: int) -> list[UPoly]:
    # monic, degree 3 to 6, coefficients in -3..3, irreducible over Q
    out: set[UPoly] = set()
    while len(out) < count:
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(3, 6))] + [1]
        if sympy.Poly(list(reversed(coeffs)), X).is_irreducible:
            out.add(UPoly(coeffs))
    return sorted(out, key=lambda f: f.coeffs)


AUT_POLYS = ([f for f in FIELD_POLYS if f.degree <= 6]
             + random_irreducible_polys(random.Random(7), 30))


def sympy_automorphisms(f: UPoly) -> set[tuple]:
    # the roots of f in K = Q(theta), theta = CRootOf(f, 0): the linear
    # factors of f over K, each root as its coefficients in theta
    g = sympy.Poly(list(reversed(int_coeffs(f))), X)
    K = sympy.QQ.algebraic_field(sympy.AlgebraicNumber(sympy.CRootOf(g, 0)))
    assert [int(c) for c in K.mod.to_list()] == g.all_coeffs()
    images = set()
    for factor, _ in sympy.Poly(g, X, domain=K).factor_list()[1]:
        if factor.degree() == 1:
            lead, const = factor.rep.to_list()
            root = (-const / lead).to_list()[::-1]
            root += [0] * (f.degree - len(root))
            images.add(tuple(Fraction(int(c.numerator), int(c.denominator)) for c in root))
    return images


@pytest.mark.parametrize("f", AUT_POLYS, ids=str)
def test_automorphisms_match_sympy(f):
    ours = {tuple(a.r.coeffs) for a in automorphisms(make_field(f))}
    assert ours == sympy_automorphisms(f)


def test_split_certificate_precision_exceeds_twice_the_bound():
    # the least k with p^k > 2 * bound, on every irreducible field here
    fields = set(FIELD_POLYS + AUT_POLYS) | {parse_poly("x^4-5/2*x^2+1/16")}
    split = 0
    for f in fields:
        certificate = make_field(f).certificate
        if isinstance(certificate, CertifiedSplitPrime):
            p, k = certificate.prime, certificate.precision
            assert p ** (k - 1) <= 2 * mignotte_bound(f) < p**k, (f, certificate)
            split += 1
    assert split >= 7


@pytest.mark.parametrize("f", AUT_POLYS, ids=str)
def test_euler_coordinates_are_bounded_integers(f):
    E = make_field(f)
    check_euler_coordinates(E, automorphisms(E))


@pytest.mark.parametrize("text", ["x^2+1/4", "x^4+1/16", "x^4-5/2*x^2+1/16"])
def test_rational_coefficients_match_sympy(text):
    # theta' = D*theta is a root of the monic integer F(y) = D^n f(y/D); sympy
    # gives sigma(theta') = sum c_i theta'^i, so sigma(theta) = sum c_i D^(i-1) theta^i
    f = parse_poly(text)
    n = f.degree
    D = math.lcm(*(c.denominator for c in f.coeffs))
    assert D > 1
    F = UPoly([c * D ** (n - i) for i, c in enumerate(f.coeffs)])
    expected = {tuple(c * Fraction(D) ** (i - 1) for i, c in enumerate(image))
                for image in sympy_automorphisms(F)}
    ours = {tuple(a.r.coeffs) for a in automorphisms(make_field(f))}
    assert ours == expected
