"""Exact univariate polynomial arithmetic, gcd, modular images and the prime scan."""

import random
from fractions import Fraction

import pytest

from fieldlab import (
    ModPoly,
    UPoly,
    ZeroPolynomial,
    parse_poly,
    poly_eval,
    poly_gcd,
    squarefree_part,
)
from fieldlab.polynomials import (
    frobenius_scan,
    integral_model,
    is_prime,
    lift_precision,
    newton_lift,
)
from conftest import mod_is_irreducible, random_upoly


def P(*coeffs) -> UPoly:
    """Ascending-order constructor shorthand."""
    return UPoly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------


def test_trailing_zeros_normalized():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero
    assert P().degree == -1


def test_monomial_and_x():
    assert UPoly.x() == P(0, 1)
    assert UPoly.monomial(3, 5) == P(0, 0, 0, 5)
    assert UPoly.monomial(0, 1) == P(1)


def test_leading_and_coeff():
    p = P(1, 0, -10, 0, 1)
    assert p.degree == 4
    assert p.leading == 1
    assert p.coeff(2) == -10
    assert p.coeff(99) == 0


def test_constants_hash_as_their_value():
    # a constant equals the rational it holds, so it must hash alike
    for q in (3, -7, Fraction(5, 4), Fraction(-1, 3)):
        assert P(q) == q and hash(P(q)) == hash(q) == hash(Fraction(q))
        assert len({P(q), q, Fraction(q)}) == 1
    assert P() == 0 and hash(P()) == hash(0)
    assert len({P(), 0, P(0, 0)}) == 1
    assert len({P(3), P(0, 3), P(3, 1)}) == 3


# ---------------------------------------------------------------------------
# ring axioms on random triples
# ---------------------------------------------------------------------------


def test_ring_axioms_500_triples():
    rng = random.Random(500)
    for _ in range(500):
        a = random_upoly(rng)
        b = random_upoly(rng)
        c = random_upoly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == UPoly()
        assert a * UPoly([1]) == a


def test_division_identity():
    rng = random.Random(7)
    for _ in range(100):
        a = random_upoly(rng, max_deg=8)
        b = random_upoly(rng, max_deg=5)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), UPoly())


def test_pow():
    assert P(1, 1) ** 2 == P(1, 2, 1)
    assert P(0, 1) ** 5 == UPoly.monomial(5)
    assert P(2, 3) ** 0 == P(1)


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_common_factor():
    # x^2-1 = (x-1)(x+1), x^2-2x+1 = (x-1)^2
    assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)


def test_gcd_coprime():
    assert poly_gcd(P(1, 0, 1), P(0, 2)) == P(1)


def test_gcd_with_zero():
    p = P(2, 4)
    assert poly_gcd(p, UPoly()) == p.monic()
    assert poly_gcd(UPoly(), p) == p.monic()


def test_gcd_divides_both_and_monic():
    rng = random.Random(11)
    for _ in range(100):
        p = random_upoly(rng, max_deg=5)
        q = random_upoly(rng, max_deg=5)
        if p.is_zero and q.is_zero:
            continue
        g = poly_gcd(p, q)
        assert g.leading == 1
        if not p.is_zero:
            assert p % g == UPoly()
        if not q.is_zero:
            assert q % g == UPoly()


def test_gcd_detects_planted_factor():
    rng = random.Random(13)
    for _ in range(50):
        common = random_upoly(rng, max_deg=3)
        if common.degree < 1:
            continue
        p = common * random_upoly(rng, max_deg=3)
        q = common * random_upoly(rng, max_deg=3)
        if p.is_zero or q.is_zero:
            continue
        g = poly_gcd(p, q)
        assert g % common.monic() == UPoly()


# ---------------------------------------------------------------------------
# squarefree part
# ---------------------------------------------------------------------------


def test_squarefree_part_examples():
    # x^3-3x+2 = (x-1)^2 (x+2)
    assert squarefree_part(P(2, -3, 0, 1)) == P(-2, 1, 1).monic()
    assert squarefree_part(P(1, 0, 1)) == P(1, 0, 1)
    assert squarefree_part(P(7)) == P(1)


def test_squarefree_part_is_squarefree_and_divides():
    rng = random.Random(17)
    for _ in range(60):
        base = random_upoly(rng, max_deg=3)
        if base.degree < 1:
            continue
        p = base * base * random_upoly(rng, max_deg=2)
        if p.is_zero:
            continue
        s = squarefree_part(p)
        assert poly_gcd(s, s.derivative()) == P(1)
        assert p % s == UPoly()


def test_squarefree_part_of_zero():
    with pytest.raises(ZeroPolynomial):
        squarefree_part(UPoly())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_poly_eval_rational_point():
    assert poly_eval(P(1, 0, 1), 2) == 5
    assert P(1, 0, 1)(Fraction(1, 2)) == Fraction(5, 4)


def test_poly_eval_horner_matches_sum():
    rng = random.Random(19)
    for _ in range(50):
        p = random_upoly(rng)
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        expected = sum(p.coeff(i) * t**i for i in range(p.degree + 1))
        assert p(t) == expected


# ---------------------------------------------------------------------------
# modular polynomials
# ---------------------------------------------------------------------------


def test_modpoly_arithmetic():
    f = ModPoly(5, [1, 0, 1])  # x^2+1 mod 5, splits as (x-2)(x-3)
    x = ModPoly(5, [0, 1])
    assert (x * x + ModPoly(5, [1])) % f == ModPoly(5, [])
    assert x.powmod(5, f) == x % f  # split f: Frobenius fixes residues


def test_modpoly_powmod_matches_repeated_mul():
    rng = random.Random(29)
    for _ in range(30):
        p = 7
        f = ModPoly(p, [rng.randrange(p) for _ in range(4)] + [1])
        g = ModPoly(p, [rng.randrange(p) for _ in range(4)])
        e = rng.randrange(1, 30)
        acc = ModPoly(p, [1])
        for _ in range(e):
            acc = (acc * g) % f
        assert g.powmod(e, f) == acc


def test_mod_irreducibility():
    assert mod_is_irreducible(ModPoly(3, [1, 0, 1]))  # -1 non-residue mod 3
    assert not mod_is_irreducible(ModPoly(5, [1, 0, 1]))  # 2^2 = -1 mod 5
    assert not mod_is_irreducible(ModPoly(2, [1, 0, 1]))  # (x+1)^2


def test_x4_plus_1_reducible_mod_every_small_prime():
    # classic: x^4+1 factors mod every prime though irreducible over Q
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        assert not mod_is_irreducible(ModPoly(p, [1, 0, 0, 0, 1]))


def test_from_upoly_rejects_bad_denominator():
    with pytest.raises(ValueError):
        ModPoly.from_upoly(UPoly([Fraction(1, 5), Fraction(1)]), 5)


def test_modpoly_modulo_a_prime_power_past_a_machine_word():
    # 73^16 > 2^62: reduction and evaluation modulo any m agree with Fraction
    # arithmetic, and Newton lifting reaches that precision (x^8-2 splits mod 73)
    m = 73**16
    assert m > 2**62
    rng = random.Random(7316)
    for _ in range(40):
        f = random_upoly(rng, max_deg=8, span=10**6)
        if any(c.denominator % 73 == 0 for c in f.coeffs):
            continue
        fm = ModPoly.from_upoly(f, m)
        assert all(
            (c.numerator - r * c.denominator) % m == 0
            for c, r in zip(f.coeffs, fm.coeffs + (0,) * len(f.coeffs))
        )
        x = rng.randrange(m)
        value = f(Fraction(x))
        assert (value.numerator - fm(x) * value.denominator) % m == 0
    f = P(-2, 0, 0, 0, 0, 0, 0, 0, 1)
    roots = [t for t in range(73) if ModPoly.from_upoly(f, 73)(t) == 0]
    assert len(roots) == 8
    for r in newton_lift(f, roots, 73, 1, 16):
        assert 0 <= r < m and (r**8 - 2) % m == 0


# ---------------------------------------------------------------------------
# the p-adic layer: prime scan, integral model, proven precision
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "x^2+1", "x^3-x-1", "x^4+1", "x^4-5/2*x^2+1/16", "x^6+x^3+1", "x^8-2",
])
def test_frobenius_scan_matches_powmod(text):
    # every prime up to 60 but those dividing a denominator of f, each with
    # f mod p and x^p mod (p, f) as a direct powmod computes them, and the
    # number of distinct roots of f mod p, which is n exactly where x^p = x
    f = parse_poly(text)
    scanned = list(frobenius_scan(f, 2, 60))
    assert [s.p for s in scanned] == [
        p for p in range(2, 61)
        if is_prime(p) and all(c.denominator % p for c in f.coeffs)
    ]
    for s in scanned:
        x = ModPoly(s.p, [0, 1])
        assert s.fp == ModPoly.from_upoly(f, s.p)
        assert s.xp == x.powmod(s.p, s.fp)
        assert s.roots == len(s.fp.roots())
        assert (s.roots == f.degree) == (s.xp == x)


def test_frobenius_scan_skips_a_denominator_prime():
    # x^2+1/4 has no image mod 2; the scan starts at 3
    f = P(Fraction(1, 4), 0, 1)
    assert [s.p for s in frobenius_scan(f, 2, 10)] == [3, 5, 7]


def test_integral_model():
    # x^2+1/4: D = 4 and F = 16*(y^2/16 + 1/4) = y^2 + 4
    assert integral_model(P(Fraction(1, 4), 0, 1)) == (4, [4, 0, 1])
    # x^2 - x/6 - 1/3: D = 6, F = y^2 - y - 12
    assert integral_model(P(Fraction(-1, 3), Fraction(-1, 6), 1)) == (6, [-12, -1, 1])


def test_lift_precision_is_the_least_above_twice_the_bound():
    for p in (2, 3, 5, 17, 97):
        for bound in (0, 1, 2, 8, 9, 10, 10**6, 7**20):
            k = lift_precision(p, bound)
            assert k >= 1 and p**k > 2 * bound
            assert k == 1 or p ** (k - 1) <= 2 * bound
