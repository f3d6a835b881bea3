"""Field construction, certificates, and exact element arithmetic."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from fieldlab import (
    AssumedIrreducible,
    CertifiedModP,
    CertifiedSplitPrime,
    ConstantPolynomial,
    DivisionByZero,
    FieldMismatch,
    NotSquarefree,
    RationalRoot,
    SearchConfig,
    UPoly,
    ZeroDivisor,
    field_det,
    make_field,
    parse_poly,
)
from fieldlab.numberfield import CERT_PRIME_BOUND, invert
from fieldlab.polynomials import frobenius_scan, is_prime, mod_is_squarefree
from conftest import field, force_field, random_elem, random_nonzero_elem


# ---------------------------------------------------------------------------
# construction and certificates
# ---------------------------------------------------------------------------


def test_make_field_certificate_mod_3():
    E = field("x^2+1")
    assert E.degree == 2
    assert isinstance(E.certificate, CertifiedModP)
    assert E.certificate.prime == 3


# P is the product of the primes up to 211: x^2 - 2P^2 is x^2 modulo each of
# them, with one root and no squarefree reduction, so the question of a
# rational root stays open until p = 223, past CERT_PRIME_BOUND
P = math.prod(p for p in range(2, 212) if is_prime(p))


@pytest.mark.parametrize("text, witness", [
    pytest.param("x^2-1", 1, id="x^2-1"),
    pytest.param(f"(x-1)*(x^2-{2 * P * P})", 1, id="(x-1)*(x^2-2P^2)"),
])
def test_make_field_rational_root(text, witness):
    with pytest.raises(RationalRoot) as e:
        make_field(parse_poly(text))
    assert e.value.witness == witness


def test_make_field_degree_one():
    E = field("x-3")
    assert E.degree == 1
    assert E.gen() == E.from_rational(3)


def test_make_field_not_squarefree():
    with pytest.raises(NotSquarefree):
        field("x^2-2*x+1")


def test_make_field_constant():
    with pytest.raises(ConstantPolynomial):
        field("7")


def test_make_field_normalizes_to_monic():
    E = make_field(parse_poly("2*x^2+2"))
    assert E.minpoly == parse_poly("x^2+1")


def test_x4_plus_1_certified_at_split_prime():
    # reducible modulo every prime, so no Ben-Or certificate; x^4+1 splits
    # first at 17, where Mignotte's bounds [2, 4, 2] are below 17/2
    E = field("x^4+1")
    assert E.certificate == CertifiedSplitPrime(17, 1)
    # it really is a field: inversion of a generic element succeeds
    a = E.element([1, 1, 0, 1])
    assert a * invert(a) == E.one()


def test_product_of_cubics_is_assumed_irreducible():
    # a product of monic factors is reducible mod every prime, and this one
    # splits into linear factors at no prime up to 200
    E = make_field(parse_poly("(x^3-2)*(x^3-3)"))
    assert E.certificate == AssumedIrreducible()


@pytest.mark.parametrize("text, factor", [
    # rational coefficients: the factor of F = D^n f(y/D) is scaled back
    ("(4*x^2+1)*(x^2+1/9)", "x^2+1/4"),
    # degree 8 splits at 41; the factor has the largest subset size, n/2
    ("(x^4+1)*(x^4+x^3+x^2+x+1)", "x^4+1"),
    # no prime up to 200 decides; at 223, which settles the rational-root
    # question, x^2+1 has no root and the two roots of x^2-2P^2 name it
    pytest.param(f"(x^2+1)*(x^2-{2 * P * P})", f"x^2-{2 * P * P}", id="(x^2+1)*(x^2-2P^2)"),
])
def test_split_prime_names_a_factor(text, factor):
    with pytest.raises(ZeroDivisor) as e:
        field(text)
    assert e.value.factor == parse_poly(factor)


def test_rational_root_found_for_cubic():
    with pytest.raises(RationalRoot) as e:
        make_field(parse_poly("x^3-x^2-4*x+4"))  # roots 1, 2, -2
    assert e.value.witness in (1, 2, -2)


def test_rational_root_of_a_huge_square():
    # trial division of the constant term would take about 10^15 steps
    r = 10**15 + 37
    with pytest.raises(RationalRoot) as e:
        make_field(UPoly([-r * r, 0, 1]))
    assert e.value.witness == r


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_generator_satisfies_defining_relation():
    for text in ["x^2+1", "x^3-2", "x^4-10*x^2+1"]:
        E = field(text)
        th = E.gen()
        acc = E.zero()
        for i, c in enumerate(E.minpoly.coeffs):
            acc = acc + th**i * c
        assert acc.is_zero


def test_field_axioms_200_random_inverses(reference_fields):
    rng = random.Random(200)
    for E in reference_fields:
        for _ in range(200):
            a = random_nonzero_elem(E, rng)
            assert a * invert(a) == E.one()
            assert a / a == E.one()


def test_ring_axioms_random_triples(reference_fields):
    rng = random.Random(300)
    for E in reference_fields:
        for _ in range(40):
            a = random_elem(E, rng)
            b = random_elem(E, rng)
            c = random_elem(E, rng)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a


def test_invert_example_qi(qi):
    a = qi.element([1, 1])  # 1 + theta
    assert invert(a) == qi.element([Fraction(1, 2), Fraction(-1, 2)])


def test_invert_zero(qi):
    with pytest.raises(DivisionByZero):
        invert(qi.zero())


def test_zero_divisor_in_forced_field():
    E = force_field(parse_poly("x^2-1"))
    with pytest.raises(ZeroDivisor) as e:
        invert(E.element([-1, 1]))  # theta - 1
    assert e.value.factor == parse_poly("x-1")


def test_zero_divisor_surfaces_in_inverse_and_determinant():
    # (x^2+1)(x^2+2) has no rational root; theta^2+1 is a zero divisor
    E = force_field(parse_poly("x^2+1") * parse_poly("x^2+2"))
    a = E.element([1, 0, 1, 0])
    with pytest.raises(ZeroDivisor) as e:
        invert(a)
    assert e.value.factor == parse_poly("x^2+1")
    # the second Bareiss step divides by the first pivot, a
    zero, one = E.zero(), E.one()
    rows = [[a, zero, zero], [zero, one, zero], [zero, zero, one]]
    with pytest.raises(ZeroDivisor) as e:
        field_det(rows, zero, one)
    assert e.value.factor == parse_poly("x^2+1")


def test_rational_coercion(qi):
    a = qi.element([1, 2])
    assert a + 1 == qi.element([2, 2])
    assert 1 + a == qi.element([2, 2])
    assert a * Fraction(1, 2) == qi.element([Fraction(1, 2), 1])
    assert 3 - a == qi.element([2, -2])
    assert (qi.one() * 2) / 2 == qi.one()
    assert 1 / qi.element([0, 1]) == qi.element([0, -1])  # 1/i = -i


def test_pow_negative_and_zero(qi):
    th = qi.gen()
    assert th**0 == qi.one()
    assert th**4 == qi.one()
    assert th**-1 == qi.element([0, -1])
    assert th**-2 == -qi.one()


def test_reduction_beyond_degree():
    E = field("x^3-2")
    th = E.gen()
    assert th * th * th == E.from_rational(2)
    assert th**5 == E.element([0, 0, 2])  # theta^5 = 2 theta^2


def test_is_rational_and_is_zero(qi):
    assert qi.from_rational(5).is_rational
    assert not qi.gen().is_rational
    assert qi.zero().is_zero
    assert qi.element([0, 0]).is_zero


def test_field_mismatch():
    a = field("x^2+1").gen()
    b = field("x^2-2").gen()
    with pytest.raises(FieldMismatch):
        a + b


def test_reduce_poly(qi):
    p = parse_poly("x^3 + x + 1")  # theta^3 + theta + 1 = -theta + theta + 1
    assert qi.reduce_poly(p) == qi.one()


def test_str_rendering(qi):
    assert str(qi.element([Fraction(3, 5), Fraction(4, 5)])) == "3/5 + 4/5*θ"
    assert str(qi.zero()) == "0"
    assert str(qi.element([0, -1])) == "-θ"


# ---------------------------------------------------------------------------
# the prime scan kept on the field, copies and hashes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["x^2+1", "x^4+1", "x^4+1/16", "x^8+1", "(x^3-2)*(x^3-3)",
                                  pytest.param(f"x^2-{2 * P * P}", id="x^2-2P^2")])
def test_field_keeps_its_prime_scan(text):
    # scan is the prefix of frobenius_scan up to the later of two primes: the
    # certificate's (CERT_PRIME_BOUND when it is assumed) and the first that
    # decides the rational-root question, with no root or a squarefree f mod p
    E = make_field(parse_poly(text))
    last = E.scan[-1].p
    assert E.scan == tuple(frobenius_scan(E.minpoly, 2, last))
    decided = next(r.p for r in E.scan
                   if r.roots in (0, E.degree) or mod_is_squarefree(r.fp))
    if isinstance(E.certificate, AssumedIrreducible):
        assert last == max(CERT_PRIME_BOUND, decided)
        assert last == (223 if str(2 * P * P) in text else 199)
    else:
        assert last == E.certificate.prime >= decided


def test_pickle_and_copy_round_trips():
    E = field("x^4+1/16")
    values = [
        parse_poly("x^3-2/3*x+5"),
        E.element([1, Fraction(-2, 3), 0, 7]),
        E,
        SearchConfig(S=(parse_poly("x^2"), parse_poly("x+1")), count=3, max_height=9,
                     seed=4, mode="randomized"),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
    twin = pickle.loads(pickle.dumps(E))
    assert (twin.certificate, twin.scan) == (E.certificate, E.scan)
    assert twin.element([1, 2, 3, 4]) * twin.gen() == twin.element([-Fraction(4, 16), 1, 2, 3])


def test_rational_elements_hash_as_their_value(qi):
    for q in (3, -7, 0, Fraction(5, 4), Fraction(-1, 3)):
        e = qi.from_rational(q)
        assert e == q and hash(e) == hash(q) == hash(Fraction(q))
        assert len({e, q}) == 1
    assert len({qi.from_rational(3), 3, Fraction(3), qi.element([3, 0])}) == 1
    assert len({qi.gen(), qi.from_rational(1)}) == 2
