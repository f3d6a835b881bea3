"""Property tests of the integer-numerator element core, its multiplication
matrix and norm against plain Fraction arithmetic, on integral and
non-integral defining polynomials, and of make_field's rational-root
decision against the rational-root test by trial division."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from fieldlab import (  # noqa: E402
    QMatrix,
    RationalRoot,
    UPoly,
    ZeroDivisor,
    make_field,
    norm,
    poly_gcd,
)
from fieldlab.numberfield import _mul_matrix, invert  # noqa: E402
from conftest import force_field  # noqa: E402

RATIONALS = st.fractions(-9, 9, max_denominator=6)


def schoolbook_product(f: UPoly, a, b) -> tuple:
    """Coordinates of a*b in Q[x]/(f): full product, then reduction from the top."""
    n = f.degree
    conv = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        for i in range(n):
            conv[k - n + i] -= conv[k] * f.coeffs[i]
    return tuple(conv[:n])


def assert_canonical(e):
    assert e.den > 0
    assert math.gcd(e.den, *e.num) == 1
    assert e.coeffs == tuple(Fraction(c, e.den) for c in e.num)
    twin = e.parent.element(e.coeffs)
    assert (twin.num, twin.den) == (e.num, e.den)
    assert twin == e and hash(twin) == hash(e)


def draw_field(data, integral: bool):
    n = data.draw(st.integers(1, 6), label="degree")
    if integral:
        low = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    else:
        low = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        # one half-odd coefficient makes the reduction denominator > 1
        i = data.draw(st.integers(0, n - 1))
        low[i] = Fraction(2 * data.draw(st.integers(-9, 9)) + 1, 2)
    E = force_field(UPoly(list(low) + [1]))
    assert (E._reduction_den == 1) == integral
    return E


@pytest.mark.parametrize("integral", [True, False])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fractions(integral, data):
    E = draw_field(data, integral)
    n = E.degree
    coords = st.lists(RATIONALS, min_size=n, max_size=n)
    ca, cb = data.draw(coords), data.draw(coords)
    q = data.draw(RATIONALS.filter(bool), label="scalar")
    a, b = E.element(ca), E.element(cb)

    product = a * b
    assert product.coeffs == schoolbook_product(E.minpoly, ca, cb)
    assert_canonical(product)
    assert b * a == product and hash(b * a) == hash(product)
    for e, expected in [
        (a + b, [x + y for x, y in zip(ca, cb)]),
        (a - b, [x - y for x, y in zip(ca, cb)]),
        (-a, [-x for x in ca]),
        (a * q, [x * q for x in ca]),
        (a / q, [x / q for x in ca]),
        (a + q, [ca[0] + q] + ca[1:]),
    ]:
        assert e.coeffs == tuple(expected)
        assert_canonical(e)
    assert (a * q) / q == a and hash((a * q) / q) == hash(a)

    # column j of the multiplication matrix holds a*theta^j; the norm is its
    # determinant
    cols = [list(ca)]
    for _ in range(n - 1):
        cols.append(schoolbook_product(E.minpoly, cols[-1], E.gen().coeffs))
    schoolbook = QMatrix([list(row) for row in zip(*cols)])
    # the integer matrix norm reads: column j over den * rden^j
    rden = E._reduction_den
    assert [[Fraction(c, a.den * rden**j) for j, c in enumerate(row)]
            for row in _mul_matrix(a)] == schoolbook.entries
    assert norm(a) == schoolbook.det()

    if a.is_zero:
        return
    try:
        inv = invert(a)
    except ZeroDivisor as e:
        # a reducible f: the witness is a proper common factor of f and rep(a)
        factor = e.factor
        assert 0 < factor.degree < n
        assert (E.minpoly % factor).is_zero and (a.as_poly() % factor).is_zero
    else:
        assert_canonical(inv)
        assert a * inv == 1 and a * inv == E.one()


def divisor_scan_root(f: UPoly):
    """Reference: the rational-root test by trial division, candidates
    num/den with num | c_0 and den | c_n tried in the order (num, den, sign),
    the first root found wins."""
    ints, _ = f.integerized()
    if ints[0] == 0:
        return Fraction(0)
    for num in sorted(_divisors(abs(ints[0]))):
        for den in sorted(_divisors(abs(ints[-1]))):
            if math.gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.fractions(-30, 30, max_denominator=6), max_size=3),
    cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(
        lambda cs: cs[-1] != 0
    ),
)
def test_rational_root_matches_divisor_scan(roots, cofactor):
    f = UPoly(cofactor)
    for r in roots:
        f = f * UPoly([-r, 1])
    # make_field tests a squarefree f of degree >= 2 for a rational root
    assume(f.degree >= 2 and poly_gcd(f, f.derivative()).degree == 0)
    f = f.monic()
    root = divisor_scan_root(f)
    if root is None:
        # a rootless f here is the cofactor, of degree <= 3: irreducible
        assert make_field(f).minpoly == f
    else:
        with pytest.raises(RationalRoot) as e:
            make_field(f)
        assert e.value.witness == root
