"""Trace and norm, minimal polynomials, the trace Gram matrix, and the
regular representation oracle they are checked against."""

import random
from fractions import Fraction

from fieldlab import (
    QMatrix,
    UPoly,
    minpoly,
    norm,
    parse_poly,
    qmatrix_det,
    trace,
    trace_gram,
)
from conftest import field, matrix_product, matrix_rank, random_elem, regrep


def charpoly(m: QMatrix) -> UPoly:
    """det(t*I - m) by Lagrange interpolation at n+1 integer points."""
    n = m.rows
    points = []
    for t in range(n + 1):
        entries = [
            [(Fraction(t) if i == j else Fraction(0)) - m[(i, j)] for j in range(n)]
            for i in range(n)
        ]
        points.append((Fraction(t), qmatrix_det(QMatrix(entries))))
    acc = UPoly()
    for i, (xi, yi) in enumerate(points):
        basis = UPoly([yi])
        for j, (xj, _) in enumerate(points):
            if i != j:
                basis = basis * UPoly([-xj, 1]) * Fraction(1, (xi - xj))
        acc = acc + basis
    return acc


# ---------------------------------------------------------------------------
# regular representation (the conftest oracle)
# ---------------------------------------------------------------------------


def test_regrep_generator_qi(qi):
    assert regrep(qi.gen()).entries == [[0, -1], [1, 0]]


def test_regrep_one_is_identity(qi):
    assert regrep(qi.one()).entries == [[1, 0], [0, 1]]


def test_regrep_companion_cubic():
    E = field("x^3-2")
    assert regrep(E.gen()).entries == [[0, 0, 2], [1, 0, 0], [0, 1, 0]]


def test_regrep_is_ring_homomorphism(reference_fields):
    rng = random.Random(101)
    for E in reference_fields:
        for _ in range(200 // len(reference_fields) + 1):
            a = random_elem(E, rng, span=6)
            b = random_elem(E, rng, span=6)
            ra, rb = regrep(a), regrep(b)
            assert regrep(a + b).entries == [
                [x + y for x, y in zip(r, s)] for r, s in zip(ra.entries, rb.entries)]
            assert regrep(a * b).entries == matrix_product(ra, rb).entries


# ---------------------------------------------------------------------------
# trace and norm
# ---------------------------------------------------------------------------


def test_trace_norm_examples(qi):
    a = qi.element([1, 1])
    assert trace(a) == 2
    assert norm(a) == 2
    assert trace(qi.one()) == 2
    assert norm(qi.one()) == 1
    E = field("x^3-2")
    assert norm(E.gen()) == 2
    assert trace(E.one()) == 3


def test_norm_multiplicative_trace_linear(reference_fields):
    rng = random.Random(103)
    for E in reference_fields:
        for _ in range(200 // len(reference_fields) + 1):
            a = random_elem(E, rng, span=6)
            b = random_elem(E, rng, span=6)
            assert norm(a * b) == norm(a) * norm(b)
            assert trace(a + b) == trace(a) + trace(b)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert trace(a * c) == c * trace(a)


# ---------------------------------------------------------------------------
# minimal polynomial
# ---------------------------------------------------------------------------


def test_minpoly_examples():
    E = field("x^3-2")
    assert minpoly(E.gen() ** 2) == parse_poly("x^3-4")
    assert minpoly(E.from_rational(Fraction(5, 3))) == parse_poly("x-5/3")
    F = field("x^4-10*x^2+1")
    th = F.gen()
    sqrt2 = (th**3 - 9 * th) / 2
    assert minpoly(sqrt2) == parse_poly("x^2-2")


def test_minpoly_of_generator_is_f(reference_fields):
    for E in reference_fields:
        assert minpoly(E.gen()) == E.minpoly


def test_minpoly_vanishes_and_is_monic(reference_fields):
    rng = random.Random(107)
    for E in reference_fields:
        for _ in range(10):
            a = random_elem(E, rng, span=4)
            p = minpoly(a)
            assert p.leading == 1
            acc = E.zero()
            for i, c in enumerate(p.coeffs):
                acc = acc + a**i * c
            assert acc.is_zero


def test_minpoly_divides_charpoly_100():
    rng = random.Random(109)
    fields = [field(t) for t in ["x^2+1", "x^3-2", "x^4-10*x^2+1"]]
    for i in range(100):
        E = fields[i % len(fields)]
        a = random_elem(E, rng, span=4)
        assert charpoly(regrep(a)) % minpoly(a) == UPoly()


def test_minpoly_degree_n_iff_powers_full_rank():
    rng = random.Random(113)
    fields = [field(t) for t in ["x^2+1", "x^3-2", "x^4-10*x^2+1"]]
    for i in range(100):
        E = fields[i % len(fields)]
        n = E.degree
        a = random_elem(E, rng, span=3)
        powers = QMatrix([[(a**j).coeffs[i] for j in range(n)] for i in range(n)])
        assert (minpoly(a).degree == n) == (matrix_rank(powers.entries) == n)


# ---------------------------------------------------------------------------
# trace Gram matrix
# ---------------------------------------------------------------------------


def test_trace_gram_examples(qi):
    assert trace_gram(qi).entries == [[2, 0], [0, -2]]
    assert qmatrix_det(trace_gram(qi)) == -4
    E = field("x^2-2")
    assert trace_gram(E).entries == [[2, 0], [0, 4]]
    assert qmatrix_det(trace_gram(E)) == 8
    assert trace_gram(field("x-1")).entries == [[1]]


def test_trace_gram_nondegenerate(reference_fields):
    for E in reference_fields:
        g = trace_gram(E)
        assert qmatrix_det(g) != 0
        assert matrix_rank(g.entries) == E.degree


def test_trace_gram_equals_traces_of_powers(reference_fields):
    # Newton's identities give the same matrix as the diagonal sums of
    # regrep(theta^k)
    for E in reference_fields + [field("x^4-5/2*x^2+1/16"), field("x-1/3")]:
        n = E.degree
        theta = E.gen()
        s = [sum(regrep(theta**k)[(i, i)] for i in range(n)) for k in range(2 * n - 1)]
        assert trace_gram(E).entries == [[s[i + j] for j in range(n)] for i in range(n)], E


def test_trace_is_the_diagonal_sum_of_regrep(reference_fields):
    rng = random.Random(163)
    for E in reference_fields + [field("x^4-5/2*x^2+1/16"), field("x-1/3")]:
        for _ in range(10):
            a = random_elem(E, rng, span=6)
            assert trace(a) == sum(regrep(a)[(i, i)] for i in range(E.degree)), (E, a)
