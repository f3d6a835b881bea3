"""Primitivity, separability, normal-basis criteria, and density probes."""

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest

from fieldlab import (
    InsufficientSample,
    conjugate_vector,
    galois_group,
    is_separable_ext,
    minpoly,
    no_low_degree_relation,
    normal_det,
    parse_poly,
    squarefree_part,
)
from fieldlab.linalg import FILTER_PRIME
from conftest import (
    conjugate_rank, field, force_field, is_galois, matrix_rank, random_elem,
)


# ---------------------------------------------------------------------------
# primitivity: a generates E iff its minimal polynomial has degree n
# ---------------------------------------------------------------------------


def test_generator_is_primitive(reference_fields):
    for E in reference_fields:
        mp = minpoly(E.gen())
        assert mp.degree == E.degree
        assert squarefree_part(mp) == mp


def test_sqrt2_not_primitive_in_biquadratic():
    E = field("x^4-10*x^2+1")
    th = E.gen()
    assert minpoly((th**3 - 9 * th) / 2).degree == 2


def test_theta_squared_primitive_in_cubic():
    E = field("x^3-2")
    assert minpoly(E.gen() ** 2).degree == E.degree


def test_rationals_not_primitive_beyond_degree_one(qi):
    assert minpoly(qi.from_rational(7)).degree == 1 < qi.degree
    assert minpoly(field("x-1").from_rational(7)).degree == 1


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def test_separability_examples(qi):
    r = is_separable_ext(qi)
    assert r.is_separable and r.gram_det == -4
    r = is_separable_ext(field("x^2-2"))
    assert r.is_separable and r.gram_det == 8
    r = is_separable_ext(field("x-1"))
    assert r.is_separable and r.gram_det == 1


def test_non_reduced_algebra_is_inseparable_not_an_error():
    # Q[x]/(x^2) is no field: its trace form is degenerate although
    # trace(1) = 2; the theta there still generates the algebra
    E = force_field(parse_poly("x^2"))
    r = is_separable_ext(E)
    assert not r.is_separable
    assert r.gram_det == 0
    mp = minpoly(E.gen())
    assert mp.degree == E.degree and squarefree_part(mp) != mp


def test_separability_all_reference_fields(reference_fields):
    for E in reference_fields:
        r = is_separable_ext(E)
        assert r.is_separable
        assert r.gram_det != 0


# ---------------------------------------------------------------------------
# Galois verdicts
# ---------------------------------------------------------------------------


def test_is_galois_verdicts():
    assert is_galois(field("x^2+1"))
    assert not is_galois(field("x^3-2"))
    assert not is_galois(field("x^3-x-1"))
    assert is_galois(field("x^4+x^3+x^2+x+1"))
    assert is_galois(field("x^4+1"))


# ---------------------------------------------------------------------------
# normal-basis determinant
# ---------------------------------------------------------------------------


def test_normal_det_examples(qi):
    G = galois_group(qi)
    th = qi.gen()
    assert normal_det(G, th).is_zero
    assert normal_det(G, qi.one()).is_zero
    assert normal_det(G, qi.element([1, 1])) == 4 * th


def test_is_normal_generator_examples(qi):
    G = galois_group(qi)
    assert not normal_det(G, qi.element([1, 1])).is_zero
    assert normal_det(G, qi.gen()).is_zero
    assert normal_det(G, qi.zero()).is_zero


def test_normal_det_scaling_covariance(galois_fields):
    # det of the conjugate table of c*a is c^n times that of a
    rng = random.Random(137)
    for E in galois_fields:
        G = galois_group(E)
        for _ in range(10):
            a = random_elem(E, rng, span=4)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            assert normal_det(G, a * c) == normal_det(G, a) * c**E.degree


def test_determinant_rank_equivalence_200_per_field(galois_fields):
    # the two normality tests must agree everywhere, zero tolerance
    rng = random.Random(139)
    for E in galois_fields:
        G = galois_group(E)
        for _ in range(200):
            a = random_elem(E, rng, span=6)
            det_nonzero = not normal_det(G, a).is_zero
            assert det_nonzero == (conjugate_rank(G, a) == E.degree)


def test_conjugate_rank_of_normal_generator(qi):
    G = galois_group(qi)
    assert conjugate_rank(G, qi.element([1, 1])) == 2
    assert conjugate_rank(G, qi.gen()) == 1


# ---------------------------------------------------------------------------
# density rank
# ---------------------------------------------------------------------------


def test_density_rank_examples(qi):
    G = galois_group(qi)
    vecs = [conjugate_vector(G, qi.one()), conjugate_vector(G, qi.gen())]
    assert matrix_rank(vecs) == 2
    assert matrix_rank([conjugate_vector(G, qi.zero())]) == 0


def test_density_rank_power_basis_biquadratic():
    E = field("x^4-10*x^2+1")
    G = galois_group(E)
    th = E.gen()
    vecs = [conjugate_vector(G, th**i) for i in range(4)]
    assert matrix_rank(vecs) == 4


# ---------------------------------------------------------------------------
# no-low-degree-relation probe
# ---------------------------------------------------------------------------


def test_probe_noncollinear_points():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(4))]
    assert no_low_degree_relation(pts, 1)


def test_probe_detects_linear_relation():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert not no_low_degree_relation(pts, 1)  # y - 2x vanishes


def test_probe_insufficient_sample():
    with pytest.raises(InsufficientSample) as e:
        no_low_degree_relation([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))], 1)
    assert e.value.needed == 3
    assert e.value.got == 2


def test_probe_product_grid():
    # values of x^2 and x^3+x on independent coordinates: no linear relation
    h1 = parse_poly("x^2")
    h2 = parse_poly("x^3+x")
    pts = [
        (h1(Fraction(s)), h2(Fraction(t)))
        for s in range(-10, 11)
        for t in range(-10, 11)
    ]
    assert no_low_degree_relation(pts, 1)


def test_probe_catches_planted_quadratic_relation():
    # points on the parabola y = x^2 admit the degree-2 relation y - x^2
    pts = [(Fraction(t), Fraction(t * t)) for t in range(-10, 11)]
    assert no_low_degree_relation(pts, 1)
    assert not no_low_degree_relation(pts, 2)


# The modular filter proves only "no relation"; each case below needs the
# exact elimination behind it.
P = FILTER_PRIME


@pytest.mark.parametrize("points, d, expected", [
    # rank 1 mod P (both points are 0 there) but 2 over Q
    ([(0,), (P,)], 1, True),
    ([(1, 2), (1 + P, 2), (1, 2 + P)], 1, True),
    # P divides a denominator: no reduction mod P exists
    ([(0,), (Fraction(1, P),)], 1, True),
    ([(Fraction(1, P), 0), (0, 1), (1, 1)], 1, True),
    # planted relations: x + y - 1 and y - x^2
    ([(Fraction(1, P), 1 - Fraction(1, P)), (0, 1), (1, 0), (2, -1)], 1, False),
    ([(t, t * t) for t in range(-3, 4)], 2, False),
])
def test_probe_exact_fallback(points, d, expected):
    assert no_low_degree_relation(points, d) is expected


class CountingPoints(Sequence):
    """A point list that records the index of every item read."""

    def __init__(self, points):
        self.points = points
        self.reads = []

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.points[i]


def probe_grid(m):
    # the CLI's grid: each axis the values of one polynomial on -m..m
    polys = [parse_poly(t) for t in ("x^2-1", "x^3+x", "x^5-x")]
    axes = [[h(Fraction(t)) for t in range(-m, m + 1)] for h in polys]
    return list(itertools.product(*axes))


def test_probe_reads_only_the_points_its_filter_uses():
    # full rank needs C(3+4, 4) = 35 rows: the filter reads about that many
    # points, each once, however large the grid
    counts = []
    for m in (4, 20):
        points = CountingPoints(probe_grid(m))
        assert len(points) == (2 * m + 1) ** 3
        assert no_low_degree_relation(points, 4) is True
        assert len(points.reads) == len(set(points.reads)) <= 40
        counts.append(len(points.reads))
    assert counts[0] == counts[1]


def test_probe_takes_any_iterable_of_points():
    # a generator is listed first and gives the verdict of the list; the
    # second case, on the plane x = 3, takes the exact elimination
    grid = probe_grid(4)
    plane = [p for p in grid if p[0] == 3]
    for points, d, expected in ((grid, 4, True), (plane, 2, False)):
        assert no_low_degree_relation((p for p in points), d) is expected
        assert no_low_degree_relation(points, d) is expected
