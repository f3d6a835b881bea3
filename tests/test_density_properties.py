"""Property test of the density probe's modular rank filter: its verdict must
equal the rank of the monomial matrix by exact elimination over Q."""

import itertools
from fractions import Fraction
from math import comb, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from fieldlab import QMatrix, no_low_degree_relation, rank_and_solve  # noqa: E402
from fieldlab.criteria import _monomials  # noqa: E402
from fieldlab.linalg import FILTER_PRIME as P  # noqa: E402

RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# values that vanish mod P or have P in the denominator
UNLUCKY = st.sampled_from([Fraction(P), Fraction(-2 * P), Fraction(1, P), Fraction(P + 1, P)])


def exact_verdict(points, d) -> bool:
    monos = _monomials(len(points[0]), d)
    rows = []
    for p in points:
        row = []
        for expo in monos:
            val = Fraction(1)
            for base, e in zip(p, expo):
                val *= base ** e
            row.append(val)
        rows.append(row)
    return rank_and_solve(QMatrix(rows)).rank == len(monos)


@st.composite
def samples(draw):
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    needed = comb(m + d, d)
    points = draw(st.lists(st.tuples(*[RATIONALS] * m), min_size=needed, max_size=needed + 4))
    plant = draw(st.sampled_from(["none", "graph", "few values"]))
    if plant == "graph" and m > 1:
        # the last coordinate is a polynomial of degree <= d in the first
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
        points = [p[:-1] + (sum(c * p[0] ** i for i, c in enumerate(coeffs)),)
                  for p in points]
    elif plant == "few values":
        # the first coordinate takes at most d values
        values = draw(st.lists(RATIONALS, min_size=1, max_size=d))
        points = [(values[i % len(values)],) + p[1:] for i, p in enumerate(points)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(points) - 1))
        points[i] = (draw(UNLUCKY),) + points[i][1:]
    return points, d


@settings(max_examples=150, deadline=None)
@given(samples())
def test_probe_matches_exact_elimination(sample):
    points, d = sample
    assert no_low_degree_relation(points, d) == exact_verdict(points, d)


@st.composite
def product_grids(draw):
    # product grids whose axes repeat values, as the CLI's do: its axis of
    # x^2 on -2..2 is 4, 1, 0, 1, 4
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    axes = []
    for _ in range(k):
        pool = draw(st.lists(RATIONALS, min_size=2, max_size=5, unique=True))
        axes.append(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6)))
    assume(prod(map(len, axes)) >= comb(k + d, d))
    if draw(st.booleans()):
        axis = draw(st.sampled_from(axes))
        axis[draw(st.integers(0, len(axis) - 1))] = draw(UNLUCKY)
    return list(itertools.product(*axes)), d


@settings(max_examples=100, deadline=None)
@given(product_grids())
def test_probe_on_product_grids_matches_exact_elimination(sample):
    points, d = sample
    assert no_low_degree_relation(points, d) == exact_verdict(points, d)
