"""Property test of distinct_mod_scalars, which compares the rays of the
elements' integer numerators: its verdict must equal the pairwise rank test
over Q that it replaced."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import (  # noqa: E402
    QMatrix,
    distinct_mod_scalars,
    make_field,
    parse_poly,
    rank_and_solve,
)

FIELDS = [make_field(parse_poly(t)) for t in ("x^2+1", "x^3-2", "x^4-10*x^2+1")]
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
SCALARS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


def pairwise_rank_two(elems) -> bool:
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            m = QMatrix([list(elems[i].coeffs), list(elems[j].coeffs)])
            if rank_and_solve(m).rank != 2:
                return False
    return True


@st.composite
def element_lists(draw):
    E = draw(st.sampled_from(FIELDS))
    n = E.degree
    vectors = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), max_size=5))
    # copies scaled by nonzero rationals, negative and non-integer included
    for _ in range(draw(st.integers(0, 3))):
        if vectors:
            v = draw(st.sampled_from(vectors))
            c = draw(SCALARS)
            vectors.append([c * x for x in v])
    if draw(st.booleans()):
        vectors.append([0] * n)
    order = draw(st.permutations(range(len(vectors))))
    return [E.element(vectors[i]) for i in order]


@settings(max_examples=300, deadline=None)
@given(element_lists())
def test_distinct_mod_scalars_matches_pairwise_rank(elems):
    assert distinct_mod_scalars(elems) == pairwise_rank_two(elems)

