"""Property test of the ray key by which every search drops a hit
proportional to an earlier one: two nonzero elements share a key iff their
pairwise rank over Q is 1."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import make_field, parse_poly  # noqa: E402
from fieldlab.search import _proj_key  # noqa: E402
from conftest import matrix_rank  # noqa: E402

FIELDS = [make_field(parse_poly(t)) for t in ("x^2+1", "x^3-2", "x^4-10*x^2+1")]
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
SCALARS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


@st.composite
def element_pairs(draw):
    # two nonzero elements of one field, the second often a rational
    # multiple of the first, negative and non-integer scalars included
    E = draw(st.sampled_from(FIELDS))
    vector = st.lists(RATIONALS, min_size=E.degree, max_size=E.degree).filter(any)
    a = E.element(draw(vector))
    b = a * draw(SCALARS) if draw(st.booleans()) else E.element(draw(vector))
    return a, b


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_proj_key_matches_pairwise_rank(pair):
    a, b = pair
    assert (_proj_key(a) == _proj_key(b)) == (matrix_rank([a.coeffs, b.coeffs]) == 1)
