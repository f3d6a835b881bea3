"""Property test of minpoly_from_images: the images of an element at the
split prime of its Galois group give the exact ``representation.minpoly``,
for generators and non-generators alike."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import galois_group, minpoly  # noqa: E402
from fieldlab.galois import minpoly_from_images  # noqa: E402
from conftest import GALOIS_POLYS, field  # noqa: E402

# the reference Galois fields and two with D > 1, whose images need the
# scaling by D^(n-1)
GROUPS = [galois_group(field(t)) for t in GALOIS_POLYS + ["x^4+1/16", "x^2+1/4"]]


@st.composite
def group_elements(draw):
    G = draw(st.sampled_from(GROUPS))
    p = G.split.p
    # integer coordinates, or rationals whose denominators include the
    # split prime and its square
    dens = draw(st.sampled_from([(1,), (1, 2, 3), (1, p), (p, p * p, 2 * p)]))
    coords = [Fraction(draw(st.integers(-50, 50)), draw(st.sampled_from(dens)))
              for _ in range(G.field.degree)]
    return G, G.field.element(coords)


@settings(max_examples=300, deadline=None)
@given(group_elements())
def test_images_agree_with_exact_minpoly(pair):
    G, a = pair
    assert minpoly_from_images(G, a) == minpoly(a)
