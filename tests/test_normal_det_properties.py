"""Property test of the group determinant's factorization.  With r_i =
sigma_i(theta) and C the rational coordinate rows of the conjugates
sigma_j(a), entry (i, j) of the group matrix is (sigma_i sigma_j)(a) =
sum_k C[j][k] r_i^k, so the matrix is V C^T with V = (r_i^k) and
Delta(a) = det C * prod_{i<j} (r_j - r_i)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import (  # noqa: E402
    QMatrix,
    conjugate_vector,
    galois_group,
    normal_det,
    parse_poly,
    qmatrix_det,
)
from conftest import GALOIS_POLYS, field, shifted  # noqa: E402


# the reference Galois fields, each shifted by x -> x + 3, and x^4+1/16
GROUPS = [galois_group(E) for E in (
    [field(t) for t in GALOIS_POLYS]
    + [shifted(t, 3) for t in GALOIS_POLYS]
    + [field("x^4+1/16")]
)]
X4_PLUS_1 = next(G for G in GROUPS if G.field.minpoly == parse_poly("x^4+1"))


def vandermonde_factor(G):
    r = [s.r for s in G.elements]
    out = G.field.one()
    for j in range(len(r)):
        for i in range(j):
            out = out * (r[j] - r[i])
    return out


@st.composite
def group_elements(draw):
    kind = draw(st.sampled_from(["coordinates", "rational", "theta squared"]))
    if kind == "theta squared":
        # the conjugates of theta^2 in x^4+1 are +-theta^2: Delta = 0
        return X4_PLUS_1, X4_PLUS_1.field.gen() ** 2
    G = draw(st.sampled_from(GROUPS))
    if kind == "rational":
        # every conjugate of a rational is itself: Delta = 0 past degree 1
        q = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        return G, G.field.from_rational(q)
    coords = [Fraction(draw(st.integers(-20, 20)), draw(st.sampled_from([1, 1, 2, 3])))
              for _ in range(G.field.degree)]
    return G, G.field.element(coords)


@settings(max_examples=200, deadline=None)
@given(group_elements())
def test_group_determinant_is_det_c_times_vandermonde(pair):
    G, a = pair
    C = QMatrix([list(c.coeffs) for c in conjugate_vector(G, a)])
    assert normal_det(G, a) == qmatrix_det(C) * vandermonde_factor(G)


def test_factorization_covers_zero_determinants():
    # theta^2 in x^4+1 and a rational: both sides vanish
    for G, a in [(X4_PLUS_1, X4_PLUS_1.field.gen() ** 2),
                 (GROUPS[0], GROUPS[0].field.from_rational(Fraction(3, 2)))]:
        assert normal_det(G, a).is_zero
        C = QMatrix([list(c.coeffs) for c in conjugate_vector(G, a)])
        assert qmatrix_det(C) == 0
