"""Property test of lift_precision, which starts from a bit-length estimate:
it must return the k of the plain loop that raises k while p^k <= 2*bound,
for any prime p and any bound, also next to the powers of p."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab.polynomials import is_prime, lift_precision  # noqa: E402


def least_k(p, bound):
    k = 1
    while p**k <= 2 * bound:
        k += 1
    return k


@st.composite
def prime_and_bound(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 17, 97, 9973, 2**61 - 1])
             | st.integers(2, 10**5).filter(is_prime))
    near_power = st.tuples(st.integers(0, 400), st.integers(-2, 2)).map(
        lambda t: max(0, p ** t[0] // 2 + t[1]))
    bound = draw(st.integers(0, 2**3000) | near_power)
    return p, bound


@settings(max_examples=400, deadline=None)
@given(prime_and_bound())
def test_lift_precision_matches_the_plain_loop(pair):
    p, bound = pair
    assert lift_precision(p, bound) == least_k(p, bound)
