"""Split primes, Hensel lifting, automorphism recovery, and group structure."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from fieldlab import (
    CertifiedSplitPrime,
    DegreeCapExceeded,
    GaloisGroup,
    ModPoly,
    NotGalois,
    SearchConfig,
    UPoly,
    ZeroDivisor,
    automorphisms,
    automorphisms_with_diagnostics,
    conjugate_vector,
    galois_group,
    hensel_lift,
    make_field,
    minpoly,
    norm_one_normal,
    parse_poly,
    poly_eval,
    search_normal,
)
from fieldlab import galois, search
from fieldlab.galois import DEFAULT_PRIME_BOUND, _lagrange_columns, minpoly_from_images
from fieldlab.polynomials import mod_is_squarefree, primes_from
from conftest import (
    GALOIS_POLYS, check_euler_coordinates, compose, euler_bounds, field, find_split_prime,
    force_field, random_elem, root_permutation, shifted,
)

RATIONAL_POLYS = ["x^2+1/4", "x^4+1/16", "x^4-5/2*x^2+1/16"]


def assert_proven_precision(E, data):
    # p^k is the least power of p above twice every Euler bound
    top = 2 * max(euler_bounds(E)[1])
    assert data.p ** data.precision > top >= data.p ** (data.precision - 1)


# ---------------------------------------------------------------------------
# split primes
# ---------------------------------------------------------------------------


def test_split_prime_qi(qi):
    data = find_split_prime(qi)
    assert data.p == 5
    assert sorted(data.lifted_roots) == [2, 3]


def test_split_prime_sqrt2():
    data = find_split_prime(field("x^2-2"))
    assert data.p == 7
    assert sorted(data.lifted_roots) == [3, 4]


def test_split_prime_degree_one():
    data = find_split_prime(field("x-1"))
    assert data.p == 2
    assert data.lifted_roots == (1,)


def test_split_prime_min_p(qi):
    data = find_split_prime(qi, min_p=6)
    assert data.p == 13
    roots = sorted(data.lifted_roots)
    assert all(r * r % 13 == 12 for r in roots)


def test_split_roots_are_simple_roots(reference_fields):
    for E in reference_fields:
        data = find_split_prime(E)
        p = data.p
        coeffs = [int(c) for c in E.minpoly.coeffs]
        for r in data.lifted_roots:
            value = sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p
            assert value == 0
        assert len(set(data.lifted_roots)) == len(data.lifted_roots)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def test_hensel_qi(qi):
    data = find_split_prime(qi)
    lifted = hensel_lift(data, 2)
    assert lifted.precision == 2
    assert lifted.modulus == 25
    assert set(lifted.lifted_roots) == {7, 18}  # 7^2 = 49 = -1 (mod 25)


def test_hensel_sqrt2():
    data = find_split_prime(field("x^2-2"))
    lifted = hensel_lift(data, 2)
    assert 10 in lifted.lifted_roots  # 10^2 = 100 = 2 (mod 49)


def test_hensel_noop_when_precise_enough(qi):
    data = hensel_lift(find_split_prime(qi), 3)
    assert hensel_lift(data, 2) is data


def test_hensel_roots_satisfy_f_to_high_precision(reference_fields):
    for E in reference_fields:
        data = hensel_lift(find_split_prime(E), 12)
        m = data.modulus
        coeffs = [int(c) for c in E.minpoly.coeffs]
        for r in data.lifted_roots:
            assert sum(c * pow(r, i, m) for i, c in enumerate(coeffs)) % m == 0


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_automorphisms_qi(qi):
    auts = automorphisms(qi)
    images = {a.r for a in auts}
    assert images == {qi.gen(), -qi.gen()}


def test_automorphisms_real_cubic():
    E = field("x^3-2")
    auts = automorphisms(E)
    assert len(auts) == 1
    assert auts[0].is_identity


def test_automorphisms_biquadratic():
    E = field("x^4-10*x^2+1")
    th = E.gen()
    images = {a.r for a in automorphisms(E)}
    assert images == {th, -th, th**3 - 10 * th, -(th**3) + 10 * th}


def test_all_images_are_roots(reference_fields):
    for E in reference_fields:
        for s in automorphisms(E):
            assert poly_eval(E.minpoly, s.r).is_zero


def test_canonical_order_identity_first(reference_fields):
    for E in reference_fields:
        auts = automorphisms(E)
        assert auts[0].is_identity
        tails = [a.r.coeffs for a in auts[1:]]
        assert tails == sorted(tails)


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        automorphisms(field("x^2+1"), degree_cap=1)


def test_method_independence(qi):
    # a different split prime must yield the same automorphism set
    default = {a.r for a in automorphisms(qi)}
    alt = {a.r for a in automorphisms(qi, min_prime=6)}
    assert default == alt


def test_diagnostics_report_prime(qi):
    auts, data = automorphisms_with_diagnostics(qi)
    assert data.p == 5
    assert len(auts) == 2
    assert data.precision >= 1


def test_split_certificate_and_automorphisms_share_the_prime(galois_fields):
    # one prime scan serves both: a Galois field has root counts 0 or n, so
    # the automorphism scan stops at the split prime that certified the field
    fields = galois_fields + [field(t) for t in ("x^8+1", *RATIONAL_POLYS)]
    certified = [E for E in fields if isinstance(E.certificate, CertifiedSplitPrime)]
    assert len(certified) >= 4
    for E in certified:
        auts, data = automorphisms_with_diagnostics(E)
        assert len(auts) == E.degree
        assert data.p == E.certificate.prime, E


# ---------------------------------------------------------------------------
# the root-count bound and the stop rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, p", [("x^7-2", 3), ("x^7-x-1", 5), ("x^8-x-1", 19)])
def test_one_root_proves_the_group_trivial(text, p):
    # x^7-x-1 and x^8-x-1 split at no prime below 10000
    auts, data = automorphisms_with_diagnostics(field(text))
    assert len(auts) == 1 and auts[0].is_identity
    assert (data.p, data.precision, len(data.lifted_roots)) == (p, 1, 1)


@pytest.mark.parametrize("prime_bound", [DEFAULT_PRIME_BOUND, 5])
def test_complete_walk_proves_the_count(prime_bound):
    # x^3-x+3 splits mod 3 before any prime with one root (7 is the first),
    # so the root-count bound stays 3; the walk over every permutation at the
    # proven precision finds the identity alone, and that proves the count
    E = field("x^3-x+3")
    auts, data = automorphisms_with_diagnostics(E, prime_bound=prime_bound)
    assert len(auts) == 1 and auts[0].is_identity
    assert data.p == 3
    assert_proven_precision(E, data)


def test_non_galois_count_in_one_round():
    E = field("x^6-2")
    auts, data = automorphisms_with_diagnostics(E)
    assert {a.r for a in auts} == {E.gen(), -E.gen()}
    assert_proven_precision(E, data)


def test_count_waits_for_the_precision_it_needs():
    # Q(i) written as x^2+1 shifted by x -> x + 10^9: the conjugation has
    # coefficients near 2*10^9, recovered at the precision Euler's bound sets
    E = shifted("x^2+1", 10**9)
    auts, data = automorphisms_with_diagnostics(E)
    assert len(auts) == 2
    assert data.p == 5
    assert_proven_precision(E, data)


def test_euler_coordinates_are_bounded_integers(reference_fields):
    for E in reference_fields + [field(t) for t in RATIONAL_POLYS]:
        check_euler_coordinates(E, automorphisms(E))


def test_deep_precision_walks_are_quick():
    # large coefficients or a large degree: one lift to the proven precision
    cases = [
        (field("x^8-2"), 2),
        (shifted("x^4+x^3+x^2+x+1", 5000), 4),
        (shifted("x^4-10*x^2+1", 3000), 4),
        (shifted("x^2+1", 10**9), 2),
    ]
    started = time.perf_counter()
    counts = [len(automorphisms(E)) for E, _ in cases]
    elapsed = time.perf_counter() - started
    assert counts == [count for _, count in cases]
    assert elapsed < 1.0, elapsed


def test_shared_root_label_exposes_a_factor():
    # x^4+4 = (x^2+2x+2)(x^2-2x+2); make_field rejects it at its split prime,
    # so the field is forced: two of its maps agree at the split prime
    with pytest.raises(ZeroDivisor) as e:
        automorphisms(force_field(parse_poly("x^4+4")))
    assert e.value.factor == parse_poly("x^2+2*x+2")


def test_root_counts_are_multiples_of_the_group_order(reference_fields):
    # where f is squarefree mod p, Aut(E) acts freely on the roots of f mod p
    fields = reference_fields + [field("x^4-2"), field("x^6-2"), field("x^3-x+3")]
    for E in fields:
        order = len(automorphisms(E))
        for p in primes_from(2):
            if p > 200:
                break
            fp = ModPoly(p, [int(c) for c in E.minpoly.coeffs])
            count = sum(1 for t in range(p) if fp(t) == 0)
            if count and mod_is_squarefree(fp):
                assert count % order == 0, (E, p, count)


# ---------------------------------------------------------------------------
# composing and applying automorphisms
# ---------------------------------------------------------------------------


def test_conjugation_squares_to_identity(qi):
    conj = next(a for a in automorphisms(qi) if not a.is_identity)
    assert compose(conj, conj).is_identity


def test_apply_conjugation(qi):
    conj = next(a for a in automorphisms(qi) if not a.is_identity)
    assert conj(qi.element([1, 1])) == qi.element([1, -1])


def test_biquadratic_involution():
    E = field("x^4-10*x^2+1")
    th = E.gen()
    swap = next(a for a in automorphisms(E) if a.r == th**3 - 10 * th)
    assert compose(swap, swap).is_identity


def test_apply_is_ring_homomorphism(reference_fields):
    rng = random.Random(127)
    for E in reference_fields:
        auts = automorphisms(E)
        for _ in range(200 // len(reference_fields) + 1):
            s = rng.choice(auts)
            a = random_elem(E, rng, span=5)
            b = random_elem(E, rng, span=5)
            assert s(a * b) == s(a) * s(b)
            assert s(a + b) == s(a) + s(b)
            assert s(E.one()) == E.one()


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


def test_group_qi_cyclic_of_order_2(qi):
    G = galois_group(qi)
    assert G.order == 2
    assert G.table[1][1] == 0


def test_group_not_galois():
    with pytest.raises(NotGalois) as e:
        galois_group(field("x^3-2"))
    assert e.value.count == 1


def test_group_klein_four():
    for text in ["x^4-10*x^2+1", "x^4+1"]:
        G = galois_group(field(text))
        assert G.order == 4
        for i in range(1, 4):
            assert G.table[i][i] == 0  # every non-identity element is an involution


def test_group_cyclotomic_cyclic():
    G = galois_group(field("x^4+x^3+x^2+x+1"))
    assert G.order == 4

    def elem_order(i):
        k, j = 1, i
        while j != 0:
            j = G.table[j][i]
            k += 1
        return k

    assert sorted(elem_order(i) for i in range(4)) == [1, 2, 4, 4]


def test_group_axioms_from_table(galois_fields):
    for E in galois_fields:
        G = galois_group(E)
        n = G.order
        ident = 0
        # identity row/column
        assert all(G.table[ident][j] == j for j in range(n))
        assert all(G.table[i][ident] == i for i in range(n))
        # inverses exist
        for i in range(n):
            assert any(G.table[i][j] == ident for j in range(n))
        # associativity: all triples (n <= 4 everywhere in this suite)
        for i, j, k in product(range(n), repeat=3):
            assert G.table[G.table[i][j]][k] == G.table[i][G.table[j][k]]


def oracle_perms(auts, data):
    # each map's root permutation, evaluated at the roots mod p
    roots = [m % data.p for m in data.lifted_roots]
    return [root_permutation(s, roots, data.p) for s in auts]


# Phi_7, Phi_9 and x^8+1: the Galois fields of the benchmark beyond GALOIS_POLYS
HANDOVER_FIELDS = (
    [shifted(t, k) for t in GALOIS_POLYS + ["x^6+x^5+x^4+x^3+x^2+x+1", "x^6+x^3+1", "x^8+1"]
     for k in (0, 1)]
    + [field("x^4+1/16"), field("x-1")]
)


@pytest.mark.parametrize("E", HANDOVER_FIELDS, ids=lambda E: str(E.minpoly))
def test_group_reads_the_walks_root_permutations(E):
    G = galois_group(E)
    assert len(G.split.perms) == G.order == E.degree
    assert list(G.split.perms) == oracle_perms(G.elements, G.split)
    # a deeper lift keeps them
    assert hensel_lift(G.split, G.split.precision + 2).perms == G.split.perms


@pytest.mark.parametrize("text", ["x^3-2", "x^6-2", "x^7-x-1"])
def test_walk_permutations_line_up_on_non_galois_fields(text):
    # x^3-2 and x^7-x-1 stop at a one-root prime, x^6-2 walks at a split one
    E = field(text)
    auts, data = automorphisms_with_diagnostics(E)
    assert len(data.perms) == len(auts) < E.degree
    assert list(data.perms) == oracle_perms(auts, data)
    assert data.perms[0] == tuple(range(len(data.lifted_roots)))


def test_group_refuses_split_data_without_permutations():
    E = field("x^4+1")
    auts, data = automorphisms_with_diagnostics(E)
    with pytest.raises(ValueError):
        GaloisGroup(E, auts, data._replace(perms=()))


def test_table_matches_compose(galois_fields):
    for E in galois_fields:
        G = galois_group(E)
        for i, s in enumerate(G.elements):
            for j, t in enumerate(G.elements):
                assert compose(s, t).r == G.elements[G.table[i][j]].r


# ---------------------------------------------------------------------------
# conjugate vectors
# ---------------------------------------------------------------------------


def test_conjugate_vector_examples(qi):
    G = galois_group(qi)
    th = qi.gen()
    assert conjugate_vector(G, qi.one()) == (qi.one(), qi.one())
    assert conjugate_vector(G, th) == (th, -th)
    assert conjugate_vector(G, qi.element([1, 1])) == (
        qi.element([1, 1]),
        qi.element([1, -1]),
    )


def test_automorphisms_fix_rationals(galois_fields):
    rng = random.Random(131)
    for E in galois_fields:
        G = galois_group(E)
        c = E.from_rational(rng.randint(-20, 20))
        assert all(v == c for v in conjugate_vector(G, c))


def test_table_matches_compose_order_8():
    # x^8+1 shifted by x -> x+1: Gal(Q(zeta_16)/Q) = Z/2 x Z/4, abelian and
    # not cyclic, the largest group in the benchmark's normal searches
    E = field("x^8+8*x^7+28*x^6+56*x^5+70*x^4+56*x^3+28*x^2+8*x+2")
    G = galois_group(E)
    assert G.order == 8
    for i, s in enumerate(G.elements):
        for j, t in enumerate(G.elements):
            assert compose(s, t) == G.elements[G.table[i][j]]
            assert G.table[i][j] == G.table[j][i]

    def elem_order(i):
        k, j = 1, i
        while j != 0:
            j = G.table[j][i]
            k += 1
        return k

    assert sorted(elem_order(i) for i in range(8)) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_automorphism_identity_across_fields():
    # an automorphism is its image r: equal and equally hashed across two
    # builds of the same field, distinct from the same r in another field
    first = automorphisms(field("x^4+1"))
    second = automorphisms(field("x^4+1"))
    assert first[0].parent is not second[0].parent
    assert first == second
    assert [hash(a) for a in first] == [hash(b) for b in second]
    assert len(set(first) | set(second)) == 4
    assert first[1] != first[2]
    qi, q2 = automorphisms(field("x^2+1")), automorphisms(field("x^2+2"))
    assert qi[1].r.num == q2[1].r.num
    assert qi[1] != q2[1]


@pytest.mark.parametrize("k", [8, 16, 32])
def test_lagrange_columns_invert_the_vandermonde(reference_fields, k):
    # V[s][i] = m_s^i times the quotient columns q_t = f / (x - m_t) is the
    # diagonal of the units f'(m_t) mod p^k
    for E in reference_fields:
        data = hensel_lift(find_split_prime(E), k)
        m, roots, n = data.modulus, data.lifted_roots, E.degree
        f = ModPoly.from_upoly(E.minpoly, m)
        cols = _lagrange_columns(f, roots)
        for t, root in enumerate(roots):
            for s, other in enumerate(roots):
                entry = sum(cols[t][i] * pow(other, i, m) for i in range(n)) % m
                assert entry == (f.derivative()(root) if s == t else 0)


# ---------------------------------------------------------------------------
# minimal polynomials from the split-prime images
# ---------------------------------------------------------------------------


def test_nongenerators_read_at_the_split_prime():
    E = field("x^4+1")
    G = galois_group(E)
    theta = E.gen()
    for a in (E.from_rational(Fraction(3, 17)), theta ** 2, theta ** 2 / 17 + 5):
        assert minpoly(a).degree < E.degree
        assert minpoly_from_images(G, a) == minpoly(a)


def test_galois_searches_never_solve_exactly(monkeypatch):
    # with G in hand every minimal polynomial is read at the split prime,
    # also for the many candidates b in x^4+1 whose b^4 does not generate
    # and so has colliding images (theta^4 = -1, for one)
    def refuse(a):
        raise AssertionError("exact minpoly called")

    monkeypatch.setattr(search, "minpoly", refuse)
    E = field("x^4+1")
    assert len(norm_one_normal(E, 3)) == 3
    assert len(search_normal(E, SearchConfig(S=(UPoly.monomial(4),), count=2))) == 2


def test_low_precision_raises_instead_of_answering(monkeypatch):
    E = field("x^2+1")
    G = galois_group(E)
    big = E.element([100, 1])  # minpoly x^2 - 200x + 10001, far above p = 5
    assert minpoly_from_images(G, big) == minpoly(big)
    monkeypatch.setattr(galois, "lift_precision", lambda p, bound: 1)
    with pytest.raises(AssertionError):
        minpoly_from_images(G, big)
    # the same through a search, which must emit nothing
    monkeypatch.setattr(search, "galois_group", lambda E, **options: G)
    cfg = SearchConfig(S=(UPoly([100, 1]),), count=1)
    with pytest.raises(AssertionError):
        search_normal(E, cfg)


def test_deepest_lift_is_kept_and_walk_precision_is_not_touched():
    E = field("x^4+1")
    G = galois_group(E)
    walk = G.split
    a = E.element([10**30, 1, 0, 0])
    assert minpoly_from_images(G, a) == minpoly(a)
    assert G.split.precision > walk.precision
    assert walk.precision == automorphisms_with_diagnostics(E)[1].precision
    deep = G.split
    assert minpoly_from_images(G, E.gen() + 1) == minpoly(E.gen() + 1)
    assert G.split is deep
