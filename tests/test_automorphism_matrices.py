"""Automorphisms as conjugation matrices and root permutations, on the prime
scan that make_field hands over: the matrix action, the permutation table
and the closure of the walk agree with Horner evaluation and composition,
and reusing the scan changes no reported prime or precision."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import (  # noqa: E402
    Automorphism,
    CertifiedSplitPrime,
    FieldElem,
    FieldMismatch,
    GaloisGroup,
    NumberField,
    automorphisms,
    automorphisms_with_diagnostics,
    conjugate_vector,
    galois_group,
    parse_poly,
    poly_eval,
)
from fieldlab.cli import main  # noqa: E402
from fieldlab.polynomials import ModPoly  # noqa: E402
from conftest import GALOIS_POLYS, compose, field, shifted  # noqa: E402

# the reference Galois fields, their shifts x -> x + k, one with D > 1, and
# two with the non-abelian group S3, where the order of composition shows
GALOIS_FIELDS = (
    [field(t) for t in GALOIS_POLYS]
    + [shifted(t, k) for t in GALOIS_POLYS for k in (-1, 2)]
    + [field("x^4+1/16"), field("x^6+108"), shifted("x^6+3", 1)]
)
GROUPS = [galois_group(E) for E in GALOIS_FIELDS]


def horner_apply(s: Automorphism, a):
    # sigma(a) as the power-basis form of a evaluated at sigma(theta)
    return poly_eval(a.as_poly(), s.r)


def horner_compose(s: Automorphism, t: Automorphism) -> Automorphism:
    return Automorphism(s.parent, horner_apply(s, t.r))


def test_some_groups_do_not_commute():
    orders = [G.order for G in GROUPS]
    assert 8 not in orders and 6 in orders
    S3 = GROUPS[-1]
    assert any(S3.table[i][j] != S3.table[j][i]
               for i in range(S3.order) for j in range(S3.order))


@st.composite
def group_and_element(draw):
    G = draw(st.sampled_from(GROUPS))
    i = draw(st.integers(0, G.order - 1))
    j = draw(st.integers(0, G.order - 1))
    p = G.split.p
    coords = [Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 2, 3, p])))
              for _ in range(G.field.degree)]
    return G, i, j, G.field.element(coords)


@settings(max_examples=300, deadline=None)
@given(group_and_element())
def test_matrices_and_permutations_match_horner(case):
    G, i, j, a = case
    s, t = G.elements[i], G.elements[j]
    assert s(a) == horner_apply(s, a)
    assert conjugate_vector(G, a)[i] == horner_apply(s, a)
    # the table entry, looked up by composed permutations, is s after t
    product = horner_compose(s, t)
    assert G.elements[G.table[i][j]] == product == compose(s, t)
    # the walk closed the group: the product is one of the elements
    assert product in set(G.elements)


@pytest.mark.parametrize("text", GALOIS_POLYS)
def test_call_is_horner_and_guards_its_field(text):
    E = field(text)
    other = field("x^3-2")
    for s in automorphisms(E):
        for a in (E.gen(), E.element(range(1, E.degree + 1)), E.from_rational(Fraction(-3, 7))):
            assert s(a) == horner_apply(s, a)
        with pytest.raises(FieldMismatch):
            s(other.gen())


@pytest.mark.parametrize("text", ["x^6-2", "x^3-x+3", "x^4-2", "x^8-2"])
def test_non_galois_closure_matches_horner(text):
    auts = automorphisms(field(text))
    for s in auts:
        for t in auts:
            assert horner_compose(s, t) in auts


def test_matrix_columns_are_the_powers_of_r():
    for G in GROUPS:
        n = G.field.degree
        for s in G.elements:
            for j in range(n):
                column = [row[j] for row in s.matrix]
                assert G.field.element([Fraction(c, s.den) for c in column]) == s.r ** j


# ---------------------------------------------------------------------------
# the prime scan handed over by make_field
# ---------------------------------------------------------------------------


def test_prime_bound_below_the_certificate_prime_still_exits_5(capsys):
    # make_field certifies x^4+1 at 17, its first split prime, and keeps
    # that scan; the walk may not use a prime above its own bound
    assert field("x^4+1").certificate == CertifiedSplitPrime(17, 1)
    assert main(["analyze", "x^4+1", "--prime-bound", "13"]) == 5
    assert "no fully split prime <= 13" in capsys.readouterr().err
    assert main(["analyze", "x^4+1", "--prime-bound", "17", "--json"]) == 0


@pytest.mark.parametrize("text, p", [("x^4+1", 41), ("x^2+1", 13), ("x^4-10*x^2+1", 47)])
def test_min_prime_still_forces_a_second_prime(text, p):
    E = field(text)
    auts, data = automorphisms_with_diagnostics(E)
    later, second = automorphisms_with_diagnostics(E, min_prime=data.p + 1)
    assert second.p == p > data.p
    assert later == auts
    bare = NumberField(E.minpoly, E.certificate)  # no scan handed over
    assert automorphisms_with_diagnostics(bare, min_prime=data.p + 1)[1] == second


@pytest.mark.parametrize("text", GALOIS_POLYS + ["x^4+1/16", "x^8+1", "x^6-2", "x^3-x+3",
                                                  "x^7-2", "x^8-x-1"])
def test_handed_over_scan_reports_the_same_prime_and_precision(text):
    E = field(text)
    bare = NumberField(E.minpoly, E.certificate)
    auts, data = automorphisms_with_diagnostics(E)
    bare_auts, bare_data = automorphisms_with_diagnostics(bare)
    assert auts == bare_auts
    assert (data.p, data.lifted_roots, data.precision) == (
        bare_data.p, bare_data.lifted_roots, bare_data.precision)


@pytest.mark.parametrize("text", ["x^4+1", "x^8+1", "x^4-10*x^2+1", "x^6-2", "x^7-x-1",
                                  "x^3-x+3", "x^4+1/16", "x^3-2"])
def test_analyze_computes_each_frobenius_power_once(monkeypatch, capsys, text):
    # x^p mod (p, f) is powmod(p) of the polynomial x, and gcd(f, x^p - x)
    # gives the root count: the prime scan takes each once per prime, Ben-Or's
    # first step included, and the walk reuses the records make_field kept.
    # The walk and the rational-root decision take gcd(f, f') only where the
    # count is neither 0 nor n: a split f is squarefree, and a rootless prime
    # bounds nothing and has no rational root.  The walk reads the answers
    # the rational-root decision took, so each prime's is taken at most once
    # (x^3-2 has one root at 2, 3 and 5).  Every gcd is one of f mod p.
    f = parse_poly(text).monic()
    n = f.degree
    powers, gcds = [], []
    powmod, gcd = ModPoly.powmod, ModPoly.gcd

    def recording_powmod(self, e, modulus):
        if self.coeffs == (0, 1) and e == self.p:
            powers.append(self.p)
        return powmod(self, e, modulus)

    def recording_gcd(self, other):
        gcds.append((self, other))
        return gcd(self, other)

    monkeypatch.setattr(ModPoly, "powmod", recording_powmod)
    monkeypatch.setattr(ModPoly, "gcd", recording_gcd)
    assert main(["analyze", text, "--json"]) == 0
    capsys.readouterr()
    assert powers and len(powers) == len(set(powers)), powers
    assert all(a == ModPoly.from_upoly(f, a.p) for a, _ in gcds)
    counted, derived = [], []
    for a, b in gcds:
        p = a.p
        x = ModPoly(p, [0, 1])
        if b == powmod(x, p, a) - x:
            counted.append(p)
        elif b == a.derivative():
            assert 1 <= len(a.roots()) < n, (p, a)
            derived.append(p)
    assert sorted(counted) == sorted(powers), (counted, powers)
    assert len(derived) == len(set(derived)), derived


def test_group_paths_neither_compose_nor_multiply(monkeypatch):
    # the closure composes root permutations, the table looks them up and a
    # conjugate is one matrix-vector product: no compose, no Horner step
    E = field("x^8+8*x^7+28*x^6+56*x^5+70*x^4+56*x^3+28*x^2+8*x+2")
    auts, data = automorphisms_with_diagnostics(E)
    products = []
    mul = FieldElem.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(FieldElem, "__mul__", counting)
    G = GaloisGroup(E, auts, data)
    conj = conjugate_vector(G, E.element([3, -1, 4, 1, -5, 9, 2, -6]))
    assert G.order == len(conj) == 8 and not products
