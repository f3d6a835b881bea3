"""Height-ordered search for elements with certified properties.

The integer grid is dense enough: any finite set of "bad" polynomial
conditions misses infinitely many grid points, so enumerating coefficient
vectors by height (max absolute coordinate) and testing exactly is a
complete procedure.  Everything emitted carries a certificate that tests can
re-verify from scratch; nothing is trusted from the search itself.

Every search is one pipeline, ``_search``: it builds one certifier from the
field, the set S and the Galois group (if the search holds one) and returns
the hit stream.  Candidates are enumerated by height, certified one at a
time and committed in enumeration order, a hit proportional to an earlier
hit dropped.  Degree 1 is the only branch: there the stream of non-rational
candidates is empty, so the rationals 1, 2, 3, ... go through the same
certifier.  ``search_primitive``, ``search_normal`` and the norm-one
searches all read that one stream.

A value is primitive iff its minimal polynomial has degree n.  Searches
with a Galois group (``normal``, ``norm-one --normal``) read that polynomial
from the value's n images at the group's split prime, whose distinct images
are its distinct conjugates and one exact evaluation checks the polynomial
(``galois.minpoly_from_images``); the searches without a group solve for it
exactly (``representation.minpoly``).  A norm-one value b^n / N(b) takes
the certified minimal polynomial of b^n, rescaled, and one exact evaluation
checks it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, NamedTuple, Sequence

from .criteria import normal_det
from .errors import (
    ConstantPolynomial,
    HeightCapExceeded,
    NotAField,
    TrivialExtension,
)
from .galois import GaloisGroup, galois_group, minpoly_from_images
from .numberfield import FieldElem, NumberField, make_field
from .polynomials import UPoly, poly_eval
from .representation import minpoly, norm

DEFAULT_MAX_HEIGHT = 1000
_DRAWS_PER_HEIGHT = 50


class _SearchFields(NamedTuple):
    # the fields of SearchConfig; its __new__ holds their defaults and checks
    S: tuple[UPoly, ...]
    count: int
    max_height: int
    seed: int
    mode: str


class SearchConfig(_SearchFields):
    """What to search for and how hard to try."""

    __slots__ = ()

    def __new__(cls, S, count, max_height=DEFAULT_MAX_HEIGHT, seed=0,
                mode="deterministic"):
        S = tuple(S)
        if not S:
            raise ValueError("S must be a non-empty set of polynomials")
        for h in S:
            if h.degree < 1:
                raise ConstantPolynomial(f"constant polynomial in S: {h}")
        if count < 1:
            raise ValueError("count must be at least 1")
        if max_height < 1:
            raise ValueError("max_height must be at least 1")
        if mode not in ("deterministic", "randomized"):
            raise ValueError(f"unknown mode {mode!r}")
        return super().__new__(cls, S, count, max_height, seed, mode)


class PerH(NamedTuple):
    """Certificate for one polynomial of the search set at one hit."""

    h: UPoly
    value: FieldElem
    min_poly: UPoly
    normal_det: FieldElem | None


class WitnessedElement(NamedTuple):
    """A search hit together with everything needed to re-check it."""

    a: FieldElem
    per_h: tuple[PerH, ...]
    norm_value: Fraction | None


def _surface(n: int, h: int) -> Iterator[tuple[int, ...]]:
    # all integer vectors with max|c_i| = h exactly, lexicographic ascending
    vec = [0] * n

    def rec(i: int, reached: bool) -> Iterator[tuple[int, ...]]:
        if i == n - 1:
            values = range(-h, h + 1) if reached else (-h, h)
            for v in values:
                vec[i] = v
                yield tuple(vec)
            return
        for v in range(-h, h + 1):
            vec[i] = v
            yield from rec(i + 1, reached or abs(v) == h)

    yield from rec(0, False)


def enumerate_candidates(E: NumberField, cfg: SearchConfig) -> Iterator[FieldElem]:
    """Infinite-up-to-cap stream of non-rational integer-vector elements.

    Deterministic mode walks height surfaces 1, 2, ... in lexicographic
    order; randomized mode draws uniformly from the current height box,
    widening the box every fixed number of draws.  Raises HeightCapExceeded
    when a consumer outlives max_height.
    """
    n = E.degree
    if cfg.mode == "deterministic":
        for h in range(1, cfg.max_height + 1):
            for vec in _surface(n, h):
                if any(vec[1:]):
                    yield E.element(vec)
        raise HeightCapExceeded(cfg.max_height)
    rng = random.Random(cfg.seed)
    h = 1
    draws = 0
    while True:
        vec = tuple(rng.randint(-h, h) for _ in range(n))
        draws += 1
        if draws % _DRAWS_PER_HEIGHT == 0:
            h += 1
            if h > cfg.max_height:
                raise HeightCapExceeded(cfg.max_height)
        if any(vec[1:]):
            yield E.element(vec)


def _proj_key(a: FieldElem) -> tuple[int, ...]:
    # the Q^x-orbit of a nonzero element: its numerators over their gcd,
    # signed so that the first nonzero one is positive
    g = gcd(*a.num) if next(c for c in a.num if c) > 0 else -gcd(*a.num)
    return tuple(c // g for c in a.num)


def _hits(
    E: NumberField,
    cfg: SearchConfig,
    certify: Callable[[FieldElem], WitnessedElement | None],
    threads: int,
) -> Iterator[WitnessedElement]:
    # certified hits in stream order; duplicate candidates (randomized mode)
    # are dropped before testing, and a hit proportional to an earlier hit is
    # dropped at commit time so results are distinct mod Q^x.  Rejected
    # candidates get no such shortcut: h(c*a) and h(a) can differ in kind.
    # threads is unused; perfbench/tracing.py::_wrap_hits wraps this signature
    seen: set[FieldElem] = set()
    hit_rays: set[tuple] = set()
    for cand in enumerate_candidates(E, cfg):
        if cand in seen:
            continue
        seen.add(cand)
        w = certify(cand)
        if w is None:
            continue
        ray = _proj_key(w.a)
        if ray in hit_rays:
            continue
        hit_rays.add(ray)
        yield w


def _collect(gen: Iterator[WitnessedElement], count: int) -> list[WitnessedElement]:
    out: list[WitnessedElement] = []
    try:
        for w in gen:
            out.append(w)
            if len(out) == count:
                return out
    except HeightCapExceeded as e:
        raise HeightCapExceeded(e.max_height, partial=tuple(out)) from None
    raise AssertionError("hit stream ended without raising; unreachable")


def _certifier(
    E: NumberField, S: Sequence[UPoly], G: GaloisGroup | None
) -> Callable[[FieldElem], WitnessedElement | None]:
    # the certify step of every search: each h(cand) must generate E, read
    # from its minimal polynomial (from its images at G's split prime, or by
    # exact elimination), and, when G is given, also have a nonzero group
    # determinant (normality)
    def certify(cand: FieldElem) -> WitnessedElement | None:
        per = []
        for h in S:
            value = poly_eval(h, cand)
            mp = minpoly(value) if G is None else minpoly_from_images(G, value)
            if mp.degree != E.degree:
                return None
            det = None
            if G is not None:
                det = normal_det(G, value)
                if det.is_zero:
                    return None
            per.append(PerH(h, value, mp, det))
        return WitnessedElement(cand, tuple(per), None)

    return certify


def _search(
    E: NumberField, cfg: SearchConfig, G: GaloisGroup | None
) -> Iterator[WitnessedElement]:
    # the hit stream of every search.  The candidate stream skips rationals,
    # which are all of E = Q, so degree 1 walks k = 1, 2, ... instead; a k
    # with h(k) = 0 still generates Q but fails the normality test
    certify = _certifier(E, cfg.S, G)
    if E.degree > 1:
        return _hits(E, cfg, certify, 1)
    witnesses = (certify(E.from_rational(k)) for k in itertools.count(1))
    return (w for w in witnesses if w is not None)


def search_primitive(E: NumberField, cfg: SearchConfig) -> list[WitnessedElement]:
    """First count elements a with every h(a) a generator of E.

    Degree-1 fields give 1, 2, ..., count: everything generates.
    """
    return _collect(_search(E, cfg, None), cfg.count)


def search_normal(E: NumberField, cfg: SearchConfig, **options) -> list[WitnessedElement]:
    """First count elements a with every h(a) both a generator and a normal
    generator (conjugate orbit a basis).  Requires a Galois field; options
    (degree_cap, prime_bound) go to galois_group."""
    G = galois_group(E, **options)
    return _collect(_search(E, cfg, G), cfg.count)


def _norm_one_engine(
    E: NumberField,
    count: int,
    G: GaloisGroup | None,
    max_height: int,
    seed: int,
    mode: str,
) -> Iterator[WitnessedElement]:
    # map search hits b to a = b^n / norm(b), skipping an a seen before
    n = E.degree
    cfg = SearchConfig(
        S=(UPoly.monomial(n),), count=count,
        max_height=max_height, seed=seed, mode=mode,
    )
    seen: set[FieldElem] = set()
    for w in _search(E, cfg, G):
        hit = w.per_h[0]
        norm_b = norm(w.a)
        a = hit.value / norm_b
        if a in seen:
            continue
        seen.add(a)
        # a = b^n / N(b), so its minimal polynomial is that of b^n, which
        # the hit certified, scaled: coefficient j is g_j N(b)^(j - n)
        mp = UPoly([g * norm_b ** (j - n) for j, g in enumerate(hit.min_poly.coeffs)])
        if not poly_eval(mp, a).is_zero:
            raise AssertionError("the scaled minimal polynomial does not vanish at b^n / N(b)")
        if mp.degree != n:
            raise AssertionError("b^n / N(b) lost primitivity")
        norm_a = (-1) ** n * mp.coeff(0)  # the product of the n conjugates
        if norm_a != 1:
            raise AssertionError("b^n / N(b) does not have norm 1")
        det = None
        if G is not None:
            # the group determinant is multilinear in the |G| conjugates,
            # each divided here by N(b)
            det = hit.normal_det * norm_b ** -G.order
            if det.is_zero:
                raise AssertionError("b^n / N(b) lost normality")
        yield WitnessedElement(a, (PerH(UPoly.x(), a, mp, det),), norm_a)


def norm_one_primitive(
    E: NumberField,
    count: int,
    *,
    max_height: int = DEFAULT_MAX_HEIGHT,
    seed: int = 0,
    mode: str = "deterministic",
) -> list[WitnessedElement]:
    """count distinct generators of E with norm exactly 1, built as
    b^n / norm(b) from primitive search hits b."""
    if E.degree == 1:
        raise TrivialExtension("norm-one generators need degree at least 2")
    return _collect(_norm_one_engine(E, count, None, max_height, seed, mode), count)


def norm_one_normal(
    E: NumberField,
    count: int,
    *,
    max_height: int = DEFAULT_MAX_HEIGHT,
    seed: int = 0,
    mode: str = "deterministic",
    **options,
) -> list[WitnessedElement]:
    """count distinct elements that generate E, have norm 1, and whose
    conjugate orbit is a Q-basis; Galois fields only.  options (degree_cap,
    prime_bound) go to galois_group."""
    if E.degree == 1:
        raise TrivialExtension("norm-one generators need degree at least 2")
    G = galois_group(E, **options)
    return _collect(_norm_one_engine(E, count, G, max_height, seed, mode), count)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def pell_solutions(
    b,
    c,
    count: int,
    *,
    max_height: int = DEFAULT_MAX_HEIGHT,
    seed: int = 0,
    mode: str = "deterministic",
) -> list[tuple[Fraction, Fraction]]:
    """count distinct exact rational solutions of x^2 + bxy + cy^2 = 1.

    Solutions are norms: with theta a root of x^2 + bx + c, the element
    u + v*theta has norm u^2 - buv + cv^2, so norm-one elements give
    solutions (x, y) = (u, -v).  Requires b^2 - 4c to not be a rational
    square, otherwise the quadratic ring is not a field (NotAField carries
    the offending square root).
    """
    b = Fraction(b)
    c = Fraction(c)
    root = _rational_sqrt(b * b - 4 * c)
    if root is not None:
        raise NotAField(root)
    # clear denominators: theta' = lam*theta is a root of the monic integer
    # model x^2 + (lam*b) x + (lam^2*c)
    lam = lcm(b.denominator, c.denominator)
    E = make_field(UPoly([c * lam * lam, b * lam, 1]))

    def to_pair(w: WitnessedElement) -> tuple[Fraction, Fraction]:
        u, v_scaled = w.a.coeffs
        x, y = u, -v_scaled * lam
        if x * x + b * x * y + c * y * y != 1:
            raise AssertionError(f"({x}, {y}) does not solve the form")
        return (x, y)

    try:
        hits = norm_one_primitive(
            E, count, max_height=max_height, seed=seed, mode=mode
        )
    except HeightCapExceeded as e:
        raise HeightCapExceeded(
            e.max_height, partial=tuple(to_pair(w) for w in e.partial)
        ) from None
    return [to_pair(w) for w in hits]
