"""Decidable characterizations: separability, normality, density.

Primitivity of a is deg(minpoly(a)) = n — no splitting field is ever
constructed.  The searches without a Galois group solve for the minimal
polynomial exactly (``representation.minpoly``); those with one read it
from the images of a at the split prime, whose distinct images are the
distinct conjugates of a (``galois.minpoly_from_images``).  Normality of a
under a full automorphism group G is the nonvanishing of
det[(sigma tau)(a)] (``normal_det``).  The density probe proves "no
low-degree relation" by full column rank of the monomial matrix modulo a
fixed prime, reading the points one at a time until that rank is full, so
it reads about as many points as the matrix has columns, however many there
are; it converts every point and eliminates exactly over Q only when that
rank falls short.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import comb, gcd, prod
from typing import NamedTuple

from .errors import InsufficientSample
from .galois import GaloisGroup, conjugate_vector
from .linalg import FILTER_PRIME, QMatrix, _rank_mod, field_det, rank_and_solve
from .numberfield import FieldElem, NumberField
from .representation import trace_gram


class SeparabilityReport(NamedTuple):
    gram_det: Fraction
    is_separable: bool


def is_separable_ext(E: NumberField) -> SeparabilityReport:
    """E/Q is separable iff its trace form is nondegenerate: det(trace_gram)
    != 0."""
    det = trace_gram(E).det()
    return SeparabilityReport(gram_det=det, is_separable=det != 0)


def normal_det(G: GaloisGroup, a: FieldElem) -> FieldElem:
    """det of the |G| x |G| matrix with entry (i, j) = (sigma_i sigma_j)(a)."""
    conj = conjugate_vector(G, a)
    rows = [[conj[k] for k in row] for row in G.table]
    return field_det(rows, G.field.zero(), G.field.one())


def _monomials(m: int, d: int) -> list[tuple[int, ...]]:
    # exponent vectors with total degree <= d, graded lexicographic
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            out.append(prefix)
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    for total in range(d + 1):
        start = len(out)
        rec((), total, m)
        out[start:] = [v for v in out[start:] if sum(v) == total]
    return out


def no_low_degree_relation(points, d: int) -> bool:
    """True iff no nonzero polynomial of total degree <= d vanishes on all
    the points: the monomial evaluation matrix has full column rank.

    A Sequence of points is read by index, anything else is listed first.
    The modular filter reads the points one at a time and stops at full
    rank mod FILTER_PRIME, which proves the answer True: it reads about
    C(m+d, d) of them for m coordinates, not all.  A point with FILTER_PRIME in a denominator
    gives no row, since full rank mod the prime of any subset of the rows
    is full rank over Q of them all.  Only when that rank falls short (a
    relation exists, or the prime is unlucky) is every point converted and
    the matrix eliminated exactly over Q."""
    if not isinstance(points, Sequence):
        points = list(points)
    if not points:
        raise InsufficientSample(1, 0)
    visits = _strided(points)
    first = next(visits)
    m = len(first)
    needed = comb(m + d, d)
    if len(points) < needed:
        raise InsufficientSample(needed, len(points))
    monos = _monomials(m, d)
    if len(monos) != needed:
        raise AssertionError("monomial count differs from C(m+d, d)")
    if _rank_mod(_rows_mod(chain([first], visits), monos, d), FILTER_PRIME, needed) == needed:
        return True
    pts = [tuple(Fraction(c) for c in p) for p in points]
    rows = [_monomial_row([[c ** e for e in range(d + 1)] for c in p], monos) for p in pts]
    return rank_and_solve(QMatrix(rows)).rank == needed


def _strided(points):
    # The points with a step near n / golden ratio and coprime to n, so each
    # once: neighbouring points of a product grid share coordinates, so a
    # run of them lies on a low-degree hypersurface and adds little rank,
    # while strided points rarely do.
    n = len(points)
    step = round(n * 0.618)
    while gcd(step, n) != 1:
        step += 1
    return (points[i * step % n] for i in range(n))


def _rows_mod(points, monos, d: int):
    # The monomial rows modulo FILTER_PRIME, one point at a time, so that the
    # rank kernel reads and converts no point past the one that completes
    # its rank; a point with FILTER_PRIME in a denominator gives no row.
    for point in points:
        point = [Fraction(c) for c in point]
        if any(c.denominator % FILTER_PRIME == 0 for c in point):
            continue
        residues = [c.numerator * pow(c.denominator, -1, FILTER_PRIME) % FILTER_PRIME
                    for c in point]
        yield _monomial_row(
            [[pow(x, e, FILTER_PRIME) for e in range(d + 1)] for x in residues], monos
        )


def _monomial_row(tables, monos) -> list:
    # the monomials at one point, from each coordinate's powers 1, c, ..., c^d
    return [prod(t[e] for t, e in zip(tables, expo)) for expo in monos]
