"""Shared fixtures: the reference fields, seeded random element factories,
and test oracles that the library itself does not need."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from fieldlab import (
    AssumedIrreducible,
    Automorphism,
    ModPoly,
    NoSplitPrimeFound,
    NumberField,
    QMatrix,
    SplitPrimeData,
    UPoly,
    automorphisms,
    conjugate_vector,
    make_field,
    parse_poly,
    poly_eval,
)
from fieldlab.galois import DEFAULT_PRIME_BOUND
from fieldlab.polynomials import _scan_record, frobenius_scan

# Defining polynomials exercised throughout the suite.  Degrees 2..4 cover
# quadratic, non-Galois cubic, and three flavors of quartic Galois group
# (Klein four twice, cyclic once).
REFERENCE_POLYS = [
    "x^2+1",
    "x^2-2",
    "x^3-2",
    "x^3-x-1",
    "x^4-10*x^2+1",
    "x^4+x^3+x^2+x+1",
    "x^4+1",
]

GALOIS_POLYS = ["x^2+1", "x^2-2", "x^4-10*x^2+1", "x^4+x^3+x^2+x+1", "x^4+1"]


def field(text: str) -> NumberField:
    return make_field(parse_poly(text))


def shifted(text: str, k: int) -> NumberField:
    """The field of f(x + k)."""
    return make_field(poly_eval(parse_poly(text), UPoly([k, 1])))


def euler_bounds(E: NumberField) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of f, and the bounds n*B*C(n-1, i)*B^(n-1-i)
    on coefficient i of F'(theta')*sigma(theta') in powers of theta' = D*theta,
    where F = D^n f(y/D) is monic integral and B = 1 + max |F_j|."""
    f, n = E.minpoly, E.degree
    D = math.lcm(*(c.denominator for c in f.coeffs))
    B = 1 + max(abs(c) * D ** (n - i) for i, c in enumerate(f.coeffs))
    return D, [n * B * math.comb(n - 1, i) * B ** (n - 1 - i) for i in range(n)]


def check_euler_coordinates(E: NumberField, automorphisms) -> None:
    """Each D^n*f'(theta)*sigma(theta) = F'(theta')*sigma(theta') has integer
    coordinates in the basis 1, theta', ..., theta'^(n-1), each within its bound."""
    D, bounds = euler_bounds(E)
    fprime = E.reduce_poly(E.minpoly.derivative()) * D ** E.degree
    for s in automorphisms:
        coords = [c / D ** i for i, c in enumerate((fprime * s.r).coeffs)]
        assert all(c.denominator == 1 for c in coords), (E, s, coords)
        assert all(abs(c) <= b for c, b in zip(coords, bounds)), (E, s, coords)


@pytest.fixture(scope="session")
def reference_fields():
    return [field(t) for t in REFERENCE_POLYS]


@pytest.fixture(scope="session")
def galois_fields():
    return [field(t) for t in GALOIS_POLYS]


@pytest.fixture
def qi():
    return field("x^2+1")


def random_rational(rng: random.Random, span: int = 20) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_elem(E: NumberField, rng: random.Random, span: int = 20):
    return E.element([random_rational(rng, span) for _ in range(E.degree)])


def random_nonzero_elem(E: NumberField, rng: random.Random, span: int = 20):
    while True:
        a = random_elem(E, rng, span)
        if not a.is_zero:
            return a


def random_upoly(rng: random.Random, max_deg: int = 6, span: int = 9) -> UPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [random_rational(rng, span) for _ in range(deg + 1)]
    return UPoly(coeffs)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def force_field(f: UPoly) -> NumberField:
    """A field on the non-constant f with no validation at all, for the lazy
    ZeroDivisor path of a reducible f and for non-reduced algebras."""
    return NumberField(f.monic(), AssumedIrreducible())


def matrix_product(a: QMatrix, b: QMatrix) -> QMatrix:
    cols = list(zip(*b.entries))
    return QMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols]
                    for row in a.entries])


def matrix_rank(rows) -> int:
    """Rank of a list of rows over Q or over one number field, by plain
    Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][c] / top[c]
            work[i] = [x - factor * y for x, y in zip(work[i], top)]
        rank += 1
    return rank


def conjugate_rank(G, a) -> int:
    """Rank over Q of the coordinates of the conjugates of a: n iff a is a
    normal generator, the oracle for a nonzero group determinant."""
    return matrix_rank([c.coeffs for c in conjugate_vector(G, a)])


def regrep(a) -> QMatrix:
    """Matrix of multiplication by a: column j holds the coordinates of
    a*theta^j."""
    theta = a.parent.gen()
    return QMatrix(list(zip(*((a * theta**j).coeffs for j in range(a.parent.degree)))))


def compose(s, t) -> Automorphism:
    """s after t: theta -> s(t(theta))."""
    return Automorphism(s.parent, s(t.r))


def distinct_mod_scalars(elems) -> bool:
    """No two of the elements differ by a rational factor: every pair has
    rank 2 over Q (so no element is zero when there are two or more)."""
    return all(matrix_rank([a.coeffs, b.coeffs]) == 2
               for i, a in enumerate(elems) for b in elems[i + 1:])


def is_galois(E: NumberField) -> bool:
    """True iff the proved automorphism count equals the degree."""
    return len(automorphisms(E)) == E.degree


def find_split_prime(E: NumberField, bound: int = DEFAULT_PRIME_BOUND,
                     min_p: int = 2) -> SplitPrimeData:
    """The least prime p in [min_p, bound] at which f has n distinct roots,
    the first ``frobenius_scan`` record with root count n, and its roots at
    precision 1.  min_p forces a second, independent prime."""
    for record in frobenius_scan(E.minpoly, min_p, bound):
        if record.roots == E.degree:
            return SplitPrimeData(E, record.p, record.fp.roots(), 1)
    raise NoSplitPrimeFound(bound)


def root_permutation(s, roots_mod_p: list[int], p: int) -> tuple[int, ...]:
    """pi with s(theta) = m_pi(t) at the embedding theta -> m_t, as indices
    into roots_mod_p, from the image r of s evaluated at every root."""
    r = s.r
    rep = ModPoly(p, r.num)
    inv = pow(r.den, -1, p)
    return tuple(roots_mod_p.index(rep(m) * inv % p) for m in roots_mod_p)


def mod_is_irreducible(f: ModPoly) -> bool:
    """Ben-Or's test on the scan record of f; False below degree 1."""
    if f.degree < 1:
        return False
    return _scan_record(f.monic()).is_irreducible()


def digest(code, out: str, err: str) -> str:
    """sha256 of the exit code and the JSON document without its timings;
    of the exit code, stdout and stderr where no document was printed."""
    try:
        doc = json.loads(out)
    except ValueError:  # no document: the exit code and stderr are the answer
        body = out + err
    else:
        doc.get("diagnostics", {}).pop("timings", None)
        body = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(f"{code}\n{body}".encode()).hexdigest()
