"""The extension E = Q[x]/(f) and exact arithmetic in its power basis.

A ``NumberField`` is defined by a monic squarefree f with no rational root
(degree >= 2) and carries an irreducibility certificate from the first prime
p <= 200 that decides, reading the records of the prime scan of the p-adic
layer in ``polynomials`` (``frobenius_scan``):

- ``CertifiedModP``: f is irreducible mod p by Ben-Or's gcd test, which
  proves irreducibility over Q, since a monic f keeps its degree mod p.
- ``CertifiedSplitPrime``: f splits into n <= 8 distinct linear factors mod
  p, and no product of 1..n/2 of its roots, Hensel-lifted to p^k above twice
  Mignotte's bound C(n/2, i) (isqrt(sum F_j^2) + 1) on the coefficients of a
  factor of the integral F = D^n f(y/D), is a factor of F (Zassenhaus 1969;
  Cohen, *A Course in Computational Algebraic Number Theory*, 3.5).  A
  root that is one is raised as ``RationalRoot``, a product as
  ``ZeroDivisor`` with its monic factor of f, so the same scan also rejects
  reducible f.  The cap n <= 8 bounds the recombination at 154 subsets.
- ``AssumedIrreducible``: no prime up to 200 is irreducible or (for n <= 8)
  split, as for (x^3-2)(x^3-3).  Before that is assumed, the roots of the
  record that decided the rational-root question are recombined as well,
  which catches a factor that splits into linear factors there.  Any other
  hidden factor of f then surfaces only as a ``ZeroDivisor`` witness during
  inversion.  Distinct-degree patterns and multifactor lifting at a prime
  with few factors, which would decide these too, are not done.

The same records decide whether f has a rational root (``make_field``),
and only that question takes the scan past 200.  The field keeps the
records it read (``scan``); ``galois`` reads them before it scans on, so no
record is computed twice for one field.

Elements are coordinate vectors in the power basis 1, theta, ...,
theta**(n-1), stored as integer numerators over one positive common
denominator in lowest terms (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2).  That form is canonical, so equality and hashing
compare integers, and element arithmetic runs on ints with at most one gcd
per result.  The rational coordinates (``fractions.Fraction``) are built on
demand by ``FieldElem.coeffs``, the element's API and JSON view.  All values
are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import (
    ConstantPolynomial,
    DivisionByZero,
    FieldMismatch,
    NotSquarefree,
    RationalRoot,
    ZeroDivisor,
)
from .linalg import _bareiss_int
from .polynomials import (
    ModPoly,
    UPoly,
    _from_roots,
    _symmetric,
    frobenius_scan,
    integral_model,
    lift_precision,
    mod_is_squarefree,
    newton_lift,
    poly_gcd,
)

# the largest prime make_field tries for an irreducibility certificate
CERT_PRIME_BOUND = 199
# the largest degree whose root subsets are tried: at most 154 of them at n = 8
SPLIT_DEGREE_CAP = 8


class CertifiedModP(NamedTuple):
    """f mod prime is irreducible over GF(prime), hence f is irreducible over Q."""

    prime: int


class CertifiedSplitPrime(NamedTuple):
    """f splits into distinct linear factors mod prime, and no product of at
    most n/2 of its roots, lifted to prime**precision, is a factor over Q."""

    prime: int
    precision: int


class AssumedIrreducible(NamedTuple):
    """No modular certificate found; reducibility shows up lazily as ZeroDivisor."""


class NumberField:
    """E = Q[x]/(f) with f monic of degree n >= 1.

    scan is the prefix of ``frobenius_scan(f, 2, ...)`` that ``make_field``
    read, one ``ScanRecord`` per prime, and squarefree maps each prime of it
    where ``make_field`` took gcd(f mod p, f') to whether f mod p is
    squarefree; neither takes part in equality."""

    __slots__ = ("minpoly", "degree", "certificate", "scan", "squarefree",
                 "_reduction_rows", "_reduction_den")

    def __init__(self, minpoly: UPoly, certificate, scan: tuple = (),
                 squarefree: dict | None = None):
        n = minpoly.degree
        self.minpoly = minpoly
        self.degree = n
        self.certificate = certificate
        self.scan = scan
        self.squarefree = squarefree or {}
        # theta**(n+j) = _reduction_rows[j] / _reduction_den in the power
        # basis, j = 0..n-2; the denominator is 1 for every integral f
        rows = [tuple(-c for c in minpoly.coeffs[:n])]
        for _ in range(n - 2):
            top = rows[-1][n - 1]
            rows.append(tuple(
                (rows[-1][i - 1] if i else 0) + top * rows[0][i] for i in range(n)
            ))
        den = math.lcm(*(c.denominator for row in rows for c in row))
        self._reduction_rows = tuple(
            tuple(c.numerator * (den // c.denominator) for c in row) for row in rows
        )
        self._reduction_den = den

    # -- constructors -------------------------------------------------

    def element(self, coeffs: Iterable) -> "FieldElem":
        return FieldElem(self, coeffs)

    def from_rational(self, c) -> "FieldElem":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _raw(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    def zero(self) -> "FieldElem":
        return self.from_rational(0)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def gen(self) -> "FieldElem":
        """theta, the image of x.  In a degree-1 field this is a rational."""
        rem = UPoly.x() % self.minpoly
        return self.element([rem.coeff(i) for i in range(self.degree)])

    def reduce_poly(self, p: UPoly) -> "FieldElem":
        """The class of an arbitrary polynomial in E."""
        rem = p % self.minpoly
        return self.element([rem.coeff(i) for i in range(self.degree)])

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

    def __repr__(self):
        return f"NumberField({self.minpoly!r}, {self.certificate!r})"

    def _check_same(self, other: "NumberField"):
        if self is not other and self != other:
            raise FieldMismatch(f"{self!r} vs {other!r}")


class FieldElem:
    """Element of a NumberField: power-basis coordinates num[i] / den.

    den > 0 and gcd(den, *num) = 1, so every element has exactly one form.
    """

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent: NumberField, coeffs: Iterable):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(cs) != parent.degree:
            raise ValueError(
                f"expected {parent.degree} coordinates, got {len(cs)}"
            )
        # the lcm of reduced denominators is coprime to the numerators
        den = math.lcm(*(c.denominator for c in cs))
        self.parent = parent
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    # -- structural ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates; the API and JSON view of the element."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_poly(self) -> UPoly:
        return UPoly(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return (
                self.num == other.num
                and self.den == other.den
                and (self.parent is other.parent or self.parent == other.parent)
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the rational it equals
        if self.is_rational:
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __repr__(self):
        return f"FieldElem({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import format_elem

        return format_elem(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            self.parent._check_same(other.parent)
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.from_rational(other)
        return NotImplemented

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and other.denominator == 1:
            # adding a multiple of den leaves gcd(den, *num) = 1
            num = self.num
            return _raw(
                self.parent, (num[0] + other.numerator * self.den,) + num[1:], self.den
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.parent, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical(
                self.parent,
                [c * other.numerator for c in self.num],
                self.den * other.denominator,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        E = self.parent
        n = E.degree
        b = other.num
        # plain index loops: faster here than comprehensions or sum(map())
        conv = [0] * (2 * n - 1)
        for i, ca in enumerate(self.num):
            if ca:
                k = i
                for cb in b:
                    conv[k] += ca * cb
                    k += 1
        den = self.den * other.den
        out = conv[:n]
        rden = E._reduction_den
        if rden != 1:
            out = [c * rden for c in out]
            den *= rden
        for c, row in zip(conv[n:], E._reduction_rows):
            if c:
                i = 0
                for r in row:
                    out[i] += c * r
                    i += 1
        return _canonical(E, out, den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return invert(self) ** (-e)
        result = self.parent.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return _canonical(
                self.parent,
                [c * other.denominator for c in self.num],
                self.den * other.numerator,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * invert(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * invert(self)


def _raw(parent: NumberField, num: tuple, den: int) -> FieldElem:
    # an element from a numerator tuple and denominator already in lowest terms
    e = object.__new__(FieldElem)
    e.parent = parent
    e.num = num
    e.den = den
    return e


def _canonical(parent: NumberField, num: list, den: int) -> FieldElem:
    # lowest terms with a positive denominator; den != 0
    if den < 0:
        num = [-c for c in num]
        den = -den
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(parent, tuple(num), den)


def _add(a: FieldElem, b: FieldElem, sign: int) -> FieldElem:
    # a + sign*b over the common denominator
    da, db = a.den, b.den
    if da == db:
        return _canonical(a.parent, [x + sign * y for x, y in zip(a.num, b.num)], da)
    return _canonical(
        a.parent, [x * db + sign * y * da for x, y in zip(a.num, b.num)], da * db
    )


def _mul_matrix(a: FieldElem) -> list[list[int]]:
    """The integer matrix C of multiplication by a, as rows: with a = A / den
    and theta**n = row0 / rden, column j holds the numerator of a*theta**j
    over den*rden**j, so column j + 1 is rden*theta*(column j) reduced by
    row0."""
    E = a.parent
    row0 = E._reduction_rows[0]
    rden = E._reduction_den
    col = list(a.num)
    cols = [col]
    for _ in range(E.degree - 1):
        top = col[-1]
        col = [rden * c + top * r for c, r in zip([0] + col[:-1], row0)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def invert(a: FieldElem) -> FieldElem:
    """a**-1 by a fraction-free solve of (multiplication by a) x = 1.

    With C = ``_mul_matrix(a)``, C z = e_0 gives x_j = rden**j * z_j and
    a**-1 = den * x.  C is singular exactly when rep(a) shares a factor with
    f: the field was built on an AssumedIrreducible polynomial that is
    actually reducible, reported as ZeroDivisor with the monic gcd(f,
    rep(a)) as witness.
    """
    if a.is_zero:
        raise DivisionByZero("inverse of zero")
    E = a.parent
    n = E.degree
    rden = E._reduction_den
    m = [row + [int(i == 0)] for i, row in enumerate(_mul_matrix(a))]
    if _bareiss_int(m) == 0:
        raise ZeroDivisor(poly_gcd(E.minpoly, a.as_poly()))
    # back substitution: with u the last pivot, u*z is integral (Cramer)
    u = m[n - 1][n - 1]
    z = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = u * row[n] - sum(row[j] * z[j] for j in range(i + 1, n))
        z[i] = acc // row[i]
    return _canonical(E, [a.den * rden**j * c for j, c in enumerate(z)], u)


def make_field(f: UPoly) -> NumberField:
    """Validate f and build E = Q[x]/(f).

    Rejects constants and non-squarefree polynomials (witness: gcd(f, f')).
    Then reads the ``frobenius_scan`` record of each prime in increasing
    order.  The certificate rules read the primes p <= CERT_PRIME_BOUND and
    stop at the first that decides:

    - f is irreducible mod p by Ben-Or's test: ``CertifiedModP(p)``;
    - f has n <= SPLIT_DEGREE_CAP distinct roots mod p: they are lifted
      and recombined (``_recombine``), which raises RationalRoot or
      ZeroDivisor with a monic factor of f, or finds no factor of degree
      <= n/2: ``CertifiedSplitPrime(p, k)``.

    With no such prime, the record that decided the rational-root question
    (below) is recombined once more if it has 2..SPLIT_DEGREE_CAP roots,
    over subsets of up to n/2 of them: that raises ZeroDivisor with any
    factor that splits into linear factors mod its prime.  Otherwise the
    field is built with AssumedIrreducible: a hidden factor can then only
    surface as a ZeroDivisor during inversion.

    For n >= 2 the same records decide whether f has a rational root r
    (witness: the root).  D r is a root of the monic integer F = D^n f(y/D),
    so r is integral at every scanned prime p (p does not divide D) and
    reduces to a root of f mod p.  So a record with no root proves there is
    none, and one where f mod p is squarefree has every r among the lifts of
    its roots (``_recombine``).  Only this question takes the scan past
    CERT_PRIME_BOUND, and only until f is squarefree mod p, as it is at all
    but finitely many primes.  The field keeps every record read, and every
    squarefree answer taken.
    """
    if f.is_zero or f.degree < 1:
        raise ConstantPolynomial(f"cannot build a field on {f!r}")
    f = f.monic()
    g = poly_gcd(f, f.derivative())
    if g.degree > 0:
        raise NotSquarefree(g)
    n = f.degree
    certificate = None
    root_open = n >= 2  # whether f may still have a rational root
    scan, squarefree = [], {}
    for record in frobenius_scan(f, 2, math.inf):
        scan.append(record)
        p, fp, _, roots = record
        if certificate is None and p <= CERT_PRIME_BOUND:
            if record.is_irreducible():  # n = 1, or no root mod p
                certificate = CertifiedModP(p)
            elif roots == n <= SPLIT_DEGREE_CAP:
                certificate = CertifiedSplitPrime(p, _recombine(f, fp, n // 2))
                root_open = False
        if root_open and (roots in (0, n) or squarefree.setdefault(p, mod_is_squarefree(fp))):
            if roots:
                _recombine(f, fp, 1)
            root_open, settled = False, record
        if not root_open and (certificate is not None or p >= CERT_PRIME_BOUND):
            break
    # with no certificate, n >= 2 and the loop left only once settled was set
    if certificate is None and 2 <= settled.roots <= SPLIT_DEGREE_CAP:
        _recombine(f, settled.fp, min(n // 2, settled.roots))
    return NumberField(f, certificate or AssumedIrreducible(), tuple(scan), squarefree)


def _recombine(f: UPoly, fp: ModPoly, half: int) -> int:
    """Lift the roots of f, monic of degree n >= 2, at a prime p where f mod p
    is squarefree, and recombine them (Zassenhaus; Cohen, *A Course in
    Computational Algebraic Number Theory*, 3.5): raise RationalRoot with
    the least rational root by (|num|, den, sign), else ZeroDivisor with a
    monic factor of degree 2..half, else return the precision k.

    A monic integer factor g of degree d <= half of F = D^n f(y/D) has
    |g_i| <= C(d, i) ||F||_2 <= C(half, i) (isqrt(sum F_j^2) + 1) by
    Mignotte's bound.  Mod p, g is the product of y - m_t over d of the
    roots m_t of F, and by Hensel's lemma that stays so for the roots lifted
    to any p^k.  At the least k with p^k above twice every bound, the
    symmetric residues of that product are the coefficients of g: for d = 1
    a root that is an integer root of F, for d >= 2 a subset tried by its
    constant term (within its bound and dividing F_0), every coefficient,
    then exact division.  At half = n/2 and n roots mod p, finding none
    proves f irreducible; with fewer than n roots, finding none proves
    nothing, since a factor need not split mod p.
    """
    p = fp.p
    D, F = integral_model(f)
    norm = math.isqrt(sum(c * c for c in F)) + 1
    bounds = [math.comb(half, i) * norm for i in range(half + 1)]
    k = lift_precision(p, max(bounds))
    modulus = p**k
    roots = [D * r % modulus for r in newton_lift(f, fp.roots(), p, 1, k)]
    ys = [_symmetric(m, modulus) for m in roots]
    rational = [Fraction(y, D) for y in ys if not sum(c * y**i for i, c in enumerate(F))]
    if rational:
        raise RationalRoot(min(rational, key=lambda q: (abs(q.numerator), q.denominator, q < 0)))
    for d in range(2, half + 1):
        for subset in combinations(roots, d):
            # a factor's constant term divides F_0, which is not 0 (0 is no root)
            g0 = _symmetric((-1) ** d * math.prod(subset) % modulus, modulus)
            if not g0 or abs(g0) > bounds[0] or F[0] % g0:
                continue
            g = _from_roots(subset, modulus)
            if all(abs(c) <= b for c, b in zip(g, bounds)) and not UPoly(F) % UPoly(g):
                raise ZeroDivisor(UPoly([Fraction(c, D ** (d - i)) for i, c in enumerate(g)]))
    return k
