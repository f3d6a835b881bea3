"""Exact automorphisms of a number field via p-adic lifting.

An automorphism of E = Q[x]/(f) is determined by the image r of the
generator, and r must be a root of f in E.  The engine finds every such r:

  1. pick a prime p where f splits into n distinct linear factors,
  2. Hensel-lift the n roots to precision p^k,
  3. for each permutation hypothesis pi of the root labels, solve the
     Vandermonde congruence sum_i c_i m_t^i = m_pi(t) (mod p^k) by Lagrange
     interpolation, since f = prod (x - m_t) mod p^k,
  4. rationally reconstruct the c_i and verify f(sum c_i theta^i) = 0 in E
     exactly.

Verification makes every accepted automorphism unconditionally correct; the
p-adic machinery is only a candidate generator.  Precision deepens (k
doubles) until two consecutive rounds agree and the count divides n, so a
miss would need an automorphism whose coefficient height jumps past two
doublings at once.  An automorphism is keyed by r in its canonical integer
form, so closing the group and tabulating it are set and dict lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .errors import (
    DegreeCapExceeded,
    FieldMismatch,
    NoSplitPrimeFound,
    NotGalois,
    PrecisionCapExceeded,
)
from .numberfield import FieldElem, NumberField
from .polynomials import (
    ModPoly,
    newton_lift,
    poly_eval,
    primes_from,
    rational_reconstruct,
)

DEFAULT_DEGREE_CAP = 8
DEFAULT_PRIME_BOUND = 10_000
DEFAULT_PRECISION_CAP = 512
_START_PRECISION = 8


@dataclass(frozen=True)
class SplitPrimeData:
    """A fully split prime with its roots lifted to precision p^k."""

    field: NumberField
    p: int
    lifted_roots: tuple[int, ...]
    precision: int

    @property
    def modulus(self) -> int:
        return self.p ** self.precision


def find_split_prime(E: NumberField, bound: int = DEFAULT_PRIME_BOUND,
                     min_p: int = 2) -> SplitPrimeData:
    """Smallest prime p in [min_p, bound] at which f has n distinct roots.

    Split test: x^p = x mod (f, p) alone.  It says the monic f divides
    x^p - x, the product of the p distinct linear factors x - t, so f has
    n distinct roots mod p.  min_p exists so callers can force a second,
    independent prime.
    """
    f = E.minpoly
    for p in primes_from(min_p):
        if p > bound:
            raise NoSplitPrimeFound(bound)
        try:
            fp = ModPoly.from_upoly(f, p)
        except ValueError:
            continue  # a denominator of f vanishes mod p
        x = ModPoly(p, [0, 1])
        if x.powmod(p, fp) == x % fp:
            return SplitPrimeData(E, p, tuple(t for t in range(p) if fp(t) == 0), 1)
    raise NoSplitPrimeFound(bound)


def hensel_lift(data: SplitPrimeData, target_k: int) -> SplitPrimeData:
    """Newton-lift every root to precision p^target_k; no-op if already there."""
    if data.precision >= target_k:
        return data
    roots = newton_lift(data.field.minpoly, data.lifted_roots, data.p,
                        data.precision, target_k)
    return SplitPrimeData(data.field, data.p, roots, target_k)


class Automorphism:
    """Field map determined by theta -> r where f(r) = 0; verified at birth."""

    __slots__ = ("parent", "r")

    def __init__(self, parent: NumberField, r: FieldElem):
        parent._check_same(r.parent)
        if not poly_eval(parent.minpoly, r).is_zero:
            raise ValueError("generator image is not a root of the defining polynomial")
        self.parent = parent
        self.r = r

    @property
    def is_identity(self) -> bool:
        return self.r == self.parent.gen()

    def __call__(self, a: FieldElem) -> FieldElem:
        return apply(self, a)

    def __eq__(self, other):
        if isinstance(other, Automorphism):
            return self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return f"Automorphism(θ ↦ {self.r})"


def apply(s: Automorphism, a: FieldElem) -> FieldElem:
    """sigma(a): substitute sigma(theta) into the power-basis form of a,
    by Horner on the integer numerators and one division by the denominator."""
    if s.parent != a.parent:
        raise FieldMismatch("automorphism and element live in different fields")
    num = a.num
    acc = s.parent.from_rational(num[-1])
    for c in num[-2::-1]:
        acc = acc * s.r + c
    return acc / a.den


def compose(s: Automorphism, t: Automorphism) -> Automorphism:
    """s after t: theta -> s(t(theta))."""
    if s.parent != t.parent:
        raise FieldMismatch("cannot compose automorphisms of different fields")
    return Automorphism(s.parent, apply(s, t.r))


def _root_label(aut: Automorphism, roots_mod_p: tuple[int, ...], p: int) -> int:
    # the root that aut sends the first root to, as an index into roots_mod_p
    r = aut.r
    image = ModPoly(p, r.num)(roots_mod_p[0]) * pow(r.den, -1, p) % p
    return roots_mod_p.index(image)


def _lagrange_columns(f: ModPoly, roots: tuple[int, ...]) -> list[list[int]]:
    # column t of the inverse of V[t][i] = m_t^i mod f.p: the coefficients of
    # q_t = f / (x - m_t) over the unit q_t(m_t) (the m_t are distinct mod p)
    m = f.p
    cols = []
    for root in roots:
        q = [1]  # synthetic division of the monic f by x - root, top down
        for c in f.coeffs[-2:0:-1]:
            q.append((c + root * q[-1]) % m)
        q.reverse()
        inv = pow(ModPoly(m, q)(root), -1, m)
        cols.append([c * inv % m for c in q])
    return cols


def automorphisms_with_diagnostics(
    E: NumberField,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    min_prime: int = 2,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> tuple[list[Automorphism], SplitPrimeData]:
    """All automorphisms in canonical order plus the split-prime data used."""
    n = E.degree
    if n > degree_cap:
        raise DegreeCapExceeded(n, degree_cap)
    identity = Automorphism(E, E.gen())
    base = find_split_prime(E, prime_bound, min_prime)
    if n == 1:
        return [identity], base
    found = {identity}
    achieved = {_root_label(identity, base.lifted_roots, base.p)}

    def absorb(aut: Automorphism) -> None:
        # close under composition, each new element composed once with
        # every known one but the identity, both ways; every product is
        # again a root of f
        todo = [aut]
        while todo:
            a = todo.pop()
            if a in found:
                continue
            todo.extend(compose(a, b) for b in found if b is not identity)
            todo.extend(compose(b, a) for b in found if b is not identity)
            todo.append(compose(a, a))
            found.add(a)
            achieved.add(_root_label(a, base.lifted_roots, base.p))

    data = base
    k = _START_PRECISION
    prev_sig: frozenset | None = None
    while True:
        data = hensel_lift(data, k)
        modulus = data.modulus
        roots = data.lifted_roots
        bound = math.isqrt((modulus - 1) // 2)
        cols = _lagrange_columns(ModPoly.from_upoly(E.minpoly, modulus), roots)
        for pi in permutations(range(n)):
            if len(found) == n:
                break
            if pi[0] in achieved:
                continue
            residues = [sum(cols[t][i] * roots[pi[t]] for t in range(n)) % modulus
                        for i in range(n)]
            coeffs = []
            for res in residues:
                c = rational_reconstruct(res, modulus, bound)
                if c is None:
                    break
                coeffs.append(c)
            if len(coeffs) < n:
                continue
            candidate = E.element(coeffs)
            if not poly_eval(E.minpoly, candidate).is_zero:
                continue
            absorb(Automorphism(E, candidate))
        sig = frozenset(found)
        if len(found) == n:
            break
        if sig == prev_sig and n % len(found) == 0:
            break
        prev_sig = sig
        k *= 2
        if k > precision_cap:
            raise PrecisionCapExceeded(
                f"automorphism reconstructions did not stabilize by p^{precision_cap}"
            )
    ordered = sorted(found, key=lambda a: a.r.coeffs)
    ordered.remove(identity)
    return [identity] + ordered, data


def automorphisms(E: NumberField, **options) -> list[Automorphism]:
    """Every theta -> r with f(r) = 0, identity first, then lexicographic."""
    return automorphisms_with_diagnostics(E, **options)[0]


class GaloisGroup:
    """Automorphism group of a Galois field with its composition table.

    elements[0] is the identity; table[i][j] is the index of
    elements[i] composed with elements[j], found by looking up
    elements[i](elements[j].r) among the verified elements (KeyError if the
    elements are not closed under composition).
    """

    __slots__ = ("field", "elements", "table")

    def __init__(self, field: NumberField, elements: list[Automorphism]):
        self.field = field
        self.elements = tuple(elements)
        index = {a.r: i for i, a in enumerate(self.elements)}
        self.table = tuple(
            tuple(index[apply(a, b.r)] for b in self.elements)
            for a in self.elements
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GaloisGroup(order {self.order} over {self.field!r})"


def galois_group(E: NumberField, **options) -> GaloisGroup:
    """The full group when E is Galois; NotGalois(count) otherwise."""
    auts = automorphisms(E, **options)
    if len(auts) != E.degree:
        raise NotGalois(len(auts))
    return GaloisGroup(E, auts)


def conjugate_vector(G: GaloisGroup, a: FieldElem) -> tuple[FieldElem, ...]:
    """(sigma(a)) over the group in canonical order; componentwise a ring map."""
    if G.field != a.parent:
        raise FieldMismatch("element does not live in the group's field")
    return tuple(apply(s, a) for s in G.elements)
