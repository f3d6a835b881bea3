"""Exact automorphisms of a number field via p-adic lifting.

An automorphism of E = Q[x]/(f) is determined by the image r of the
generator, and r must be a root of f in E.  The engine finds every such r:

  1. read the root counts of the prime scan where f mod p is squarefree,
     until one count is 1 or n; the records ``make_field`` kept on the
     field (``NumberField.scan``, with its squarefree answers in
     ``NumberField.squarefree``) come first, and
     ``polynomials.frobenius_scan`` resumes after the last,
  2. Hensel-lift the n roots at the split prime, once, to a precision p^k
     proven from f alone (below),
  3. for each permutation hypothesis pi of the root labels, read the integer
     coefficients of H = F'(theta')*sigma(theta') from the Lagrange form
     sum_t m_pi(t) F/(y - m_t) mod p^k, and
  4. verify f(r) = 0 in E exactly for r = H(theta') / (D F'(theta')).

Here D is the lcm of the denominators of f, theta' = D theta, and
F = D^n f(y/D) is the monic integer polynomial of theta'.  By Euler's lemma
the trace dual of Z[theta'] is F'(theta')^-1 Z[theta'] (Serre, *Local
Fields*, III 6); sigma(theta') is integral, so H has integer coefficients.
Over C, H_i = sum_t alpha_pi(t) [F/(y - alpha_t)]_i, and every root alpha of
F has |alpha| < B = 1 + max |F_j| (Cauchy), so |H_i| <= n B C(n-1, i)
B^(n-1-i).  At the least k with p^k above twice every such bound, the
symmetric residue of each coefficient is the true H_i of every
automorphism, and a hypothesis with a coefficient out of bound is no
automorphism.  Verification makes every accepted map unconditionally
correct, and a walk over all permutations finds every automorphism, so a
completed walk proves the count by itself.

The root counts of the scan stop the walk early: where f is squarefree mod
p (as it is where it splits) and has a root m, sigma -> sigma(theta) mod
(p, theta - m) is injective into the roots of f mod p, so the least such
count b bounds |Aut|.  A count of 1 proves Aut = {id} at once.  Otherwise
the maps found are closed under composition, so they form a subgroup whose
order divides |Aut| <= b, and the walk stops as soon as twice their number
exceeds b.

The walk keys each map by its root permutation pi at the split prime: sigma
followed by the embedding theta -> m_t is the embedding theta -> m_pi(t), so
s after t has the permutation (pi_t[pi_s[u]] for u).  The closure composes
permutations and reads the map of a new one from the same Lagrange H.  The
walk hands the permutations over with its split prime (``perms``), and
``GaloisGroup`` tabulates the group from them by lookup.  Each map carries
its conjugation matrix, the numerators of r^0, ..., r^(n-1) over one
denominator, taken from the powers of r that its check f(r) = 0 computes,
so sigma(a) is one integer matrix-vector product.

A ``GaloisGroup`` keeps the walk's split prime: its n lifted roots are the
n embeddings of E into Q_p, so the images of an element there are its
conjugates.  ``minpoly_from_images`` reads every minimal polynomial from
them, at a precision that makes two images agree only for equal
conjugates, and keeps the deepest lift on the group, so later elements
lift no more.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import NamedTuple

from .errors import (
    DegreeCapExceeded,
    FieldMismatch,
    NoSplitPrimeFound,
    NotGalois,
    ZeroDivisor,
)
from .numberfield import (
    SPLIT_DEGREE_CAP,
    FieldElem,
    NumberField,
    _canonical,
)
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
    poly_eval,
    poly_gcd,
)

DEFAULT_DEGREE_CAP = SPLIT_DEGREE_CAP
DEFAULT_PRIME_BOUND = 10_000


class SplitPrimeData(NamedTuple):
    """A prime with the roots of f modulo it lifted to precision p^k: all n
    roots at a split prime, the one root at a prime that proves Aut = {id}.
    perms[i] is the root permutation of the i-th automorphism the walk
    returned, as indices into lifted_roots."""

    field: NumberField
    p: int
    lifted_roots: tuple[int, ...]
    precision: int
    perms: tuple[tuple[int, ...], ...] = ()

    @property
    def modulus(self) -> int:
        return self.p ** self.precision


def _scan(E: NumberField, lo: int, hi: int):
    # the scan records at the primes lo <= p <= hi: those make_field
    # scanned first, then frobenius_scan past the last of them
    last = 1
    for record in E.scan:
        last = record.p
        if last > hi:
            return
        if last >= lo:
            yield record
    yield from frobenius_scan(E.minpoly, max(lo, last + 1), hi)


def _squarefree(E: NumberField, record) -> bool:
    # whether f mod p is squarefree: make_field's answer where it took one
    known = E.squarefree.get(record.p)
    return mod_is_squarefree(record.fp) if known is None else known


def hensel_lift(data: SplitPrimeData, target_k: int) -> SplitPrimeData:
    """Newton-lift every root to precision p^target_k; no-op if already there."""
    if data.precision >= target_k:
        return data
    roots = newton_lift(data.field.minpoly, data.lifted_roots, data.p,
                        data.precision, target_k)
    return data._replace(lifted_roots=roots, precision=target_k)


class Automorphism:
    """Field map determined by theta -> r where f(r) = 0; verified at birth.

    matrix is its conjugation matrix over den: column j holds the
    numerators of r^j over that one common denominator, so sigma(a) is
    matrix . num(a) / (den * den(a)).  It comes from the powers of r that
    the check f(r) = 0 computes."""

    __slots__ = ("parent", "r", "matrix", "den")

    def __init__(self, parent: NumberField, r: FieldElem):
        parent._check_same(r.parent)
        n = parent.degree
        powers = [parent.one(), r]
        while len(powers) <= n:
            powers.append(powers[-1] * r)
        top = powers.pop()
        den = math.lcm(*(q.den for q in powers))
        cols = [[c * (den // q.den) for c in q.num] for q in powers]
        # f(r) = 0 says r^n = sum_j row0_j r^j / rden, the reduction of theta^n
        row0, rden = parent._reduction_rows[0], parent._reduction_den
        for i, c in enumerate(top.num):
            if rden * den * c != top.den * sum(a * col[i] for a, col in zip(row0, cols)):
                raise ValueError("generator image is not a root of the defining polynomial")
        self.parent = parent
        self.r = r
        self.matrix = tuple(zip(*cols))
        self.den = den

    @property
    def is_identity(self) -> bool:
        return self.r == self.parent.gen()

    def __call__(self, a: FieldElem) -> FieldElem:
        """sigma(a) from sigma's conjugation matrix and the numerators of a."""
        self.parent._check_same(a.parent)
        return _image(self, a)

    def __eq__(self, other):
        if isinstance(other, Automorphism):
            return self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return f"Automorphism(θ ↦ {self.r})"


def _image(s: Automorphism, a: FieldElem) -> FieldElem:
    # sigma(a): one integer matrix-vector product, one canonical form
    num = a.num
    return _canonical(s.parent, [sum(map(mul, row, num)) for row in s.matrix],
                      s.den * a.den)


def _lagrange_columns(f: ModPoly, roots: tuple[int, ...]) -> list[list[int]]:
    # column t holds the coefficients of q_t = f / (x - m_t) mod f.p, so that
    # q_t(m_s) = delta_st * f'(m_t) when f = prod (x - m_t)
    m = f.p
    cols = []
    for root in roots:
        q = [1]  # synthetic division of the monic f by x - root, top down
        for c in f.coeffs[-2:0:-1]:
            q.append((c + root * q[-1]) % m)
        q.reverse()
        cols.append(q)
    return cols


def automorphisms_with_diagnostics(
    E: NumberField,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    min_prime: int = 2,
) -> tuple[list[Automorphism], SplitPrimeData]:
    """All automorphisms in canonical order plus the prime data used: the
    split prime at the one precision the walk ran at, or the one-root prime
    at precision 1 when that root alone proves Aut = {id}.  data.perms[i]
    is the root permutation pi of auts[i], with r(m_t) = m_pi(t) at every
    lifted root m_t; at a one-root prime it is ((0,),).

    The precision is the least k with p^k above twice Euler's bound on the
    integer coefficients of H = F'(theta')*sigma(theta') (module docstring),
    so the walk recovers H exactly for every automorphism.  A walk that
    tries every permutation has therefore found all of Aut(E), and one that
    stops early has found a subgroup of more than half the root-count bound
    b; either way the count is proved.

    ZeroDivisor if two maps agree at the split prime, which no two distinct
    automorphisms of a field do: f is then reducible, and the gcd of f with
    their difference is a proper factor."""
    n = E.degree
    if n > degree_cap:
        raise DegreeCapExceeded(n, degree_cap)
    identity = Automorphism(E, E.gen())
    b = n  # the least root count so far, a bound on |Aut|
    for record in _scan(E, min_prime, prime_bound):
        # a root count bounds |Aut| where f mod p is squarefree, as it is
        # where f splits
        count = record.roots
        if count == n or count and _squarefree(E, record):
            b = min(b, count)
            if b == 1 or count == n:
                break
    else:
        raise NoSplitPrimeFound(prime_bound)
    data = SplitPrimeData(E, record.p, record.fp.roots(), 1)
    if b == 1:
        return [identity], data._replace(perms=((0,),))

    f = E.minpoly
    den, F = integral_model(f)
    cauchy = 1 + max(map(abs, F))
    bounds = [n * cauchy * math.comb(n - 1, i) * cauchy ** (n - 1 - i) for i in range(n)]
    data = hensel_lift(data, lift_precision(data.p, max(bounds)))
    modulus = data.modulus
    roots = [den * m % modulus for m in data.lifted_roots]  # the roots of F
    rows = list(zip(*_lagrange_columns(ModPoly(modulus, F), roots)))
    # r = H(den*theta) / (den^n f'(theta)), as F'(den*theta) = den^(n-1) f'(theta)
    scale = 1 / (E.reduce_poly(f.derivative()) * den ** n)

    def read(pi: tuple[int, ...]) -> FieldElem | None:
        # theta -> r with r(m_t) = m_pi(t) at every embedding, read from H,
        # or None at the first coefficient of H out of its bound.
        # H_(n-1) = trace(theta') = -F_(n-1) whatever pi is; below it, the
        # top coefficients have the least bounds and reject most pi
        images = [roots[j] for j in pi]
        H = [0] * (n - 1) + [-F[n - 1] * den ** (n - 1)]
        for i in reversed(range(n - 1)):
            h = _symmetric(sum(map(mul, rows[i], images)) % modulus, modulus)
            if abs(h) > bounds[i]:
                return None
            H[i] = h * den ** i
        return E.element(H) * scale

    # each map found, keyed by its root permutation, and by the image of
    # root 0, which alone fixes an automorphism of a field
    found = {tuple(range(n)): identity}
    achieved = {0: identity}

    def absorb(pi: tuple[int, ...], aut: Automorphism) -> None:
        # close under composition, each new element composed once with
        # every known one but the identity, both ways, on permutations; a
        # product's map is read and verified only when it is new
        todo = [(pi, aut)]
        while todo:
            pi, aut = todo.pop()
            if pi in found:
                continue
            if aut is None:  # a product, so its H is in bound and r a root
                aut = Automorphism(E, read(pi))
            if pi[0] in achieved:
                raise ZeroDivisor(poly_gcd(f, (aut.r - achieved[pi[0]].r).as_poly()))
            others = [q for q, s in found.items() if s is not identity]
            todo.extend((tuple(q[i] for i in pi), None) for q in others)
            todo.extend((tuple(pi[i] for i in q), None) for q in others)
            todo.append((tuple(pi[i] for i in pi), None))
            found[pi] = aut
            achieved[pi[0]] = aut

    for pi in permutations(range(n)):
        if 2 * len(found) > b:
            break
        if pi[0] in achieved:
            continue
        r = read(pi)
        if r is None:
            continue
        try:
            aut = Automorphism(E, r)
        except ValueError:
            continue  # H in bound, but r is no root of f
        absorb(pi, aut)
    perms = sorted(found, key=lambda pi: (found[pi] is not identity, found[pi].r.coeffs))
    return [found[pi] for pi in perms], data._replace(perms=tuple(perms))


def automorphisms(E: NumberField, **options) -> list[Automorphism]:
    """Every theta -> r with f(r) = 0, identity first, then lexicographic."""
    return automorphisms_with_diagnostics(E, **options)[0]


class GaloisGroup:
    """Automorphism group of a Galois field with its composition table.

    elements[0] is the identity; table[i][j] is the index of
    elements[i] composed with elements[j], looked up by its root
    permutation at the split prime, composed from theirs (KeyError if the
    elements are not closed under composition).  split is the walk's split
    prime, with split.perms[i] the root permutation of elements[i] and its
    n lifted roots the n embeddings of the field into Q_p, which
    ``minpoly_from_images`` reads.  It holds the deepest lift asked of it
    so far.
    """

    __slots__ = ("field", "elements", "table", "split")

    def __init__(self, field: NumberField, elements: list[Automorphism],
                 split: SplitPrimeData):
        self.field = field
        self.elements = tuple(elements)
        self.split = split
        perms = split.perms
        if len(perms) != len(self.elements):
            raise ValueError("the split prime data needs one root permutation "
                             "per element")
        index = {pi: i for i, pi in enumerate(perms)}
        self.table = tuple(
            tuple(index[tuple(q[u] for u in pi)] for q in perms)
            for pi in perms
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GaloisGroup(order {self.order} over {self.field!r})"


def galois_group(E: NumberField, **options) -> GaloisGroup:
    """The full group when E is Galois, with the walk's split prime;
    NotGalois(count) otherwise."""
    auts, data = automorphisms_with_diagnostics(E, **options)
    if len(auts) != E.degree:
        raise NotGalois(len(auts))
    return GaloisGroup(E, auts, data)


def minpoly_from_images(G: GaloisGroup, a: FieldElem) -> UPoly:
    """The minimal polynomial of a from its n images at G's split prime.

    w = s*a with s = den(a)*D^(n-1) has the integer coordinates W_i =
    num_i*D^(n-1-i) in powers of theta' = D*theta, so w is integral and its
    images W(D*m_t) need no division by p.  Every root of F has |alpha'| <
    B, the walk's Cauchy bound, so every conjugate of w has absolute value
    at most M = sum |W_i| B^i.  E is Galois, so two conjugates sigma(w) !=
    tau(w) differ by an integral delta in E with 0 < |N(delta)| <= (2M)^n,
    and images that agree mod p^k make p^k divide N(delta).  So at the
    least k with p^k > 2 (2M)^n two images agree exactly when the conjugates
    are equal, and prod (x - v) over the d distinct images, read as
    symmetric residues, is minpoly(w), whose coefficients C(d, i) M^i are
    within the same bound; minpoly(a)(x) = minpoly(w)(s*x) / s^d.  One exact
    evaluation at a checks the result, so a wrong bound raises
    AssertionError instead of returning a wrong polynomial."""
    if G.field != a.parent:
        raise FieldMismatch("element does not live in the group's field")
    n = G.field.degree
    den, F = integral_model(G.field.minpoly)
    cauchy = 1 + max(map(abs, F))
    W = [c * den ** (n - 1 - i) for i, c in enumerate(a.num)]
    M = sum(abs(c) * cauchy ** i for i, c in enumerate(W))
    data = G.split
    k = lift_precision(data.p, (2 * M) ** n)
    if k > data.precision:
        data = G.split = hensel_lift(data, k)
    modulus = data.p ** k
    values = set()
    for m in data.lifted_roots:
        y = den * m % modulus
        v = 0
        for c in reversed(W):
            v = (v * y + c) % modulus
        values.add(v)
    s, d = a.den * den ** (n - 1), len(values)
    mp = UPoly([Fraction(c, s ** (d - j))
                for j, c in enumerate(_from_roots(values, modulus))])
    if not poly_eval(mp, a).is_zero:
        raise AssertionError("the minimal polynomial read at the split prime "
                             "does not vanish at the element")
    return mp


def conjugate_vector(G: GaloisGroup, a: FieldElem) -> tuple[FieldElem, ...]:
    """(sigma(a)) over the group in canonical order, one matrix-vector
    product each; componentwise a ring map."""
    if G.field != a.parent:
        raise FieldMismatch("element does not live in the group's field")
    return tuple(_image(s, a) for s in G.elements)
