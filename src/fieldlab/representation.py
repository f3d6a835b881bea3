"""Trace, norm, minimal polynomial and trace form of a number field.

The norm is the determinant of the multiplication matrix y -> a*y in the
power basis, built on integer columns (``numberfield._mul_matrix``): a
fraction-free integer determinant.  The minimal polynomial comes from the
first linear dependency among powers of a, found by exact elimination
rather than a characteristic-polynomial routine.  The searches that hold a
Galois group read every minimal polynomial from the split prime instead
(``galois.minpoly_from_images``).  The trace and the trace form need only
the traces of the powers of theta, which Newton's identities give from the
coefficients of f without building any matrix (``_power_sums``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .linalg import QMatrix, _bareiss_int, rank_and_solve
from .numberfield import FieldElem, NumberField, _mul_matrix
from .polynomials import UPoly


def _power_sums(E: NumberField, count: int) -> list[Fraction]:
    """s_k = trace(theta^k) for k < count, from Newton's identities on the
    monic f = x^n + c_(n-1) x^(n-1) + ... + c_0: s_0 = n, and
    s_k = -(k c_(n-k) + sum_(i=1..k-1) c_(n-i) s_(k-i)) for k <= n,
    s_k = -sum_(i=1..n) c_(n-i) s_(k-i) beyond."""
    n = E.degree
    c = E.minpoly.coeffs
    s = [Fraction(n)]
    for k in range(1, count):
        acc = k * c[n - k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += c[n - i] * s[k - i]
        s.append(-acc)
    return s


def trace(a: FieldElem) -> Fraction:
    """Sum of the conjugates of a: sum_i num_i trace(theta^i) / den."""
    return sum(map(mul, a.num, _power_sums(a.parent, a.parent.degree))) / a.den


def norm(a: FieldElem) -> Fraction:
    """Product of the conjugates of a: the determinant of the integer
    matrix C of ``_mul_matrix`` over the scales den*rden**j of its columns."""
    n = a.parent.degree
    rden = a.parent._reduction_den
    return Fraction(_bareiss_int(_mul_matrix(a)), a.den**n * rden**(n * (n - 1) // 2))


def minpoly(a: FieldElem) -> UPoly:
    """Monic minimal polynomial of a over Q.

    Searches for the first k with 1, a, ..., a^k linearly dependent; the
    dependency coefficients come straight out of exact elimination.
    """
    E = a.parent
    n = E.degree
    powers = [E.one().coeffs]
    current = E.one()
    for k in range(1, n + 1):
        current = current * a
        target = list(current.coeffs)
        matrix = QMatrix([[powers[j][i] for j in range(k)] for i in range(n)])
        res = rank_and_solve(matrix, target)
        if res.solution is not None:
            return UPoly([-c for c in res.solution] + [Fraction(1)])
        powers.append(current.coeffs)
    raise AssertionError("power basis has dimension n; unreachable")


def trace_gram(E: NumberField) -> QMatrix:
    """Gram matrix of the trace form on the power basis: G[i][j] =
    trace(theta^(i+j)).  Nonzero determinant certifies separability."""
    n = E.degree
    s = _power_sums(E, 2 * n - 1)
    return QMatrix([[s[i + j] for j in range(n)] for i in range(n)])
