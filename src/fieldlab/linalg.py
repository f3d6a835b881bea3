"""Exact matrices over Q, and every elimination kernel.

Row reduction over Q uses deterministic pivoting (first nonzero entry in
column order), so ranks and solutions are bit-reproducible.
Fraction-free Bareiss elimination (``_bareiss_int``) gives determinants over
Q on integerized rows and solves the integer systems of
``numberfield.invert``; determinants of nested lists of number field
elements (``field_det``) use Bareiss directly, inverting only the previous
pivot (lazy inversion, where a hidden factor of an AssumedIrreducible
polynomial surfaces as ZeroDivisor).  A private kernel ranks integer rows
modulo a fixed prime, a lower bound on their rank over Q that callers use as
a filter in front of exact elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch

# The prime of the modular rank filter (_rank_mod): the Mersenne prime
# 2^61 - 1.  A matrix of rank r over Q, its rows cleared of denominators, has
# a smaller rank mod p only when p divides all of its r x r minors, which a
# prime this large rarely does.
FILTER_PRIME = (1 << 61) - 1


class QMatrix:
    """Dense matrix over Q, row-major: a container with det."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: Sequence[Sequence]):
        data = [[_frac(c) for c in row] for row in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.entries = data

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def det(self) -> Fraction:
        return qmatrix_det(self)

    def __repr__(self):
        return f"QMatrix({self.entries!r})"


def _frac(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class SolveResult(NamedTuple):
    """Outcome of rank_and_solve: rank and one solution of M x = rhs (free
    variables pinned to zero; None if inconsistent or no rhs given)."""

    rank: int
    solution: list | None


def rank_and_solve(matrix: QMatrix, rhs=None) -> SolveResult:
    """Exact elimination over Q."""
    if not isinstance(matrix, QMatrix):
        raise TypeError("rank_and_solve expects a QMatrix")
    if rhs is not None:
        rhs = list(rhs)
        if len(rhs) != matrix.rows:
            raise DimensionMismatch("rhs length does not match row count")
    return _solve(matrix.entries, matrix.cols, rhs)


def _solve(rows, ncols, rhs) -> SolveResult:
    zero = Fraction(0)
    work = [list(r) for r in rows]
    b = list(rhs) if rhs is not None else None
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            if b is not None:
                b[r], b[pivot_row] = b[pivot_row], b[r]
        pv = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c] != zero:
                factor = work[i][c] / pv
                for j in range(c, ncols):
                    work[i][j] = work[i][j] - factor * work[r][j]
                if b is not None:
                    b[i] = b[i] - factor * b[r]
        pivots.append((r, c))
        r += 1
        if r == len(work):
            break
    rank = len(pivots)

    solution = None
    if b is not None:
        consistent = all(b[i] == zero for i in range(rank, len(work)))
        if consistent:
            solution = [zero] * ncols
            for (pr, pc) in pivots:
                solution[pc] = b[pr] / work[pr][pc]
    return SolveResult(rank=rank, solution=solution)


def _rank_mod(rows, p: int, target: int) -> int:
    """Rank modulo the prime p of integer rows, read one at a time until it
    reaches target.

    For an integer matrix the rank mod p is at most the rank over Q, so
    reaching the number of columns proves full column rank over Q.  Each kept
    row is reduced by the earlier ones and scaled so that its first nonzero
    entry, in column c, is 1; it is kept from column c on.  A new row is then
    reduced by one pass over the kept rows, taken mod p only at the end.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column c, row[c:])
    for row in rows:
        row = list(row)
        for c, b in basis:
            f = row[c] % p
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], b)]
        row = [x % p for x in row]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        inv = pow(row[c], -1, p)
        basis.append((c, [x * inv % p for x in row[c:]]))
        if len(basis) == target:
            break
    return len(basis)


def _bareiss_int(a: list[list[int]]) -> int:
    """det of the leading n x n block of the n-row integer matrix a.

    Fraction-free Bareiss elimination in place; columns past n (right-hand
    sides) are carried along, so a solvable [M | b] ends as [U | b'] with U
    upper triangular, U[n-1][n-1] = +-det M and the same solutions.
    Returns 0 as soon as M is seen to be singular.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pk - aik * pivot_row[j]) // prev
            row[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def qmatrix_det(m: QMatrix) -> Fraction:
    """Exact determinant: scale each row to integers, Bareiss, scale back."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    work = []
    for row in m.entries:
        den = math.lcm(*(c.denominator for c in row))
        scale *= den
        work.append([int(c * den) for c in row])
    return Fraction(_bareiss_int(work), 1) / scale


def field_det(rows, zero, one):
    """Bareiss over a field given as nested lists; divisions are exact.

    Each step divides by the previous pivot, so that pivot is inverted once
    and every entry multiplied by the inverse.
    """
    n = len(rows)
    if n == 0:
        return one
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    a = [list(r) for r in rows]
    sign = one
    inv = None  # 1/prev; the first step divides by 1
    for k in range(n - 1):
        if a[k][k] == zero:
            swap = next((i for i in range(k + 1, n) if a[i][k] != zero), None)
            if swap is None:
                return zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        if k:
            inv = one / a[k - 1][k - 1]
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            for j in range(k + 1, n):
                t = row[j] * pk - aik * pivot_row[j]
                row[j] = t if inv is None else t * inv
            row[k] = zero
    return sign * a[n - 1][n - 1]
