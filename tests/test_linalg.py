"""Exact linear algebra: rank, solve, and fraction-free determinants."""

import random
from fractions import Fraction

import pytest

from fieldlab import (
    DimensionMismatch,
    QMatrix,
    field_det,
    qmatrix_det,
    rank_and_solve,
)
from conftest import field, matrix_product, random_rational


def rand_qmatrix(rng, n, m, span=9):
    return QMatrix([[random_rational(rng, span) for _ in range(m)] for _ in range(n)])


def laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# rank and solve
# ---------------------------------------------------------------------------


def test_rank_examples():
    assert rank_and_solve(QMatrix([[1, 1], [1, -1]])).rank == 2
    assert rank_and_solve(QMatrix([[0, 0], [0, 0]])).rank == 0
    assert rank_and_solve(QMatrix([[1, 2], [2, 4]])).rank == 1
    with pytest.raises(TypeError):
        rank_and_solve([[1, 2], [2, 4]])


def test_solve_known_system():
    m = QMatrix([[2, 1], [1, 3]])
    res = rank_and_solve(m, [5, 5])
    assert res.rank == 2
    assert res.solution == [Fraction(2), Fraction(1)]


def test_solve_inconsistent():
    m = QMatrix([[1, 1], [2, 2]])
    res = rank_and_solve(m, [1, 3])
    assert res.solution is None
    assert res.rank == 1


def test_random_solvable_systems():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = rand_qmatrix(rng, n, m, span=5)
        x = [random_rational(rng, 5) for _ in range(m)]
        rhs = [sum(mat[(i, j)] * x[j] for j in range(m)) for i in range(n)]
        res = rank_and_solve(mat, rhs)
        assert res.solution is not None
        check = [sum(mat[(i, j)] * res.solution[j] for j in range(m)) for i in range(n)]
        assert check == rhs


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_det_matches_laplace():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            rows = [[random_rational(rng, 6) for _ in range(n)] for _ in range(n)]
            assert qmatrix_det(QMatrix(rows)) == laplace_det(rows)


def test_det_multiplicative():
    rng = random.Random(53)
    for _ in range(40):
        a = rand_qmatrix(rng, 3, 3)
        b = rand_qmatrix(rng, 3, 3)
        assert qmatrix_det(matrix_product(a, b)) == qmatrix_det(a) * qmatrix_det(b)


def test_det_nonzero_iff_full_rank():
    rng = random.Random(59)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rand_qmatrix(rng, n, n, span=3)
        assert (qmatrix_det(m) != 0) == (rank_and_solve(m).rank == n)


def test_field_det_over_extension():
    E = field("x^2+1")
    th = E.gen()
    one = E.one()
    rows = [[one, one], [th, -th]]
    assert field_det(rows, E.zero(), E.one()) == -2 * th


def test_field_det_matches_laplace_over_E():
    E = field("x^3-2")
    rng = random.Random(61)
    for _ in range(25):
        rows = [
            [E.element([random_rational(rng, 3) for _ in range(3)]) for _ in range(3)]
            for _ in range(3)
        ]
        direct = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert field_det(rows, E.zero(), E.one()) == direct


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        qmatrix_det(QMatrix([[1, 2, 3], [4, 5, 6]]))
