"""Exact rational elimination: solve, nullspace, rank."""

import random
from fractions import Fraction

from reference import linalg


def F(x):
    return Fraction(x)


def mat(rows):
    return [{j: F(x) for j, x in enumerate(row) if x} for row in rows]


def apply(rows, x):
    return [sum((c * x[j] for j, c in row.items()), F(0)) for row in rows]


def test_solve_unique():
    rows = mat([[2, 1], [1, -1]])
    x = linalg.solve(rows, [F(3), F(0)], 2)
    assert x == [F(1), F(1)]


def test_solve_underdetermined_consistent():
    rows = mat([[1, 1, 0], [0, 0, 1]])
    x = linalg.solve(rows, [F(2), F(5)], 3)
    assert x is not None
    assert apply(rows, x) == [F(2), F(5)]


def test_solve_inconsistent():
    rows = mat([[1, 1], [2, 2]])
    assert linalg.solve(rows, [F(1), F(3)], 2) is None


def test_solve_zero_rhs():
    rows = mat([[1, 2], [3, 4]])
    assert linalg.solve(rows, [F(0), F(0)], 2) == [F(0), F(0)]


def test_nullspace():
    rows = mat([[1, 1, 1]])
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert apply(rows, vec) == [F(0)]
    assert linalg.nullspace(mat([[1, 0], [0, 1]]), 2) == []


def test_rank():
    assert linalg.rank(mat([[1, 2], [2, 4]]), 2) == 1
    assert linalg.rank(mat([[1, 0], [0, 1]]), 2) == 2
    assert linalg.rank([{}], 2) == 0


def test_random_consistency():
    rng = random.Random(55)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            {j: F(rng.randint(-4, 4)) for j in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        x_true = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(ncols)]
        rhs = apply(rows, x_true)
        x = linalg.solve(rows, rhs, ncols)
        assert x is not None
        assert apply(rows, x) == rhs
        for vec in linalg.nullspace(rows, ncols):
            assert apply(rows, vec) == [F(0)] * nrows
