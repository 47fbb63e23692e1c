import random
from fractions import Fraction

import pytest

from adapted_pairs.linalg import (
    det_dense,
    solve_dense,
    solve_in_span,
    sparse_det,
    sparse_rank,
)


def F(x):
    return Fraction(x)


def test_det_dense_small():
    assert det_dense([]) == 1
    assert det_dense([[F(3)]]) == 3
    assert det_dense([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_dense([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_dense_rejects_non_square():
    with pytest.raises(ValueError):
        det_dense([[F(1), F(2)]])


def test_solve_dense_exact():
    sol = solve_dense([[F(2), F(1)], [F(1), F(3)]], [[F(1), F(0)]])
    assert sol == [[Fraction(3, 5), Fraction(-1, 5)]]
    assert solve_dense([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(2)]]) is None


def test_solve_dense_many_right_hand_sides():
    rows = [[2, 1], [1, 3]]
    sols = solve_dense(rows, [[1, 0], [0, 1], [3, 4]])
    assert sols == [
        [Fraction(3, 5), Fraction(-1, 5)],
        [Fraction(-1, 5), Fraction(2, 5)],
        [Fraction(1), Fraction(1)],
    ]
    assert solve_dense(rows, []) == []


def test_sparse_det_of_int_matrix_is_an_exact_fraction():
    det = sparse_det([{0: 3, 1: 1}, {0: 1, 1: 3}], 2)
    assert type(det) is Fraction and det == 8


def test_sparse_det_of_large_ints_is_exact():
    # a float pivot step would lose the +1 and report a singular matrix
    det = sparse_det([{0: 1, 1: 10**17}, {0: 3, 1: 3 * 10**17 + 1}], 2)
    assert type(det) is Fraction and det == 1


def test_sparse_rank_of_large_ints_is_exact():
    assert sparse_rank([{0: 1, 1: 10**17}, {0: 3, 1: 3 * 10**17 + 1}], 2) == 2


def test_solve_in_span():
    cols = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert solve_in_span(cols, [F(2), F(3), F(5)]) == [F(2), F(3)]
    assert solve_in_span(cols, [F(1), F(1), F(0)]) is None


def _random_matrix(rng, n, density=0.6):
    return [
        [
            Fraction(rng.randint(-3, 3)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_sparse_det_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n)
        expected = det_dense(m)
        rows = [
            {j: v for j, v in enumerate(row) if v != 0} for row in m
        ]
        assert sparse_det(rows, n) == expected


def test_sparse_rank_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n, density=0.4)
        # oracle: rank = n - nullity via dense elimination on the transpose
        dense = [row[:] for row in m]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if dense[r][col] != 0), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            for r in range(n):
                if r != rank and dense[r][col] != 0:
                    f = dense[r][col] / dense[rank][col]
                    dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
            rank += 1
        rows = [{j: v for j, v in enumerate(row) if v != 0} for row in m]
        assert sparse_rank(rows, n) == rank
