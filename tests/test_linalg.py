import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adapted_pairs.linalg as linalg
from adapted_pairs.linalg import invert, sparse_det, sparse_ranks
from linalg_oracle import det_dense, det_sparse, rank, solve_in_span


def F(x):
    return Fraction(x)


def _integer_matrix(m):
    """Each row of m times the lcm of its denominators, and the product of
    those scales: the rank is kept, and the determinant is multiplied by
    the product."""
    rows, product = [], 1
    for row in m:
        den = math.lcm(*[Fraction(v).denominator for v in row])
        rows.append([int(v * den) for v in row])
        product *= den
    return rows, product


def test_det_dense_small():
    for m, det in (
        ([], 1),
        ([[F(3)]], 3),
        ([[F(1), F(2)], [F(3), F(4)]], -2),
        ([[F(1), F(2)], [F(2), F(4)]], 0),
    ):
        assert det_dense(m) == det
        assert invert(_integer_matrix(m)[0])[0] == det


def test_det_dense_rejects_non_square():
    with pytest.raises(ValueError):
        det_dense([[F(1), F(2)]])
    with pytest.raises(ValueError):
        invert([[F(1), F(2)]])
    with pytest.raises(ValueError):
        sparse_det([{0: 1, 1: 2}], 2)


def _solve(rows, rhss):
    """One solution per right-hand side from the inverse, or None when the
    matrix is singular."""
    _, inverse = invert(rows)
    if inverse is None:
        return None
    return [
        [Fraction(v, inverse.den) for v in inverse.solve_scaled(b)] for b in rhss
    ]


def test_solve_dense_exact():
    sol = _solve([[2, 1], [1, 3]], [[1, 0]])
    assert sol == [[Fraction(3, 5), Fraction(-1, 5)]]
    assert _solve([[1, 2], [2, 4]], [[1, 2]]) is None


def test_solve_dense_many_right_hand_sides():
    rows = [[2, 1], [1, 3]]
    sols = _solve(rows, [[1, 0], [0, 1], [3, 4]])
    assert sols == [
        [Fraction(3, 5), Fraction(-1, 5)],
        [Fraction(-1, 5), Fraction(2, 5)],
        [Fraction(1), Fraction(1)],
    ]
    assert _solve(rows, []) == []


def test_inverse_solves_with_the_matrix_and_its_transpose():
    det, inverse = invert([[2, 1], [0, 3]])
    assert det == 6
    assert inverse.solve_scaled([3, 3]) == [inverse.den, inverse.den]
    assert inverse.solve_transposed_scaled([[2, 4]]) == [[inverse.den, inverse.den]]
    assert invert([[1, 2], [2, 4]]) == (0, None)


def test_sparse_det_of_int_matrix_is_an_exact_int():
    det = sparse_det([{0: 3, 1: 1}, {0: 1, 1: 3}], 2)
    assert type(det) is int and det == 8
    det, _ = invert([[3, 1], [1, 3]])
    assert type(det) is int and det == 8
    assert type(sparse_det([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)) is int


def test_sparse_det_of_large_ints_is_exact():
    # a float pivot step would lose the +1 and report a singular matrix
    det = sparse_det([{0: 1, 1: 10**17}, {0: 3, 1: 3 * 10**17 + 1}], 2)
    assert type(det) is int and det == 1


def test_the_determinant_refuses_a_factor_that_leaves_a_remainder(monkeypatch):
    # det = product * divided / scaled_up must be an exact division: an
    # elimination that reports an inconsistent scaled_up raises instead of
    # rounding the determinant
    eliminate = linalg._eliminate

    def skewed(*args, **kwargs):
        pivots, ranks, (scaled_up, divided) = eliminate(*args, **kwargs)
        return pivots, ranks, (scaled_up * 7, divided)

    assert sparse_det([{0: 3, 1: 1}, {0: 1, 1: 3}], 2) == 8
    monkeypatch.setattr(linalg, "_eliminate", skewed)
    with pytest.raises(ArithmeticError):
        sparse_det([{0: 3, 1: 1}, {0: 1, 1: 3}], 2)
    with pytest.raises(ArithmeticError):
        invert([[3, 1], [1, 3]])


def test_sparse_rank_of_large_ints_is_exact():
    assert sparse_ranks([{0: 1, 1: 10**17}, {0: 3, 1: 3 * 10**17 + 1}], [2]) == [2]


def test_explicit_zero_entries_are_ignored():
    assert sparse_ranks([{0: 0, 1: 2}, {0: 0, 1: 4}], [1, 2]) == [0, 1]
    assert sparse_det([{0: 2, 1: 0}, {0: 0, 1: 1}], 2) == 2


def test_a_fraction_entry_is_refused():
    # each call owns its rows, so each gets fresh ones
    def rows():
        return [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 1}]

    with pytest.raises(TypeError):
        sparse_det(rows(), 2)
    with pytest.raises(TypeError):
        sparse_ranks(rows(), [2])
    with pytest.raises(TypeError):
        invert([[Fraction(1, 2), 1], [1, 1]])


def test_the_rows_are_eliminated_in_place():
    # the call owns the caller's rows: explicit zeros go from the caller's
    # dicts, and the one-entry row {0: 3} clears column 0 from the other
    # row by deletion, with no scaling or content division
    rows = [{0: 3, 1: 0}, {0: 5, 1: 7}]
    first, second = rows
    assert sparse_det(rows, 2) == 21
    assert rows == [{0: 3}, {1: 7}] and rows[0] is first and rows[1] is second


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


def _sparse(m):
    return [{j: v for j, v in enumerate(row) if v != 0} for row in m]


def test_sparse_det_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n)
        expected = det_dense(m)
        assert sparse_det(_sparse(_integer_matrix(m)[0]), n) == expected


def test_sparse_rank_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n, density=0.4)
        ints = _sparse(_integer_matrix(m)[0])
        assert sparse_ranks(ints, [n]) == [rank(_sparse(m))]


# -- properties against the Fraction oracle ----------------------------------

# small integers, proper fractions and integers near 10^17, with zero
# weighted up so that sparse and zero rows occur; the properties scale each
# row to integers (`_integer_matrix`) before the package sees it
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-5, 5).map(lambda k: 10**17 + k),
)


@st.composite
def matrices(draw, square=False):
    """A matrix with some rows replaced by combinations of others, so that
    rank-deficient and duplicated rows are common."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    m = [draw(row) for _ in range(nrows)]
    for i in range(nrows):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            k = draw(st.integers(-2, 2))
            m[i] = [x + k * y for x, y in zip(m[a], m[b])]
    return m


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_staged_ranks_match_oracle(m, data):
    ncols = len(m[0]) if m else 0
    split = data.draw(st.integers(0, ncols))
    first = [{j: v for j, v in enumerate(row) if j < split and v} for row in m]
    expected = [rank(first), rank(_sparse(m))]
    ints, _ = _integer_matrix(m)
    assert sparse_ranks(_sparse(ints), [split, ncols]) == expected


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_determinants_match_oracle(m):
    ints, product = _integer_matrix(m)
    expected = det_dense(m) * product
    assert sparse_det(_sparse(ints), len(m)) == expected
    det, inverse = invert(ints)
    assert det == expected
    assert (inverse is None) == (expected == 0)


@settings(max_examples=300, deadline=None)
@given(matrices(square=True), st.data())
def test_solutions_match_oracle(m, data):
    # the matrix is m with its rows scaled to integers, and the right-hand
    # sides are integers
    m, _ = _integer_matrix(m)
    n = len(m)
    rhs = st.lists(entries, min_size=n, max_size=n)
    rhss = [_integer_matrix([b])[0][0] for b in data.draw(st.lists(rhs, max_size=3))]
    columns = [list(c) for c in zip(*m)] if n else []
    sols = _solve(m, rhss)
    det, inverse = invert(m)
    if det == 0:
        assert sols is None and inverse is None
        return
    expected = [solve_in_span(columns, b) for b in rhss]
    assert sols == expected
    assert [
        [Fraction(v, inverse.den) for v in inverse.solve_scaled(b)] for b in rhss
    ] == expected
    assert [
        [Fraction(v, inverse.den) for v in y]
        for y in inverse.solve_transposed_scaled(rhss)
    ] == [solve_in_span(m, c) for c in rhss]


@st.composite
def single_entry_matrices(draw):
    """Integer matrices, square or not, in which many rows and many columns
    hold one nonzero entry: pivots that the elimination takes without a
    column search, and pivot columns that need no update."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 7))
    nonzero = st.integers(1, 4).flatmap(lambda k: st.sampled_from([k, -k]))
    m = [
        draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
        for _ in range(nrows)
    ]
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        c = draw(st.integers(0, ncols - 1))
        m[i] = [0] * ncols
        m[i][c] = draw(nonzero)
    for c in draw(st.sets(st.integers(0, ncols - 1))):
        r = draw(st.integers(0, nrows - 1))
        for i in range(nrows):
            m[i][c] = 0
        m[r][c] = draw(nonzero)
    return m


@settings(max_examples=300, deadline=None)
@given(single_entry_matrices(), st.data())
def test_single_entry_rows_and_columns_match_oracle(m, data):
    ncols = len(m[0])
    split = data.draw(st.integers(0, ncols))
    first = [{j: v for j, v in enumerate(row) if j < split and v} for row in m]
    expected = [rank(first), rank(_sparse(m))]
    assert sparse_ranks(_sparse(m), [split, ncols]) == expected
    if len(m) == ncols:
        det = det_dense(m)
        assert sparse_det(_sparse(m), ncols) == det
        got, inverse = invert(m)
        assert got == det and (inverse is None) == (det == 0)


@st.composite
def shared_one_entry_matrices(draw):
    """Integer matrices, square or not, in which some rows hold one nonzero
    entry, in a column that another row also holds: pivots that clear
    their column from the other rows by deletion."""
    nrows = draw(st.integers(2, 7))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 7))
    nonzero = st.integers(1, 4).flatmap(lambda k: st.sampled_from([k, -k]))
    small = st.one_of(st.integers(-3, 3), st.integers(-5, 5).map(lambda k: 10**17 + k))
    m = [draw(st.lists(small, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    row = st.integers(0, nrows - 1)
    singles = draw(st.lists(row, min_size=1, max_size=nrows - 1, unique=True))
    rest = [i for i in range(nrows) if i not in singles]
    for i in singles:
        c = draw(st.integers(0, ncols - 1))
        m[i] = [0] * ncols
        m[i][c] = draw(nonzero)
        m[draw(st.sampled_from(rest))][c] = draw(nonzero)
    return m


@settings(max_examples=300, deadline=None)
@given(shared_one_entry_matrices(), st.data())
def test_one_entry_pivots_shared_with_other_rows_match_oracle(m, data):
    ncols = len(m[0])
    split = data.draw(st.integers(0, ncols))
    first = [{j: v for j, v in enumerate(row) if j < split and v} for row in m]
    assert sparse_ranks(_sparse(m), [split, ncols]) == [rank(first), rank(_sparse(m))]
    if len(m) == ncols:
        det = det_dense(m)
        assert sparse_det(_sparse(m), ncols) == det == det_sparse(_sparse(m), ncols)


def test_a_one_entry_row_past_the_bound_waits_for_the_next_stage():
    # row 0 holds one entry, at column 2, past the first bound 1: pivoted
    # in the first stage it would clear column 2 from the other rows and
    # count in the rank of column 0 alone
    m = [{2: 3}, {0: 1, 2: 1}, {1: 2, 2: 5}]
    first = [{j: v for j, v in row.items() if j < 1} for row in m]
    expected = [rank(first), rank(m)]
    assert expected == [1, 3]
    assert sparse_ranks([dict(row) for row in m], [1, 3]) == expected
    # the same row, reached as a one-entry row only after an update
    m = [{0: 1, 2: 1}, {0: 1, 2: 2}, {1: 2, 2: 5}]
    first = [{j: v for j, v in row.items() if j < 1} for row in m]
    assert sparse_ranks([dict(row) for row in m], [1, 3]) == [rank(first), rank(m)] == [1, 3]
