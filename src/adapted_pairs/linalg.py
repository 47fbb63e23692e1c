"""Exact linear algebra over the rationals.

Everything here works on fractions.Fraction entries; there is no floating
point anywhere, so determinants, ranks and solutions are certificates rather
than approximations.  Dense routines are meant for small systems (a few dozen
rows); the sparse elimination handles the large, very sparse matrices that
come out of bracket computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Row = Dict[int, Fraction]


def det_dense(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def solve_dense(
    rows: Sequence[Sequence[Fraction]], rhss: Sequence[Sequence[Fraction]]
) -> Optional[List[List[Fraction]]]:
    """Solve a square system exactly for every right-hand side in rhss.

    One elimination serves all of them; returns one solution per right-hand
    side, or None when the matrix is singular.
    """
    n = len(rows)
    m = [
        [Fraction(x) for x in r] + [Fraction(b[i]) for b in rhss]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [[m[r][n + k] for r in range(n)] for k in range(len(rhss))]


def solve_in_span(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Exact coefficients expressing target in the span of the columns.

    Returns one coefficient vector (len(columns) entries) or None when the
    target is outside the span.  Works for rectangular, possibly dependent
    column sets.
    """
    nrows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[c][r]) for c in range(ncols)] + [Fraction(target[r])]
           for r in range(nrows)]
    piv_of_col: Dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
        if r == nrows:
            break
    # Rows below the last pivot have zero coefficient parts.
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    coeffs = [Fraction(0)] * ncols
    for c, piv in piv_of_col.items():
        coeffs[c] = aug[piv][ncols]
    return coeffs


def _perm_sign(rows_order: List[int], cols_order: List[int]) -> int:
    """Sign of the bijection pivot_row -> pivot_col against sorted orders."""
    row_rank = {r: i for i, r in enumerate(sorted(rows_order))}
    col_rank = {c: i for i, c in enumerate(sorted(cols_order))}
    perm = [0] * len(rows_order)
    for r, c in zip(rows_order, cols_order):
        perm[row_rank[r]] = col_rank[c]
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sparse_eliminate(
    rows: List[Row], ncols: int, want_det: bool = False
) -> Tuple[int, Optional[Fraction]]:
    """Rank (and determinant when square) of a sparse rational matrix.

    Entries may be ints or Fractions; every entry becomes a Fraction on
    entry, so integer input never falls back to float division.  Pivots
    prefer short rows and lightly populated columns, which keeps fill-in
    negligible on the bracket matrices this package produces.
    """
    nrows = len(rows)
    if want_det and nrows != ncols:
        raise ValueError("determinant of a non-square matrix")
    rows = [{c: Fraction(v) for c, v in r.items()} for r in rows]
    col_rows: Dict[int, set] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    active = set(range(nrows))
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    pivot_vals: List[Fraction] = []
    while True:
        best = None
        for i in active:
            r = rows[i]
            if not r:
                continue
            nnz = len(r)
            c = min(r, key=lambda cc: (len(col_rows.get(cc, ())), cc))
            key = (nnz, len(col_rows.get(c, ())), i)
            if best is None or key < best[0]:
                best = (key, i, c)
                if nnz == 1 and key[1] <= 2:
                    break
        if best is None:
            break
        _, pi, pc = best
        pval = rows[pi][pc]
        pivot_rows.append(pi)
        pivot_cols.append(pc)
        pivot_vals.append(pval)
        active.discard(pi)
        targets = [j for j in col_rows.get(pc, ()) if j != pi and j in active]
        prow = rows[pi]
        for j in targets:
            f = rows[j][pc] / pval
            rj = rows[j]
            for c, v in prow.items():
                nv = rj.get(c, Fraction(0)) - f * v
                if nv == 0:
                    if c in rj:
                        del rj[c]
                        col_rows[c].discard(j)
                else:
                    if c not in rj:
                        col_rows.setdefault(c, set()).add(j)
                    rj[c] = nv
        for c in prow:
            col_rows[c].discard(pi)
    rank = len(pivot_rows)
    if not want_det:
        return rank, None
    if rank < ncols:
        return rank, Fraction(0)
    det = Fraction(_perm_sign(pivot_rows, pivot_cols))
    for v in pivot_vals:
        det *= v
    return rank, det


def sparse_rank(rows: List[Row], ncols: int) -> int:
    return sparse_eliminate(rows, ncols, want_det=False)[0]


def sparse_det(rows: List[Row], ncols: int) -> Fraction:
    det = sparse_eliminate(rows, ncols, want_det=True)[1]
    assert det is not None
    return det
