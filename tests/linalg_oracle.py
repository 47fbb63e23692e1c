"""The reference for adapted_pairs.linalg: plain Gaussian elimination on
fractions.Fraction entries, pivoting on the first nonzero entry.

It shares no code and no pivot strategy with the integer fraction-free
elimination of the package, so the tests compare ranks, determinants and
solutions of the two.
"""

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


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


def _leads(rows: Sequence[Mapping[int, Fraction]]) -> List[Tuple[int, int, Fraction]]:
    """(row, leading column, leading entry) of each row that is independent
    of the rows before it, after reducing it against an echelon basis of
    those rows, whose rows are normalised to a leading 1 at their smallest
    column."""
    basis: Dict[int, Dict[int, Fraction]] = {}
    leads = []
    for i, row in enumerate(rows):
        r = {c: Fraction(v) for c, v in row.items() if v}
        while r:
            lead = min(r)
            if lead not in basis:
                basis[lead] = {c: v / r[lead] for c, v in r.items()}
                leads.append((i, lead, r[lead]))
                break
            f = r[lead]
            for c, v in basis[lead].items():
                nv = r.get(c, Fraction(0)) - f * v
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
    return leads


def rank(rows: Sequence[Mapping[int, Fraction]]) -> int:
    """Rank of sparse rows."""
    return len(_leads(rows))


def det_sparse(rows: Sequence[Mapping[int, Fraction]], n: int) -> Fraction:
    """Determinant of a square matrix of n sparse rows.  Each row is reduced
    by multiples of the rows before it, which keeps the determinant; the
    reduced rows have distinct leading columns, so the determinant is the
    sign of row -> leading column times the product of the leading
    entries."""
    leads = _leads(rows)
    if len(leads) < n:
        return Fraction(0)
    det = Fraction(1)
    for _, _, v in leads:
        det *= v
    perm = [c for _, c, _ in leads]
    for i in range(n):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            det = -det
    return det
