"""Exact linear algebra on integer rows, with integer results.

Every determinant, rank and solve goes through one elimination routine,
`_eliminate`, which takes integer rows only: `math.gcd` raises TypeError
on a non-integer entry that reaches an update.  Updates are fraction-free,
row_j <- (p/g) row_j - (a/g) row_i with g = gcd(p, a); the factors p/g are
tracked for the determinant, and a row that such a factor scaled up is
divided by the gcd of its entries, which keeps the integers small.  A
pivot row with one entry instead clears its column from the other rows by
deleting their entries there, with no gcd, scaling or content division:
that adds a multiple of the pivot row to each, which moves neither the
rank nor the determinant (the first step of structured Gaussian
elimination, LaMacchia and Odlyzko, CRYPTO '90).  Rows with one entry are
pivoted first, from a stack; the other pivot rows are taken from a lazy
heap keyed on current row length, with the pivot column the one held by
the fewest rows, so fill-in stays negligible on the sparse bracket
matrices this package produces.

`sparse_det` and `sparse_ranks` take ownership of the rows they are given:
they eliminate them in place, without a copy, so the caller must not use
them afterwards.  Explicit zero entries are deleted from the rows first.

Determinants are ints and solutions integers over the denominator of an
`Inverse`; the engine's rationals are (num, den) int pairs (`Rational`).
There is no floating point anywhere, so determinants, ranks and solutions
are certificates rather than approximations.
"""

from __future__ import annotations

import heapq
import math
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

Rational = Tuple[int, int]  # (num, den) in lowest terms, den > 0


def _perm_sign(pivots: List[Tuple[int, int]]) -> int:
    """Sign of the permutation row -> column of a full set of pivots of a
    square matrix."""
    perm = [c for _, c in sorted(pivots)]
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return sign


def _eliminate(
    rows: List[Dict[int, int]], bounds: Sequence[int], jordan: bool = False
) -> Tuple[List[Tuple[int, int]], List[int], Tuple[int, int]]:
    """Elimination of integer rows on integers, in place; explicit zero
    entries are deleted first.

    Pivots are taken in stages: in stage k only columns below bounds[k] may
    pivot, and the rank reached at the end of each stage is recorded, so
    one pass gives the rank of every leading column block in bounds.  With
    jordan=True each pivot column is also cleared from the earlier pivot
    rows (Gauss-Jordan), so each pivot row ends with one nonzero entry
    below the last bound.

    Returns the (row, column) pivots in order, the rank per stage, and the
    factor (scaled_up, divided) of every full-rank square determinant:
    det(input) = det(output) * divided / scaled_up.
    """
    col_rows: Dict[int, set] = {}
    for i, r in enumerate(rows):
        if 0 in r.values():
            for c in [c for c, v in r.items() if not v]:
                del r[c]
        for c in r:
            holders = col_rows.get(c)
            if holders is None:
                col_rows[c] = {i}
            else:
                holders.add(i)
    active = set(range(len(rows)))
    pivots: List[Tuple[int, int]] = []
    ranks: List[int] = []
    scaled_up = 1  # product of the factors p/g
    divided = 1  # product of the row contents divided out
    for bound in bounds:
        # one-entry rows on a stack, the others on a heap by length; an
        # entry is stale once its row changed, and a changed row is pushed
        # again where its new length belongs
        singles, heap = [], []
        for i in active:
            k = len(rows[i])
            if k == 1:
                singles.append(i)
            elif k:
                heap.append((k, i))
        heapq.heapify(heap)
        while singles or heap:
            if singles:
                pi = singles.pop()
                prow = rows[pi]
                if pi not in active or len(prow) != 1:
                    continue
                nnz, pc = 1, next(iter(prow))
                if pc >= bound:
                    continue  # waits for a later stage, or for an update
            else:
                nnz, pi = heapq.heappop(heap)
                prow = rows[pi]
                if pi not in active or len(prow) != nnz:
                    continue
                eligible = [(len(col_rows[c]), c) for c in prow if c < bound]
                if not eligible:
                    continue
                pc = min(eligible)[1]
            pivots.append((pi, pc))
            active.discard(pi)
            holders = col_rows[pc]
            if nnz == 1:
                # rows[j] - (rows[j][pc] / p) prow only deletes the entry at
                # pc; no row gains pc again, so col_rows[pc] is not read again
                for j in holders:
                    if j == pi:
                        continue
                    rj = rows[j]
                    del rj[pc]
                    if j in active and len(rj) == 1:
                        singles.append(j)
                    elif j in active and rj:
                        heapq.heappush(heap, (len(rj), j))
                continue
            # a column that the pivot row alone holds needs no update
            others = [j for j in holders if j != pi] if len(holders) > 1 else ()
            p = prow[pc]
            for j in others:
                rj = rows[j]
                a = rj[pc]
                g = math.gcd(p, a) if p > 0 else -math.gcd(p, a)
                m, q = p // g, a // g
                new = {c: m * v for c, v in rj.items()} if m != 1 else rj
                for c, v in prow.items():
                    nv = new.get(c, 0) - q * v
                    if nv:
                        if c not in new:
                            holders = col_rows.get(c)
                            if holders is None:
                                col_rows[c] = {j}
                            else:
                                holders.add(j)
                        new[c] = nv
                    elif c in new:
                        del new[c]
                        col_rows[c].discard(j)
                if m != 1:
                    scaled_up *= m
                    content = math.gcd(*new.values())
                    if content > 1:
                        divided *= content
                        new = {c: v // content for c, v in new.items()}
                rows[j] = new
                if j in active and len(new) == 1:
                    singles.append(j)
                elif j in active and new:
                    heapq.heappush(heap, (len(new), j))
            if not jordan:
                for c in prow:
                    col_rows[c].discard(pi)
        ranks.append(len(pivots))
    return pivots, ranks, (scaled_up, divided)


def _determinant(
    rows: List[Dict[int, int]], pivots: List[Tuple[int, int]], factor: Tuple[int, int]
) -> int:
    """The determinant of the input of a full-rank square elimination: an
    exact division, which raises ArithmeticError on a remainder."""
    scaled_up, divided = factor
    product = _perm_sign(pivots) * math.prod([rows[r][c] for r, c in pivots])
    det, rest = divmod(product * divided, scaled_up)
    if rest:
        raise ArithmeticError("scaled_up does not divide the determinant")
    return det


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


class Inverse(list):
    """The inverse of a nonsingular square matrix as integer rows over one
    common denominator: A^-1 = self / den.  A solve with A or its transpose
    is then one integer product per right-hand side."""

    def __init__(self, num_rows: List[List[int]], den: int) -> None:
        super().__init__(num_rows)
        self.den = den

    def solve_scaled(self, rhs: Sequence[int]) -> List[int]:
        """den * x with A x = rhs: integers for an integer rhs, so that
        callers compare and combine solutions on ints."""
        return [_dot(row, rhs) for row in self]

    def solve_transposed_scaled(
        self, rhss: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """den * y with A^T y = c, for every right-hand side c in rhss."""
        cols = list(zip(*self))
        return [[_dot(col, c) for col in cols] for c in rhss]


def invert(rows: Sequence[Sequence[int]]) -> Tuple[int, Optional[Inverse]]:
    """Determinant and inverse of a square matrix from one Gauss-Jordan
    elimination of [A | I]; the inverse is None when A is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("elimination of a non-square matrix")
    augmented = []
    for i, r in enumerate(rows):
        row = {c: v for c, v in enumerate(r) if v}
        row[n + i] = 1  # the identity block
        augmented.append(row)
    pivots, (rank,), factor = _eliminate(augmented, [n], jordan=True)
    if rank < n:
        return 0, None
    det = _determinant(augmented, pivots, factor)
    den = math.lcm(*[augmented[r][c] for r, c in pivots])
    num: List[List[int]] = [[]] * n
    for r, c in pivots:
        mult = den // augmented[r][c]
        num[c] = [augmented[r].get(n + k, 0) * mult for k in range(n)]
    return det, Inverse(num, den)


def sparse_ranks(rows: List[Dict[int, int]], bounds: Sequence[int]) -> List[int]:
    """For each bound b, the rank of the columns below b, from one
    elimination that pivots on the columns below each bound before any
    column beyond it.  bounds must be increasing.  The rows are
    eliminated in place: the call owns them."""
    return _eliminate(rows, bounds)[1]


def sparse_det(rows: List[Dict[int, int]], ncols: int) -> int:
    """Determinant of a square sparse integer matrix.  The rows are
    eliminated in place: the call owns them."""
    if len(rows) != ncols:
        raise ValueError("determinant of a non-square matrix")
    pivots, (rank,), factor = _eliminate(rows, [ncols])
    if rank < ncols:
        return 0
    return _determinant(rows, pivots, factor)
