"""Integer Chevalley structure constants.

The positive-pair constants are fixed by the extraspecial-pair convention on
a total order of the positive roots (height, then lexicographic coefficient
order); all other constants follow from antisymmetry, N(-a,-b) = -N(a,b) and
the length-ratio identity for triples summing to zero.  Conclusions drawn
downstream never depend on the sign convention: checks are formulated as
rank, determinant and membership statements.  The table is keyed by root
code (`RootSystem.base`), and `n_code` answers on codes alone, which is
what the per-pair loops of `verify` call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .roots import RootSystem

Pair = Tuple[int, int]  # two root codes


class StructureTable:
    """Exact structure constants N(a, b) for a fixed root system.

    Constants are kept and looked up by root code (`RootSystem.base`):
    N(a, b) for positive a, b in `_pos`, and each mixed-sign constant, once
    derived from them, in `_mixed`.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self._by_code = system.by_code
        self._pos: Dict[Pair, int] = {}
        self._mixed: Dict[Pair, int] = {}
        self._norm = {r: system.inner(r, r) for r in system.positive_roots}
        self._build_positive()

    # -- construction -------------------------------------------------------

    def string_down(self, alpha: int, beta: int) -> int:
        """p = max k with beta - k*alpha a root, for root codes alpha and
        beta: each probe is the difference of two roots, so its code is
        a root's code exactly when it is that root."""
        by_code = self._by_code
        p = 0
        probe = beta - alpha
        while probe in by_code:
            p += 1
            probe -= alpha
        return p

    def _build_positive(self) -> None:
        by_code = self._by_code
        order = sorted([(sum(by_code[r]), r) for r in self.system.positive_roots])
        heights = [h for h, _ in order]
        pos_by_order = [r for _, r in order]
        place = {r: i for i, r in enumerate(pos_by_order)}
        for h, gamma in order:
            if h == 1:
                continue
            pairs = []
            for i, alpha in enumerate(pos_by_order):
                if heights[i] * 2 > h:
                    break
                # gamma - alpha is a positive root later in the order
                j = place.get(gamma - alpha)
                if j is not None and i < j:
                    pairs.append((alpha, pos_by_order[j]))
            ex_alpha, ex_beta = pairs[0]
            n_ex = self.string_down(ex_alpha, ex_beta) + 1
            self._set_pos(ex_alpha, ex_beta, n_ex)
            for xi, eta in pairs[1:]:
                self._set_pos(xi, eta, self._special_constant(ex_alpha, xi, eta))

    def _set_pos(self, a: int, b: int, n: int) -> None:
        self._pos[(a, b)] = n
        self._pos[(b, a)] = -n

    def _special_constant(self, alpha: int, xi: int, eta: int) -> int:
        """Constant of a special pair from the extraspecial one via Jacobi.

        With gamma = xi + eta = alpha + beta the Jacobi identity for
        (x_{-alpha}, x_xi, x_eta) gives
        N(xi,eta) N(-alpha,gamma) = N(-alpha,xi) N(xi-alpha,eta)
                                  + N(-alpha,eta) N(xi,eta-alpha),
        where every right-hand constant involves a pair with a shorter sum.
        Arguments are root codes; xi - alpha (eta - alpha) is a root
        whenever N(-alpha, xi) (N(-alpha, eta)) is nonzero.
        """
        n = self.n_code
        lhs_factor = n(-alpha, xi + eta)
        total = 0
        t1a = n(-alpha, xi)
        if t1a != 0:
            total += t1a * n(xi - alpha, eta)
        t2a = n(-alpha, eta)
        if t2a != 0:
            total += t2a * n(xi, eta - alpha)
        if total % lhs_factor:
            raise ArithmeticError("non-integral structure constant")
        return total // lhs_factor

    # -- lookups ------------------------------------------------------------

    def n_code(self, a: int, b: int) -> int:
        """N(a, b) for the roots with codes a and b; 0 when a+b is not a root.

        A code's sign is its root's sign, and negating a code negates its
        root, so both the positive table and the mixed memo are read on
        ints alone.
        """
        if a + b not in self._by_code:
            return 0
        if a > 0:
            if b > 0:
                return self._pos.get((a, b), 0)
        elif b < 0:
            return -self._pos.get((-a, -b), 0)
        key = (a, b)
        val = self._mixed.get(key)
        if val is None:
            if a > 0:
                val = -self._mixed_neg_pos(-b, a)
            else:
                val = self._mixed_neg_pos(-a, b)
            self._mixed[key] = val
        return val

    def _mixed_neg_pos(self, alpha: int, b: int) -> int:
        """N(-alpha, b) for positive roots alpha, b (codes) with b - alpha a
        root."""
        c = b - alpha
        if c not in self._by_code:
            return 0
        norm = self._norm
        if c > 0:
            # (-alpha) + b + (-c) = 0: N(-alpha,b)/(c,c) = N(-c,-alpha)/(b,b)
            num, den = norm[c] * -self._pos.get((c, alpha), 0), norm[b]
        else:
            d = -c
            # (-alpha) + b + d = 0: N(-alpha,b)/(d,d) = N(b,d)/(alpha,alpha)
            num, den = norm[d] * self._pos.get((b, d), 0), norm[alpha]
        if num % den:
            raise ArithmeticError("non-integral mixed structure constant")
        return num // den


@lru_cache(maxsize=None)
def build_structure_table(system: RootSystem) -> StructureTable:
    """The full structure-constant table, built once per system."""
    return StructureTable(system)
