"""Integer Chevalley structure constants and exact brackets.

The positive-pair constants are fixed by the extraspecial-pair convention on
a total order of the positive roots (height, then lexicographic coefficient
order); all other constants follow from antisymmetry, N(-a,-b) = -N(a,b) and
the length-ratio identity for triples summing to zero.  Conclusions drawn
downstream never depend on the sign convention: checks are formulated as
rank, determinant and membership statements.  The table is keyed by root
code (`RootSystem.base`), and `n_code` answers on codes alone, which is
what the per-pair loops of `verify` call.

`GElem`, `bracket` and `ad_on_dual` compute brackets and the coadjoint
action of whole elements from the same constants.  The verification does
not use them: they are the oracle that the tests rebuild the matrix of
`verify.coadjoint_columns` from, column by column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .roots import Coeffs, Root, RootSystem

Pair = Tuple[int, int]  # two root codes


class GElem:
    """A Lie algebra element: root-vector coefficients plus a Cartan part.

    The Cartan part is written in coroot coordinates of the full Cartan.
    """

    __slots__ = ("root_part", "h_part")

    def __init__(
        self,
        root_part: Optional[Dict[Coeffs, Fraction]] = None,
        h_part: Optional[Tuple[Fraction, ...]] = None,
    ):
        self.root_part = {} if root_part is None else root_part
        self.h_part = h_part

    def add_root(self, coeffs: Coeffs, c: Fraction) -> None:
        v = self.root_part.get(coeffs, Fraction(0)) + c
        if v == 0:
            self.root_part.pop(coeffs, None)
        else:
            self.root_part[coeffs] = v

    def add_h(self, vec, c: Fraction = Fraction(1)) -> None:
        scaled = tuple([c * x for x in vec])
        if self.h_part is not None:
            scaled = tuple([a + b for a, b in zip(self.h_part, scaled)])
        self.h_part = scaled if any(scaled) else None

    def is_zero(self) -> bool:
        return not self.root_part and self.h_part is None


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
        self._norm = {r.code: system.inner(r, r) for r in system.positive_roots}
        self._build_positive()

    # -- construction -------------------------------------------------------

    def string_down(self, alpha: Root, beta: Root) -> int:
        """p = max k with beta - k*alpha a root."""
        sys = self.system
        p = 0
        probe = beta - alpha
        while sys.is_root(probe):
            p += 1
            probe = probe - alpha
        return p

    def _build_positive(self) -> None:
        pos_by_order = sorted(
            self.system.positive_roots, key=lambda r: (r.height, r.coeffs)
        )
        by_code = self._by_code
        place = {r.code: i for i, r in enumerate(pos_by_order)}
        heights = [r.height for r in pos_by_order]
        for gamma, h in zip(pos_by_order, heights):
            if h == 1:
                continue
            gc = gamma.code
            pairs = []
            for i, alpha in enumerate(pos_by_order):
                if heights[i] * 2 > h:
                    break
                # gamma - alpha is a positive root later in the order
                j = place.get(gc - alpha.code)
                if j is not None and i < j:
                    pairs.append((alpha.code, pos_by_order[j].code))
            ex_alpha, ex_beta = pairs[0]
            n_ex = self.string_down(by_code[ex_alpha], by_code[ex_beta]) + 1
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

    def n_const(self, a: Optional[Root], b: Optional[Root]) -> int:
        """N(a, b) with [x_a, x_b] = N(a, b) x_{a+b}; 0 when a+b is not a root."""
        if a is None or b is None:
            return 0
        return self.n_code(a.code, b.code)

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

    # -- brackets -----------------------------------------------------------

    def bracket_roots(self, a: Root, b: Root) -> GElem:
        """[x_a, x_b] as a GElem (root vector, coroot, or zero)."""
        sys = self.system
        out = GElem()
        if (a + b).coeffs == sys.zero_coeffs():
            # Chevalley normalization [x_a, x_{-a}] = a^vee
            out.add_h(sys.coroot(a))
            return out
        n = self.n_const(a, b)
        if n != 0:
            out.add_root((a + b).coeffs, Fraction(n))
        return out

    def bracket(self, x: GElem, y: GElem) -> GElem:
        """Bilinear bracket of two exact elements."""
        sys = self.system
        out = GElem()
        for ca, va in x.root_part.items():
            a = sys.root_from_coeffs(ca)
            for cb, vb in y.root_part.items():
                part = self.bracket_roots(a, sys.root_from_coeffs(cb))
                for cc, vc in part.root_part.items():
                    out.add_root(cc, va * vb * vc)
                if part.h_part is not None:
                    out.add_h(part.h_part, va * vb)
        if x.h_part is not None:
            for cb, vb in y.root_part.items():
                b = sys.root_from_coeffs(cb)
                out.add_root(cb, vb * _root_on_h(sys, b, x.h_part))
        if y.h_part is not None:
            for ca, va in x.root_part.items():
                a = sys.root_from_coeffs(ca)
                out.add_root(ca, -va * _root_on_h(sys, a, y.h_part))
        return out


def _root_on_h(sys: RootSystem, a: Root, h: Tuple[Fraction, ...]) -> Fraction:
    """a(h) for h in coroot coordinates."""
    return sum([p * c for p, c in zip(sys.simple_pairings(a), h)], Fraction(0))


def build_structure_table(system: RootSystem) -> StructureTable:
    """The full structure-constant table, kept on the system."""
    if system.structure_table is None:
        system.structure_table = StructureTable(system)
    return system.structure_table


def ad_on_dual(table: StructureTable, parabolic, x: GElem, y: GElem) -> GElem:
    """Coadjoint action of x on y in the realization of the dual space.

    The bracket is computed in the full algebra, then projected onto
    g_{Delta+} + h_trunc + g_{Delta-_{pi'}}: root components outside the
    support are dropped and the Cartan part is projected orthogonally onto
    the truncated Cartan (the invariant form restricted to the Cartan agrees
    with the Killing form up to scale, so this is the Killing projection).
    """
    raw = table.bracket(x, y)
    out = GElem()
    support = parabolic.dual_support_codes
    for cc, vc in raw.root_part.items():
        if table.system.code(cc) in support:
            out.add_root(cc, vc)
    if raw.h_part is not None:
        proj = parabolic.project_h(raw.h_part)
        if any(v != 0 for v in proj):
            out.add_h(proj)
    return out
