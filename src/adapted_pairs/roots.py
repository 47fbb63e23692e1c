"""Exact root systems of types B, D, E6, E7 on the integer root lattice.

A root is an int: its code (`RootSystem.base`), which has the root's
integer coefficient vector over the simple roots (Bourbaki numbering) as
digits, the first coefficient most significant.  Sums, differences,
negatives and signs of roots are taken on single ints, and codes sort
exactly as coefficient vectors do.  `RootSystem.by_code` gives each root's
coefficients, for heights, pairings and what is written or printed.
The roots of B_n and D_n are written down in closed form, eps_i -+ eps_j
and, in B, eps_i (Bourbaki, *Lie Groups and Lie Algebras*, Ch. VI,
Planches II and IV); E6 and E7 are generated by height from the simple
roots by the simply-laced rule.  Pairings with the simple coroots are computed
where read, from the epsilon terms in B_n and D_n and the Gram rows in E6
and E7, and inner products from them and the Gram diagonal; the Gram and
Cartan matrices are integral for every supported type, so root arithmetic
runs on Python ints.  Fundamental weights are integer vectors over one
denominator (`weight_rows`).  Cartan elements are written in coroot
coordinates.  The bilinear form agrees with the Killing form up to a
global scale.

Queries take codes of this system.  A code carries no system: one of
another system is accepted whenever the same int is a root code here too
(code 1 is alpha_4 in B4 and alpha_5 in B5).

Epsilon coordinates (the orthonormal basis of the ambient space, dimension
n for B_n/D_n and 8 for E6/E7) are integer rows over one denominator, 2 for
E6/E7 and 1 otherwise, from `_simple_root_data`, for display
(`eps_scaled`).  A root of B_n or D_n is also eps_u + eps_v on signed
indices, written down with the root (`eps_indices`); epsilon terms become
a code by the code's linearity in them (`eps_root`), and a root's
splittings into two roots are listed from its (u, v) (`splittings`).  This
module is the only one that maps a root of B_n or D_n to its epsilon terms
and back.  It also reduces (`lowest_terms`) and prints (`fraction_text`)
the engine's rationals, (num, den) pairs, for `verify` and `report` alike.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Coeffs = Tuple[int, ...]
Pair = Tuple[int, int]  # the signed epsilon indices (u, v) of a root

SUPPORTED = {"B", "D", "E6", "E7"}


def lowest_terms(num: int, den: int) -> Tuple[int, int]:
    """The rational num / den as (num, den) in lowest terms, den > 0."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def fraction_text(num: int, den: int) -> str:
    """num, or num/den when den is not 1: str(Fraction) of a reduced pair."""
    return str(num) if den == 1 else f"{num}/{den}"


def _simple_root_data(family: str, rank: int) -> Tuple[int, List[List[int]]]:
    """Bourbaki simple roots in epsilon coordinates, as integer rows over
    one denominator: (den, rows) with alpha_i = rows[i] / den."""
    if family in ("B", "D"):
        if family == "B" and rank < 2:
            raise ValueError("type B needs rank >= 2")
        if family == "D" and rank < 4:
            raise ValueError("type D needs rank >= 4")
        rows = []
        for i in range(rank - 1):
            v = [0] * rank
            v[i], v[i + 1] = 1, -1
            rows.append(v)
        v = [0] * rank
        v[rank - 1] = 1
        if family == "D":
            v[rank - 2] = 1
        rows.append(v)
        return 1, rows
    if family in ("E6", "E7"):
        n = 6 if family == "E6" else 7
        if rank != n:
            raise ValueError(f"type {family} has rank {n}")
        rows = [[1, -1, -1, -1, -1, -1, -1, 1], [2, 2, 0, 0, 0, 0, 0, 0]]
        for i in range(n - 2):
            v = [0] * 8
            v[i], v[i + 1] = -2, 2
            rows.append(v)
        return 2, rows
    raise ValueError(f"unsupported family {family!r}")


def _eps_coefficients(family: str, v: Sequence[int]) -> List[int]:
    """The coefficients over the simple roots of the lattice vector of B_n
    or D_n with integer epsilon coordinates v: the partial sums S_k of v
    (Planche II); in D_n (Planche IV) the last two are (S_{n-1} - v_n)/2
    and S_n/2, S_n being even on the root lattice."""
    coeffs = list(accumulate(v))
    if family == "D":
        coeffs[-2:] = (coeffs[-2] - v[-1]) // 2, coeffs[-1] // 2
    return coeffs


class RootSystem:
    """Root system data: simple roots, positive roots, exact integer form.

    Every root r of rank n has the code sum_i c_i base^(n-1-i) of its
    coefficients c_i: c_0 is the most significant digit.  With base =
    3M + 1, M the largest coefficient of a root, the digits of a sum or
    difference of two roots lie in [-2M, 2M], so the code is linear on
    them and no such vector shares a code with a root other than itself:
    code(a) + code(b) is in by_code exactly when a + b is a root, and is
    then its code.  A nonzero
    vector whose digits d satisfy |d| < base has the sign of its first
    nonzero digit, so code(r) > 0 exactly when r is positive, and codes
    sort like coefficient vectors: the difference of two roots has digits
    in [-2M, 2M] and base > 2M + 1, so code(a) < code(b) exactly when
    a < b as coefficient vectors: sorting codes sorts coefficients.
    by_code maps the code of every root, of either sign, to its
    coefficients and is the only root table; positive_roots lists the
    positive codes in increasing order, simple_roots the unit codes.

    In B_n and D_n each root is generated from its signed epsilon indices
    (u, v), which _uv keeps for both signs, those of -r being (-u, -v),
    for `eps_indices` and the structure table; E6 and E7 keep none.  The
    code and the pairings <r, alpha_k^vee> are linear in the epsilon terms:
    on signed indices -n..n, _twice_eps[i] is twice the code of eps_i (half
    a lattice vector in D) and _eps_pairings[i] the pairings of eps_i, both
    zero at i = 0.  No pairing is stored per root: `simple_pairings`
    computes them, and `inner` and `coroot` are built on it.
    """

    def __init__(self, family: str, rank: int):
        if family not in SUPPORTED:
            raise ValueError(f"unsupported family {family!r}")
        self.family = family
        self.rank = rank
        den, scaled = _simple_root_data(family, rank)
        self.dim = len(scaled[0])
        self._eps_den = den
        self._eps_simples = [[(d, x) for d, x in enumerate(v) if x] for v in scaled]
        # gram[i][j] = (alpha_i, alpha_j), integral for every supported type,
        # from the few nonzero epsilon terms of alpha_i; _norms[i] =
        # (alpha_i, alpha_i); cartan[i][j] = <alpha_i, alpha_j^vee>
        self.gram = [
            [sum([x * b[d] for d, x in a]) // (den * den) for b in scaled]
            for a in self._eps_simples
        ]
        self._norms = [row[i] for i, row in enumerate(self.gram)]
        self.cartan = [
            [2 * self.gram[i][j] // self.gram[j][j] for j in range(rank)]
            for i in range(rank)
        ]
        if family in ("B", "D"):
            uvs = found = self._epsilon_positive()
        else:  # the generation's pairings are not kept, only its keys
            uvs, found = {}, self._generate_positive()
        self.base = 3 * max(map(max, found)) + 1
        positive = {self.code(c): c for c in found}
        self.positive_roots: List[int] = sorted(positive)
        self.by_code: Dict[int, Coeffs] = {}
        self._uv: Dict[int, Pair] = {}
        for code in self.positive_roots:
            coeffs = positive[code]
            self.by_code[code] = coeffs
            self.by_code[-code] = tuple([-a for a in coeffs])
            if uvs:
                u, v = self._uv[code] = uvs[coeffs]
                self._uv[-code] = -u, -v
        self.simple_roots: List[int] = [self.base**k for k in reversed(range(rank))]
        if family in ("B", "D"):
            twice = [
                self.code(_eps_coefficients(family, [0] * i + [2] + [0] * (rank - 1 - i)))
                for i in range(rank)
            ]
            self._twice_eps = [0] + twice + [-x for x in reversed(twice)]
            # <eps_d, alpha_k^vee> = 2 (eps_d, alpha_k) / (alpha_k, alpha_k)
            eps = [tuple([2 * a[d] // g for a, g in zip(scaled, self._norms)])
                   for d in range(rank)]
            self._eps_pairings = [(0,) * rank] + eps + [
                tuple([-p for p in row]) for row in reversed(eps)]
        self._derived: Dict[Callable[["RootSystem"], Any], Any] = {}

    # -- construction -----------------------------------------------------

    def _epsilon_positive(self) -> Dict[Coeffs, Pair]:
        """B_n and D_n: the coefficients of each positive root eps_u +
        eps_v, read off its one or two epsilon terms, mapped to its (u, v),
        on signed 1-based indices with 0 < u < |v| and v = 0 for eps_u in
        B."""
        n, family = self.rank, self.family
        roots = [(u, s * w) for u in range(1, n + 1) for w in range(u + 1, n + 1)
                 for s in (-1, 1)]
        if family == "B":
            roots += [(u, 0) for u in range(1, n + 1)]
        uvs: Dict[Coeffs, Pair] = {}
        for uv in roots:
            v = [0] * n
            for t in uv:
                if t:
                    v[abs(t) - 1] = 1 if t > 0 else -1
            uvs[tuple(_eps_coefficients(family, v))] = uv
        return uvs

    def _generate_positive(self) -> Dict[Coeffs, Coeffs]:
        """The coefficients of the positive roots of a simply-laced system
        (E6, E7) mapped to their pairings with the simple coroots, by height.

        For a positive root beta other than alpha_j (whose pairing is 2),
        beta + alpha_j is a root exactly when <beta, alpha_j^vee> = -1: the
        alpha_j-string beta - p alpha_j .. beta + q alpha_j, p - q =
        <beta, alpha_j^vee>, holds at most two roots when all roots have
        one length (Bourbaki, Lie VI, 1.3).  The pairings of beta + alpha_j
        are those of beta plus row j of the Cartan matrix.  The general
        closure under root strings is the tests' oracle.
        """
        rank = self.rank
        cartan = self.cartan
        known: Dict[Coeffs, Coeffs] = {}
        for i in range(rank):
            known[tuple([int(j == i) for j in range(rank)])] = tuple(cartan[i])
        frontier = list(known)
        while frontier:
            new_frontier: List[Coeffs] = []
            for beta in frontier:
                pairs = known[beta]
                for j, p in enumerate(pairs):
                    if p == -1:
                        cand = list(beta)
                        cand[j] += 1
                        cand = tuple(cand)
                        if cand not in known:
                            known[cand] = tuple(map(add, pairs, cartan[j]))
                            new_frontier.append(cand)
            frontier = new_frontier
        return known

    # -- basic queries -----------------------------------------------------

    def code(self, coeffs: Sequence[int]) -> int:
        """sum_i coeffs[i] * base^(n-1-i), the code of a root with these
        coefficients: the first coefficient is the most significant digit."""
        out = 0
        for c in coeffs:
            out = out * self.base + c
        return out

    def root_from_coeffs(self, coeffs: Sequence[int]) -> int:
        """`try_root`, raising KeyError where it gives None."""
        root = self.try_root(coeffs)
        if root is None:
            raise KeyError(tuple(coeffs))
        return root

    def try_root(self, coeffs: Sequence[int]) -> Optional[int]:
        """The code of the root with these coefficients, or None.  Another
        vector can share a root's code ((0,..,0,7) and alpha_7 in B8, base
        7), so the code counts only if `by_code` maps it back to them."""
        coeffs = tuple(coeffs)
        code = self.code(coeffs)
        return code if self.by_code.get(code) == coeffs else None

    # -- the integer form --------------------------------------------------

    def inner(self, a: int, b: int) -> int:
        """Symmetric bilinear form on the root lattice: (a, b) is
        sum_i a_i <b, alpha_i^vee> g_ii / 2, with g the Gram matrix."""
        terms = zip(self.by_code[a], self.simple_pairings(b), self._norms)
        return sum([x * p * g for x, p, g in terms]) // 2

    def simple_pairings(self, r: int) -> Tuple[int, ...]:
        """<r, alpha_k^vee> for every simple root alpha_k: in B_n and D_n
        those of eps_u plus those of eps_v, (u, v) = `eps_indices`(r), and
        in E6 and E7 from the Gram rows.  A code of no root raises KeyError."""
        if self.family in ("B", "D"):
            u, v = self._uv[r]
            rows = self._eps_pairings
            return tuple(map(add, rows[u], rows[v]))
        coeffs = self.by_code[r]
        return tuple([2 * sum(map(mul, coeffs, row)) // g
                      for row, g in zip(self.gram, self._norms)])

    def coroot(self, r: int) -> Tuple[int, ...]:
        """alpha^vee = 2 alpha / (alpha, alpha) in coroot coordinates."""
        norm = self.inner(r, r)
        return tuple(
            [c * g // norm for c, g in zip(self.by_code[r], self._norms)]
        )

    # -- tables derived from the system ----------------------------------

    def derived(self, make: Callable[["RootSystem"], Any]) -> Any:
        """make(self), made on first use and kept on the system, keyed on
        make: the one store of what is built per system (weight rows,
        structure table, -w0), which lives as long as the system."""
        if make not in self._derived:
            self._derived[make] = make(self)
        return self._derived[make]

    def weight_rows(self) -> Tuple[int, Dict[int, Coeffs]]:
        """The fundamental weights as integer vectors over one denominator:
        (den, {i: num}) for every 0-based simple index i, with
        w_i = num / den in simple-root coordinates and den the least such.
        One inversion of the Cartan matrix, kept on the system; the
        projection of a parabolic (`ParabolicData.removed_projection`)
        reads the row of varpi_s, and the character bounds, which work in
        Dynkin labels, need no other."""
        return self.derived(_weight_rows)

    # -- epsilon coordinates ---------------------------------------------

    def eps_scaled(self, r: int) -> Tuple[int, List[int]]:
        """(den, row): the epsilon coordinates of the root r are the
        integers of row over den."""
        row = [0] * self.dim
        for c, v in zip(self.by_code[r], self._eps_simples):
            if c:
                for d, e in v:
                    row[d] += c * e
        return self._eps_den, row

    def eps_indices(self, r: int) -> Pair:
        """(u, v) with r = eps_u + eps_v, for a root of B_n or D_n, on
        signed 1-based indices, eps_-u = -eps_u and eps_0 = 0: u is the
        first index of a positive root and v is 0 for a short one.  Kept
        since the root was generated from it; a root of E6 or E7 has no
        such pair and raises KeyError."""
        return self._uv[r]

    def eps_root(self, terms: Sequence[Tuple[int, int]]) -> int:
        """The code of the root of B_n or D_n with epsilon terms
        [(coef, index), ...] on 1-based indices: half the sum of
        _twice_eps at their signed indices.  Only one term (in B) or two
        on distinct indices, each with coefficient +-1, name a root; any
        other list raises ValueError."""
        n = self.rank
        signed = [c * i for c, i in terms if c in (1, -1) and 0 < i <= n]
        sizes = {"B": (1, 2), "D": (2,)}.get(self.family, ())
        if (len(signed) != len(terms) or len(terms) not in sizes
                or len({abs(t) for t in signed}) != len(terms)):
            raise ValueError(f"epsilon terms {list(terms)} are not a root of {self}")
        twice = self._twice_eps
        return sum([twice[t] for t in signed]) >> 1

    def splittings(self, p: int) -> List[int]:
        """Each splitting p = a + b of p into two roots, once, as a; b is
        p - a.

        In B_n and D_n, with p = eps_u + eps_v: a = eps_u + eps_t and
        b = eps_v - eps_t for t = +-k, k any index other than |u| and |v|
        (the short root p = eps_u has v = 0 and b = -eps_t), and in B
        a = eps_u, b = eps_v for a long p: O(n) roots, by the code's
        linearity in the epsilon terms; only a holds eps_u.  E6 and E7
        test every root a, and keep the one with a < b."""
        by_code = self.by_code
        if self.family not in ("B", "D"):
            return [a for a in by_code if p - a in by_code and a < p - a]
        twice = self._twice_eps
        u, v = self.eps_indices(p)
        tu = twice[u]
        # eps_u + eps_t for every signed index t (at list index t mod 2n+1),
        # less t = +-u (2 eps_u and 0) and t = +-v (p and eps_u - eps_v);
        # t = 0 gives eps_u, a summand of a long p in B only
        out = [(tu + x) >> 1 for x in twice]
        size = len(twice)
        drop = {abs(u), size - abs(u)}
        if v:
            drop |= {abs(v), size - abs(v)}
        if not v or self.family == "D":
            drop.add(0)
        for i in sorted(drop, reverse=True):
            del out[i]
        return out

    # -- misc --------------------------------------------------------------

    def highest_root(self) -> int:
        """The highest root exceeds every positive root coefficientwise, so
        its code is the largest."""
        return self.positive_roots[-1]

    def __repr__(self) -> str:
        return f"RootSystem({self.family}, {self.rank})"


def _weight_rows(system: RootSystem) -> Tuple[int, Dict[int, Coeffs]]:
    # imported here so that rendering a certificate, which needs the roots
    # but no weights, does not load linalg
    from .linalg import invert

    _, inverse = invert([list(col) for col in zip(*system.cartan)])
    if inverse is None:
        raise ValueError("degenerate Cartan matrix")
    # w_i solves C^T x = e_i: column i of the inverse
    g = math.gcd(inverse.den, *[x for row in inverse for x in row])
    rows = {i: tuple([r[i] // g for r in inverse]) for i in range(system.rank)}
    return inverse.den // g, rows


_SYSTEMS: Dict[Tuple[str, int], RootSystem] = {}


def build_root_system(family: str, rank: int) -> RootSystem:
    """Build and keep the root system of a supported (family, rank): the
    only module-level memo, which `cli.cmd_sweep` empties between systems
    through `build_root_system.cache_clear`.  That is an attribute of the
    function, so a `functools.wraps` wrapper of it has it too."""
    system = _SYSTEMS.get((family, rank))
    if system is None:
        system = _SYSTEMS[family, rank] = RootSystem(family, rank)
    return system


build_root_system.cache_clear = _SYSTEMS.clear
