"""Exact root systems of types B, D, E6, E7 on the integer root lattice.

A root has its integer coefficient vector over the simple roots (Bourbaki
numbering).  Inner products and Cartan pairings come from the integer Gram
and Cartan matrices of the simple roots, which are integral for every
supported type, so root arithmetic runs on Python ints.  Every root is one
object of its system and carries a linear integer code (`RootSystem.base`),
its coefficients as the digits of one int with the first coefficient most
significant: sums, differences and signs of roots are tested on single
ints, and codes sort exactly as coefficient vectors do.  A set of roots or
a map keyed on roots holds codes, and `RootSystem.by_code` gives each root
back; a `Root` is not hashable.  Fundamental and Levi weights are integer
vectors over one denominator per simple-root subset (`weight_rows`).
Cartan elements are written in coroot coordinates.
The bilinear form agrees with the Killing form up to a global scale.

Epsilon coordinates (the orthonormal basis of the ambient space, dimension
n for B_n/D_n and 8 for E6/E7) exist only at the edges: `eps_scaled` for
display and `root_from_eps` for case data written in epsilon form.  They
are integer rows over one denominator, 2 for E6/E7 and 1 otherwise, from
`_simple_root_data`; the module does no rational arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

Coeffs = Tuple[int, ...]

SUPPORTED = {"B", "D", "E6", "E7"}


class Root:
    """A root: its integer coefficients over the simple roots and its code.

    Every root is one object of its `RootSystem`, made there with its code
    (see `RootSystem.base`) and its negative: a root is equal only to itself
    and -r is the stored negative.  A root is not hashable; sets and maps
    hold its code, which also sorts like the coefficients.
    """

    __slots__ = ("coeffs", "code", "_neg")

    def __init__(self, coeffs: Coeffs, code: int):
        self.coeffs = coeffs
        self.code = code

    def __neg__(self) -> "Root":
        return self._neg

    __hash__ = None  # key on the code

    @property
    def height(self) -> int:
        """rho-height: the sum of simple-root coefficients."""
        return sum(self.coeffs)

    def __repr__(self) -> str:
        return f"Root{self.coeffs}"


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


class RootSystem:
    """Root system data: simple roots, positive roots, exact integer form.

    Every root r of rank n has the code sum_i c_i base^(n-1-i) of its
    coefficients c_i: c_0 is the most significant digit.  With base =
    3M + 1, M the largest coefficient of a root, the digits of a sum or
    difference of two roots lie in [-2M, 2M], so the code is linear on
    them and no such vector shares a code with a root other than itself:
    by_code.get(code(a) + code(b)) is the root a + b or None.  A nonzero
    vector whose digits d satisfy |d| < base has the sign of its first
    nonzero digit, so code(r) > 0 exactly when r is positive, and codes
    sort like coefficient vectors: the difference of two roots has digits
    in [-2M, 2M] and base > 2M + 1, so code(a) < code(b) exactly when
    a.coeffs < b.coeffs: sorting roots by code sorts their coefficients.
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
        # gram[i][j] = (alpha_i, alpha_j), integral for every supported type;
        # cartan[i][j] = <alpha_i, alpha_j^vee>
        self.gram = [
            [sum([x * y for x, y in zip(a, b)]) // (den * den) for b in scaled]
            for a in scaled
        ]
        self.cartan = [
            [2 * self.gram[i][j] // self.gram[j][j] for j in range(rank)]
            for i in range(rank)
        ]
        self._forms: Dict[Coeffs, Tuple[int, ...]] = {}
        self._pairings: Dict[Coeffs, Tuple[int, ...]] = {}
        positive = self._generate_positive()
        self.base = 3 * max(max(c) for c in positive) + 1
        self.positive_roots: List[Root] = []
        self._by_coeffs: Dict[Coeffs, Root] = {}
        self.by_code: Dict[int, Root] = {}
        for coeffs in positive:
            code = self.code(coeffs)
            r, neg = Root(coeffs, code), Root(tuple([-a for a in coeffs]), -code)
            r._neg, neg._neg = neg, r
            self.positive_roots.append(r)
            for x in (r, neg):
                self._by_coeffs[x.coeffs] = x
                self.by_code[x.code] = x
        self.simple_roots: List[Root] = [
            self._by_coeffs[tuple([int(j == i) for j in range(rank)])]
            for i in range(rank)
        ]
        self._by_eps: Optional[Dict[Coeffs, Root]] = None
        self._weight_rows: Dict[Tuple[int, ...], Tuple[int, Dict[int, Coeffs]]] = {}

    # -- construction -----------------------------------------------------

    def _generate_positive(self) -> List[Coeffs]:
        """The coefficients of the positive roots, sorted: the closure of
        the simple roots via root strings, on coefficient tuples, seeding
        `_pairings` with every positive root's row.

        beta + alpha_j is a root iff p - <beta, alpha_j^vee> > 0 where p is
        the largest k with beta - k*alpha_j already a root; processing by
        height makes every needed membership test refer to shorter roots
        only.  The pairings of beta + alpha_j are those of beta plus row j
        of the Cartan matrix.
        """
        rank = self.rank
        cartan = self.cartan
        known = self._pairings
        for i in range(rank):
            known[tuple([int(j == i) for j in range(rank)])] = tuple(cartan[i])
        frontier = list(known)
        while frontier:
            new_frontier: List[Coeffs] = []
            for beta in frontier:
                pairs = known[beta]
                for j in range(rank):
                    # The alpha_j-string through beta never crosses zero, so
                    # membership tests against shorter known roots suffice.
                    p = 0
                    probe = list(beta)
                    probe[j] -= 1
                    while probe[j] >= 0 and tuple(probe) in known:
                        p += 1
                        probe[j] -= 1
                    if p > pairs[j]:
                        cand = list(beta)
                        cand[j] += 1
                        cand = tuple(cand)
                        if cand not in known:
                            row = cartan[j]
                            known[cand] = tuple([a + b for a, b in zip(pairs, row)])
                            new_frontier.append(cand)
            frontier = new_frontier
        return sorted(known)

    # -- basic queries -----------------------------------------------------

    def code(self, coeffs: Sequence[int]) -> int:
        """sum_i coeffs[i] * base^(n-1-i), the code of a root with these
        coefficients: the first coefficient is the most significant digit."""
        out = 0
        for c in coeffs:
            out = out * self.base + c
        return out

    def root_from_coeffs(self, coeffs: Sequence[int]) -> Root:
        return self._by_coeffs[tuple(coeffs)]

    def try_root(self, coeffs: Sequence[int]) -> Optional[Root]:
        return self._by_coeffs.get(tuple(coeffs))

    # -- the integer form --------------------------------------------------

    def _form(self, r: Root) -> Tuple[int, ...]:
        """(r, alpha_i) for every simple root alpha_i, memoised; from the
        pairings <r, alpha_i^vee> when they are known."""
        row = self._forms.get(r.coeffs)
        if row is None:
            gram = self.gram
            pairs = self._pairings.get(r.coeffs)
            if pairs is not None:
                row = tuple([p * gram[i][i] // 2 for i, p in enumerate(pairs)])
            else:
                row = tuple(
                    [
                        sum([a * g for a, g in zip(r.coeffs, gram_row, strict=True)])
                        for gram_row in gram
                    ]
                )
            self._forms[r.coeffs] = row
        return row

    def inner(self, a: Root, b: Root) -> int:
        """Symmetric bilinear form on the root lattice, via the Gram matrix."""
        return sum([x * y for x, y in zip(a.coeffs, self._form(b), strict=True)])

    def simple_pairings(self, r: Root) -> Tuple[int, ...]:
        """<r, alpha_k^vee> for every simple root alpha_k, memoised."""
        row = self._pairings.get(r.coeffs)
        if row is None:
            form = self._form(r)
            row = tuple([2 * f // self.gram[k][k] for k, f in enumerate(form)])
            self._pairings[r.coeffs] = row
        return row

    def coroot(self, r: Root) -> Tuple[int, ...]:
        """alpha^vee = 2 alpha / (alpha, alpha) in coroot coordinates."""
        norm = self.inner(r, r)
        return tuple([c * self.gram[i][i] // norm for i, c in enumerate(r.coeffs)])

    # -- weights -----------------------------------------------------------

    def weight_rows(self, subset: Sequence[int]) -> Tuple[int, Dict[int, Coeffs]]:
        """Fundamental weights of the subsystem on subset (0-based simple
        indices), inside its span, as integer vectors over one denominator:
        (den, {i: num}) with w_i = num / den in simple-root coordinates and
        den the least such.  One inversion of the Cartan block per subset,
        kept on the system."""
        key = tuple(sorted(subset))
        got = self._weight_rows.get(key)
        if got is None:
            # imported here so that rendering a certificate, which needs
            # the roots but no weights, does not load linalg
            from .linalg import invert

            k = len(key)
            block = [[self.cartan[key[j]][key[i]] for j in range(k)] for i in range(k)]
            _, inverse = invert(block)
            if inverse is None:
                raise ValueError("degenerate Cartan matrix")
            # w_i solves block x = e_i: column i of the inverse
            g = math.gcd(inverse.den, *[x for row in inverse for x in row])
            rows = {}
            for col, i in enumerate(key):
                num = [0] * self.rank
                for r, idx in enumerate(key):
                    num[idx] = inverse[r][col] // g
                rows[i] = tuple(num)
            got = self._weight_rows[key] = (inverse.den // g, rows)
        return got

    # -- epsilon edge ------------------------------------------------------

    def _eps_row(self, coeffs: Sequence) -> List:
        """Epsilon coordinates times `_eps_den`: integers for a root."""
        out = [0] * self.dim
        for c, v in zip(coeffs, self._eps_simples):
            if c:
                for d, e in v:
                    out[d] += c * e
        return out

    def eps_scaled(self, r: Root) -> Tuple[int, List[int]]:
        """(den, row): the epsilon coordinates of the root r are the
        integers of row over den."""
        return self._eps_den, self._eps_row(r.coeffs)

    def root_from_eps(self, eps: Sequence) -> Root:
        """The root with these epsilon coordinates (ints or exact
        rationals), through a table of integer rows built on first use.

        The query is scaled by `_eps_den` once; an integral rational
        hashes and compares like its int, and any other one matches no row.
        """
        if self._by_eps is None:
            self._by_eps = {
                tuple(self._eps_row(r.coeffs)): r for r in self._by_coeffs.values()
            }
        den = self._eps_den
        return self._by_eps[tuple([x * den for x in eps])]

    # -- misc --------------------------------------------------------------

    def highest_root(self) -> Root:
        return max(self.positive_roots, key=lambda r: (r.height, r.code))

    def __repr__(self) -> str:
        return f"RootSystem({self.family}, {self.rank})"


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Build and cache the full root system for a supported (family, rank)."""
    return RootSystem(family, rank)

