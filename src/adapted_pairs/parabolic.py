"""Truncated maximal parabolic data: pi' = pi \\ {alpha_s}, involutions, index.

The involution j is -w0 of the full system and i extends -w0' of the Levi
part to all of pi.  Longest-element actions are computed exactly by the
descent algorithm (repeatedly reflecting a strictly dominant vector), which
reaches w0 in |Delta+| steps; no Weyl group enumeration and no case tables
are involved.

The truncated Cartan is the span of the coroots alpha_k^vee, k in pi'.  Its
orthogonal complement is the line of varpi_s, so the projection onto it is
a closed form on integers: the projection of alpha_s^vee has integer coroot
coordinates over one denominator per parabolic (`removed_projection`), and
no linear system is solved.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .roots import RootSystem


def subsystem_roots(system: RootSystem, subset: Sequence[int]) -> List[int]:
    """The codes of the positive roots supported on the given simple
    indices (0-based), in increasing order."""
    inside = set(subset)
    outside = [i for i in range(system.rank) if i not in inside]
    by_code = system.by_code
    return [
        r for r in system.positive_roots if not any([by_code[r][i] for i in outside])
    ]


def minus_w0_on_subset(system: RootSystem, subset: Sequence[int]) -> Dict[int, int]:
    """The permutation alpha -> -w0(alpha) of the chosen simple roots, by
    the descent algorithm on Dynkin labels <v, alpha_j^vee>, j in subset.

    w0 is the longest element of the Weyl group generated by the subset.
    Start from v = sum_k c_k w_k with the distinct labels c_k = k + 1 (k the
    position in the sorted subset) and reflect at any j with a positive
    label; s_j subtracts label_j times row j of the Cartan matrix, which is
    nonzero only at j and its neighbours.  Every step lengthens the Weyl
    element by one, so after |Delta+ of the subset| steps v = w0(v) is
    antidominant.  Since -w0(w_i) = w_{-w0(i)}, the label -c_k of w0(v)
    sits at -w0 of the k-th index.
    """
    subset = sorted(subset)
    cartan = system.cartan
    size = len(subset)
    labels = list(range(1, size + 1))
    rows = [
        [(b, cartan[i][k]) for b, k in enumerate(subset) if cartan[i][k]]
        for i in subset
    ]
    guard = len(system.positive_roots) + 1
    while True:
        for a in range(size):
            if labels[a] > 0:
                break
        else:
            break
        step = labels[a]
        for b, c in rows[a]:
            labels[b] -= step * c
        guard -= 1
        if guard < 0:
            raise RuntimeError("descent algorithm failed to terminate")
    if sorted(labels) != list(range(-size, 0)):
        raise RuntimeError("-w0 does not permute the simple roots")
    return {subset[-labels[b] - 1]: j for b, j in enumerate(subset)}


def _minus_w0(system: RootSystem) -> Dict[int, int]:
    """-w0 of the whole diagram, the involution j of every parabolic of the
    system, shared through its `RootSystem.derived` store: never changed."""
    return minus_w0_on_subset(system, range(system.rank))


class ParabolicData:
    """Everything attached to the truncation of p_{pi \\ {alpha_s}}: pi',
    the involutions j and i, the ij-orbits and the index, the support of
    the dual space, and the projection onto the truncated Cartan, whose
    coordinates are also the Levi corrections of the lower bound in
    Dynkin labels (`bounds.delta_gamma`).
    """

    def __init__(self, system: RootSystem, s: int):
        if not 1 <= s <= system.rank:
            raise ValueError(f"no simple root alpha_{s} in rank {system.rank}")
        self.system = sys = system
        self.s = s  # 1-based index of the removed simple root
        s0 = s - 1
        # 0-based indices
        self.pi_prime = tuple(i for i in range(sys.rank) if i != s0)
        self.j_map = sys.derived(_minus_w0)
        self.i_map = self._build_i()
        self.orbits = self._ij_orbits()
        self.index = len(self.orbits)
        # the codes of Delta+ | Delta-_{pi'}, the support of the dual space,
        # sorted and as a set
        support = sys.positive_roots + [
            -r for r in subsystem_roots(sys, self.pi_prime)
        ]
        self.dual_support: Tuple[int, ...] = tuple(sorted(support))
        self.dual_support_codes: FrozenSet[int] = frozenset(self.dual_support)

    def _build_i(self) -> Dict[int, int]:
        """-w0' on pi', extended by i(alpha_s) = alpha_s.

        One descent on all of pi' gives -w0' on every Dynkin component at
        once: the longest element of a product of Weyl groups is the
        product of their longest elements (Bourbaki, Lie VI 1.6).  The
        extension sends alpha_s along the j-orbit, x -> j(i(x)), to the
        first index outside pi'; as pi \\ pi' = {alpha_s}, that is s."""
        i_map = minus_w0_on_subset(self.system, self.pi_prime)
        i_map[self.s - 1] = self.s - 1
        return i_map

    def _ij_orbits(self) -> List[FrozenSet[int]]:
        """Orbits of the cyclic group generated by the composition i o j."""
        sigma = {a: self.i_map[self.j_map[a]] for a in range(self.system.rank)}
        seen = set()
        orbits = []
        for start in range(self.system.rank):
            if start in seen:
                continue
            orbit = set()
            x = start
            while x not in orbit:
                orbit.add(x)
                seen.add(x)
                x = sigma[x]
            orbits.append(frozenset(orbit))
        return orbits

    # -- dual-space helpers --------------------------------------------------

    @property
    def h_dim(self) -> int:
        return len(self.pi_prime)

    @cached_property
    def removed_projection(self) -> Tuple[int, Tuple[int, ...]]:
        """The orthogonal projection of alpha_s^vee onto the truncated
        Cartan as (den, num): sum over k in pi' of num[k] / den alpha_k^vee,
        num in pi' order, den > 0 and in lowest terms; made on first use.

        The complement of the truncated Cartan is the line of
        varpi_s = sum_k w_k alpha_k = sum_k w_k g_kk / 2 alpha_k^vee
        (g the Gram matrix), as (varpi_s, alpha_k^vee) = 0 for k != s.
        Taking away the multiple of varpi_s that clears the coordinate at s
        leaves -(w_k g_kk) / (w_s g_ss) at k.  w is the integer row of
        varpi_s from `RootSystem.weight_rows`, whose denominator cancels.
        """
        gram = self.system.gram
        s0 = self.s - 1
        _, fund = self.system.weight_rows()
        w = fund[s0]
        den = w[s0] * gram[s0][s0]
        num = [-w[k] * gram[k][k] for k in self.pi_prime]
        g = math.gcd(den, *num)
        return den // g, tuple([x // g for x in num])

    def h_in_coroot_basis_scaled(self, v: Sequence) -> List:
        """den * the coordinates of the orthogonal projection of v (coroot
        coordinates) onto the truncated Cartan, in its coroot basis, with
        den from `removed_projection`: integers for an integer v."""
        den, num = self.removed_projection
        vs = v[self.s - 1]
        return [den * v[i] + vs * c for i, c in zip(self.pi_prime, num)]

    def pairing_on_coroots(self, gamma: int) -> List[int]:
        """gamma(alpha_i^vee) over the coroot basis order, for the root of
        code gamma."""
        pairs = self.system.simple_pairings(gamma)
        return [pairs[i] for i in self.pi_prime]
