"""Character bounds: the lower bound from the ij-orbits and the improved
upper bound from the complement T.  `verify` certifies that they coincide
and that they are the bound multiset the case builder states.

Formal characters are handled as weight multisets: every bound in scope is a
product over single weights, each a rational multiple of the fundamental
weight at the removed node, so multiset equality is exactly equality of the
characters.

Weights are written in Dynkin labels, their pairings with the simple
coroots, as integer vectors over one denominator per weight and in lowest
terms, so equal weights are equal tuples.  In labels varpi_s is the unit
vector at s, and a weight is a multiple of it exactly when its labels off s
vanish.  The fundamental weights are unit vectors, and the Levi weights
differ from them only at s, by the coordinates of
`ParabolicData.removed_projection`; gamma + t(gamma) comes from the root
pairings over the denominator of the inverse pairing matrix of S.  Each
bound entry leaves as its multiple of varpi_s, a (num, den) pair in lowest
terms (`bound_multiples`).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .construction import Candidate
from .linalg import Rational
from .parabolic import ParabolicData


class BoundWeight(NamedTuple):
    """The weight with Dynkin labels num / den, its pairings with the simple
    coroots, in lowest terms: den > 0 and gcd(den, *num) == 1."""

    num: Tuple[int, ...]
    den: int


def _lowest(num: Sequence[int], den: int) -> BoundWeight:
    g = math.gcd(den, *num)
    return BoundWeight(tuple([x // g for x in num]), den // g)


def delta_gamma(parab: ParabolicData, orbit: FrozenSet[int]) -> BoundWeight:
    """The orbit weight
    -sum_G w - sum_{j(G)} w + sum_{G & pi'} w' + sum_{i(G & pi')} w',
    in labels over the denominator den of `removed_projection`.

    w_a is the unit vector at a.  For a in pi', w'_a = w_a + (num_a / den)
    w_s, with num_a the coordinate of the projection at a.  Proof: w_s pairs
    to 0 with alpha_j^vee for j != s, so w'_a is w_a minus the multiple of
    w_s that clears its alpha_s coordinate, (w_a)_s / (w_s)_s.  As
    (w_a, w_s) = (w_a)_s g_ss / 2 = (w_s)_a g_aa / 2 (g the Gram matrix),
    that ratio is (w_s)_a g_aa / ((w_s)_s g_ss), which is -num_a / den.

    The sum runs over full label vectors, so the ray check of
    `bound_multiples` still tests i and j.
    """
    den, num = parab.removed_projection
    s0 = parab.s - 1
    shift = dict(zip(parab.pi_prime, num))
    total = [0] * parab.system.rank
    for a in [*orbit, *{parab.j_map[a] for a in orbit}]:
        total[a] -= den
    inter = [a for a in orbit if a in shift]
    for a in [*inter, *{parab.i_map[a] for a in inter}]:
        total[a] += den
        total[s0] += shift[a]
    return _lowest(total, den)


def lower_bound(parab: ParabolicData) -> List[BoundWeight]:
    """Multiset {-delta_Gamma} over the ij-orbits, sorted."""
    out = []
    for orbit in parab.orbits:
        num, den = delta_gamma(parab, orbit)
        out.append(BoundWeight(tuple([-x for x in num]), den))
    return sorted(out)


def _t_of_all(cand: Candidate, gammas: Sequence[int]) -> List[BoundWeight]:
    """gamma + t(gamma) for the root gamma of every code, where t(gamma) is
    the unique rational combination of S making gamma + t(gamma) vanish on
    the truncated Cartan: transposed solves with the pairing matrix of S,
    which the candidate eliminates once, all over its denominator.  The
    labels are den <gamma> + sum_g c_g <g>, with <r> the pairings of r."""
    pairs = cand.system.simple_pairings
    order = [pairs(g) for g in cand.S]
    _, inverse = cand.s_inverse
    if inverse is None:
        raise ArithmeticError("S does not restrict to a basis")
    den = inverse.den
    rhss = [[-v for v in cand.parabolic.pairing_on_coroots(g)] for g in gammas]
    solutions = inverse.solve_transposed_scaled(rhss)
    out = []
    for gamma, coeffs in zip(gammas, solutions):
        w = [den * x for x in pairs(gamma)]
        for c, g in zip(coeffs, order):
            if c:
                for i, x in enumerate(g):
                    if x:
                        w[i] += c * x
        out.append(_lowest(w, den))
    return out


def improved_bound(cand: Candidate) -> List[BoundWeight]:
    """Multiset {gamma + t(gamma)} over T, sorted."""
    return sorted(_t_of_all(cand, cand.T))


def ray_multiple(w: BoundWeight, s: int) -> Optional[Rational]:
    """The exact c with w == c * varpi_s (s 1-based), or None when w is off
    that ray: some label other than the one at s is nonzero.  w is in
    lowest terms and its other labels vanish, so (label at s, den) is."""
    s0 = s - 1
    if any([x for k, x in enumerate(w.num) if k != s0]):
        return None
    return w.num[s0], w.den


def bound_multiples(cand: Candidate, weights: Sequence[BoundWeight]) -> List[Rational]:
    """Each bound entry as an exact multiple of the fundamental weight at s,
    sorted by value: on num * (L / den), L the lcm of the denominators.

    Raises when an entry is off the ray, which would invalidate the
    multiset representation of the character.
    """
    out = []
    for w in weights:
        m = ray_multiple(w, cand.s)
        if m is None:
            raise ArithmeticError(f"bound entry {w} is not a multiple of varpi_s")
        out.append(m)
    lcm = math.lcm(*[den for _, den in out])
    return sorted(out, key=lambda m: m[0] * (lcm // m[1]))

