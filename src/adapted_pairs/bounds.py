"""Character bounds: the lower bound from the ij-orbits and the improved
upper bound from the complement T, certified to coincide.

Formal characters are handled as weight multisets: every bound in scope is a
product over single weights, each a rational multiple of the fundamental
weight at the removed node, so multiset equality is exactly equality of the
characters.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .construction import Candidate
from .parabolic import ParabolicData
from .roots import Root, Weight, multiple_of


def delta_gamma(parab: ParabolicData, orbit: FrozenSet[int]) -> Weight:
    """The orbit weight
    -sum_G w - sum_{j(G)} w + sum_{G & pi'} w' + sum_{i(G & pi')} w'.
    """
    sys = parab.system
    fund = sys.fundamental_weights()
    levi = sys.levi_weights(parab.pi_prime)
    total = Weight(tuple(Fraction(0) for _ in range(sys.rank)))
    for a in orbit:
        total = total - fund[a]
    for a in {parab.j_map[a] for a in orbit}:
        total = total - fund[a]
    inter = [a for a in orbit if a in set(parab.pi_prime)]
    for a in inter:
        total = total + levi[a]
    for a in {parab.i_map[a] for a in inter}:
        total = total + levi[a]
    return total


def lower_bound(parab: ParabolicData) -> List[Weight]:
    """Multiset {-delta_Gamma} over the ij-orbits, sorted."""
    out = [-delta_gamma(parab, orbit) for orbit in parab.orbits]
    return sorted(out, key=lambda w: w.coeffs)


def t_of_gamma(cand: Candidate, gamma: Root) -> Tuple[Dict[Root, Fraction], Weight]:
    """The unique rational combination of S making gamma + t(gamma) vanish
    on the truncated Cartan, plus the resulting weight."""
    return _t_of_all(cand, [gamma])[0]


def _t_of_all(
    cand: Candidate, gammas: Sequence[Root]
) -> List[Tuple[Dict[Root, Fraction], Weight]]:
    """t_of_gamma for every gamma: transposed solves with the pairing matrix
    of S, which the candidate eliminates once."""
    order = cand.S
    _, inverse = cand.s_inverse
    if inverse is None:
        raise ArithmeticError("S does not restrict to a basis")
    rhss = [[-v for v in cand.parabolic.pairing_on_coroots(g)] for g in gammas]
    solutions = inverse.solve_transposed(rhss)
    out = []
    for gamma, coeffs in zip(gammas, solutions):
        w = [Fraction(x) for x in gamma.coeffs]
        for c, g in zip(coeffs, order):
            if c:
                for i, x in enumerate(g.coeffs):
                    w[i] += c * x
        out.append((dict(zip(order, coeffs)), Weight(tuple(w))))
    return out


def improved_bound(cand: Candidate) -> List[Weight]:
    """Multiset {gamma + t(gamma)} over T, sorted."""
    out = [w for _, w in _t_of_all(cand, cand.T)]
    return sorted(out, key=lambda w: w.coeffs)


def certify_coincidence(lower: Sequence[Weight], improved: Sequence[Weight]) -> bool:
    return Counter(lower) == Counter(improved)


def varpi_s(cand: Candidate) -> Weight:
    return cand.system.fundamental_weights()[cand.s - 1]


def bound_multiples(cand: Candidate, weights: Sequence[Weight]) -> List[Fraction]:
    """Each bound entry as an exact multiple of the fundamental weight at s.

    Raises when an entry is off the ray, which would invalidate the
    multiset representation of the character.
    """
    base = varpi_s(cand)
    out = []
    for w in weights:
        m = multiple_of(w, base)
        if m is None:
            raise ArithmeticError(f"bound entry {w} is not a multiple of varpi_s")
        out.append(m)
    return sorted(out)


def expected_bound_multiset(family: str, n: int, s: int) -> Optional[Counter]:
    """Closed-form bound multisets, as multiples of varpi_s."""
    f = Fraction
    if family == "B" and s % 2 == 0:
        if n == s:
            return Counter({f(2): 2, f(4): n // 2 - 1})
        return Counter({f(1): 2, f(2): n - 1 - s // 2})
    if family == "D" and s <= n - 2 and s % 2 == 0:
        return Counter({f(1): 3, f(2): n - 2 - s // 2})
    if family == "D" and s in (n, n - 1) and n % 2 == 0:
        return Counter({f(2): 3, f(4): n // 2 - 2})
    if family == "E6":
        return Counter({f(3): 2, f(6): 1})
    if family == "E7":
        return Counter({f(1): 1, f(2): 3, f(4): 1})
    return None


def matches_expected(cand: Candidate, lower: Sequence[Weight]) -> bool:
    """Whether the lower bound matches its closed form; a case without a
    closed form fails, since there is nothing to certify it against."""
    expected = expected_bound_multiset(cand.family, cand.n, cand.s)
    if expected is None:
        return False
    actual = Counter(bound_multiples(cand, lower))
    # drop zero-multiplicity entries before comparing
    return actual == Counter({k: v for k, v in expected.items() if v})
