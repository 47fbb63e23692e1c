"""Character bounds: the lower bound from the ij-orbits and the improved
upper bound from the complement T, certified to coincide.

Formal characters are handled as weight multisets: every bound in scope is a
product over single weights, each a rational multiple of the fundamental
weight at the removed node, so multiset equality is exactly equality of the
characters.

Weights are integer vectors over one denominator per case: the orbit
weights over the lcm of the denominators of the fundamental weights
(`RootSystem.weight_rows`) and of the Levi weights, a rank-one update of
them; gamma + t(gamma) over the denominator of the inverse pairing matrix
of S.  Each is stored in lowest terms, so equal weights are equal tuples,
and multiples of varpi_s are found by integer cross-multiplication.  A
Fraction appears only in `bound_multiples`, the certificate edge.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .construction import Candidate
from .parabolic import ParabolicData


class BoundWeight(NamedTuple):
    """The weight num / den in simple-root coordinates, in lowest terms:
    den > 0 and gcd(den, *num) == 1."""

    num: Tuple[int, ...]
    den: int


def _lowest(num: Sequence[int], den: int) -> BoundWeight:
    g = math.gcd(den, *num)
    return BoundWeight(tuple([x // g for x in num]), den // g)


def _orbit_weights(
    parab: ParabolicData,
) -> Tuple[int, Dict[int, Tuple[int, ...]], Dict[int, Tuple[int, ...]]]:
    """The fundamental and Levi weights as integer vectors over one common
    denominator: (den, fundamental, levi), kept on the parabolic.

    The Levi weights are a rank-one update of the fundamental ones, with no
    inversion of their own: for i in pi', w'_i = w_i - (w_i[s] / w_s[s]) w_s
    pairs to delta_ij with alpha_j^vee for j != s, as w_s pairs to 0 with
    them, and has alpha_s coordinate 0.  On the integer rows F over fden it
    is (F_s[s] F_i - F_i[s] F_s) / (F_s[s] fden), in lowest terms."""
    if parab.orbit_weights is None:
        fden, fund = parab.system.weight_rows()
        s0 = parab.s - 1
        ws = fund[s0]
        p = ws[s0]
        levi = {
            i: [p * x - fund[i][s0] * y for x, y in zip(fund[i], ws)]
            for i in parab.pi_prime
        }
        g = math.gcd(p * fden, *[x for v in levi.values() for x in v])
        lden = p * fden // g
        den = math.lcm(fden, lden)
        fs, ls = den // fden, den // lden
        parab.orbit_weights = (
            den,
            {a: tuple([fs * x for x in v]) for a, v in fund.items()},
            {a: tuple([x // g * ls for x in v]) for a, v in levi.items()},
        )
    return parab.orbit_weights


def delta_gamma(parab: ParabolicData, orbit: FrozenSet[int]) -> BoundWeight:
    """The orbit weight
    -sum_G w - sum_{j(G)} w + sum_{G & pi'} w' + sum_{i(G & pi')} w'.
    """
    den, fund, levi = _orbit_weights(parab)
    total = [0] * parab.system.rank
    inter = [a for a in orbit if a in levi]
    for sign, vecs, idxs in (
        (-1, fund, orbit),
        (-1, fund, {parab.j_map[a] for a in orbit}),
        (1, levi, inter),
        (1, levi, {parab.i_map[a] for a in inter}),
    ):
        for a in idxs:
            for i, x in enumerate(vecs[a]):
                total[i] += sign * x
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
    which the candidate eliminates once, all over its denominator."""
    root = cand.system.by_code
    order = [root[g] for g in cand.S]
    _, inverse = cand.s_inverse
    if inverse is None:
        raise ArithmeticError("S does not restrict to a basis")
    den = inverse.den
    rhss = [[-v for v in cand.parabolic.pairing_on_coroots(g)] for g in gammas]
    solutions = inverse.solve_transposed_scaled(rhss)
    out = []
    for gamma, coeffs in zip(gammas, solutions):
        w = [den * x for x in root[gamma]]
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


def certify_coincidence(
    lower: Sequence[BoundWeight], improved: Sequence[BoundWeight]
) -> bool:
    return Counter(lower) == Counter(improved)


def varpi_s(cand: Candidate) -> BoundWeight:
    den, fund = cand.system.weight_rows()
    return _lowest(fund[cand.s - 1], den)


def ray_multiple(w: BoundWeight, base: BoundWeight) -> Optional[Fraction]:
    """The exact c with w == c * base, or None when w is off the ray of
    base (a nonzero weight)."""
    k = next(i for i, y in enumerate(base.num) if y)
    xk, yk = w.num[k], base.num[k]
    if any(x * yk != xk * y for x, y in zip(w.num, base.num)):
        return None
    return Fraction(xk * base.den, yk * w.den)


def bound_multiples(cand: Candidate, weights: Sequence[BoundWeight]) -> List[Fraction]:
    """Each bound entry as an exact multiple of the fundamental weight at s.

    Raises when an entry is off the ray, which would invalidate the
    multiset representation of the character.
    """
    base = varpi_s(cand)
    out = []
    for w in weights:
        m = ray_multiple(w, base)
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


def matches_expected(cand: Candidate, lower: Sequence[BoundWeight]) -> bool:
    """Whether the lower bound matches its closed form; a case without a
    closed form fails, since there is nothing to certify it against."""
    expected = expected_bound_multiset(cand.family, cand.n, cand.s)
    if expected is None:
        return False
    actual = Counter(bound_multiples(cand, lower))
    # drop zero-multiplicity entries before comparing
    return actual == Counter({k: v for k, v in expected.items() if v})
