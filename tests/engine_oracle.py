"""Test-side references for the engine: code that only the tests call.

- `jacobiator`: the Jacobi sum of three root vectors through
  `StructureTable.bracket`.
- `enumerate_pairings`: every S-compatible permutation of O, by
  backtracking, for the rigidity and monomial checks on small cases.
- The rational bound path: orbit weights, t(gamma) and both bound
  multisets in `fractions.Fraction` (`Weight`), with t(gamma) solved by the
  plain Gaussian elimination of `linalg_oracle`.  The package computes the
  same bounds on integers; the tests compare the two.
"""

from fractions import Fraction
from typing import Dict, List, Set, Tuple

from adapted_pairs.chevalley import GElem
from adapted_pairs.roots import Root, Weight, multiple_of
from linalg_oracle import solve_in_span


def jacobiator(table, a: Root, b: Root, c: Root) -> GElem:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] on root vectors; zero iff Jacobi."""
    xa, xb, xc = (GElem({r.coeffs: Fraction(1)}) for r in (a, b, c))
    out = GElem()
    for t in (
        table.bracket(xa, table.bracket(xb, xc)),
        table.bracket(xb, table.bracket(xc, xa)),
        table.bracket(xc, table.bracket(xa, xb)),
    ):
        for cc, vc in t.root_part.items():
            out.add_root(cc, vc)
        if t.h_part is not None:
            out.add_h(t.h_part)
    return out


def enumerate_pairings(os, limit: int = 100000) -> List[Dict[Root, Root]]:
    """All permutations theta' of O with a + theta'(a) in S for every a.

    Backtracking over the S_alpha candidate lists.
    """
    order = sorted(os.O, key=lambda a: (len(os.S_alpha[a]), a.coeffs))
    results: List[Dict[Root, Root]] = []
    assign: Dict[Root, Root] = {}
    used: Set[Root] = set()

    def rec(i: int) -> None:
        if len(results) >= limit:
            return
        if i == len(order):
            results.append(dict(assign))
            return
        a = order[i]
        for b in os.S_alpha[a]:
            if b in used:
                continue
            assign[a] = b
            used.add(b)
            rec(i + 1)
            used.discard(b)
            del assign[a]

    rec(0)
    return results


# -- the rational bound path -------------------------------------------------


def delta_gamma(parab, orbit) -> Weight:
    """-sum_G w - sum_{j(G)} w + sum_{G & pi'} w' + sum_{i(G & pi')} w'."""
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


def lower_bound(parab) -> List[Weight]:
    weights = [-delta_gamma(parab, orbit) for orbit in parab.orbits]
    return sorted(weights, key=lambda w: w.coeffs)


def t_of_gamma(cand, gamma: Root) -> Tuple[Dict[Root, Fraction], Weight]:
    """The unique rational combination of S making gamma + t(gamma) vanish
    on the truncated Cartan, plus the weight gamma + t(gamma)."""
    pairing = cand.parabolic.pairing_on_coroots
    columns = [pairing(g) for g in cand.S]
    coeffs = solve_in_span(columns, [-v for v in pairing(gamma)])
    w = [Fraction(x) for x in gamma.coeffs]
    for c, g in zip(coeffs, cand.S):
        for i, x in enumerate(g.coeffs):
            w[i] += c * x
    return dict(zip(cand.S, coeffs)), Weight(tuple(w))


def improved_bound(cand) -> List[Weight]:
    return sorted((t_of_gamma(cand, g)[1] for g in cand.T), key=lambda w: w.coeffs)


def varpi_s(cand) -> Weight:
    return cand.system.fundamental_weights()[cand.s - 1]


def bound_multiples(cand, weights) -> List[Fraction]:
    base = varpi_s(cand)
    return sorted(multiple_of(w, base) for w in weights)
