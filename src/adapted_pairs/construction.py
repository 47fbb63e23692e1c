"""Case data for the supported truncated maximal parabolics.

Each builder materializes the set S = S+ | S- | Sm, one Heisenberg set per
element of S, and the complement T (plus T* in type E6), parameterized by
(family, n, s) rather than transcribed as literal tables.  The remaining
cases are moved from a built one along a map of simple roots
(`_simple_root_map`): the extremal D case s = n-1 and the E6 case s = 1
from s = n and s = 6 by the diagram flip, and E7 with s = 3 from the
extremal D6 case, through the D6 of the roots orthogonal to the highest
root (`e7_d6_embedding`).

A Heisenberg set Gamma_gamma is its centre gamma together with pairs
{a, gamma - a}.  The builders list only the centre and one half a of each
pair, in epsilon terms (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
Planches II and IV), which `RootSystem.eps_root` makes codes; `_heis` adds
the partners.  A set centred at a root beta of the Kostant
cascade of Delta+ (Kostant, Moscow Math. J. 12 (2012)) is its Heisenberg
set H_beta less the roots named at its builder, in closed form: in B_n and
D_n, H_beta of eps_{2i-1} + eps_{2i} is the `_spoke` with halves
eps_{2i-1} +- eps_j for j > 2i, and eps_{2i-1} in B; in E6 and E7, the
positive roots orthogonal to the cascade roots before beta that pair
positively with it.
Each builder also states the paper's closed forms for its case, next to
the closed-form T: the ad h eigenvalues on g_T and the bound multiset in
multiples of varpi_s, which `verify` compares against.  A moved case keeps
those of the case it is moved from, unless it states its own (E7).
Every root of the case data is its code (`RootSystem.base`), from the
builders to the `Candidate`: a partner gamma - a is a code difference and a
root has the sign of its code.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .linalg import Inverse, invert
from .parabolic import ParabolicData, subsystem_roots
from .roots import RootSystem, build_root_system


class OutOfScopeError(ValueError):
    """Raised for (family, n, s) outside the verified families."""


class Candidate:
    """The sets S, Gamma_gamma, T (and T* in E6) for one case, as root codes,
    with the case's closed forms.

    S+, S-, Sm, T, T* and the closed-form T are sorted code tuples (codes
    sort like coefficients), and gamma_sets maps each centre code, in
    increasing order, to the frozenset of its members' codes.  The closed
    forms of the ad h eigenvalues on g_T and of the bound multiples of
    varpi_s are sorted int tuples.  Treated as immutable: a changed
    candidate is built anew, so that `S` and `s_inverse` are computed for
    its own S+, S- and Sm."""

    def __init__(
        self,
        parabolic: ParabolicData,
        S_plus: Tuple[int, ...],
        S_minus: Tuple[int, ...],
        S_mixed: Tuple[int, ...],
        gamma_sets: Dict[int, FrozenSet[int]],
        T: Tuple[int, ...],
        T_star: Tuple[int, ...],
        T_expected: Tuple[int, ...],
        eigenvalues_expected: Tuple[int, ...],
        bounds_expected: Tuple[int, ...],
    ):
        self.parabolic = parabolic
        self.S_plus = S_plus
        self.S_minus = S_minus
        self.S_mixed = S_mixed
        self.gamma_sets = gamma_sets
        self.T = T
        self.T_star = T_star
        self.T_expected = T_expected  # the closed-form complement list
        self.eigenvalues_expected = eigenvalues_expected
        self.bounds_expected = bounds_expected

    @cached_property
    def S(self) -> Tuple[int, ...]:
        return tuple(sorted(self.S_plus + self.S_minus + self.S_mixed))

    @property
    def system(self) -> RootSystem:
        return self.parabolic.system

    @property
    def family(self) -> str:
        return self.system.family

    @property
    def n(self) -> int:
        return self.system.rank

    @property
    def s(self) -> int:
        return self.parabolic.s

    @cached_property
    def s_inverse(self) -> Tuple[int, Optional[Inverse]]:
        """The pairing matrix of S on the truncated coroots (row gamma in S,
        column alpha_i^vee for i in pi'), eliminated once per candidate: its
        determinant and, when it is nonsingular, its inverse.  A matrix that
        is not square has determinant 0 here."""
        rows = [self.parabolic.pairing_on_coroots(g) for g in self.S]
        if len(rows) != self.parabolic.h_dim:
            return 0, None
        return invert(rows)


def case_plan(family: str, n: int, s: int) -> Optional[str]:
    """None when (family, n, s) is in scope, else the reason it is not."""
    if family == "B":
        if n < 2 or not 1 <= s <= n:
            return f"no maximal parabolic B_{n}, s={s}"
        if s % 2 == 1:
            return (
                "out of scope: for odd s the character bounds already "
                "coincide (prior work)"
            )
        return None
    if family == "D":
        if n < 4 or not 1 <= s <= n:
            return f"no maximal parabolic D_{n}, s={s}"
        if s <= n - 2:
            if s % 2 == 1:
                return (
                    "out of scope: for odd s <= n-2 the character bounds "
                    "already coincide (prior work)"
                )
            return None
        # extremal nodes s = n-1, n
        if n % 2 == 1:
            return (
                "out of scope: extremal cases with n odd have coinciding "
                "character bounds (prior work)"
            )
        if n == 4:
            return (
                "out of scope: extremal D_4 is excluded here (covered by "
                "other results)"
            )
        return None
    if family == "E6":
        if n != 6:
            return "type E6 has rank 6"
        if s in (1, 6):
            return None
        if 2 <= s <= 5:
            return (
                "out of scope: for s in {2,..,5} polynomiality is prior work"
            )
        return f"no simple root alpha_{s} in E6"
    if family == "E7":
        if n != 7:
            return "type E7 has rank 7"
        if s == 3:
            return None
        if 1 <= s <= 7:
            return "out of scope: only s=3 is treated for E7"
        return f"no simple root alpha_{s} in E7"
    return f"unsupported family {family!r}"


def _heis(
    system: RootSystem,
    centre_terms: List[Tuple[int, int]],
    halves: Sequence[Sequence[Tuple[int, int]]],
) -> Tuple[int, FrozenSet[int]]:
    """(centre, Gamma) on codes: the centre, each half a and its partner
    centre - a, which must be a root."""
    centre = system.eps_root(centre_terms)
    members = [centre]
    for terms in halves:
        a = system.eps_root(terms)
        if centre - a not in system.by_code:
            partner = centre_terms + [(-c, i) for c, i in terms]
            raise ValueError(f"epsilon terms {partner} are not a root of {system}")
        members += (a, centre - a)
    return centre, frozenset(members)


def _spoke(
    system: RootSystem,
    p: Tuple[int, int],
    q: Tuple[int, int],
    plus: Sequence[int] = (),
    minus: Sequence[int] = (),
) -> Tuple[int, FrozenSet[int]]:
    """The set centred at sp*eps_p + sq*eps_q, for p = (sp, p) and
    q = (sq, q), with the halves sp*eps_p + eps_j for j in plus and
    sp*eps_p - eps_j for j in minus."""
    halves = [[p, (1, j)] for j in plus] + [[p, (-1, j)] for j in minus]
    return _heis(system, [p, q], halves)


def _s_minus_sets(system: RootSystem, s: int) -> Dict[int, FrozenSet[int]]:
    """The sets centred at eps_{s-i} - eps_i for 1 <= i < s/2 (types B, D),
    with the halves eps_j - eps_i for i < j < s-i."""
    return dict(
        _spoke(system, (-1, i), (1, s - i), plus=range(i + 1, s - i))
        for i in range(1, s // 2)
    )


def _assemble(
    parab: ParabolicData,
    gamma_sets: Dict[int, FrozenSet[int]],
    t_expected: Sequence[int],
    eigenvalues: Sequence[int],
    bounds: Sequence[int],
    t_star: Sequence[int] = (),
    mixed: Sequence[int] = (),
) -> Candidate:
    """The candidate with S+/S-/Sm split by sign and Sm as declared per case,
    and the closed forms sorted.

    The declared mixed sets usually contain both signs, but may degenerate
    to one sign at boundary ranks (D_4, s = 2); the remaining sets must be
    sign-uniform, which is what the non-degeneracy conditions rely on.
    """
    centres = sorted(gamma_sets)
    mixed_set = set(mixed)
    plus, minus = [], []
    for gamma in centres:
        if gamma in mixed_set:
            continue
        pos = max(gamma_sets[gamma]) > 0  # a code has the sign of its root
        if pos and min(gamma_sets[gamma]) < 0:
            coeffs = parab.system.by_code[gamma]
            raise ValueError(f"set of {coeffs} mixes signs outside Sm")
        (plus if pos else minus).append(gamma)
    used = set(t_star).union(*gamma_sets.values())
    return Candidate(
        parabolic=parab,
        S_plus=tuple(plus),
        S_minus=tuple(minus),
        S_mixed=tuple(sorted(mixed_set)),
        gamma_sets={g: gamma_sets[g] for g in centres},
        T=tuple([c for c in parab.dual_support if c not in used]),
        T_star=tuple(sorted(t_star)),
        T_expected=tuple(sorted(t_expected)),
        eigenvalues_expected=tuple(sorted(eigenvalues)),
        bounds_expected=tuple(sorted(bounds)),
    )


# ---------------------------------------------------------------------------
# type B, s even
# ---------------------------------------------------------------------------


def _build_B(n: int, s: int) -> Candidate:
    sys = build_root_system("B", n)
    parab = ParabolicData(sys, s)
    r = sys.eps_root

    # Gamma of the mixed centre eps_s
    halves = [[(1, i)] for i in range(1, n + 1) if i != s]
    halves += [[(1, s), (1, j)] for j in range(s + 1, n + 1)]
    eps_s, g_m = _heis(sys, [(1, s)], halves)
    gamma = {eps_s: g_m}

    gamma.update(_s_minus_sets(sys, s))

    # the sets centred at +-(eps_p + eps_q), with the halves +-eps_p + eps_j
    # and +-eps_p - eps_j for every j > q; at the cascade roots
    # eps_{2i-1} + eps_{2i}, i < s/2, that is H_beta less eps_{2i-1} and
    # eps_{2i}
    pairs = [((1, 2 * i - 1), (1, 2 * i)) for i in range(1, s // 2)]
    pairs += [((1, s - 1), (1, s + 1))] if n > s else []
    pairs += [((1, 2 * i), (1, 2 * i + 1)) for i in range(s // 2 + 1, (n - 1) // 2 + 1)]
    pairs += [((-1, 2 * i - 1), (-1, 2 * i)) for i in range(s // 2 + 1, n // 2 + 1)]
    for p, q in pairs:
        js = range(q[1] + 1, n + 1)
        centre, g = _spoke(sys, p, q, js, js)
        gamma[centre] = g

    t_exp = [r([(1, s - 1), (1, s)])]
    t_exp += [r([(1, 2 * i - 1), (-1, 2 * i)]) for i in range(1, s // 2 + 1)]
    if n > s:
        t_exp.append(r([(1, s - 1), (-1, s + 1)]))
        t_exp += [
            r([(-1, s + 2 * j - 1), (1, s + 2 * j)])
            for j in range(1, (n - s) // 2 + 1)
        ]
        t_exp += [
            r([(1, s + 2 * k), (-1, s + 2 * k + 1)])
            for k in range(1, (n - s - 1) // 2 + 1)
        ]
    eig = [s + 4 * i - 1 for i in range(1, s // 4 + 1)]
    eig += [3 * s - 4 * i + 1 for i in range(s // 4 + 1, s // 2)]
    eig += [s // 2 + 1, s // 2 - 1]
    if n > s:
        eig.append(s + 1)
        eig += [s + 4 * j - 1 for j in range(1, (n - s) // 2 + 1)]
        eig += [s + 4 * j + 1 for j in range(1, (n - s - 1) // 2 + 1)]
    if n == s:
        bounds = [2, 2] + [4] * (n // 2 - 1)
    else:
        bounds = [1, 1] + [2] * (n - 1 - s // 2)
    return _assemble(parab, gamma, t_exp, eig, bounds, mixed=[eps_s])


# ---------------------------------------------------------------------------
# type D, s even <= n-2
# ---------------------------------------------------------------------------


def _build_D(n: int, s: int) -> Candidate:
    sys = build_root_system("D", n)
    parab = ParabolicData(sys, s)
    r = sys.eps_root

    gamma = _s_minus_sets(sys, s)

    # (p, q, plus, minus) of each set centred at +-(eps_p + eps_q) or at
    # eps_s -+ eps_n, the two mixed ones; at the cascade roots
    # eps_{2i-1} + eps_{2i}, i < s/2, H_beta less eps_{2i-1} - eps_n and
    # eps_{2i} + eps_n
    spokes = [
        ((1, 2 * i - 1), (1, 2 * i), range(2 * i + 1, n + 1), range(2 * i + 1, n))
        for i in range(1, s // 2)
    ]
    spokes.append(((1, s - 1), (1, s + 1), range(s + 2, n + 1), range(s + 2, n)))
    for i in range(s // 2 + 1, (n - 2) // 2 + 1):
        spokes.append(
            ((1, 2 * i), (1, 2 * i + 1), range(2 * i + 2, n), range(2 * i + 2, n + 1))
        )
    for i in range(s // 2 + 1, (n - 1) // 2 + 1):
        spokes.append(
            ((-1, 2 * i - 1), (-1, 2 * i), range(2 * i + 1, n + 1), range(2 * i + 1, n))
        )
    odd_below_n = [j for j in range(1, n, 2) if j != s + 1]
    spokes.append(((1, s), (-1, n), range(s + 1, n, 2), odd_below_n))
    even_below_n = [j for j in range(2, n, 2) if j != s] + [s + 1]
    spokes.append(((1, s), (1, n), range(s + 2, n, 2), even_below_n))
    gamma.update(_spoke(sys, *spoke) for spoke in spokes)

    t_exp = [r([(1, s - 1), (1, s)]), r([(1, s - 1), (-1, s + 1)])]
    t_exp += [r([(1, 2 * i - 1), (-1, 2 * i)]) for i in range(1, s // 2 + 1)]
    t_exp += [
        r([(1, 2 * j), (-1, 2 * j + 1)])
        for j in range(s // 2 + 1, (n - 1) // 2 + 1)
    ]
    t_exp += [
        r([(-1, 2 * k + 1), (1, 2 * k + 2)])
        for k in range(s // 2, (n - 2) // 2 + 1)
    ]
    eig = [s + 4 * i - 1 for i in range(1, s // 4 + 1)]
    eig += [3 * s - 4 * i + 1 for i in range(s // 4 + 1, s // 2)]
    eig += [s // 2 + 1, s // 2 - 1, n - s // 2 - 1, s + 1]
    eig += [s + 4 * j - 1 for j in range(1, (n - s - 1) // 2 + 1)]
    eig += [s + 4 * j + 1 for j in range(1, (n - s - 2) // 2 + 1)]
    bounds = [1, 1, 1] + [2] * (n - 2 - s // 2)
    mixed = [r([(1, s), (-1, n)]), r([(1, s), (1, n)])]
    return _assemble(parab, gamma, t_exp, eig, bounds, mixed=mixed)


# ---------------------------------------------------------------------------
# type D, extremal s = n (n even >= 6)
# ---------------------------------------------------------------------------


def _build_D_extremal(n: int) -> Candidate:
    sys = build_root_system("D", n)
    parab = ParabolicData(sys, n)
    r = sys.eps_root

    # (p, q, plus, minus) of each set centred at eps_p +- eps_q
    spokes = [
        ((1, 2 * k), (-1, 2 * k - 2), (), range(1, 2 * k - 2))
        for k in range(2, n // 2 - 2)
    ]
    if n >= 8:
        spokes.append(((1, n - 3), (-1, n - 6), (), range(1, n - 6)))
    spokes += [
        ((1, n - 4), (-1, n - 5), (), [n - 3, *range(2, n - 5, 2)]),
        ((1, n - 2), (-1, n - 4), (), [*range(1, n - 4), n - 1, n]),
        ((1, n), (-1, n - 3), (), [*range(1, n - 5), n - 2, n - 1]),
        ((1, n - 3), (1, n - 1), [*range(1, n - 4), n - 2, n], [n - 2, n]),
    ]
    # the sets centred at the cascade roots eps_{2i-1} + eps_{2i}: what the
    # sets above leave of H_beta, and halves eps_{2i-1} +- eps_j for j < 2i-1,
    # each in a pair with a negative root; the top one, i = n/2-2, differs
    ends = [n - 2, n - 1, n]
    for i in range(1, n // 2 - 2):
        plus = [*range(2 * i + 1, n - 6, 2), *ends]
        minus = [*range(1, 2 * i - 1), *range(2 * i + 1, n - 4, 2), *ends]
        spokes.append(((1, 2 * i - 1), (1, 2 * i), plus, minus))
    plus, minus = [*range(1, n - 6, 2), *ends], [*range(1, n - 5), n - 3, *ends]
    spokes.append(((1, n - 5), (1, n - 4), plus, minus))
    gamma = dict(_spoke(sys, *spoke) for spoke in spokes)

    t_exp = [
        r([(1, n - 3), (-1, n - 1)]),
        r([(1, n - 2), (1, n)]),
        r([(1, n), (-1, n - 5)]),
        r([(1, n - 3), (-1, n - 4)]),
    ]
    t_exp += [
        r([(1, n - 2 * k), (-1, n - 2 * k - 1)]) for k in range(3, n // 2)
    ]
    eig = [2 * (n - i) + 1 for i in range(1, n // 2 - 2)]
    eig += [n + 5, n // 2 - 1, n // 2 + 1, n // 2 + 3]
    bounds = [2, 2, 2] + [4] * (n // 2 - 2)
    uniform = {r([(1, 1), (1, 2)])}
    if n == 6:
        uniform.add(r([(1, n), (-1, n - 3)]))
    mixed = [g for g in gamma if g not in uniform]
    return _assemble(parab, gamma, t_exp, eig, bounds, mixed=mixed)


# ---------------------------------------------------------------------------
# E6, s = 6
# ---------------------------------------------------------------------------


def _build_E6() -> Candidate:
    sys = build_root_system("E6", 6)
    parab = ParabolicData(sys, 6)
    rc, inner = sys.root_from_coeffs, sys.inner

    beta1 = rc((1, 2, 2, 3, 2, 1))
    beta2 = rc((1, 0, 1, 1, 1, 1))
    beta3 = rc((0, 0, 1, 1, 1, 0))
    beta1p = rc((1, 1, 2, 2, 1, 0))
    s5 = rc((0, 0, 0, -1, -1, 0))  # alpha_2 - beta_2'

    # H_beta_k: the positive roots orthogonal to the cascade roots before
    # beta_k (an A5, then an A3) that pair positively with beta_k
    rest, heis = sys.positive_roots, {}
    for beta in (beta1, beta2, beta3):
        heis[beta] = frozenset([r for r in rest if inner(r, beta) > 0])
        rest = [r for r in rest if inner(r, beta) == 0]
    gamma: Dict[int, FrozenSet[int]] = {}
    gamma[beta1] = heis[beta1] - {rc((0, 1, 1, 1, 0, 0)), rc((1, 1, 1, 2, 2, 1))}
    gamma[beta2] = heis[beta2] - {rc((1, 0, 1, 1, 1, 0)), rc((0, 0, 0, 0, 0, 1))}
    gamma[beta3] = heis[beta3]
    # -H_{beta'_1}: beta'_1 is the highest root of the Levi D5, and its
    # Heisenberg set the Levi roots pairing positively with it
    levi = subsystem_roots(sys, parab.pi_prime)
    gamma[-beta1p] = frozenset([-r for r in levi if sys.inner(r, beta1p) > 0])
    gamma[s5] = frozenset(
        {s5, rc((0, 0, 0, -1, 0, 0)), rc((0, 0, 0, 0, -1, 0))}
    )

    t_star = (
        rc((1, 1, 1, 2, 2, 1)),
        rc((1, 0, 1, 1, 1, 0)),
        rc((-1, 0, 0, 0, 0, 0)),
        rc((0, -1, 0, 0, 0, 0)),
        rc((0, -1, 0, -1, 0, 0)),
        rc((0, -1, 0, -1, -1, 0)),
    )
    t_exp = (
        rc((0, 0, 0, 1, 0, 0)),
        rc((0, 0, 0, 0, 0, 1)),
        rc((0, 1, 1, 1, 0, 0)),
    )
    return _assemble(parab, gamma, t_exp, (5, 7, 17), (3, 3, 6), t_star)


# ---------------------------------------------------------------------------
# maps of simple roots, and the diagram flips
# ---------------------------------------------------------------------------


def _simple_root_map(
    source: RootSystem, target: RootSystem, perm: Dict[int, int]
) -> Dict[int, int]:
    """The code map of every root of source that sends alpha_i to
    alpha_{perm[i]} of target (1-based; an index not in perm stays put):
    coefficient i moves to position perm[i].  An image that is not a root
    of target raises KeyError."""
    phi: Dict[int, int] = {}
    for code in source.positive_roots:
        v = [0] * target.rank
        for i, c in enumerate(source.by_code[code], start=1):
            v[perm.get(i, i) - 1] = c
        phi[code] = target.root_from_coeffs(v)
        phi[-code] = -phi[code]
    return phi


def _move_candidate(
    cand: Candidate,
    phi: Dict[int, int],
    parab: ParabolicData,
    gamma: Optional[Dict[int, FrozenSet[int]]] = None,
    t_exp: Sequence[int] = (),
    closed_forms: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
) -> Candidate:
    """The candidate on parab whose Gamma sets, T*, closed-form T and Sm are
    those of cand moved along phi, joined by the given gamma and t_exp.  Its
    eigenvalue and bound closed forms are cand's, unless closed_forms gives
    others."""
    gamma = dict(gamma or {})
    for centre, members in cand.gamma_sets.items():
        gamma[phi[centre]] = frozenset([phi[m] for m in members])
    t_exp = [*t_exp, *[phi[t] for t in cand.T_expected]]
    eig, bounds = closed_forms or (cand.eigenvalues_expected, cand.bounds_expected)
    t_star = [phi[t] for t in cand.T_star]
    mixed = [phi[g] for g in cand.S_mixed]
    return _assemble(parab, gamma, t_exp, eig, bounds, t_star, mixed)


def _flip_candidate(cand: Candidate, perm: Dict[int, int], new_s: int) -> Candidate:
    """Transport a candidate along the diagram automorphism that sends
    alpha_i to alpha_{perm[i]} (1-based; other simple roots stay put), as
    the case with the removed root alpha_{new_s}."""
    phi = _simple_root_map(cand.system, cand.system, perm)
    return _move_candidate(cand, phi, ParabolicData(cand.system, new_s))


# ---------------------------------------------------------------------------
# E7, s = 3, via the embedded extremal D6
# ---------------------------------------------------------------------------


def e7_d6_embedding() -> Dict[int, int]:
    """Isomorphism from the D6 root system onto the E7 roots orthogonal to
    the highest root, on codes: D6 alpha_1, ..., alpha_6 go to E7 alpha_7,
    alpha_6, alpha_5, alpha_4, alpha_2, alpha_3.

    The highest root of E7 is orthogonal to exactly alpha_2, ..., alpha_7.
    It is dominant, so the roots orthogonal to it are spanned by these, and
    they form a D6 with its fork at alpha_4.  The map sends simple roots to
    simple roots, hence positive roots to positive roots, and the standard
    A5 inside D6 (alpha_1, ..., alpha_5) lands on the A5 part alpha_2,
    alpha_4, ..., alpha_7 of pi' = pi \\ {alpha_3}.
    """
    d6, e7 = build_root_system("D", 6), build_root_system("E7", 7)
    return _simple_root_map(d6, e7, {1: 7, 2: 6, 3: 5, 4: 4, 5: 2, 6: 3})


def _build_E7() -> Candidate:
    e7 = build_root_system("E7", 7)
    b1 = e7.highest_root()
    h_b1 = frozenset([r for r in e7.positive_roots if e7.inner(r, b1) > 0])
    t_exp = [e7.root_from_coeffs((-1, 0, 0, 0, 0, 0, 0))]
    closed_forms = (2, 5, 7, 9, 17), (1, 2, 2, 2, 4)
    d6_case, phi = _build_D_extremal(6), e7_d6_embedding()
    return _move_candidate(
        d6_case, phi, ParabolicData(e7, 3), {b1: h_b1}, t_exp, closed_forms
    )


def build_case(family: str, n: int, s: int) -> Candidate:
    """Materialize the case data; raises OutOfScopeError outside the scope."""
    reason = case_plan(family, n, s)
    if reason is not None:
        raise OutOfScopeError(reason)
    if family == "B":
        return _build_B(n, s)
    if family == "D":
        if s <= n - 2:
            return _build_D(n, s)
        if s == n:
            return _build_D_extremal(n)
        # s = n-1: apply the alpha_{n-1} <-> alpha_n diagram swap to s = n
        return _flip_candidate(
            _build_D_extremal(n), {n - 1: n, n: n - 1}, n - 1
        )
    if family == "E6":
        if s == 6:
            return _build_E6()
        return _flip_candidate(_build_E6(), {1: 6, 6: 1, 3: 5, 5: 3}, 1)
    if family == "E7":
        return _build_E7()
    raise OutOfScopeError(f"unsupported family {family!r}")


def in_scope_cases(max_rank: int) -> List[Tuple[str, int, int]]:
    """The sweep plan: every primary case with rank at most max_rank."""
    cases: List[Tuple[str, int, int]] = []
    for n in range(2, max_rank + 1):
        for s in range(2, n + 1, 2):
            cases.append(("B", n, s))
    for n in range(4, max_rank + 1):
        for s in range(2, n - 1, 2):
            cases.append(("D", n, s))
    for n in range(6, max_rank + 1, 2):
        cases.append(("D", n, n))
    if max_rank >= 6:
        cases.append(("E6", 6, 6))
    if max_rank >= 7:
        cases.append(("E7", 7, 3))
    return cases
