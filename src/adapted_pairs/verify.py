"""Machine checks for the regularity and non-degeneracy hypotheses.

Every hypothesis that the constructions rely on is verified exactly: the
restriction of S to the truncated Cartan is a basis (determinant), the
chosen sets are disjoint Heisenberg sets centred at S and partitioning the
support (the partners found there are the Heisenberg involution theta, from
which the orbit structure is built once), every orbit root is classified
as (extended) stationary, (extended) cyclic or tilde-associated from one
memoized depth-first pass over its sequences that all starts share, the
pairing matrix on o x o has nonzero determinant and a
certified single-monomial t-grading, and the coadjoint-image rank equals
dim p - |T|.  Each of these two exact checks builds its matrix once, as
the sparse integer rows that `linalg` eliminates, and hands them over as
built: `sparse_det` and `sparse_ranks` own them from then on.  The adapted
pair (h, y) and the eigenvalues of ad h on g_T are then assembled.  The
eigenvalues and the character bounds are compared, as sorted tuples,
against the closed forms that the case builder states on the `Candidate`;
no check here depends on the case family.  Determinants are ints, and
every other rational a (num, den) pair in lowest terms (`linalg.Rational`).
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .bounds import bound_multiples, improved_bound, lower_bound
from .chevalley import StructureTable, build_structure_table
from .construction import Candidate
from .linalg import Rational, sparse_det, sparse_ranks
from .roots import fraction_text, lowest_terms

STATIONARY = "stationary"
EXT_STATIONARY = "extended_stationary"
CYCLIC = "cyclic"
EXT_CYCLIC = "extended_cyclic"
TILDE = "tilde_of_cyclic"
UNCLASSIFIED = "unclassified"
UNCONSTRAINED = "unconstrained"  # no mixed neighbours: sign checks only


class OrbitStructure(NamedTuple):
    """theta, S_alpha and the strata of O = union of the punctured Gamma sets.

    Every field but by_code holds root codes (`RootSystem.code`): O is
    sorted by code, which is the order of the coefficient vectors, and
    S_alpha lists its codes in the same order.  The centre of the set of a
    is the code a + theta(a).  by_code is the system's map from codes to
    coefficient tuples, for heights, values on h and messages."""

    O: Tuple[int, ...]
    by_code: Dict[int, Tuple[int, ...]]
    theta: Dict[int, int]
    S_alpha: Dict[int, Tuple[int, ...]]
    strata: Dict[int, int]
    O_plus: FrozenSet[int]
    O_minus: FrozenSet[int]
    O_mixed: FrozenSet[int]


class CheckReport(NamedTuple):
    ok: bool
    problems: List[str]
    orbits: Optional[OrbitStructure]  # None unless all partners exist and S = centres


class BasisCheck(NamedTuple):
    ok: bool
    determinant: int


class NondegeneracyCheck(NamedTuple):
    ok: bool
    determinant: int
    size: int
    monomial_ok: bool
    monomial_degree: int


class RegularityCheck(NamedTuple):
    ok: bool
    rank: int
    rank_augmented: int
    dim_p: int
    t_size: int
    membership_ok: bool  # every basis vector lies in (ad p^-) y + g_T
    problems: List[str]  # why the ranks were not computed, if so


class AdaptedPair(NamedTuple):
    h_coroot_coeffs: Dict[int, Rational]  # keyed by 1-based simple index
    eigenvalues: Dict[int, Rational]  # gamma in T -> gamma(h), by increasing value
    degrees: Tuple[Rational, ...]  # the eigenvalues + 1, in the same order


def check_basis_restriction(cand: Candidate) -> BasisCheck:
    det, _ = cand.s_inverse
    return BasisCheck(det != 0, det)


def check_heisenberg(cand: Candidate) -> CheckReport:
    """Heisenberg property per set, disjointness, the support partition and
    S against the centres.  When every member has its partner and S is the
    set of centres, the partners found here give the orbit structure.

    a - b is a root of a set exactly when its code is a member; theta is
    kept on codes, and problem lines name roots by their coefficient
    vectors."""
    problems: List[str] = []
    root = cand.system.by_code
    support = cand.parabolic.dual_support_codes
    seen: Dict[int, int] = {}
    theta: Dict[int, int] = {}
    partnered = True
    for g, members in cand.gamma_sets.items():
        gr = root[g]
        if g not in members:
            problems.append(f"{gr}: centre not in its set")
        for a in members:
            if a not in support:
                problems.append(f"{gr}: member {root[a]} outside support")
            prev = seen.get(a)
            if prev is not None and prev != g:
                problems.append(f"sets of {root[prev]} and {gr} overlap at {root[a]}")
            seen[a] = g
            if a == g:
                continue
            partner = g - a
            if partner not in members or partner == a:
                problems.append(f"{gr}: no Heisenberg partner for {root[a]}")
                partnered = False
            else:
                theta[a] = partner
    t_codes = set(cand.T)
    t_star_codes = set(cand.T_star)
    if t_codes & t_star_codes:
        problems.append("T and T* overlap")
    if (t_codes | t_star_codes) & seen.keys():
        problems.append("T or T* meets a Heisenberg set")
    if seen.keys() | t_codes | t_star_codes != support:
        problems.append("Gamma, T*, T do not partition the support")
    if len(cand.S) != cand.parabolic.h_dim:
        problems.append(f"|S| = {len(cand.S)} != dim h = {cand.parabolic.h_dim}")
    s_is_centres = list(cand.S) == sorted(cand.gamma_sets)
    if not s_is_centres:
        problems.append("S is not the set of Gamma centres")
    orbits = None
    if partnered and s_is_centres:
        orbits = _orbit_structure(cand, theta)
    return CheckReport(not problems, problems, orbits)


def _orbit_structure(cand: Candidate, theta: Dict[int, int]) -> OrbitStructure:
    """S_alpha, strata and sign regions of O from theta, all on codes: the
    centre of the set of a is a + theta(a).  S_alpha lists the b in O with
    a + b a centre: each centre's splittings into two roots
    (`RootSystem.splittings`, O(n) in B and D) that lie in O."""
    sign_of_centre = dict.fromkeys(cand.S_plus, "+")
    sign_of_centre.update(dict.fromkeys(cand.S_minus, "-"))
    sign_of_centre.update(dict.fromkeys(cand.S_mixed, "m"))
    o_sorted = tuple(sorted(theta))
    partners: Dict[int, List[int]] = {a: [] for a in o_sorted}
    for g in cand.gamma_sets:
        for a in cand.system.splittings(g):
            b = g - a
            if a in theta and b in theta:
                partners[a].append(b)
                partners[b].append(a)
    s_alpha = {a: tuple(sorted(partners[a])) for a in o_sorted}
    strata = {a: len(s_alpha[a]) for a in o_sorted}
    by_sign = {"+": set(), "-": set(), "m": set()}
    for a in o_sorted:
        by_sign[sign_of_centre[a + theta[a]]].add(a)
    regions = [frozenset(by_sign[sign]) for sign in "+-m"]  # O+, O-, Om
    return OrbitStructure(
        o_sorted, cand.system.by_code, theta, s_alpha, strata, *regions
    )


# ---------------------------------------------------------------------------
# root classification (stationary / cyclic machinery)
# ---------------------------------------------------------------------------


def _star_partners(os: OrbitStructure, t: int) -> List[int]:
    """Detour partners of t in O_3: members of S_t, other than theta(t),
    lying in O_2 with theta-image in O_1.  Sequences may step past a
    three-partner root only when such a partner exists."""
    th, strata = os.theta, os.strata
    return [a for a in os.S_alpha[t]
            if a != th[t] and strata[a] == 2 and strata[th[a]] == 1]


def _successors(os: OrbitStructure, x: int) -> Optional[List[int]]:
    """Possible next elements of a sequence at x; None when undefined."""
    t = os.theta[x]
    n = os.strata[t]
    if n == 1:
        return []
    if n == 2:
        return [a for a in os.S_alpha[t] if a != x]
    if n == 3:
        partners = _star_partners(os, t)
        if not partners:
            return None
        nexts = []
        for ap in partners:
            others = [a for a in os.S_alpha[t] if a not in (x, ap)]
            if len(others) == 1:
                nexts.append(others[0])
        return sorted(set(nexts)) or None
    return None


def _local_grade(os: OrbitStructure, x: int) -> int:
    """0 when x or theta(x) has more than three partners, or three and no
    detour partner; 1 when one of them has three; 2 otherwise."""
    grade = 2
    for z in (x, os.theta[x]):
        n = os.strata[z]
        if n > 3 or (n == 3 and not _star_partners(os, z)):
            return 0
        if n == 3:
            grade = 1
    return grade


def _grade(os: OrbitStructure, memo: Dict[int, int], start: int) -> int:
    """The grade of start, a code of O: 0 when a sequence from start can
    loop, take an undefined step or reach a code of local grade 0
    (`_local_grade`), else the least local grade over start and its reach.

    One iterative depth-first pass, whose memo the calls of one
    classification share: a code's grade is the least of its local grade
    and its successors' grades.  An undefined step gives 0, and so does a
    step onto the current path, since a code on the path holds the
    placeholder 0 in memo.  This is exact.  A code that finishes with a
    grade above 0 reached no code on the path, so everything it reaches is
    finished and free of loops.  A grade of 0 always comes from a real
    loop (a step onto the path closes one through the code), an undefined
    step or an inadmissible code that the code reaches."""
    if start in memo:
        return memo[start]
    path: List[list] = []  # [code, its grade so far, its untried steps]
    y: Optional[int] = start
    while True:
        if y is not None:
            memo[y] = 0  # the placeholder of a code on the path
            steps = _successors(os, y)
            grade = 0 if steps is None else _local_grade(os, y)
            path.append([y, grade, iter(steps or ())])
        top = path[-1]
        for y in top[2]:
            grade = memo.get(y)
            if grade is None:  # y is entered next
                break
            top[1] = min(top[1], grade)
        else:
            y = None
            path.pop()
            memo[top[0]] = top[1]
            if not path:
                return top[1]
            path[-1][1] = min(path[-1][1], top[1])


class CyclicFamily(NamedTuple):
    """Six orbit roots, as codes, closed under theta and the sum relations."""

    members: Tuple[int, ...]  # (a, b, g, th a, th b, th g)
    extended: bool
    tildes: Dict[int, int]  # O_3 member -> its tilde root


def _find_cyclic(
    os: OrbitStructure, alpha: int, memo: Dict[int, int]
) -> Optional[CyclicFamily]:
    """The cyclic family of alpha, if there is one.  The sum relations are
    sums of codes: a + theta(a) is the centre of a's set.  memo is the
    memo of `_grade`."""
    th = os.theta
    for g in os.S_alpha[th[alpha]]:
        if g == alpha:
            continue
        # theta(beta), since theta(beta) + alpha = gamma + theta(gamma)
        tb = g + th[g] - alpha
        if tb not in th:
            continue
        b = th[tb]
        fam = (alpha, b, g, th[alpha], th[b], th[g])
        sums = (th[alpha] + g, th[g] + b, th[b] + alpha)
        if (len(set(fam)) != 6
                or sums != (b + th[b], alpha + th[alpha], g + th[g])
                or any(os.strata[d] not in (2, 3) for d in fam)):
            continue
        tildes: Dict[int, int] = {}
        extended = False
        for d in fam:
            if os.strata[d] != 3:
                continue
            outside = [x for x in os.S_alpha[d] if x not in fam]
            if len(outside) != 1:
                break
            tilde = tildes[d] = outside[0]
            if not (os.strata[tilde] == 2 and os.strata[th[tilde]] == 1):
                extended = True  # not strict: the tilde must have a grade
                if not _grade(os, memo, tilde):
                    break
        else:
            return CyclicFamily(fam, extended, tildes)
    return None


class ClassificationReport(NamedTuple):
    ok: bool
    problems: List[str]
    labels: Dict[int, str]  # orbit root code -> its classification
    counts: Counter


def classify_roots(os: OrbitStructure) -> ClassificationReport:
    """The non-degeneracy hypotheses on orbit roots.

    Within each pure sign region the only partner of a root may be its
    Heisenberg involution image; every root neighbouring the mixed region
    must be (extended) stationary, belong to an (extended) cyclic family,
    or be tilde-associated to one.  A root a is stationary when the least
    `_grade` of a and theta(a) is 2, and extended stationary when it is 1;
    every start shares one memo, so each code is expanded at most once.  A
    root that none of these covers is a problem.  Problem lines name
    roots by their coefficient vectors.
    """
    problems: List[str] = []
    th = os.theta
    root = os.by_code

    # inside a fixed sign region the only partner is the involution image
    for region, name in ((os.O_plus, "O+"), (os.O_minus, "O-")):
        for a in region:
            same = [b for b in os.S_alpha[a] if b in region]
            if same != [th[a]]:
                problems.append(
                    f"{name}: S_alpha of {root[a]} meets the region at "
                    f"{[root[b] for b in same]}"
                )

    needs = [a for a in os.O if not os.O_mixed.isdisjoint(os.S_alpha[a])]
    labels: Dict[int, str] = {}
    memo: Dict[int, int] = {}

    for a in needs:
        grade = min(_grade(os, memo, a), _grade(os, memo, th[a]))
        if grade:
            labels[a] = STATIONARY if grade == 2 else EXT_STATIONARY

    families: List[CyclicFamily] = []
    for a in needs:
        if a in labels:
            continue
        fam = _find_cyclic(os, a, memo)
        if fam is not None:
            families.append(fam)
            label = EXT_CYCLIC if fam.extended else CYCLIC
            for d in fam.members:
                if d not in labels:
                    labels[d] = label

    # the codes that sequences from the tildes reach, in one search
    reached = {t for fam in families for t in fam.tildes.values()}
    todo = list(reached)
    while todo:
        for y in _successors(os, todo.pop()) or ():
            if y not in reached:
                reached.add(y)
                todo.append(y)

    for a in needs:
        if a in labels:
            continue
        if a in reached or th[a] in reached:
            labels[a] = TILDE
        else:
            labels[a] = UNCLASSIFIED
            problems.append(f"unclassified orbit root {root[a]}")

    counts = Counter(labels.values())
    counts[UNCONSTRAINED] = len(os.O) - len(needs)
    return ClassificationReport(not problems, problems, labels, counts)


# ---------------------------------------------------------------------------
# non-degeneracy of Phi_y on o x o
# ---------------------------------------------------------------------------


def _values_on_h(
    cand: Candidate, xs: Sequence[int], codes: Sequence[int]
) -> List[int]:
    """den * a(h) for the root a of every code, where h has coordinates
    xs / den in the truncated coroot basis (den: the denominator of
    `Candidate.s_inverse`).

    h is one linear form on the root lattice: a(h) = sum_i x_i <a, alpha_i^vee>
    = sum_j a_j y_j with y = C x, C the columns pi' of the Cartan matrix.
    y is formed once, then each root costs one integer dot product."""
    sys = cand.system
    pi_prime = cand.parabolic.pi_prime
    y = [sum([row[i] * x for i, x in zip(pi_prime, xs)]) for row in sys.cartan]
    root = sys.by_code
    return [sum(map(mul, root[a], y)) for a in codes]


def check_nondegeneracy(
    cand: Candidate, table: StructureTable, os: OrbitStructure
) -> NondegeneracyCheck:
    """Exact determinant of Phi_y on o x o plus the t-grading certificate.

    Phi_y is the skew matrix M on O (in code order) with M[a][b] = N(-a,-b)
    when a+b is in S, that is b in S_alpha[a].  One walk over S_alpha
    writes its rows and tests the grading; the rows then go to
    `sparse_det`, which eliminates them in place.

    The grading certificate: solve gamma(h_w) = |rho(gamma)| over S (possible
    once S restricts to a basis), put u(a) = a(h_w); every nonzero entry at
    (a, b) has a+b in S, so its t-exponent |rho(a+b)| equals u(a)+u(b) and
    every permutation contributing to det M(t) carries the same power
    t^(2 sum u): det M(t) is a single monomial.  As theta(a) is in
    S_alpha[a], that power is also t^(2 sum over pairs of
    |rho(a+theta(a))|).  The comparisons run on integers: u(a) * den, with
    den the denominator of the inverse pairing matrix of S.
    """
    order = os.O
    size = len(order)
    root = os.by_code
    heights = [sum(root[a]) for a in order]
    _, inverse = cand.s_inverse
    mono_ok = inverse is not None and size % 2 == 0
    den, u, degree = 1, heights, 0  # u and den are read only under mono_ok
    if inverse is not None:
        den = inverse.den
        xs = inverse.solve_scaled([abs(sum(root[g])) for g in cand.S])
        u = _values_on_h(cand, xs, order)
        twice = 2 * sum(u)  # the degree, truncated toward zero
        degree = twice // den if twice >= 0 else -(-twice // den)
    pos = dict(zip(order, range(size)))
    n_code = table.n_code
    rows: List[Dict[int, int]] = []
    for i, a in enumerate(order):
        row: Dict[int, int] = {}
        hi, ui = heights[i], u[i]
        for b in os.S_alpha[a]:
            j = pos[b]
            n = n_code(-a, -b)
            if n:
                row[j] = n
            if mono_ok and abs(hi + heights[j]) * den != ui + u[j]:
                mono_ok = False
        rows.append(row)
    det = sparse_det(rows, size)
    return NondegeneracyCheck(det != 0 and mono_ok, det, size, mono_ok, degree)


# ---------------------------------------------------------------------------
# regularity: rank of (ad p^-) y against dim p - |T|
# ---------------------------------------------------------------------------


def coadjoint_rows(cand: Candidate, table: StructureTable) -> List[Dict[int, int]]:
    """The sparse integer rows of [M | e_T], M the matrix of b -> (ad b) y
    over the basis of p^-, with the Cartan rows scaled.

    Rows: the support roots in sorted order, then the truncated Cartan in
    coroot coordinates, times scale, the denominator of
    `ParabolicData.removed_projection`; scaling rows keeps every rank.
    Columns: x_{-gamma} for every support root gamma, in the same order,
    then the coroot basis, then e_t for every t in T.  Each splitting
    p = a + b of a member p of S into two support roots
    (`RootSystem.splittings`) writes N(-b, p) into row a, column b, and
    N(-a, p) into row b, column a, when nonzero; only a column x_{-gamma}
    with gamma in S has Cartan entries, and only its row has coroot
    entries.  Every member of S must lie in the support
    (`check_regularity` tests this first).
    """
    sys = cand.system
    parab = cand.parabolic
    support = parab.dual_support
    nroots = len(support)
    row_of = dict(zip(support, range(nroots)))
    dim_p = nroots + parab.h_dim
    rows: List[Dict[int, int]] = [{} for _ in range(dim_p)]
    n_code = table.n_code
    for p in cand.S:
        for a in sys.splittings(p):
            i, j = row_of.get(a), row_of.get(p - a)
            if i is not None and j is not None:
                n = n_code(a - p, p)
                if n:
                    rows[i][j] = n
                n = n_code(-a, p)
                if n:
                    rows[j][i] = n
    for p in cand.S:
        col = row_of[p]
        h = parab.h_in_coroot_basis_scaled([-x for x in sys.coroot(p)])
        row = rows[col]
        for k, (c, v) in enumerate(zip(h, parab.pairing_on_coroots(p))):
            if c:
                rows[nroots + k][col] = c
            if v:
                row[nroots + k] = v
    for j, t in enumerate(cand.T):
        rows[row_of[t]][dim_p + j] = 1
    return rows


def check_regularity(
    cand: Candidate, table: StructureTable
) -> RegularityCheck:
    """Rank of (ad p^-) y and of its span with g_T, from one elimination of
    the rows of [M | e_T] (`coadjoint_rows`, handed to `sparse_ranks` as
    built) that pivots on the columns of M first.  When a member of S
    lies outside the support, y is not in the dual of p: the check fails
    with a problem line and no rank."""
    parab = cand.parabolic
    dim_p = len(parab.dual_support) + parab.h_dim
    t_size = len(cand.T)
    outside = [g for g in cand.S if g not in parab.dual_support_codes]
    if outside:
        root = cand.system.by_code
        problems = [f"not run: S member {root[g]} outside support" for g in outside]
        return RegularityCheck(False, 0, 0, dim_p, t_size, False, problems)
    rows = coadjoint_rows(cand, table)
    rank, rank_aug = sparse_ranks(rows, [dim_p, dim_p + t_size])
    ok = rank == dim_p - t_size and rank_aug == dim_p
    return RegularityCheck(ok, rank, rank_aug, dim_p, t_size, rank_aug == dim_p, [])


# ---------------------------------------------------------------------------
# the adapted pair and its eigenvalues
# ---------------------------------------------------------------------------


def solve_h(cand: Candidate) -> AdaptedPair:
    """The unique h in the truncated Cartan with gamma(h) = -1 on S; its
    eigenvalues are ordered as ints over the inverse's den, then reduced."""
    _, inverse = cand.s_inverse
    if inverse is None:
        raise ArithmeticError("S does not restrict to a basis")
    den = inverse.den
    scaled = inverse.solve_scaled([-1] * len(cand.S))
    h_coeffs = {
        idx + 1: lowest_terms(v, den) for idx, v in zip(cand.parabolic.pi_prime, scaled)
    }
    ranked = sorted(zip(_values_on_h(cand, scaled, cand.T), cand.T))
    eigen = {t: lowest_terms(v, den) for v, t in ranked}
    degrees = tuple([lowest_terms(v + den, den) for v, _ in ranked])
    return AdaptedPair(h_coeffs, eigen, degrees)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


class CaseResult(NamedTuple):
    """Every check outcome of one case, with its candidate and adapted pair."""

    candidate: Candidate
    basis: BasisCheck
    heisenberg: CheckReport
    classification: ClassificationReport
    nondegeneracy: NondegeneracyCheck
    regularity: RegularityCheck
    t_size_vs_index: bool
    pair: AdaptedPair
    eigenvalues_match: bool
    lower_multiples: List[Rational]  # sorted by value
    improved_multiples: List[Rational]
    bounds_coincide: bool
    bounds_expected_match: bool

    @property
    def verdict(self) -> bool:
        return not self.first_failing

    @property
    def first_failing(self) -> Optional[str]:
        checks = [
            ("basis_det", self.basis.ok),
            ("heisenberg_ok", self.heisenberg.ok),
            ("classification_ok", self.classification.ok),
            ("nondegeneracy_det", self.nondegeneracy.ok),
            ("regularity_rank", self.regularity.ok),
            ("T_size_vs_index", self.t_size_vs_index),
            ("eigenvalues_match", self.eigenvalues_match),
            ("bounds_coincide", self.bounds_coincide and self.bounds_expected_match),
        ]
        for name, ok in checks:
            if not ok:
                return name
        return None

    def closed_form_witnesses(self) -> List[str]:
        """Why `T_size_vs_index`, `eigenvalues_match` or `bounds_coincide`
        failed, when it is the first failing check: the values only in the
        closed form and those only in the computed multiset.  For T also
        |T| and the index, with roots as coefficient vectors; for the
        eigenvalues also the T roots that carry each value only computed;
        for the bounds also the difference of the lower and improved
        bounds, in multiples of varpi_s.  No lines for any other
        outcome."""
        cand, failing = self.candidate, self.first_failing
        if failing == "T_size_vs_index":
            root = cand.system.by_code
            t = [root[r] for r in cand.T]
            closed = [root[r] for r in cand.T_expected]
            sizes = f"|T| = {len(t)}, index = {cand.parabolic.index}; "
            return [_witness(failing, "T", t, "closed form", closed, sizes)]
        # rationals as text, which is one to one on lowest terms
        if failing == "eigenvalues_match":
            eigen = {t: fraction_text(*v) for t, v in self.pair.eigenvalues.items()}
            closed = list(map(str, cand.eigenvalues_expected))
            root = cand.system.by_code
            carriers = "".join([
                f"; {v} at T roots {[root[t] for t in cand.T if eigen[t] == v]}"
                for v in Counter(eigen.values()) - Counter(closed)
            ])
            line = _witness(failing, "closed form", closed, "computed", eigen.values())
            return [line + carriers]
        if failing != "bounds_coincide":
            return []
        lower = [fraction_text(*q) for q in self.lower_multiples]
        improved = [fraction_text(*q) for q in self.improved_multiples]
        closed = list(map(str, cand.bounds_expected))
        return [
            _witness(failing, "closed form", closed, "lower", lower),
            _witness(failing, "lower", lower, "improved", improved),
        ]


def _witness(check: str, a_name: str, a, b_name: str, b, lead: str = "") -> str:
    """The line naming, after lead, the values of each of two multisets
    that the other lacks.  Both are given in increasing order, which a
    Counter difference keeps."""

    def only(x, y) -> str:
        return ", ".join(map(str, (Counter(x) - Counter(y)).elements()))

    return f"{check}: {lead}{a_name} only [{only(a, b)}]; {b_name} only [{only(b, a)}]"


def run_case(family: str, n: int, s: int) -> CaseResult:
    """Execute the whole verification pipeline for one case."""
    from .construction import build_case

    cand = build_case(family, n, s)
    table = build_structure_table(cand.system)
    basis = check_basis_restriction(cand)
    heis = check_heisenberg(cand)
    os = heis.orbits
    if os is None:
        # no theta to classify with or to pair by
        classification = ClassificationReport(
            False,
            ["not run: the Heisenberg check built no orbit structure"],
            {},
            Counter(),
        )
        nondeg = NondegeneracyCheck(False, 0, 0, False, 0)
    else:
        classification = classify_roots(os)
        nondeg = check_nondegeneracy(cand, table, os)
    reg = check_regularity(cand, table)
    t_ok = len(cand.T) == cand.parabolic.index and cand.T == cand.T_expected
    lower = lower_bound(cand.parabolic)
    if basis.ok:
        pair = solve_h(cand)
        improved = improved_bound(cand)
    else:
        # S is no basis of the truncated Cartan: no h, no improved bound
        pair = AdaptedPair({}, {}, ())
        improved = []
    closed = [(v, 1) for v in cand.eigenvalues_expected]
    eig_ok = list(pair.eigenvalues.values()) == closed  # both by increasing value
    # sorted and on the varpi_s ray (or raised): equal lists, equal bounds
    lower_multiples = bound_multiples(cand, lower)
    improved_multiples = bound_multiples(cand, improved)
    return CaseResult(
        candidate=cand,
        basis=basis,
        heisenberg=heis,
        classification=classification,
        nondegeneracy=nondeg,
        regularity=reg,
        t_size_vs_index=t_ok,
        pair=pair,
        eigenvalues_match=eig_ok,
        lower_multiples=lower_multiples,
        improved_multiples=improved_multiples,
        bounds_coincide=lower_multiples == improved_multiples,
        bounds_expected_match=lower_multiples == [(b, 1) for b in cand.bounds_expected],
    )
