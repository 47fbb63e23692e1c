import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import engine_oracle as oracle

from adapted_pairs.chevalley import build_structure_table
from adapted_pairs.construction import build_case, in_scope_cases
from adapted_pairs.verify import (
    CYCLIC,
    EXT_CYCLIC,
    EXT_STATIONARY,
    STATIONARY,
    check_basis_restriction,
    check_heisenberg,
    check_nondegeneracy,
    check_regularity,
    classify_roots,
    coadjoint_rows,
    run_case,
    solve_h,
    _find_cyclic,
    _values_on_h,
)
from adapted_pairs.roots import lowest_terms
from engine_oracle import (
    GElem,
    WrappedTable,
    adapted_pair_oracle,
    ad_on_dual,
    cartan_eps,
    centre_moved_outside,
    coadjoint_columns,
    coadjoint_rows_oracle,
    coroot_eps,
    enumerate_pairings,
    eps_of,
    fraction,
    n_const,
    nondegeneracy_oracle,
    orbit_structure,
    rat_pair,
    replace,
    root_from_eps,
    s_alpha_oracle,
    vec_sub,
    walk_oracle,
    walk_sequence,
)
from linalg_oracle import det_dense, det_sparse, rank, solve_in_span

F = Fraction


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def _ev(system, terms):
    v = [F(0)] * system.dim
    for c, i in terms:
        v[i - 1] += F(c)
    return root_from_eps(system, v)


def _s_replaced(cand, old, new):
    """cand with the element old of S replaced by new, in whichever of
    S+/S-/Sm holds it; the Gamma sets stay as they are."""
    parts = {
        name: tuple(new if g == old else g for g in getattr(cand, name))
        for name in ("S_plus", "S_minus", "S_mixed")
    }
    return replace(cand, **parts)


# -- basis restriction -------------------------------------------------------


def test_basis_b22_paper_value():
    cand = build_case("B", 2, 2)
    sys = cand.system
    # the 1x1 matrix (s_1(alpha_1^vee)) with s_1 = eps_2
    s1 = _ev(sys, [(1, 2)])
    assert cand.parabolic.pairing_on_coroots(s1) == [F(-1)]
    assert check_basis_restriction(cand).determinant in (F(1), F(-1))


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_basis_d_extremal_paper_substitution(n):
    # the row-substituted, paper-ordered matrix is lower triangular with
    # diagonal (1,...,1, -1, -2, -1, -1, 1,...,1) and determinant 2
    cand = build_case("D", n, n)
    sys = cand.system
    rows = [_ev(sys, [(1, 2 * i - 1), (1, 2 * i)]) for i in range(1, n // 2 - 1)]
    rows.append(_ev(sys, [(1, n - 1), (1, n)]))
    rows.append(_ev(sys, [(1, n - 4), (-1, n - 5)]))
    rows.append(_ev(sys, [(1, n - 2), (-1, n - 4)]))
    rows.append(_ev(sys, [(1, n), (-1, n - 3)]))
    if n >= 8:
        rows.append(_ev(sys, [(1, n - 3), (-1, n - 6)]))
    rows += [
        _ev(sys, [(1, n - 2 * k + 2), (-1, n - 2 * k)])
        for k in range(4, n // 2)
    ]
    cols = [2 * i for i in range(1, n // 2)] + [n - 5, n - 3, n - 1]
    cols += [n - 2 * j - 1 for j in range(3, n // 2)]
    coroots = [coroot_eps(sys, sys.simple_roots[c - 1]) for c in cols]
    mat = [[_dot(eps_of(sys, r), h) for h in coroots] for r in rows]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            assert mat[i][j] == 0
    diag = [mat[i][i] for i in range(n - 1)]
    assert diag == [F(1)] * (n // 2 - 2) + [F(-1), F(-2), F(-1), F(-1)] + [
        F(1)
    ] * (n // 2 - 3)
    assert det_dense(mat) == 2


def test_basis_duplicated_row_is_singular(monkeypatch):
    import adapted_pairs.construction as construction_mod
    from adapted_pairs.bounds import improved_bound

    cand = build_case("B", 6, 4)
    rows = [cand.parabolic.pairing_on_coroots(g) for g in cand.S]
    rows[1] = rows[0]
    assert det_dense(rows) == 0

    # the same duplicated row through the candidate's one factorisation
    first, second = cand.S[0], cand.S[1]
    bad = _s_replaced(cand, second, first)
    assert bad.S[0] == bad.S[1] == first
    calls = []
    invert = construction_mod.invert
    monkeypatch.setattr(
        construction_mod, "invert", lambda m: calls.append(m) or invert(m)
    )
    basis = check_basis_restriction(bad)
    assert basis.determinant == 0 and not basis.ok
    with pytest.raises(ArithmeticError):
        solve_h(bad)
    with pytest.raises(ArithmeticError):
        improved_bound(bad)
    table = build_structure_table(bad.system)
    assert not check_nondegeneracy(bad, table, orbit_structure(cand)).monomial_ok
    assert calls == [rows]


# -- Heisenberg checks -------------------------------------------------------


def test_heisenberg_reports_engineered_overlap():
    cand = build_case("B", 6, 4)
    sets = dict(cand.gamma_sets)
    keys = list(sets)
    moved = next(iter(sets[keys[0]] - {keys[0]}))
    sets[keys[1]] = sets[keys[1]] | {moved}
    bad = replace(cand, gamma_sets=sets)
    report = check_heisenberg(bad)
    assert not report.ok
    assert any("overlap" in p for p in report.problems)


def test_heisenberg_names_a_missing_partner_by_its_coefficients():
    cand = build_case("B", 6, 4)
    root = cand.system.by_code
    sets = dict(cand.gamma_sets)
    centre = next(g for g, members in sets.items() if len(members) > 1)
    a = max(sets[centre] - {centre}, key=lambda r: root[r])
    partner = cand.system.try_root(vec_sub(root[centre], root[a]))
    sets[centre] = sets[centre] - {partner}
    report = check_heisenberg(replace(cand, gamma_sets=sets))
    assert not report.ok and report.orbits is None
    line = f"{root[centre]}: no Heisenberg partner for {root[a]}"
    assert line in report.problems
    for p in report.problems:
        assert str(a) not in p and str(centre) not in p


def test_heisenberg_singleton_sets_pass():
    cand = build_case("B", 8, 6)
    sys = cand.system
    singleton = _ev(sys, [(-1, 7), (-1, 8)])
    assert cand.gamma_sets[singleton] == frozenset({singleton})
    assert check_heisenberg(cand).ok


def test_dropping_a_gamma_set_breaks_partition():
    cand = build_case("B", 6, 4)
    sets = dict(cand.gamma_sets)
    sets.pop(list(sets)[2])
    bad = replace(cand, gamma_sets=sets)
    report = check_heisenberg(bad)
    assert not report.ok
    assert any("partition" in p for p in report.problems)


def test_heisenberg_fails_when_s_is_not_the_set_of_centres(monkeypatch):
    import adapted_pairs.construction as construction_mod

    cand = build_case("B", 6, 4)
    assert check_heisenberg(cand).orbits is not None
    for old in cand.S:
        for new in cand.S:
            if new == old:
                continue
            bad = _s_replaced(cand, old, new)
            assert len(bad.S) == cand.parabolic.h_dim
            report = check_heisenberg(bad)
            assert not report.ok and report.orbits is None
            assert "S is not the set of Gamma centres" in report.problems
            with pytest.raises(ValueError):
                orbit_structure(bad)
            # the whole pipeline records the failure instead of raising
            monkeypatch.setattr(construction_mod, "build_case", lambda *a: bad)
            result = run_case("B", 6, 4)
            assert result.first_failing == "basis_det"
            assert not result.heisenberg.ok
            assert not result.classification.ok
            assert len(result.classification.problems) == 1
            assert not result.nondegeneracy.ok


# -- classification ----------------------------------------------------------


def test_b_negative_short_roots_stationary_at_rank_zero():
    cand = build_case("B", 8, 4)
    os = orbit_structure(cand)
    for j in range(5, 9):
        a = _ev(cand.system, [(-1, j)])
        assert os.strata[os.theta[a]] == 1
        assert walk_sequence(os, a).stationary


def _complete_orbit_structure(k):
    """A synthetic orbit structure on the codes 1..k in which every root is
    every other root's partner and no theta-image lies in O_1: the
    admissible sequences are all simple paths of a complete graph, far more
    than the k codes that a walk expands."""
    from adapted_pairs.verify import OrbitStructure

    codes = tuple(range(1, k + 1))
    every = frozenset(codes)
    return OrbitStructure(
        O=codes,
        by_code={c: (c,) for c in codes},
        theta={c: c for c in codes},
        S_alpha={c: codes for c in codes},
        strata={c: 2 for c in codes},
        O_plus=frozenset(),
        O_minus=frozenset(),
        O_mixed=every,
    )


def test_walk_of_a_complete_graph_is_exact():
    # every branch loops, and every code is reached
    for k in (8, 12, 300):
        os = _complete_orbit_structure(k)
        w = walk_sequence(os, os.O[0])
        assert not w.stationary
        assert w.nodes == frozenset(os.O)
    # the same roots with one partner each end in a loop: a branch fails
    looped = _complete_orbit_structure(2)
    w = walk_sequence(looped, looped.O[0])
    assert not w.stationary and w.nodes == frozenset(looped.O)
    # and a real case walks to O_1
    cand = build_case("B", 8, 4)
    real = orbit_structure(cand)
    a = _ev(cand.system, [(-1, 5)])
    assert walk_sequence(real, a).stationary


def _report_fields(rep):
    """A classification report with its labels in the order given."""
    return rep.ok, rep.problems, list(rep.labels.items()), dict(rep.counts)


def test_classification_reports_every_root_of_a_looping_walk():
    for k in (8, 12):
        os = _complete_orbit_structure(k)
        rep = classify_roots(os)
        assert not rep.ok
        assert rep.problems == [
            f"unclassified orbit root {os.by_code[a]}" for a in os.O
        ]
        expected = _report_fields(oracle.classify_oracle(os))
        assert _report_fields(rep) == expected


# every diagram flip in scope: D n s=n-1 up to rank 20, and E6 s=1
ALL_FLIPS = [("D", n, n - 1) for n in range(6, 21, 2)] + [("E6", 6, 1)]

WALK_CASES = (
    in_scope_cases(12)
    + [("D", n, n - 1) for n in range(6, 13, 2)]
    + [("E6", 6, 1)]
)


def test_walk_matches_the_simple_path_oracle():
    starts = 0
    for case in WALK_CASES:
        os = orbit_structure(build_case(*case))
        for a in os.O:
            assert tuple(walk_sequence(os, a)) == walk_oracle(os, a), (case, a)
            starts += 1
    assert starts == 7030


def test_walk_expands_each_code_once(monkeypatch):
    successors = oracle._successors
    expanded = []
    monkeypatch.setattr(
        oracle,
        "_successors",
        lambda os, x: expanded.append(x) or successors(os, x),
    )
    structures = [_complete_orbit_structure(12)] + [
        orbit_structure(build_case(*case)) for case in WALK_CASES
    ]
    for os in structures:
        for a in os.O:
            expanded.clear()
            w = walk_sequence(os, a)
            assert len(expanded) == len(set(expanded))
            assert set(expanded) <= w.nodes
    # the complete graph expands each of its codes exactly once
    os = structures[0]
    expanded.clear()
    walk_sequence(os, os.O[0])
    assert sorted(expanded) == list(os.O)


def test_classification_matches_the_walk_oracle():
    # labels, problems and counts, against one walk per start
    cases = (
        in_scope_cases(20)
        + ALL_FLIPS
        + [("D", n, s) for n in range(22, 49, 2) for s in (n, n - 1)]
    )
    for case in cases:
        os = orbit_structure(build_case(*case))
        rep = classify_roots(os)
        assert rep.ok, case
        expected = _report_fields(oracle.classify_oracle(os))
        assert _report_fields(rep) == expected, case
    assert len(cases) == 228


def test_classification_expands_each_code_at_most_twice(monkeypatch):
    # one memo of grades and one search from the tildes: the expansions
    # grow as |O|, where a walk per start made 7,354 on D32 s=32
    import adapted_pairs.verify as verify_mod

    successors = verify_mod._successors
    expanded = []
    monkeypatch.setattr(
        verify_mod,
        "_successors",
        lambda os, x: expanded.append(x) or successors(os, x),
    )
    cases = in_scope_cases(12) + ALL_FLIPS + [("D", 32, 32), ("D", 48, 48)]
    for case in cases:
        os = orbit_structure(build_case(*case))
        expanded.clear()
        assert classify_roots(os).ok
        assert len(expanded) <= 2 * len(os.O), case


@st.composite
def successor_graphs(draw):
    """Steps on up to 12 codes, each a list or None (an undefined step),
    a local grade of 0, 1 or 2 for each code, and the starts in the
    order they are graded."""
    codes = list(range(1, draw(st.integers(1, 12)) + 1))
    step_lists = st.lists(st.sampled_from(codes), max_size=3, unique=True)
    steps = {
        c: None if draw(st.integers(0, 5)) == 0 else draw(step_lists)
        for c in codes
    }
    local = {c: draw(st.integers(0, 2)) for c in codes}
    starts = draw(st.lists(st.sampled_from(codes), min_size=1, unique=True))
    return steps, local, starts


def _grade_by_definition(steps, local, start):
    """0 when a loop or an undefined step can be reached from start, else
    the least local grade over the codes reached, start included."""
    after = {}  # code -> the codes reached from it in one step or more
    for c in steps:
        seen, todo = set(), [c]
        while todo:
            for y in steps[todo.pop()] or ():
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        after[c] = seen
    reach = after[start] | {start}
    if any(steps[z] is None or z in after[z] for z in reach):
        return 0
    return min(local[z] for z in reach)


@settings(max_examples=500, deadline=None)
@given(successor_graphs())
# a loop downstream of a code graded earlier, and reached again through it
@example(({1: [2], 2: [3], 3: [4], 4: [3]}, {1: 2, 2: 2, 3: 2, 4: 2}, [2, 1]))
# a code finished off a loop while the loop's codes are on the path
@example(({1: [2], 2: [1, 3], 3: []}, {1: 2, 2: 2, 3: 1}, [1, 3]))
def test_grade_matches_its_definition(graph):
    import adapted_pairs.verify as verify_mod

    steps, local, starts = graph
    memo = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_mod, "_successors", lambda os, x: steps[x])
        mp.setattr(verify_mod, "_local_grade", lambda os, x: local[x])
        for a in starts:
            assert verify_mod._grade(None, memo, a) == _grade_by_definition(
                steps, local, a
            )
    # every code the passes finished holds its exact grade
    assert memo == {c: _grade_by_definition(steps, local, c) for c in memo}


def test_d_cyclic_family_from_the_case_analysis():
    # alpha = eps_{s-1} + eps_n forms a six-element cyclic family together
    # with eps_s - eps_{s-1} and eps_s - eps_{s+1}
    cand = build_case("D", 6, 4)
    sys = cand.system
    os = orbit_structure(cand)
    a = _ev(sys, [(1, 3), (1, 6)])
    fam = _find_cyclic(os, a, {})
    assert fam is not None and not fam.extended
    members = set(fam.members)
    assert _ev(sys, [(1, 4), (-1, 3)]) in members
    assert _ev(sys, [(1, 4), (-1, 5)]) in members
    assert len(members) == 6
    rep = classify_roots(os)
    assert rep.labels[a] == CYCLIC


def test_d_extremal_slide_sets_are_extended_stationary():
    cand = build_case("D", 10, 10)
    sys = cand.system
    os = orbit_structure(cand)
    rep = classify_roots(os)
    centre = _ev(sys, [(1, 4), (-1, 2)])
    for a in cand.gamma_sets[centre] - {centre}:
        assert rep.labels[a] in (STATIONARY, EXT_STATIONARY)


def test_d_extremal_uses_extended_machinery():
    cand = build_case("D", 10, 10)
    os = orbit_structure(cand)
    rep = classify_roots(os)
    assert rep.ok
    assert rep.counts[EXT_STATIONARY] + rep.counts[EXT_CYCLIC] > 0


def test_classification_clean_across_families():
    for family, n, s in [("B", 7, 4), ("D", 8, 6), ("D", 8, 8), ("E7", 7, 3)]:
        cand = build_case(family, n, s)
        os = orbit_structure(cand)
        rep = classify_roots(os)
        assert rep.ok, rep.problems


# -- non-degeneracy ----------------------------------------------------------


def test_nondegeneracy_b22_two_by_two():
    cand = build_case("B", 2, 2)
    table = build_structure_table(cand.system)
    os = orbit_structure(cand)
    check = check_nondegeneracy(cand, table, os)
    assert check.size == 2
    assert check.determinant == 1  # N^2 with |N| = 1
    assert check.ok


def _rows_handed_to(monkeypatch, name):
    """Copies of the rows that verify hands to the linalg function name,
    one list per call, taken before the call eliminates them."""
    import adapted_pairs.verify as verify_mod

    real = getattr(verify_mod, name)
    seen = []

    def spy(rows, *args):
        seen.append([dict(r) for r in rows])
        return real(rows, *args)

    monkeypatch.setattr(verify_mod, name, spy)
    return seen


def test_pairing_matrix_skew_and_even(monkeypatch):
    handed = _rows_handed_to(monkeypatch, "sparse_det")
    for family, n, s in [("B", 6, 4), ("D", 7, 4), ("E6", 6, 6)]:
        cand = build_case(family, n, s)
        table = build_structure_table(cand.system)
        check_nondegeneracy(cand, table, orbit_structure(cand))
        rows = handed.pop()
        assert len(rows) % 2 == 0
        for i, row in enumerate(rows):
            for j, v in row.items():
                assert rows[j].get(i) == -v
            assert i not in row


@pytest.mark.parametrize("family,n,s", [("B", 4, 2), ("D", 4, 2), ("B", 4, 4)])
def test_det_monomial_against_brute_force(family, n, s):
    # oracle: expand det of the t-graded matrix over all S-compatible
    # permutations; the result must be the single monomial the grading
    # certificate predicts
    cand = build_case(family, n, s)
    table = build_structure_table(cand.system)
    os = orbit_structure(cand)
    check = check_nondegeneracy(cand, table, os)
    order = list(os.O)
    pos = {a: i for i, a in enumerate(order)}
    poly = {}
    for theta in enumerate_pairings(os):
        perm = [pos[theta[a]] for a in order]
        sign = 1
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            ln, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        coeff = F(sign)
        degree = 0
        for a in order:
            coeff *= n_const(table, -a, -theta[a])
            degree += abs(sum(os.by_code[a]) + sum(os.by_code[theta[a]]))
        poly[degree] = poly.get(degree, F(0)) + coeff
    poly = {d: c for d, c in poly.items() if c != 0}
    assert set(poly) == {check.monomial_degree}
    assert poly[check.monomial_degree] == check.determinant


def _grading_oracle(cand):
    """u(a) = a(h_w) with gamma(h_w) = |rho(gamma)| on S, solved in
    Fractions by the oracle, for the root a of every code."""
    parab = cand.parabolic
    root = cand.system.by_code
    cols = list(zip(*[parab.pairing_on_coroots(g) for g in cand.S]))
    xs = solve_in_span(cols, [abs(sum(root[g])) for g in cand.S])
    return lambda a: _dot(parab.pairing_on_coroots(a), xs)


def test_grading_fails_for_an_extra_partner_off_the_grading():
    cand = build_case("B", 6, 4)
    table = build_structure_table(cand.system)
    os = orbit_structure(cand)
    root = os.by_code
    grading = _grading_oracle(cand)

    def on_grading(a, b):
        return abs(sum(root[a]) + sum(root[b])) == grading(a) + grading(b)

    for a in os.O:
        for b in os.S_alpha[a]:
            assert on_grading(a, b)
    assert check_nondegeneracy(cand, table, os).monomial_ok
    # one extra partner b of a (and a of b) whose t-exponent is off the grading
    a, b = next(
        (a, b)
        for a in os.O
        for b in os.O
        if b != a and b not in os.S_alpha[a] and not on_grading(a, b)
    )
    s_alpha = dict(os.S_alpha)
    s_alpha[a] = tuple(sorted(s_alpha[a] + (b,)))
    s_alpha[b] = tuple(sorted(s_alpha[b] + (a,)))
    bad = replace(os, S_alpha=s_alpha)
    det, inverse = cand.s_inverse
    assert det != 0 and inverse is not None
    check = check_nondegeneracy(cand, table, bad)
    assert check.size == len(os.O) and check.size % 2 == 0
    assert not check.monomial_ok and not check.ok


def test_stationary_closures_force_every_pairing():
    # every S-compatible permutation agrees with theta on the closure of a
    # stationary root
    for n, s in [(4, 2), (6, 4)]:
        cand = build_case("B", n, s)
        os = orbit_structure(cand)
        rep = classify_roots(os)
        pairings = enumerate_pairings(os)
        assert pairings
        stationary = [
            a
            for a, label in rep.labels.items()
            if label == STATIONARY
        ]
        assert stationary
        for a in stationary:
            closure = (
                walk_sequence(os, a).nodes | walk_sequence(os, os.theta[a]).nodes
            )
            for theta in pairings:
                for z in closure:
                    assert theta[z] == os.theta[z]


# -- regularity --------------------------------------------------------------


def test_regularity_b22_rank():
    cand = build_case("B", 2, 2)
    table = build_structure_table(cand.system)
    check = check_regularity(cand, table)
    assert check.dim_p == 6 and check.t_size == 2
    assert check.rank == 4 and check.rank_augmented == 6
    assert check.ok


def test_regularity_rank_complements_index():
    for family, n, s in [("B", 5, 2), ("D", 6, 4), ("E6", 6, 6)]:
        cand = build_case(family, n, s)
        table = build_structure_table(cand.system)
        check = check_regularity(cand, table)
        assert check.dim_p - check.rank == cand.parabolic.index


def _image_rows(cand, table, extra_roots):
    """Rows of [M | e_x for x in extra_roots], M the coadjoint matrix of
    `coadjoint_rows` without its e_T block; the extra roots are given by
    their codes."""
    support = cand.parabolic.dual_support
    dim_p = len(support) + cand.parabolic.h_dim
    rows = coadjoint_rows(cand, table)
    rows = [{c: v for c, v in r.items() if c < dim_p} for r in rows]
    for j, x in enumerate(extra_roots):
        rows[support.index(x)][dim_p + j] = 1
    return rows


def test_regularity_ranks_match_two_oracle_ranks():
    for family, n, s in in_scope_cases(8):
        cand = build_case(family, n, s)
        table = build_structure_table(cand.system)
        check = check_regularity(cand, table)
        assert check.rank == rank(_image_rows(cand, table, []))
        assert check.rank_augmented == rank(_image_rows(cand, table, cand.T))


def test_regularity_fails_when_t_meets_the_image():
    cand = build_case("B", 6, 4)
    table = build_structure_table(cand.system)
    image_rank = rank(_image_rows(cand, table, []))
    # a support root outside T whose root vector is in the image of ad p^-
    inside = next(
        x
        for x in cand.parabolic.dual_support
        if x not in cand.T and rank(_image_rows(cand, table, [x])) == image_rank
    )
    bad = replace(cand, T=(inside,) + cand.T[1:])
    check = check_regularity(bad, table)
    assert check.rank == image_rank
    assert check.rank_augmented < check.dim_p
    assert not check.ok and not check.membership_ok


COADJOINT_ORACLE_CASES = in_scope_cases(8) + [("D", 6, 5), ("D", 8, 7), ("E6", 6, 1)]


@pytest.mark.parametrize("family,n,s", COADJOINT_ORACLE_CASES)
def test_coadjoint_columns_match_the_bracket_oracle(family, n, s):
    # every column j of the rows, rebuilt as ad_on_dual(x, y) with y = sum
    # of x_g over S: x = x_{-gamma} for the support roots, then the
    # truncated coroots; the Cartan rows are scaled by the denominator of
    # the removed projection, and the columns past dim p are e_T
    cand = build_case(family, n, s)
    sys, parab = cand.system, cand.parabolic
    table = build_structure_table(sys)
    rows = coadjoint_rows(cand, table)
    scale, _ = parab.removed_projection
    support = cand.parabolic.dual_support
    row_of = {c: i for i, c in enumerate(support)}
    dim_p = len(support) + parab.h_dim
    root = sys.by_code
    y = GElem({root[g]: F(1) for g in cand.S})
    xs = [GElem({root[-g]: F(1)}) for g in support]
    for k in parab.pi_prime:
        xs.append(GElem(h_part=tuple(int(i == k) for i in range(sys.rank))))
    assert len(rows) == len(xs) == dim_p
    columns = [{} for _ in range(dim_p + len(cand.T))]
    for r, row in enumerate(rows):
        for j, v in row.items():
            columns[j][r] = v
    for j, x in enumerate(xs):
        out = ad_on_dual(table, parab, x, y)
        expected = {
            row_of[sys.code(c)]: v for c, v in out.root_part.items()
        }
        if out.h_part is not None:
            assert out.h_part[s - 1] == 0
            for k, i in enumerate(parab.pi_prime):
                if out.h_part[i]:
                    expected[len(support) + k] = scale * out.h_part[i]
        assert columns[j] == expected
    for j, t in enumerate(cand.T):
        assert columns[dim_p + j] == {row_of[t]: 1}


FLIP_CASES = [("D", n, n - 1) for n in (6, 8, 10, 12)] + [("E6", 6, 1)]


@pytest.mark.parametrize(
    "family,n,s",
    in_scope_cases(20) + [("D", n, n - 1) for n in range(6, 21, 2)] + [("E6", 6, 1)],
)
def test_splittings_match_the_probe_oracles(family, n, s):
    # S_alpha and the rows of [M | e_T], built from each centre's
    # splittings, equal the |O| x |S| and support x S probe loops
    cand = build_case(family, n, s)
    table = build_structure_table(cand.system)
    os = orbit_structure(cand)
    assert os.S_alpha == s_alpha_oracle(cand, os.theta)
    assert coadjoint_rows(cand, table) == coadjoint_rows_oracle(cand, table)


@pytest.mark.parametrize("family,n,s", in_scope_cases(12) + FLIP_CASES)
def test_row_builders_match_the_column_oracles(monkeypatch, family, n, s):
    # the rows that both checks hand to linalg equal the rows of the
    # column-probe and two-pass oracles, and the ranks, determinant,
    # grading verdict and degree equal the oracles' on them
    cand = build_case(family, n, s)
    table = build_structure_table(cand.system)
    os = orbit_structure(cand)
    det_rows = _rows_handed_to(monkeypatch, "sparse_det")
    rank_rows = _rows_handed_to(monkeypatch, "sparse_ranks")
    nondeg = check_nondegeneracy(cand, table, os)
    reg = check_regularity(cand, table)

    columns, row_of, dim_p, _ = coadjoint_columns(cand, table)
    image = [{} for _ in range(dim_p)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            image[r][c] = v
    augmented = [dict(r) for r in image]
    for j, t in enumerate(cand.T):
        augmented[row_of[t]][dim_p + j] = 1
    assert rank_rows == [augmented]
    assert (reg.rank, reg.rank_augmented) == (rank(image), rank(augmented))

    rows, graded, degree = nondegeneracy_oracle(cand, table, os)
    assert det_rows == [rows]
    assert nondeg.size == len(rows)
    assert type(nondeg.determinant) is int
    assert nondeg.determinant == det_sparse(rows, len(rows))
    assert (nondeg.monomial_ok, nondeg.monomial_degree) == (graded, degree)
    assert nondeg.ok and reg.ok


def test_regularity_fails_for_s_outside_the_support(monkeypatch):
    import adapted_pairs.construction as construction_mod

    bad, moved = centre_moved_outside(build_case("B", 6, 4))
    assert moved not in bad.parabolic.dual_support_codes
    check = check_regularity(bad, build_structure_table(bad.system))
    assert not check.ok and not check.membership_ok
    moved = bad.system.by_code[moved]
    assert check.problems == [f"not run: S member {moved} outside support"]
    # the whole pipeline records the failure instead of raising
    monkeypatch.setattr(construction_mod, "build_case", lambda *a: bad)
    result = run_case("B", 6, 4)
    assert not result.verdict
    assert not result.heisenberg.ok and not result.regularity.ok
    assert any("outside support" in p for p in result.heisenberg.problems)


def test_e6_membership_witnesses():
    # the case-analysis witnesses expressing each T* vector inside
    # (ad p^-) y + g_T, checked as exact span membership (sign conventions
    # are never assumed)
    cand = build_case("E6", 6, 6)
    sys = cand.system
    table = build_structure_table(cand.system)
    rows = coadjoint_rows(cand, table)
    support = cand.parabolic.dual_support
    dim_p = len(rows)

    def col(coeffs):
        """The column of x_{-gamma_b} as a dense vector."""
        j = support.index(sys.root_from_coeffs(coeffs))
        return [F(row.get(j, 0)) for row in rows]

    def unit(coeffs):
        dense = [F(0)] * dim_p
        dense[support.index(sys.root_from_coeffs(coeffs))] = F(1)
        return dense

    witnesses = [
        # x_(1,1,1,2,2,1) from (ad (x_{(0,-1,-1,-1,0,0)} + x_{(1,0,1,0,0,0)})) y
        ((1, 1, 1, 2, 2, 1), [col((0, 1, 1, 1, 0, 0)), col((-1, 0, -1, 0, 0, 0))]),
        # x_(1,0,1,1,1,0) from (ad x_{alpha_1}) y
        ((1, 0, 1, 1, 1, 0), [col((-1, 0, 0, 0, 0, 0))]),
        # x_{-alpha_1} from (ad x_{(-1,0,-1,-1,-1,0)}) y + x_{alpha_6}
        ((-1, 0, 0, 0, 0, 0), [col((1, 0, 1, 1, 1, 0)), unit((0, 0, 0, 0, 0, 1))]),
        # x_{-(a2+a4+a5)} from (ad x_{(-1,-1,-1,-2,-2,-1)}) y + x_{a2+a3+a4}
        (
            (0, -1, 0, -1, -1, 0),
            [col((1, 1, 1, 2, 2, 1)), unit((0, 1, 1, 1, 0, 0))],
        ),
        # x_{-(a2+a4)} from three single-column images
        (
            (0, -1, 0, -1, 0, 0),
            [
                col((0, 1, 1, 2, 1, 0)),
                col((0, -1, 0, 0, 0, 0)),
                col((1, 1, 1, 2, 1, 1)),
            ],
        ),
        # x_{-a2} from three single-column images
        (
            (0, -1, 0, 0, 0, 0),
            [
                col((0, 1, 1, 1, 1, 0)),
                col((1, 1, 1, 1, 1, 1)),
                col((0, -1, 0, -1, 0, 0)),
            ],
        ),
    ]
    for target, cols in witnesses:
        assert solve_in_span(cols, unit(target)) is not None, target


# -- the adapted pair --------------------------------------------------------


def test_h_e6_and_e7_paper_values():
    p6 = solve_h(build_case("E6", 6, 6))
    Q = rat_pair
    assert p6.h_coroot_coeffs == {1: Q(-2), 2: Q(-1), 3: Q(1), 4: Q(6), 5: Q(-5)}
    p7 = solve_h(build_case("E7", 7, 3))
    assert p7.h_coroot_coeffs == {
        1: Q(-1),
        2: Q(-13, 2),
        4: Q(3),
        5: Q(11, 2),
        6: Q(-2),
        7: Q(-1, 2),
    }


def test_values_on_h_match_the_per_root_pairings():
    # den * a(h) from the linear form equals the dot product of a's
    # pairings on the truncated coroots with the scaled coordinates of h
    for family, n, s in in_scope_cases(10):
        cand = build_case(family, n, s)
        parab = cand.parabolic
        _, inverse = cand.s_inverse
        roots = parab.dual_support
        heights = [abs(sum(cand.system.by_code[g])) for g in cand.S]
        for xs in (
            inverse.solve_scaled([-1] * len(cand.S)),
            inverse.solve_scaled(heights),
            list(range(1, parab.h_dim + 1)),
        ):
            expected = [_dot(parab.pairing_on_coroots(a), xs) for a in roots]
            assert _values_on_h(cand, xs, roots) == expected


def _h_eps(cand):
    """h of the adapted pair in epsilon coordinates, for the paper's closed
    forms."""
    pair = solve_h(cand)
    h = [fraction(pair.h_coroot_coeffs.get(i, (0, 1))) for i in range(1, cand.n + 1)]
    return cartan_eps(cand.system, h)


def test_h_defining_property():
    for family, n, s in [("B", 9, 6), ("D", 9, 4), ("D", 8, 8), ("E7", 7, 3)]:
        cand = build_case(family, n, s)
        h = _h_eps(cand)
        for g in cand.S:
            assert _dot(eps_of(cand.system, g), h) == -1


def _paper_h_B(n, s):
    h = [F(0)] * n
    for k in range(1, s // 4 + 1):
        h[2 * k - 2] += F(s, 2) + 2 * k - 1
    for k in range(s // 4 + 1, s // 2):
        h[2 * k - 2] += F(3 * s, 2) - 2 * k
    for k in range(1, s // 4 + 1):
        h[2 * k - 1] -= F(s, 2) + 2 * k
    for k in range(s // 4 + 1, s // 2):
        h[2 * k - 1] -= F(3 * s, 2) + 1 - 2 * k
    h[s - 2] += F(s, 2)
    h[s - 1] -= 1
    for k in range(1, (n - s + 1) // 2 + 1):
        h[s + 2 * k - 2] += -2 * k + 1 - F(s, 2)
    for k in range(1, (n - s) // 2 + 1):
        h[s + 2 * k - 1] += 2 * k + F(s, 2)
    return tuple(h)


def _paper_h_D(n, s):
    h = [F(0)] * n
    for k in range(1, s // 4 + 1):
        h[2 * k - 2] += F(s, 2) + 2 * k - 1
    for k in range(s // 4 + 1, s // 2):
        h[2 * k - 2] += F(3 * s, 2) - 2 * k
    for k in range(1, s // 4 + 1):
        h[2 * k - 1] -= F(s, 2) + 2 * k
    for k in range(s // 4 + 1, s // 2):
        h[2 * k - 1] -= F(3 * s, 2) + 1 - 2 * k
    h[s - 2] += F(s, 2)
    h[s - 1] -= 1
    for k in range(1, (n - s) // 2 + 1):
        h[s + 2 * k - 2] += -2 * k + 1 - F(s, 2)
    for k in range(1, (n - s - 1) // 2 + 1):
        h[s + 2 * k - 1] += 2 * k + F(s, 2)
    return tuple(h)


def _paper_h_De(n):
    if n == 6:
        return tuple(F(x) for x in (0, -1, 5, -2, -6, 4))
    h = [F(0)] * n
    h[0] = F(-n)
    for k in range(1, n // 2 - 3):
        h[2 * k] += k - n
    for k in range(1, n // 2 - 2):
        h[2 * k - 1] += n - k
    h[n - 5] += -1
    h[n - 4] += F(n, 2) + 2
    h[n - 3] += -2
    h[n - 2] += -(F(n, 2) + 3)
    h[n - 1] += F(n, 2) + 1
    return tuple(h)


@pytest.mark.parametrize("n,s", [(2, 2), (4, 4), (6, 4), (9, 6), (12, 8)])
def test_h_eps_closed_form_type_b(n, s):
    assert _h_eps(build_case("B", n, s)) == _paper_h_B(n, s)


@pytest.mark.parametrize("n,s", [(4, 2), (7, 4), (10, 6), (12, 10)])
def test_h_eps_closed_form_type_d(n, s):
    assert _h_eps(build_case("D", n, s)) == _paper_h_D(n, s)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_h_eps_closed_form_type_d_extremal(n):
    assert _h_eps(build_case("D", n, n)) == _paper_h_De(n)


def test_eigenvalues_b_examples():
    cand = build_case("B", 8, 6)  # s = 6
    pair = solve_h(cand)
    sys = cand.system
    assert pair.eigenvalues[_ev(sys, [(1, 5), (1, 6)])] == (2, 1)  # s/2 - 1
    assert pair.eigenvalues[_ev(sys, [(1, 5), (-1, 7)])] == (7, 1)  # s + 1
    # s+3, 3s-7, s/2+1, s/2-1, s+1 and s+3 again for n > s
    assert cand.eigenvalues_expected == (2, 4, 7, 9, 9, 11)
    assert sorted(pair.eigenvalues.values()) == [(v, 1) for v in cand.eigenvalues_expected]


def test_eigenvalues_d6_extremal_values():
    pair = solve_h(build_case("D", 6, 6))
    assert Counter(pair.eigenvalues.values()) == Counter(
        {(11, 1): 1, (2, 1): 1, (4, 1): 1, (6, 1): 1}
    )
    assert pair.degrees == ((3, 1), (5, 1), (7, 1), (12, 1))


def test_eigenvalue_closed_forms_across_sweep():
    for family, n, s in [
        ("B", 7, 4),
        ("B", 10, 10),
        ("D", 9, 6),
        ("D", 10, 10),
        ("E6", 6, 1),
        ("E7", 7, 3),
    ]:
        cand = build_case(family, n, s)
        actual = tuple(sorted(map(fraction, solve_h(cand).eigenvalues.values())))
        assert actual == cand.eigenvalues_expected, (family, n, s, actual)


def _raise_the_last(field):
    # the largest closed-form entry raised by 1
    def change(cand):
        closed = getattr(cand, field)
        return closed[:-1] + (closed[-1] + 1,)

    return change


def _swap_a_t_root(cand):
    # the last root of the closed-form T replaced by the largest root of
    # the support outside it
    other = max(r for r in cand.parabolic.dual_support if r not in cand.T_expected)
    return tuple(sorted(cand.T_expected[:-1] + (other,)))


@pytest.mark.parametrize(
    "field,change,check,witness",
    [
        (
            "eigenvalues_expected",
            _raise_the_last("eigenvalues_expected"),
            "eigenvalues_match",
            [
                "eigenvalues_match: closed form only [12]; computed only [11]; "
                "11 at T roots [(0, 0, 1, 0, 0, 0, 0, 0)]"
            ],
        ),
        (
            "bounds_expected",
            _raise_the_last("bounds_expected"),
            "bounds_coincide",
            [
                "bounds_coincide: closed form only [3]; lower only [2]",
                "bounds_coincide: lower only []; improved only []",
            ],
        ),
        (
            "T_expected",
            _swap_a_t_root,
            "T_size_vs_index",
            [
                "T_size_vs_index: |T| = 6, index = 6; "
                "T only [(1, 0, 0, 0, 0, 0, 0, 0)]; "
                "closed form only [(1, 2, 2, 2, 2, 2, 2, 2)]"
            ],
        ),
    ],
    ids=["eigenvalues", "bounds", "T"],
)
def test_a_raised_closed_form_fails_its_check(
    field, change, check, witness, tmp_path, monkeypatch, capsys
):
    # B8 s=6 with one closed-form entry changed: the check that compares
    # against it fails first, and verify names the values on both sides
    import adapted_pairs.construction as construction
    from adapted_pairs.cli import main

    cand = construction.build_case("B", 8, 6)
    bad = replace(cand, **{field: change(cand)})
    monkeypatch.setattr(construction, "build_case", lambda *a: bad)
    assert run_case("B", 8, 6).first_failing == check
    out = tmp_path / "cert.json"
    code = main(["verify", "--family", "B", "--rank", "8", "--s", "6",
                 "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"first failing check: {check}"
    assert lines[2:] == witness
    # the witness lines go to stdout only
    assert "only" not in out.read_text()


def _zero_an_orbit_row(cand):
    # every N(-a, .) of one orbit root a: row a of Phi_y vanishes
    a = orbit_structure(cand).O[0]
    return lambda x, y, n: 0 if x == -a else n


def _zero_a_centre_column(cand):
    # every N(-b, p0) of one p0 in S with -p0 not in O: Phi_y reads no
    # such entry, and (ad p^-) y loses the root part of p0
    orbit = set(orbit_structure(cand).O)
    p0 = next(p for p in cand.S if -p not in orbit)
    return lambda x, y, n: 0 if y == p0 else n


@pytest.mark.parametrize(
    "corrupt,check",
    [
        (_zero_an_orbit_row, "nondegeneracy_det"),
        (_zero_a_centre_column, "regularity_rank"),
    ],
    ids=["nondegeneracy", "regularity"],
)
def test_a_corrupted_structure_table_fails_its_check(
    corrupt, check, monkeypatch, capsys
):
    # B8 s=6 with structure constants zeroed through a wrapped table: the
    # check that reads them fails first, and verify exits 1
    import adapted_pairs.verify as verify
    from adapted_pairs.cli import main

    change = corrupt(build_case("B", 8, 6))
    monkeypatch.setattr(
        verify,
        "build_structure_table",
        lambda system: WrappedTable(build_structure_table(system), change),
    )
    assert run_case("B", 8, 6).first_failing == check
    assert main(["verify", "--family", "B", "--rank", "8", "--s", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"first failing check: {check}"


def test_bound_witness_names_the_lower_improved_difference():
    result = run_case("B", 6, 4)
    lower = result.lower_multiples
    (num, den) = lower[0]
    improved = lower[1:] + [(2 * num, den)]
    bad = replace(result, improved_multiples=improved, bounds_coincide=False)
    assert bad.first_failing == "bounds_coincide"
    assert bad.closed_form_witnesses() == [
        "bounds_coincide: closed form only []; lower only []",
        "bounds_coincide: lower only [1]; improved only [2]",
    ]
    assert result.closed_form_witnesses() == []


def test_degrees_are_eigenvalues_plus_one():
    cand = build_case("D", 8, 4)
    pair = solve_h(cand)
    degrees = [fraction(d) for d in pair.degrees]
    assert degrees == sorted(fraction(v) + 1 for v in pair.eigenvalues.values())


# -- end-to-end spot checks --------------------------------------------------


def test_run_case_verdicts():
    for family, n, s in [("B", 3, 2), ("D", 5, 2), ("E6", 6, 6)]:
        result = run_case(family, n, s)
        assert result.verdict, result.first_failing
        assert result.first_failing is None


# -- result records ----------------------------------------------------------


def test_result_records_are_named_tuples():
    # each field is declared once, as in bounds.BoundWeight
    from adapted_pairs import verify

    records = [
        verify.OrbitStructure,
        verify.CheckReport,
        verify.BasisCheck,
        verify.NondegeneracyCheck,
        verify.RegularityCheck,
        verify.AdaptedPair,
        verify.CyclicFamily,
        verify.ClassificationReport,
        verify.CaseResult,
    ]
    for cls in records:
        assert issubclass(cls, tuple) and cls._fields, cls
        assert "__init__" not in vars(cls) and vars(cls)["__slots__"] == (), cls


def test_records_are_values():
    # no caller can change a verdict after it was computed
    result = run_case("B", 4, 2)
    pair, rank = result.pair, result.regularity.rank
    with pytest.raises(AttributeError):
        result.pair = solve_h(result.candidate)
    with pytest.raises(AttributeError):
        result.regularity.rank = 0
    with pytest.raises(AttributeError):
        check_heisenberg(result.candidate).ok = False
    assert result.pair is pair and result.regularity.rank == rank


def test_rational_reduces_and_puts_the_sign_on_num():
    # the engine's one reduction, which verify and report share
    assert lowest_terms(6, 4) == (3, 2)
    assert lowest_terms(6, -4) == (-3, 2)
    assert lowest_terms(-6, 3) == (-2, 1)
    assert lowest_terms(0, -5) == (0, 1)
    for num in range(-12, 13):
        for den in [d for d in range(-6, 7) if d]:
            n, d = lowest_terms(num, den)
            assert d > 0 and math.gcd(n, d) == 1 and F(n, d) == F(num, den)


def _is_rational(q):
    """An engine rational: a (num, den) pair of ints in lowest terms, den > 0."""
    return (
        type(q) is tuple
        and len(q) == 2
        and all(type(x) is int for x in q)
        and q[1] > 0
        and math.gcd(*q) == 1
    )


@pytest.mark.parametrize("family,n,s", in_scope_cases(10) + FLIP_CASES)
def test_every_rational_of_a_case_result_is_a_reduced_int_pair(family, n, s):
    # h, the eigenvalues, the degrees and both bound multisets are (num,
    # den) int pairs in lowest terms, equal to the Fraction oracle's values;
    # both determinants are ints, the basis one equal to the oracle's
    result = run_case(family, n, s)
    cand, pair = result.candidate, result.pair
    rationals = [
        *pair.h_coroot_coeffs.values(),
        *pair.eigenvalues.values(),
        *pair.degrees,
        *result.lower_multiples,
        *result.improved_multiples,
    ]
    assert rationals and all(map(_is_rational, rationals))
    h, eigen, degrees = adapted_pair_oracle(cand)
    assert {i: fraction(q) for i, q in pair.h_coroot_coeffs.items()} == h
    assert {t: fraction(q) for t, q in pair.eigenvalues.items()} == eigen
    assert [fraction(q) for q in pair.degrees] == degrees
    parab = cand.parabolic
    for ours, theirs in (
        (result.lower_multiples, oracle.lower_bound(parab)),
        (result.improved_multiples, oracle.improved_bound(cand)),
    ):
        assert [fraction(q) for q in ours] == oracle.bound_multiples(cand, theirs)
    basis_rows = [parab.pairing_on_coroots(g) for g in cand.S]
    assert type(result.basis.determinant) is int
    assert result.basis.determinant == det_dense(basis_rows) != 0
    assert type(result.nondegeneracy.determinant) is int
    assert result.nondegeneracy.determinant != 0
