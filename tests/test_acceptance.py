"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact throughout: every comparison is on integers or
rationals, never floats.
"""

import filecmp
import itertools
import time
from collections import Counter

from adapted_pairs.chevalley import build_structure_table
from adapted_pairs.cli import main
from adapted_pairs.construction import build_case
from adapted_pairs.roots import build_root_system
from adapted_pairs.verify import (
    STATIONARY,
    check_heisenberg,
    check_basis_restriction,
    check_nondegeneracy,
    classify_roots,
    run_case,
    walk_sequence,
)
from engine_oracle import (
    code_jacobiator,
    enumerate_pairings,
    orbit_structure,
    rat_pair,
    replace,
    string_down,
    vec_add,
)

F = rat_pair  # a rational as the engine gives it: (num, den) in lowest terms


def _fresh_caches():
    build_root_system.cache_clear()


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def _full_battery(result):
    """The per-case checks shared by criteria 3-5."""
    assert result.basis.determinant != 0
    assert result.heisenberg.ok, result.heisenberg.problems
    assert result.classification.ok, result.classification.problems
    assert result.nondegeneracy.determinant != 0
    assert result.nondegeneracy.size % 2 == 0
    assert result.nondegeneracy.monomial_ok
    assert result.regularity.rank == result.regularity.dim_p - len(
        result.candidate.T
    )
    assert result.regularity.rank_augmented == result.regularity.dim_p
    assert result.t_size_vs_index
    assert result.eigenvalues_match
    assert result.lower_multiples == result.improved_multiples
    assert result.bounds_expected_match
    assert result.verdict


def test_criterion_1_e7():
    _fresh_caches()
    t0 = time.perf_counter()
    result = run_case("E7", 7, 3)
    elapsed = time.perf_counter() - t0
    _full_battery(result)
    assert result.pair.degrees == (F(3), F(6), F(8), F(10), F(18))
    assert result.pair.h_coroot_coeffs == {
        1: F(-1),
        2: F(-13, 2),
        4: F(3),
        5: F(11, 2),
        6: F(-2),
        7: F(-1, 2),
    }
    _report(
        "1 (E7, s=3)",
        elapsed < 10.0,
        f"degrees 3,6,8,10,18; h per the type-E7 case; {elapsed:.2f}s",
    )


def test_criterion_2_e6():
    _fresh_caches()
    t0 = time.perf_counter()
    result = run_case("E6", 6, 6)
    elapsed = time.perf_counter() - t0
    _full_battery(result)
    assert result.pair.degrees == (F(6), F(8), F(18))
    assert result.pair.h_coroot_coeffs == {
        1: F(-2),
        2: F(-1),
        3: F(1),
        4: F(6),
        5: F(-5),
    }
    assert Counter(result.pair.eigenvalues.values()) == Counter(
        {F(5): 1, F(7): 1, F(17): 1}
    )
    lower = Counter(result.lower_multiples)
    assert lower == Counter({F(3): 2, F(6): 1})
    assert result.lower_multiples == result.improved_multiples
    _report(
        "2 (E6, s=6)",
        elapsed < 5.0,
        f"degrees 6,8,18; eigenvalues 5,7,17; bounds 3w6 x2, 6w6; {elapsed:.2f}s",
    )


def test_criterion_3_type_b_sweep():
    _fresh_caches()
    cases = [(n, s) for n in range(2, 13) for s in range(2, n + 1, 2)]
    t0 = time.perf_counter()
    for n, s in cases:
        result = run_case("B", n, s)
        _full_battery(result)
        assert len(result.candidate.T) == n - s // 2 + 1
        expected_mult = (
            Counter({F(2): 2, F(4): n // 2 - 1})
            if n == s
            else Counter({F(1): 2, F(2): n - 1 - s // 2})
        )
        actual = Counter(result.lower_multiples)
        assert actual == Counter({k: v for k, v in expected_mult.items() if v})
    elapsed = time.perf_counter() - t0
    _report(
        "3 (type B sweep, n <= 12)",
        elapsed < 120.0,
        f"{len(cases)} cases; {elapsed:.1f}s",
    )


def test_criterion_4_type_d_sweep():
    _fresh_caches()
    cases = [(n, s) for n in range(4, 13) for s in range(2, n - 1, 2)]
    t0 = time.perf_counter()
    for n, s in cases:
        result = run_case("D", n, s)
        _full_battery(result)
        assert len(result.candidate.T) == n - s // 2 + 1
        actual = Counter(result.lower_multiples)
        assert actual == Counter(
            {k: v for k, v in {F(1): 3, F(2): n - 2 - s // 2}.items() if v}
        )
    elapsed = time.perf_counter() - t0
    _report(
        "4 (type D non-extremal sweep, n <= 12)",
        elapsed < 120.0,
        f"{len(cases)} cases; {elapsed:.1f}s",
    )


def test_criterion_5_type_d_extremal():
    _fresh_caches()
    t0 = time.perf_counter()
    for n in (6, 8, 10, 12):
        result = run_case("D", n, n)
        _full_battery(result)
        actual = Counter(result.lower_multiples)
        assert actual == Counter({F(2): 3, F(4): n // 2 - 2})
        if n == 6:
            # evaluated independently from the closed forms before the build
            assert Counter(result.pair.eigenvalues.values()) == Counter(
                {F(11): 1, F(2): 1, F(4): 1, F(6): 1}
            )
            assert result.pair.degrees == (F(3), F(5), F(7), F(12))
    elapsed = time.perf_counter() - t0
    _report(
        "5 (type D extremal, n in 6..12)",
        elapsed < 30.0,
        f"4 cases; n=6 eigenvalues 11,2,4,6; {elapsed:.1f}s",
    )


def _jacobi_exhaustive(system, table):
    """All root triples with a+b+c in Delta or 0, on root codes; other
    triples vanish term by term.

    The triples are found on a wider code, base 8M + 1 for M the largest
    root coefficient: d - a - b has digits in [-3M, 3M], so it has the
    wide code of a root only when it is that root."""
    base = 8 * (system.base - 1) // 3 + 1
    code_of = {
        sum(c * base**i for i, c in enumerate(coeffs)): code
        for code, coeffs in system.by_code.items()
    }  # wide code -> root code
    checked = 0
    for a, b in itertools.product(code_of, repeat=2):
        partial = a + b
        ra, rb = code_of[a], code_of[b]
        for d in code_of:
            c = code_of.get(d - partial)
            if c is None:
                continue
            assert not code_jacobiator(table, ra, rb, c), (ra, rb, c)
            checked += 1
        if partial and -partial in code_of:
            c = code_of[-partial]
            assert not any(code_jacobiator(table, ra, rb, c)), (ra, rb, c)
            checked += 1
    return checked


def test_criterion_6_property_suite():
    # Jacobi identity, exhaustively for rank <= 6 plus E6
    total = 0
    for family, rank in [
        ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
        ("D", 4), ("D", 5), ("D", 6), ("E6", 6),
    ]:
        system = build_root_system(family, rank)
        table = build_structure_table(system)
        total += _jacobi_exhaustive(system, table)
        # root-string property for every bracketed pair
        allroots = list(system.positive_roots) + [
            -r for r in system.positive_roots
        ]
        by_code = system.by_code
        for a in allroots:
            for b in allroots:
                if system.try_root(vec_add(by_code[a], by_code[b])) is not None:
                    n = table.n_code(a, b)
                    assert abs(n) == string_down(system, a, b) + 1

    # Heisenberg involution squared is the identity
    for family, n, s in [("B", 8, 4), ("D", 9, 6), ("D", 10, 10), ("E7", 7, 3)]:
        os = orbit_structure(build_case(family, n, s))
        assert all(os.theta[os.theta[a]] == a for a in os.O)

    # skew pairing matrix: even dimension and a certified single monomial
    for family, n, s in [("B", 6, 4), ("D", 8, 8), ("E7", 7, 3)]:
        cand = build_case(family, n, s)
        table = build_structure_table(cand.system)
        os = orbit_structure(cand)
        check = check_nondegeneracy(cand, table, os)
        assert check.size % 2 == 0 and check.monomial_ok and check.ok

    # permutation rigidity by exhaustive enumeration on B_4 s=2, B_6 s=4
    for n, s in [(4, 2), (6, 4)]:
        cand = build_case("B", n, s)
        os = orbit_structure(cand)
        rep = classify_roots(os)
        pairings = enumerate_pairings(os)
        assert pairings
        stationary = [
            a for a, label in rep.labels.items() if label == STATIONARY
        ]
        assert stationary
        for alpha in stationary:
            closure = (
                walk_sequence(os, alpha).nodes
                | walk_sequence(os, os.theta[alpha]).nodes
            )
            for theta in pairings:
                assert all(theta[z] == os.theta[z] for z in closure)

    assert total == 183672
    _report("6 (property suite)", True, f"{total} Jacobi triples checked")


def test_criterion_7_negative_and_determinism(tmp_path):
    # corrupting any one element of S in B_6 s=4 trips at least one check
    cand = build_case("B", 6, 4)
    wrong = [t for t in cand.T][0]
    for gamma in cand.S:
        sets = dict(cand.gamma_sets)
        members = sets.pop(gamma)
        sets[wrong] = members
        in_plus = gamma in cand.S_plus
        in_minus = gamma in cand.S_minus
        bad = replace(
            cand,
            gamma_sets=sets,
            S_plus=tuple(wrong if g == gamma else g for g in cand.S_plus)
            if in_plus
            else cand.S_plus,
            S_minus=tuple(wrong if g == gamma else g for g in cand.S_minus)
            if in_minus
            else cand.S_minus,
            S_mixed=tuple(wrong if g == gamma else g for g in cand.S_mixed)
            if not (in_plus or in_minus)
            else cand.S_mixed,
        )
        failed = (
            not check_heisenberg(bad).ok
            or not check_basis_restriction(bad).ok
        )
        assert failed, f"corrupting {cand.system.by_code[gamma]} went undetected"

    # dropping one Heisenberg set breaks the partition identity
    sets = dict(cand.gamma_sets)
    sets.pop(list(sets)[0])
    bad = replace(cand, gamma_sets=sets)
    rep = check_heisenberg(bad)
    assert not rep.ok and any("partition" in p for p in rep.problems)

    # two sweeps produce byte-identical certificates
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--max-rank", "8", "--out", str(dir_a)]) == 0
    assert main(["sweep", "--max-rank", "8", "--out", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert not mismatch and not errors and len(match) == len(names)

    _report(
        "7 (negative tests and determinism)",
        True,
        f"{len(cand.S)} corruptions detected; {len(names)} certificates byte-identical",
    )
