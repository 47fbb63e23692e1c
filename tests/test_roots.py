import gc
import weakref
from fractions import Fraction

import pytest

from adapted_pairs.chevalley import build_structure_table
from adapted_pairs.parabolic import ParabolicData
from adapted_pairs.roots import RootSystem, build_root_system
from adapted_pairs.verify import run_case
from engine_oracle import (
    Weight,
    closure_positive_roots,
    coeffs_key,
    eps_indices_oracle,
    eps_of,
    fundamental_weights,
    levi_weights,
    multiple_of,
    pairing,
    root_from_eps,
    simple_roots_eps,
    vec_add,
    vec_sub,
)
from linalg_oracle import solve_in_span

F = Fraction


def expected_positive_count(family, rank):
    """|Delta+| in closed form."""
    return {"B": rank * rank, "D": rank * (rank - 1), "E6": 36, "E7": 63}[family]


def reflect(system, alpha, beta):
    """The coefficients of r_alpha(beta) = beta - <beta, alpha^vee> alpha."""
    k = pairing(system, beta, alpha)
    by_code = system.by_code
    return tuple([b - k * a for a, b in zip(by_code[alpha], by_code[beta])])


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def _eps_pairing(sys, x, alpha):
    """<x, alpha^vee> computed in epsilon coordinates."""
    a = eps_of(sys, alpha)
    return 2 * _dot(eps_of(sys, x), a) / _dot(a, a)

ALL_SYSTEMS = [("B", 2), ("B", 5), ("D", 4), ("D", 7), ("E6", 6), ("E7", 7)]


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_root_counts(family, rank):
    sys = build_root_system(family, rank)
    assert len(sys.positive_roots) == expected_positive_count(family, rank)


def test_frozen_counts():
    # closure generation cross-checked against (dim g - rank)/2
    assert len(build_root_system("E6", 6).positive_roots) == 36  # (78-6)/2
    assert len(build_root_system("D", 4).positive_roots) == 12


def test_b2_positive_roots_exact():
    sys = build_root_system("B", 2)
    eps = {eps_of(sys, r) for r in sys.positive_roots}
    assert eps == {
        (F(1), F(-1)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_simple_coeffs_consistent_and_nonnegative(family, rank):
    sys = build_root_system(family, rank)
    # the system's integer epsilon rows, over their denominator, are the
    # oracle's coordinates in fractions
    simples = simple_roots_eps(family, rank)
    for r in sys.positive_roots:
        assert all(c >= 0 for c in sys.by_code[r])
        recon = [F(0)] * sys.dim
        for c, a in zip(sys.by_code[r], simples):
            for d in range(sys.dim):
                recon[d] += c * a[d]
        den, row = sys.eps_scaled(r)
        assert all(type(x) is int for x in row)
        assert tuple(F(x, den) for x in row) == tuple(recon)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_closed_under_reflection(family, rank):
    sys = build_root_system(family, rank)
    allroots = list(sys.positive_roots) + [-r for r in sys.positive_roots]
    for a in allroots:
        for b in allroots:
            assert sys.try_root(reflect(sys, a, b)) is not None


def test_inner_product_examples():
    sys = build_root_system("B", 4)
    e1e2 = root_from_eps(sys, [1, 1, 0, 0])
    e1me2 = root_from_eps(sys, [1, -1, 0, 0])
    assert sys.inner(e1e2, e1me2) == 0
    assert sys.inner(e1e2, e1e2) == 2
    short = root_from_eps(sys, [0, 0, 1, 0])
    assert sys.inner(short, short) == 1
    # a root is a code of its system: a code of B5 that no root of B4 has
    # is refused
    with pytest.raises(KeyError):
        sys.inner(e1e2, build_root_system("B", 5).highest_root())


def test_rho_height():
    # rho-height is the sum of the simple-root coefficients
    sys = build_root_system("B", 2)
    a1 = sys.simple_roots[0]
    assert sum(sys.by_code[a1]) == 1
    high = sys.highest_root()  # e1+e2 = a1 + 2 a2
    assert sys.by_code[high] == (1, 2)
    assert sum(sys.by_code[high]) == 3
    assert sum(sys.by_code[-high]) == -3


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_highest_root_has_the_largest_height_and_code(family, rank):
    sys = build_root_system(family, rank)
    by_code = sys.by_code
    high = sys.highest_root()
    assert high == max(sys.positive_roots)
    assert high == max(sys.positive_roots, key=lambda r: sum(by_code[r]))
    # it exceeds every positive root coefficientwise
    for r in sys.positive_roots:
        assert all(h >= c for h, c in zip(by_code[high], by_code[r]))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_each_root_is_one_object_hashed_by_its_code(family, rank):
    # a root is its int code: by_code and try_root are inverse maps, the
    # negative of a root is the negated code, and every query of the
    # system answers in codes
    sys = build_root_system(family, rank)
    assert len(sys.by_code) == 2 * len(sys.positive_roots)
    for c, coeffs in sys.by_code.items():
        assert type(c) is int and type(coeffs) is tuple
        assert sys.try_root(coeffs) == c
        assert sys.try_root(list(coeffs)) == c
        assert sys.root_from_coeffs(list(coeffs)) == c
        assert sys.by_code[-c] == tuple([-x for x in coeffs])
    assert sys.try_root((0,) * rank) is None
    assert 0 not in sys.by_code
    queries = list(sys.positive_roots) + list(sys.simple_roots)
    den, row = sys.eps_scaled(sys.simple_roots[-1])
    queries += [sys.highest_root(), root_from_eps(sys, [F(x, den) for x in row])]
    assert all(type(r) is int for r in queries)
    assert sys.positive_roots == sorted(sys.positive_roots)
    assert all(r > 0 for r in sys.positive_roots)
    for i, a in enumerate(sys.simple_roots):
        assert sys.by_code[a] == tuple([int(j == i) for j in range(rank)])


def test_a_vector_that_shares_a_root_code_is_no_root():
    # in B8 (base 7) the vector 7 alpha_8 has code 7, the code of alpha_7:
    # a code is taken only when by_code maps it back to the same vector
    sys = build_root_system("B", 8)
    alpha_7, fake = (0,) * 6 + (1, 0), (0,) * 7 + (7,)
    assert sys.base == 7 and sys.code(fake) == sys.code(alpha_7) == 7
    assert sys.root_from_coeffs(alpha_7) == sys.try_root(alpha_7) == 7
    assert sys.try_root(fake) is None
    with pytest.raises(KeyError):
        sys.root_from_coeffs(fake)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_fundamental_weights_duality(family, rank):
    # the package's integer rows and the oracle's solves
    sys = build_root_system(family, rank)
    den, rows = sys.weight_rows()
    ws = [Weight(tuple(F(x, den) for x in rows[i])) for i in range(rank)]
    assert ws == fundamental_weights(sys)
    for i, w in enumerate(ws):
        for j, a in enumerate(sys.simple_roots):
            assert _eps_pairing(sys, w, a) == (1 if i == j else 0)


def test_levi_weights_e6():
    sys = build_root_system("E6", 6)
    levi = levi_weights(sys, range(5))  # pi' = pi minus alpha_6
    w1p = levi[0]
    expect = tuple(F(x, 2) for x in (0, 0, 0, 0, -1, -1, -1, 1))
    # (1/2)(e8-e7-e5-e6)
    assert eps_of(sys, w1p) == expect
    w1 = fundamental_weights(sys)[0]
    w6 = fundamental_weights(sys)[5]
    assert (w1p - w1) == w6.scale(F(-1, 2))


def test_levi_weights_e7():
    sys = build_root_system("E7", 7)
    levi = levi_weights(sys, [i for i in range(7) if i != 2])  # remove alpha_3
    w5p = levi[4]
    w5 = fundamental_weights(sys)[4]
    w3 = fundamental_weights(sys)[2]
    assert (w5p - w5) == -w3


def test_levi_weight_defining_property():
    sys = build_root_system("D", 6)
    subset = [0, 1, 2, 3, 4]  # remove alpha_6: A_5 Levi
    levi = levi_weights(sys, subset)
    for i in subset:
        for j in subset:
            assert _eps_pairing(sys, levi[i], sys.simple_roots[j]) == (
                1 if i == j else 0
            )
        # inside the span of the subset
        span = [eps_of(sys, sys.simple_roots[k]) for k in subset]
        assert solve_in_span(span, eps_of(sys, levi[i])) is not None


def test_multiple_of():
    w = Weight((F(2), F(4)))
    base = Weight((F(1), F(2)))
    assert multiple_of(w, base) == 2
    assert multiple_of(Weight((F(2), F(5))), base) is None
    assert multiple_of(Weight((F(0), F(0))), base) == 0


def test_unsupported_families():
    with pytest.raises(ValueError):
        build_root_system("A", 3)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("D", 3)
    with pytest.raises(ValueError):
        build_root_system("E6", 7)


ORACLE_SYSTEMS = (
    [("B", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E6", 6), ("E7", 7)]
)


def _eps_roots(simples):
    """Every root, as the closure of the simple roots under the simple
    reflections, computed in epsilon coordinates alone."""
    found = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for a in simples:
                k = 2 * _dot(v, a) / _dot(a, a)
                w = tuple(x - k * y for x, y in zip(v, a))
                if w not in found:
                    found.add(w)
                    new.append(w)
        frontier = new
    return found


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_integer_form_matches_epsilon_oracle(family, rank):
    sys = build_root_system(family, rank)
    simples = simple_roots_eps(family, rank)
    allroots = list(sys.positive_roots) + [-r for r in sys.positive_roots]
    for r in allroots:
        er = eps_of(sys, r)
        for a, ea in zip(sys.simple_roots, simples):
            assert sys.inner(r, a) == sys.inner(a, r) == _dot(er, ea)
            assert pairing(sys, r, a) == 2 * _dot(er, ea) / _dot(ea, ea)
        assert root_from_eps(sys, er) == r
    # the positive roots are the epsilon-generated roots with nonnegative
    # coordinates over the simple roots
    generated = _eps_roots(simples)
    positive = {
        v for v in generated if all(c >= 0 for c in solve_in_span(simples, v))
    }
    assert len(generated) == 2 * len(positive)
    assert {eps_of(sys, r) for r in sys.positive_roots} == positive


CODE_SYSTEMS = (
    [("B", n) for n in range(2, 15)]
    + [("D", n) for n in range(4, 15)]
    + [("E6", 6), ("E7", 7)]
)


@pytest.mark.parametrize(
    "family,rank", CODE_SYSTEMS + [("B", 15), ("B", 16), ("D", 15), ("D", 16)]
)
def test_codes_add_subtract_and_sign_like_roots(family, rank):
    sys = build_root_system(family, rank)
    by_code = sys.by_code
    assert sys.base == 3 * max(max(by_code[r]) for r in sys.positive_roots) + 1
    allroots = list(sys.positive_roots) + [-r for r in sys.positive_roots]
    assert len(by_code) == len(allroots)
    for r in allroots:
        assert r == sys.code(by_code[r])
        assert (r > 0) == all(c >= 0 for c in by_code[r])
    # codes sort like coefficient vectors
    assert sorted(allroots) == sorted(allroots, key=coeffs_key(sys))

    def root_or_none(code):
        return code if code in by_code else None

    for a in allroots:
        for b in allroots:
            assert root_or_none(a + b) == sys.try_root(vec_add(by_code[a], by_code[b]))
            assert root_or_none(a - b) == sys.try_root(vec_sub(by_code[a], by_code[b]))


def _gram_pairings(system, coeffs_list):
    """Each coefficient vector mapped to its pairings with the simple
    coroots by the Gram formula."""
    gram = system.gram
    sparse = [([i for i, g in enumerate(row) if g], row) for row in gram]
    return {
        c: tuple(
            2 * sum([c[i] * row[i] for i in nz]) // row[k]
            for k, (nz, row) in enumerate(sparse)
        )
        for c in coeffs_list
    }


def _generated_or_closure(system):
    """The roots and pairings E6 and E7 are generated with.  B and D are
    written down, and B is not simply laced: the closure oracle's roots with
    Gram pairings."""
    if system.family in ("E6", "E7"):
        return system._generate_positive()
    return _gram_pairings(system, closure_positive_roots(system))


@pytest.mark.parametrize("family,rank", CODE_SYSTEMS)
def test_generation_matches_the_closure_oracle(family, rank):
    sys = RootSystem(family, rank)
    expected = closure_positive_roots(sys)
    assert [sys.by_code[r] for r in sys.positive_roots] == expected
    assert sys.positive_roots == [sys.code(c) for c in expected]
    # the simple roots are positive roots, with their codes
    assert set(sys.simple_roots) <= set(sys.positive_roots)
    # the pairings of every root of either sign are those of the
    # generation, which adds rows of the Cartan matrix (E6 and E7), and
    # those of the Gram formula
    closure = _generated_or_closure(sys)
    assert len(sys.by_code) == 2 * len(closure)
    gram = sys.gram
    for coeffs, pairs in closure.items():
        r = sys.code(coeffs)
        assert sys.simple_pairings(r) == pairs
        assert sys.simple_pairings(-r) == tuple(-p for p in pairs)
    for r in sys.by_code:
        by_gram = tuple(
            2 * sum(c * g for c, g in zip(sys.by_code[r], gram[k])) // gram[k][k]
            for k in range(rank)
        )
        assert sys.simple_pairings(r) == by_gram


@pytest.mark.parametrize(
    "family,rank", [("B", n) for n in range(2, 41)] + [("D", n) for n in range(4, 41)]
)
def test_closed_form_roots_are_the_closure(family, rank):
    # B and D are written down from their epsilon terms; the closure under
    # root strings gives the same roots and codes, and the Gram formula the
    # same pairings of both signs
    sys = RootSystem(family, rank)
    closure = _gram_pairings(sys, closure_positive_roots(sys))
    assert sys.positive_roots == sorted(sys.code(c) for c in closure)
    assert len(sys.by_code) == 2 * len(closure)
    for coeffs, pairs in closure.items():
        r = sys.code(coeffs)
        assert sys.by_code[r] == coeffs
        assert sys.by_code[-r] == tuple(-c for c in coeffs)
        assert sys.simple_pairings(r) == pairs
        assert sys.simple_pairings(-r) == tuple(-p for p in pairs)


@pytest.mark.parametrize(
    "family,rank", [("E6", 6), ("E7", 7), ("D", 4), ("D", 9), ("D", 16)]
)
def test_the_simply_laced_rule_generates_the_closure(family, rank):
    # beta + alpha_j is a root exactly when <beta, alpha_j^vee> = -1: the
    # roots of the closure under root strings, with the pairings of the
    # Gram formula, in every simply-laced type (D too, which is written down)
    sys = RootSystem(family, rank)
    expected = closure_positive_roots(sys)
    generated = sys._generate_positive()
    assert sorted(generated) == expected
    assert generated == _gram_pairings(sys, expected)


@pytest.mark.parametrize("family,rank", [("B", 5), ("D", 5), ("E6", 6), ("E7", 7)])
def test_pairing_queries_refuse_a_code_that_is_no_root(family, rank):
    # 0, twice a root and a root plus a simple root above it are no roots
    sys = build_root_system(family, rank)
    top = sys.highest_root()
    for bad in (0, 2 * top, -2 * top, top + sys.simple_roots[-1]):
        assert bad not in sys.by_code
        with pytest.raises(KeyError):
            sys.simple_pairings(bad)
        with pytest.raises(KeyError):
            sys.inner(top, bad)
        with pytest.raises(KeyError):
            sys.inner(bad, top)
        with pytest.raises(KeyError):
            sys.coroot(bad)


@pytest.mark.parametrize(
    "family,rank",
    [("B", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
    + [("E6", 6), ("E7", 7)],
)
def test_eps_indices_and_splittings(family, rank):
    # eps_indices names the epsilon terms of every root of B and D, the
    # first index of a positive root first; splittings lists each way of
    # writing a root as a sum of two roots once, as a test of every root
    # finds them
    sys = build_root_system(family, rank)
    for r in sys.by_code:
        expected = {frozenset((a, r - a)) for a in sys.by_code if r - a in sys.by_code}
        found = [frozenset((a, r - a)) for a in sys.splittings(r)]
        assert len(found) == len(expected) and set(found) == expected
        if family not in ("B", "D"):
            continue
        u, v = sys.eps_indices(r)
        row = [0] * rank
        for i in (u, v):
            if i:
                row[abs(i) - 1] += 1 if i > 0 else -1
        assert sys.eps_scaled(r) == (1, row)
        assert (u > 0) == (r > 0) and (v == 0 or abs(u) < abs(v))


@pytest.mark.parametrize(
    "family,rank", [("B", n) for n in range(2, 41)] + [("D", n) for n in range(4, 41)]
)
def test_eps_indices_are_those_of_the_coefficients(family, rank):
    # the (u, v) written down with each root of B and D, of either sign, is
    # the one its coefficients spell out
    sys = build_root_system(family, rank)
    for r in sys.by_code:
        assert sys.eps_indices(r) == eps_indices_oracle(sys, r)


@pytest.mark.parametrize("family,rank", [("E6", 6), ("E7", 7)])
def test_eps_indices_has_no_pair_for_e6_and_e7(family, rank):
    sys = build_root_system(family, rank)
    for r in sys.by_code:
        with pytest.raises(KeyError):
            sys.eps_indices(r)


@pytest.mark.parametrize("family,rank", CODE_SYSTEMS)
def test_root_from_eps_takes_fraction_and_integer_coordinates(family, rank):
    sys = build_root_system(family, rank)
    for r in sys.by_code:
        eps = eps_of(sys, r)
        assert root_from_eps(sys, eps) == r
        assert root_from_eps(sys, list(eps)) == r
        # integer entries as ints, the half-integers of E6/E7 as Fractions
        mixed = [int(x) if x.denominator == 1 else x for x in eps]
        assert root_from_eps(sys, mixed) == r
    half = [F(1, 2)] + [F(0)] * (sys.dim - 1)
    scaled = [x * sys._eps_den for x in eps_of(sys, sys.simple_roots[0])]
    for not_a_root in (half, [0] * sys.dim, [2] + [0] * (sys.dim - 1)):
        with pytest.raises(KeyError):
            root_from_eps(sys, not_a_root)
    if sys._eps_den > 1:
        # the table's integer rows are not themselves accepted as epsilon
        # coordinates
        with pytest.raises(KeyError):
            root_from_eps(sys, scaled)


def test_per_system_tables_are_shared_within_a_system_only():
    # the structure table and -w0 of the diagram are kept in the system's
    # `derived` store: every parabolic of a system shares them, another
    # system has its own, and a fresh system builds them afresh
    def tables(sys, s):
        return build_structure_table(sys), ParabolicData(sys, s).j_map

    sys = build_root_system("D", 6)
    shared = tables(sys, 2)
    assert all(a is b for a, b in zip(tables(sys, 4), shared))
    assert shared[0].system is sys
    other = tables(build_root_system("D", 7), 2)
    assert not any(a is b for a, b in zip(other, shared))
    fresh = tables(RootSystem("D", 6), 2)
    assert not any(a is b for a, b in zip(fresh, shared))
    assert fresh[1:] == shared[1:]


def test_a_system_and_its_tables_go_when_the_memo_drops_it():
    # once `build_root_system` forgets a system that ran a case, nothing
    # holds it: no module keeps a table of it
    build_root_system.cache_clear()
    sys = build_root_system("B", 6)
    ref = weakref.ref(sys)
    assert run_case("B", 6, 4).verdict
    del sys
    build_root_system.cache_clear()
    gc.collect()
    assert ref() is None
