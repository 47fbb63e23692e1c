import itertools
import random
from fractions import Fraction

import pytest

from adapted_pairs.chevalley import build_structure_table
from adapted_pairs.construction import build_case
from adapted_pairs.roots import build_root_system
from engine_oracle import (
    GElem,
    ad_on_dual,
    bracket,
    bracket_roots,
    cartan_eps,
    code_jacobiator,
    code_term,
    coroot_eps,
    jacobiator,
    n_const,
    pairing,
    root_from_eps,
    string_down,
    structure_table_oracle,
    vec_add,
)

F = Fraction


def _all_roots(sys):
    return list(sys.positive_roots) + [-r for r in sys.positive_roots]


def test_string_constant_b2():
    sys = build_root_system("B", 2)
    t = build_structure_table(sys)
    a2 = sys.simple_roots[1]
    a1a2 = sys.root_from_coeffs((1, 1))
    assert abs(n_const(t, a2, a1a2)) == 2  # p = 1 since a1 is a root


def test_zero_when_sum_not_root():
    sys = build_root_system("B", 3)
    t = build_structure_table(sys)
    by_code = sys.by_code
    for a in sys.positive_roots:
        for b in sys.positive_roots:
            if sys.try_root(vec_add(by_code[a], by_code[b])) is None:
                assert n_const(t, a, b) == 0


def test_antisymmetry_and_negation():
    sys = build_root_system("D", 4)
    t = build_structure_table(sys)
    roots = _all_roots(sys)
    by_code = sys.by_code
    for a in roots:
        for b in roots:
            if sys.try_root(vec_add(by_code[a], by_code[b])) is not None:
                assert n_const(t, a, b) == -n_const(t, b, a)
                assert n_const(t, -a, -b) == -n_const(t, a, b)


def test_root_string_property_all_pairs():
    # |N(a, b)| is the probe's p + 1 on every pair whose sum is a root, where
    # the table reads it from whether a and b are both short roots of B
    systems = [("B", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
    for fam, rk in systems + [("E6", 6), ("E7", 7)]:
        sys = build_root_system(fam, rk)
        t = build_structure_table(sys)
        roots = _all_roots(sys)
        by_code = sys.by_code
        for a in roots:
            for b in roots:
                if sys.try_root(vec_add(by_code[a], by_code[b])) is not None:
                    assert abs(n_const(t, a, b)) == string_down(sys, a, b) + 1


ORACLE_SYSTEMS = (
    [("B", n) for n in range(2, 11)] + [("D", n) for n in range(4, 11)]
    + [("E6", 6), ("E7", 7)]
)


@pytest.mark.parametrize("fam,rk", ORACLE_SYSTEMS)
def test_model_is_the_oracle_up_to_signs(fam, rk):
    # c = 1 on the simple roots; going up by height, c(g) is fixed by the
    # pair (a, g - a), a the first simple root with g - a positive; then
    # N(x, y) = c(x) c(y) c(x+y) N_oracle(x, y) on every ordered pair of
    # roots whose sum is a root, c(-g) = c(g)
    sys = build_root_system(fam, rk)
    t, oracle = build_structure_table(sys), structure_table_oracle(sys)
    by_code = sys.by_code
    c = {a: 1 for a in sys.simple_roots}
    for g in sorted(sys.positive_roots, key=lambda r: sum(by_code[r])):
        if g not in c:
            a = next(a for a in sys.simple_roots if g - a in by_code and g - a > 0)
            c[g] = c[a] * c[g - a] * t.n_code(a, g - a) // oracle.n_code(a, g - a)
    c.update({-g: c[g] for g in sys.positive_roots})
    pairs = 0
    for x in c:
        for y in c:
            if x + y in by_code:
                assert t.n_code(x, y) == c[x] * c[y] * c[x + y] * oracle.n_code(x, y)
                pairs += 1
    assert pairs > 0


def _as_parts(sys, total, value):
    """(root part, Cartan part) of a `code_term` value at weight total, a
    coefficient vector."""
    if not any(total):
        return {}, tuple(value) if any(value) else None
    if value:
        assert sys.try_root(total) is not None
        return {total: value}, None
    return {}, None


@pytest.mark.parametrize("fam,rk", [("B", 2), ("B", 3), ("B", 4), ("D", 4)])
def test_code_jacobiator_matches_the_bracket_oracle(fam, rk):
    # the integer term [x_a, [x_b, x_c]] and jacobiator on codes, read as
    # elements, are the GElem ones; the term is nonzero on many triples,
    # and the jacobiator is zero on all of them
    sys = build_root_system(fam, rk)
    t = build_structure_table(sys)
    roots = _all_roots(sys)
    by_code = sys.by_code
    for a, b, c in itertools.product(roots, repeat=3):
        total = vec_add(vec_add(by_code[a], by_code[b]), by_code[c])
        term = bracket(t, GElem({by_code[a]: F(1)}), bracket_roots(t, b, c))
        value = code_term(t, a, b, c)
        assert (term.root_part, term.h_part) == _as_parts(sys, total, value)
        out = jacobiator(t, a, b, c)
        assert out.is_zero()
        value = code_jacobiator(t, a, b, c)
        assert (out.root_part, out.h_part) == _as_parts(sys, total, value)


def test_jacobi_sampled_e7():
    sys = build_root_system("E7", 7)
    t = build_structure_table(sys)
    roots = _all_roots(sys)
    rng = random.Random(2024)
    for _ in range(10000):
        a, b, c = (rng.choice(roots) for _ in range(3))
        assert jacobiator(t, a, b, c).is_zero()


def test_cartan_bracket_is_coroot():
    sys = build_root_system("B", 3)
    t = build_structure_table(sys)
    a = sys.positive_roots[3]
    out = bracket_roots(t, a, -a)
    assert not out.root_part
    assert out.h_part == sys.coroot(a)
    assert cartan_eps(sys, out.h_part) == coroot_eps(sys, a)


def test_ad_h_is_diagonal():
    cand = build_case("B", 4, 2)
    sys = cand.system
    t = build_structure_table(sys)
    h = GElem(h_part=sys.coroot(sys.simple_roots[0]))
    for g in sys.positive_roots[:6]:
        y = GElem({sys.by_code[g]: F(1)})
        out = ad_on_dual(t, cand.parabolic, h, y)
        val = pairing(sys, g, sys.simple_roots[0])
        if val == 0:
            assert out.is_zero()
        else:
            assert out.root_part == {sys.by_code[g]: val} and out.h_part is None


def test_projection_kills_outside_support():
    cand = build_case("B", 4, 2)
    sys = cand.system
    t = build_structure_table(sys)
    # pick gamma outside pi' so that -gamma is not in the dual support
    gamma = root_from_eps(sys, [1, 0, 0, 0])  # eps_1 contains alpha_2
    lhs = GElem({sys.by_code[-gamma]: F(1)})
    target = root_from_eps(sys, [0, 1, 0, 0])
    rhs = GElem({sys.by_code[-target]: F(1)})
    raw = bracket(t, lhs, rhs)
    assert raw.root_part  # bracket lands on -(eps1+eps2), outside the support
    out = ad_on_dual(t, cand.parabolic, lhs, rhs)
    assert out.is_zero()


def test_e6_ad_example():
    # (ad x_{alpha_1}) y is a nonzero multiple of x_{(1,0,1,1,1,0)}
    cand = build_case("E6", 6, 6)
    sys = cand.system
    t = build_structure_table(sys)
    x = GElem({sys.by_code[sys.simple_roots[0]]: F(1)})
    y = GElem({sys.by_code[g]: F(1) for g in cand.S})
    out = ad_on_dual(t, cand.parabolic, x, y)
    assert out.h_part is None
    assert set(out.root_part) == {(1, 0, 1, 1, 1, 0)}
    assert out.root_part[(1, 0, 1, 1, 1, 0)] != 0
