import math
from fractions import Fraction

import pytest

from adapted_pairs.construction import in_scope_cases
from adapted_pairs.parabolic import (
    ParabolicData,
    minus_w0_on_subset,
    subsystem_roots,
)
from adapted_pairs.roots import build_root_system
from engine_oracle import (
    cartan_eps,
    coroot_eps,
    levi_i_oracle,
    pairing,
    project_h,
    removed_projection_oracle,
)


def reflect(system, alpha, beta):
    """The coefficients of r_alpha(beta) = beta - <beta, alpha^vee> alpha."""
    k = pairing(system, beta, alpha)
    by_code = system.by_code
    return tuple([b - k * a for a, b in zip(by_code[alpha], by_code[beta])])


def brute_force_minus_w0(system, subset):
    """Oracle: enumerate the subsystem Weyl group as permutations of its
    roots and read off -w0 from the unique element sending Delta+ to Delta-.

    Exponential; only for tiny subsystems.
    """
    pos = subsystem_roots(system, subset)
    allroots = pos + [-r for r in pos]
    idx = {system.by_code[r]: i for i, r in enumerate(allroots)}
    gens = []
    for a in (system.simple_roots[i] for i in subset):
        gens.append(tuple(idx[reflect(system, a, r)] for r in allroots))
    identity = tuple(range(len(allroots)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                wg = tuple(w[g[i]] for i in range(len(allroots)))
                if wg not in seen:
                    seen.add(wg)
                    new.append(wg)
        frontier = new
    npos = len(pos)
    w0 = next(
        w
        for w in seen
        if all(w[i] >= npos for i in range(npos))
    )
    out = {}
    for i in subset:
        a = system.simple_roots[i]
        image = allroots[w0[idx[system.by_code[a]]]]
        out[i] = next(j for j in subset if system.simple_roots[j] == -image)
    return out


@pytest.mark.parametrize(
    "family,rank,subset",
    [
        ("B", 3, [0, 1, 2]),
        ("B", 4, [0, 1, 2]),  # A_3 chain
        ("D", 4, [0, 1, 2, 3]),
        ("D", 5, [1, 2, 3, 4]),  # D_4 inside D_5
        ("E6", 6, [0, 2, 3, 4]),  # A_4
    ],
)
def test_minus_w0_against_weyl_enumeration(family, rank, subset):
    sys = build_root_system(family, rank)
    assert minus_w0_on_subset(sys, subset) == brute_force_minus_w0(sys, subset)


def test_j_classical_automorphisms():
    # -w0 is the identity for B_n, D_even, E7; the diagram flip otherwise
    assert minus_w0_on_subset(build_root_system("B", 5), range(5)) == {
        i: i for i in range(5)
    }
    assert minus_w0_on_subset(build_root_system("D", 6), range(6)) == {
        i: i for i in range(6)
    }
    d7 = minus_w0_on_subset(build_root_system("D", 7), range(7))
    assert d7 == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 5}
    e6 = minus_w0_on_subset(build_root_system("E6", 6), range(6))
    assert e6 == {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}
    assert minus_w0_on_subset(build_root_system("E7", 7), range(7)) == {
        i: i for i in range(7)
    }


def test_involution_i_type_b():
    sys = build_root_system("B", 7)
    p = ParabolicData(sys, 4)
    # A_{s-1} component: the chain is reversed, alpha_t -> alpha_{s-t}
    assert p.i_map[0] == 2 and p.i_map[2] == 0 and p.i_map[1] == 1
    # B_{n-s} component: identity
    for i in (4, 5, 6):
        assert p.i_map[i] == i
    # the removed root is fixed since j = id
    assert p.i_map[3] == 3


def test_involutions_are_involutions():
    for family, rank, s in [("B", 6, 4), ("D", 7, 4), ("E6", 6, 6), ("E7", 7, 3)]:
        p = ParabolicData(build_root_system(family, rank), s)
        for a in range(rank):
            assert p.j_map[p.j_map[a]] == a
            assert p.i_map[p.i_map[a]] == a


def test_orbit_examples_from_the_literature():
    p = ParabolicData(build_root_system("E6", 6), 6)
    assert sorted(tuple(sorted(i + 1 for i in o)) for o in p.orbits) == [
        (1, 6),
        (2, 3, 5),
        (4,),
    ]
    assert p.index == 3

    p = ParabolicData(build_root_system("E7", 7), 3)
    assert sorted(tuple(sorted(i + 1 for i in o)) for o in p.orbits) == [
        (1,),
        (2, 7),
        (3,),
        (4, 6),
        (5,),
    ]
    assert p.index == 5


@pytest.mark.parametrize(
    "n,s", [(n, s) for n in range(2, 11) for s in range(2, n + 1, 2)]
)
def test_index_closed_form_type_b(n, s):
    p = ParabolicData(build_root_system("B", n), s)
    assert p.index == n - s // 2 + 1
    # orbit shapes: pairs {alpha_t, alpha_{s-t}}, singletons elsewhere
    expected = {frozenset({t - 1, s - t - 1}) for t in range(1, s // 2)}
    expected.add(frozenset({s // 2 - 1}))
    expected |= {frozenset({u - 1}) for u in range(s, n + 1)}
    assert set(p.orbits) == expected


@pytest.mark.parametrize(
    "n,s", [(n, s) for n in range(4, 11) for s in range(2, n - 1, 2)]
)
def test_index_closed_form_type_d(n, s):
    p = ParabolicData(build_root_system("D", n), s)
    assert p.index == n - s // 2 + 1


def test_orbits_stable_under_ij():
    for family, rank, s in [("B", 8, 4), ("D", 9, 6), ("E6", 6, 6)]:
        p = ParabolicData(build_root_system(family, rank), s)
        sigma = {a: p.i_map[p.j_map[a]] for a in range(rank)}
        for orbit in p.orbits:
            assert {sigma[a] for a in orbit} == set(orbit)


def test_levi_involution_matches_the_per_component_oracle():
    # one descent on a reducible pi' is -w0' on each Dynkin component
    systems = (
        [("B", n) for n in range(2, 25)]
        + [("D", n) for n in range(4, 25)]
        + [("E6", 6), ("E7", 7)]
    )
    parabolics = 0
    for family, rank in systems:
        sys = build_root_system(family, rank)
        for s in range(1, rank + 1):
            p = ParabolicData(sys, s)
            assert p.i_map == levi_i_oracle(p), (family, rank, s)
            parabolics += 1
    assert parabolics == 606
    # E7 without alpha_3 is A_1 x A_5, A_5 the chain 2-4-5-6-7: -w0' fixes
    # alpha_1 and reverses the chain
    p = ParabolicData(build_root_system("E7", 7), 3)
    assert p.i_map == {0: 0, 1: 6, 3: 5, 4: 4, 5: 3, 6: 1, 2: 2}


def test_h_projection_orthogonal():
    sys = build_root_system("B", 4)
    p = ParabolicData(sys, 2)
    v = sys.coroot(sys.simple_roots[1])  # coroot at the removed node
    proj = project_h(p, v)
    assert proj[1] == 0
    # residual is orthogonal to the truncated Cartan, checked in epsilon form
    resid = cartan_eps(sys, [a - b for a, b in zip(v, proj)])
    for i in p.pi_prime:
        row = coroot_eps(sys, sys.simple_roots[i])
        assert sum(x * y for x, y in zip(resid, row)) == 0


PROJECTION_CASES = (
    in_scope_cases(16) + [("D", n, n - 1) for n in range(6, 17, 2)] + [("E6", 6, 1)]
)


def test_removed_projection_matches_the_coroot_gram_solve():
    for family, n, s in PROJECTION_CASES:
        p = ParabolicData(build_root_system(family, n), s)
        den, num = p.removed_projection
        assert den > 0 and math.gcd(den, *num) == 1 and len(num) == p.h_dim
        assert [Fraction(x, den) for x in num] == removed_projection_oracle(p)
