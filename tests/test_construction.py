import re
from fractions import Fraction

import pytest

from adapted_pairs.construction import (
    OutOfScopeError,
    _heis,
    _simple_root_map,
    build_case,
    case_plan,
    e7_d6_embedding,
    in_scope_cases,
)
from adapted_pairs.cascade import cascade
from adapted_pairs.parabolic import subsystem_roots
from adapted_pairs.roots import build_root_system
from engine_oracle import (
    cascade_sets,
    eps_of,
    extremal_cascade_sets,
    orbit_structure,
    root_from_eps,
    vec_add,
)

F = Fraction

ALL_CASES = in_scope_cases(10)


def _ev(system, terms):
    """The code of the root with these epsilon terms, as the case data
    holds it."""
    v = [F(0)] * system.dim
    for c, i in terms:
        v[i - 1] += F(c)
    return root_from_eps(system, v)


@pytest.mark.parametrize(
    "family,rank", [("B", n) for n in range(2, 25)] + [("D", n) for n in range(4, 25)]
)
def test_epsilon_terms_find_every_root_by_the_closed_form(family, rank):
    # eps_root against the table of every root's epsilon row, on both signs
    sys = build_root_system(family, rank)
    for r in sys.by_code:
        _, row = sys.eps_scaled(r)
        terms = [(x, i) for i, x in enumerate(row, start=1) if x]
        assert sys.eps_root(terms) == root_from_eps(sys, row) == r


@pytest.mark.parametrize(
    "family,terms",
    [
        ("B", [(1, 1), (1, 2), (1, 3)]),
        ("D", [(1, 1)]),
        ("D", [(2, 1)]),
        ("B", []),
        ("B", [(1, 1), (-1, 1)]),
        ("B", [(1, 1), (1, 1)]),
        ("D", [(1, 1), (1, 2), (1, 3)]),
        ("B", [(2, 1)]),
        ("B", [(1, 5)]),
    ],
    ids=["B-e1+e2+e3", "D-e1", "D-2e1", "B-none", "B-e1-e1", "B-e1+e1",
         "D-e1+e2+e3", "B-2e1", "B-e5"],
)
def test_epsilon_terms_of_no_root_are_refused(family, terms):
    # D eps_1 has an odd coordinate sum, off the lattice: halved down, its
    # coefficients would be those of eps_1 - eps_3; terms that cancel, or
    # that name one index twice, are refused as they stand, and so are a
    # coefficient other than +-1 and an index past the rank
    sys = build_root_system(family, 4)
    with pytest.raises(ValueError, match=re.escape(f"epsilon terms {terms} ")):
        sys.eps_root(terms)


@pytest.mark.parametrize("family,n,s", ALL_CASES)
def test_s_size_is_truncated_cartan_dimension(family, n, s):
    cand = build_case(family, n, s)
    assert len(cand.S) == n - 1 == cand.parabolic.h_dim


@pytest.mark.parametrize("family,n,s", ALL_CASES)
def test_partition_and_t_matches_closed_form(family, n, s):
    cand = build_case(family, n, s)
    support = set(cand.system.positive_roots) | {
        -r for r in subsystem_roots(cand.system, cand.parabolic.pi_prime)
    }
    assert cand.parabolic.dual_support == tuple(sorted(support))
    union = set()
    for members in cand.gamma_sets.values():
        assert not (union & members)
        union |= members
    assert union | set(cand.T) | set(cand.T_star) == support
    assert cand.T == cand.T_expected
    assert len(cand.T) == cand.parabolic.index


def test_b_case_s_sets():
    cand = build_case("B", 8, 6)
    sys = cand.system
    assert set(cand.S_mixed) == {_ev(sys, [(1, 6)])}
    assert _ev(sys, [(1, 5), (-1, 1)]) in cand.S_minus  # eps_{s-i} - eps_i
    assert _ev(sys, [(-1, 7), (-1, 8)]) in cand.S_minus
    assert _ev(sys, [(1, 5), (1, 7)]) in cand.S_plus


def test_b_gamma_eps_s_pairing():
    cand = build_case("B", 6, 4)
    sys = cand.system
    os = orbit_structure(cand)
    for i in (1, 2, 3, 5, 6):
        assert os.theta[_ev(sys, [(1, i)])] == _ev(sys, [(1, 4), (-1, i)])


def test_d_case_s_mixed():
    cand = build_case("D", 8, 4)
    sys = cand.system
    assert set(cand.S_mixed) == {
        _ev(sys, [(1, 4), (-1, 8)]),
        _ev(sys, [(1, 4), (1, 8)]),
    }


def test_d4_s2_degenerate_mixed_set_is_positive():
    # boundary case: the declared mixed set at eps_2+eps_4 is sign-uniform
    cand = build_case("D", 4, 2)
    sys = cand.system
    centre = _ev(sys, [(1, 2), (1, 4)])
    assert centre in cand.S_mixed
    assert all(sum(sys.by_code[r]) > 0 for r in cand.gamma_sets[centre])


def test_d_extremal_split():
    cand = build_case("D", 8, 8)
    sys = cand.system
    assert cand.S_plus == (_ev(sys, [(1, 1), (1, 2)]),)
    assert cand.S_minus == ()
    assert len(cand.S_mixed) == 6
    cand6 = build_case("D", 6, 6)
    assert cand6.S_plus == (_ev(cand6.system, [(1, 1), (1, 2)]),)
    assert cand6.S_minus == (_ev(cand6.system, [(1, 6), (-1, 3)]),)


def test_e6_verbatim_sets():
    cand = build_case("E6", 6, 6)
    root = cand.system.by_code
    assert sorted(root[r] for r in cand.S) == sorted(
        [
            (1, 2, 2, 3, 2, 1),
            (1, 0, 1, 1, 1, 1),
            (0, 0, 1, 1, 1, 0),
            (-1, -1, -2, -2, -1, 0),
            (0, 0, 0, -1, -1, 0),
        ]
    )
    assert sorted(root[r] for r in cand.T) == sorted(
        [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0)]
    )
    assert sorted(root[r] for r in cand.T_star) == sorted(
        [
            (1, 1, 1, 2, 2, 1),
            (1, 0, 1, 1, 1, 0),
            (-1, 0, 0, 0, 0, 0),
            (0, -1, 0, 0, 0, 0),
            (0, -1, 0, -1, 0, 0),
            (0, -1, 0, -1, -1, 0),
        ]
    )
    assert len(cand.S_mixed) == 0 and len(cand.S_plus) == 3


def test_e7_verbatim_sets():
    cand = build_case("E7", 7, 3)
    root = cand.system.by_code
    assert sorted(root[r] for r in cand.S) == sorted(
        [
            (2, 2, 3, 4, 3, 2, 1),
            (0, 1, 1, 2, 2, 2, 1),
            (0, 1, 1, 1, 1, 0, 0),
            (0, -1, 0, -1, -1, 0, 0),
            (0, 0, 0, 0, -1, -1, 0),
            (0, 0, 0, 0, 0, 0, -1),
        ]
    )
    assert sorted(root[r] for r in cand.T) == sorted(
        [
            (-1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1, 0, 0),
            (0, 0, 1, 1, 0, 0, 0),
            (0, -1, 0, -1, -1, -1, -1),
            (0, 0, 0, 0, 0, -1, 0),
        ]
    )
    # the highest-root Heisenberg set is maximal in Delta+
    b1 = cand.system.highest_root()
    assert cand.gamma_sets[b1] == frozenset(
        r for r in cand.system.positive_roots if cand.system.inner(r, b1) > 0
    )


@pytest.mark.parametrize(
    "family,n", [("B", n) for n in range(4, 41)] + [("D", n) for n in range(4, 41)]
)
def test_cascade_sets_in_closed_form_are_the_cascades(family, n):
    # the set at beta_i = eps_{2i-1} + eps_{2i}, i < s/2, is H_beta less
    # eps_{2i-1} and eps_{2i} in B, and less eps_{2i-1} - eps_n and
    # eps_{2i} + eps_n in D; the largest even s in scope has every such i
    s = n - n % 2 if family == "B" else n - 2 - n % 2
    cand = build_case(family, n, s)
    sys = cand.system
    heis = cascade_sets(sys)
    for i in range(1, s // 2):
        beta = _ev(sys, [(1, 2 * i - 1), (1, 2 * i)])
        if family == "B":
            removed = {_ev(sys, [(1, 2 * i - 1)]), _ev(sys, [(1, 2 * i)])}
        else:
            removed = {
                _ev(sys, [(1, 2 * i - 1), (-1, n)]),
                _ev(sys, [(1, 2 * i), (1, n)]),
            }
        assert cand.gamma_sets[beta] == heis[beta] - removed


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_extremal_d_cascade_sets_in_closed_form_are_the_induction(n):
    cand = build_case("D", n, n)
    for beta, members in extremal_cascade_sets(n).items():
        assert cand.gamma_sets[beta] == members


def test_e_cascade_sets_as_inner_product_filters_are_the_cascades():
    # E6 at beta_1, beta_2, beta_3, less the roots its builder names, and
    # E7 at its highest root
    cand = build_case("E6", 6, 6)
    rc = cand.system.root_from_coeffs
    heis = cascade_sets(cand.system)
    removed = {
        (1, 2, 2, 3, 2, 1): [(0, 1, 1, 1, 0, 0), (1, 1, 1, 2, 2, 1)],
        (1, 0, 1, 1, 1, 1): [(1, 0, 1, 1, 1, 0), (0, 0, 0, 0, 0, 1)],
        (0, 0, 1, 1, 1, 0): [],
    }
    for beta, names in removed.items():
        beta = rc(beta)
        assert cand.gamma_sets[beta] == heis[beta] - {rc(r) for r in names}
    e7 = build_case("E7", 7, 3)
    b1 = e7.system.highest_root()
    assert e7.gamma_sets[b1] == cascade_sets(e7.system)[b1]


def test_e7_embedding_is_root_isomorphism():
    e7 = build_root_system("E7", 7)
    d6 = build_root_system("D", 6)
    phi = e7_d6_embedding()  # on codes
    assert set(phi) == set(d6.by_code)
    b1 = e7.highest_root()
    for a in d6.positive_roots:
        assert phi[-a] == -phi[a] and phi[a] in e7.by_code
        assert e7.inner(phi[a], b1) == 0
        for b in d6.positive_roots:
            assert d6.inner(a, b) == e7.inner(phi[a], phi[b])
            s = d6.try_root(vec_add(d6.by_code[a], d6.by_code[b]))
            if s is not None:
                assert phi[s] == e7.try_root(
                    vec_add(e7.by_code[phi[a]], e7.by_code[phi[b]])
                )


def test_flip_d_extremal():
    flipped = build_case("D", 6, 5)
    assert flipped.s == 5
    base = build_case("D", 6, 6)
    assert len(flipped.S) == len(base.S)
    assert len(flipped.T) == len(base.T) == flipped.parabolic.index
    # T transports along eps_6 -> -eps_6
    sys = base.system

    eps = lambda t: eps_of(sys, t)

    def flipv(t):
        return tuple(list(eps(t)[:-1]) + [-eps(t)[-1]])
    assert {flipv(t) for t in base.T} == {eps(t) for t in flipped.T}


def test_flip_e6():
    flipped = build_case("E6", 6, 1)
    perm = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    base = build_case("E6", 6, 6)
    root = base.system.by_code
    # moving coefficients: new[perm(i)] = old[i]
    expect = set()
    for r in base.S:
        new = [0] * 6
        for i, c in enumerate(root[r], start=1):
            new[perm[i] - 1] = c
        expect.add(tuple(new))
    assert {root[r] for r in flipped.S} == expect


def test_moved_cases_carry_their_closed_forms():
    # a diagram flip keeps the eigenvalues and bounds of its base case, and
    # E7, moved from the extremal D6, states its own
    moved = [(("D", n, n - 1), ("D", n, n)) for n in range(6, 17, 2)]
    moved.append((("E6", 6, 1), ("E6", 6, 6)))
    for flipped, base in moved:
        flipped, base = build_case(*flipped), build_case(*base)
        assert flipped.eigenvalues_expected == base.eigenvalues_expected
        assert flipped.bounds_expected == base.bounds_expected
    d6, e7 = build_case("D", 6, 6), build_case("E7", 7, 3)
    assert d6.eigenvalues_expected == (2, 4, 6, 11)
    assert d6.bounds_expected == (2, 2, 2, 4)
    assert e7.eigenvalues_expected == (2, 5, 7, 9, 17)
    assert e7.bounds_expected == (1, 2, 2, 2, 4)


# The diagram flips that `build_case` moves case data along, as maps of
# 1-based simple-root indices (an index that is not listed stays put).
FLIPS = [("D", n, {n - 1: n, n: n - 1}) for n in range(6, 21, 2)]
FLIPS.append(("E6", 6, {1: 6, 6: 1, 3: 5, 5: 3}))


def _assert_cartan_preserved(source, target, p):
    """p maps every simple index of source into target (1-based)."""
    for i in range(1, source.rank + 1):
        for j in range(1, source.rank + 1):
            assert target.cartan[p[i] - 1][p[j] - 1] == source.cartan[i - 1][j - 1]


@pytest.mark.parametrize("family,n,perm", FLIPS)
def test_each_diagram_flip_is_a_dynkin_automorphism(family, n, perm):
    sys = build_root_system(family, n)
    _assert_cartan_preserved(sys, sys, {i: perm.get(i, i) for i in range(1, n + 1)})
    # and it is the map `build_case` moves the flipped case along
    s_new = {"D": n - 1, "E6": 1}[family]
    base, flipped = build_case(family, n, perm[s_new]), build_case(family, n, s_new)
    phi = _simple_root_map(sys, sys, perm)
    assert flipped.S == tuple(sorted(phi[g] for g in base.S))
    assert flipped.T == tuple(sorted(phi[t] for t in base.T))


def test_e7_embedding_is_a_dynkin_map():
    d6, e7 = build_root_system("D", 6), build_root_system("E7", 7)
    phi = e7_d6_embedding()
    # the E7 index of each D6 simple root's image, which must be simple
    p = {
        i: e7.simple_roots.index(phi[a]) + 1
        for i, a in enumerate(d6.simple_roots, start=1)
    }
    assert sorted(p.values()) == list(range(2, 8))  # alpha_2..alpha_7
    _assert_cartan_preserved(d6, e7, p)


def test_e7_embedding_orientation():
    # the standard A5 of D6 lands in pi' = pi \ {alpha_3}, and the other
    # tip of the D6 fork on alpha_3; the fork swap alpha_5 <-> alpha_6 is a
    # Dynkin automorphism of D6, so the Cartan test above cannot tell it
    d6, e7 = build_root_system("D", 6), build_root_system("E7", 7)
    phi = e7_d6_embedding()
    for a in d6.simple_roots[:5]:
        assert e7.by_code[phi[a]][2] == 0
    assert phi[d6.simple_roots[5]] == e7.simple_roots[2]


def test_orbit_structure_theta_involution():
    for family, n, s in [("B", 6, 4), ("D", 7, 4), ("D", 8, 8), ("E7", 7, 3)]:
        cand = build_case(family, n, s)
        os = orbit_structure(cand)
        for a in os.O:
            assert os.theta[os.theta[a]] == a
            assert (a + os.theta[a]) == os.centre_of[a]
            assert os.theta[a] in os.S_alpha[a]


def test_b_eps_s_plus_next_is_in_o1():
    for n, s in [(6, 4), (8, 6), (10, 4)]:
        cand = build_case("B", n, s)
        os = orbit_structure(cand)
        a = _ev(cand.system, [(1, s), (1, s + 1)])
        assert os.strata[a] == 1


def test_b_deep_strata_lie_in_o_minus_non_mixed():
    # roots with more than two partners sit in the A-part negatives and
    # never neighbour the mixed region
    for n, s in [(8, 6), (10, 8), (12, 10)]:
        cand = build_case("B", n, s)
        os = orbit_structure(cand)
        for a in os.O:
            if os.strata[a] > 2:
                assert a in os.O_minus
                assert sum(os.by_code[a]) < 0
                assert not any(b in os.O_mixed for b in os.S_alpha[a])


def test_out_of_scope():
    for family, n, s, frag in [
        ("B", 5, 3, "odd"),
        ("D", 8, 5, "odd"),
        ("D", 4, 4, "D_4"),
        ("D", 7, 7, "n odd"),
        ("E6", 6, 3, "prior work"),
        ("E7", 7, 5, "only s=3"),
    ]:
        with pytest.raises(OutOfScopeError) as exc:
            build_case(family, n, s)
        assert frag in str(exc.value)
        assert case_plan(family, n, s) is not None


def test_in_scope_enumeration():
    cases = in_scope_cases(4)
    assert ("B", 2, 2) in cases and ("B", 4, 2) in cases and ("B", 4, 4) in cases
    assert ("D", 4, 2) in cases
    assert all(c[0] != "E6" for c in cases)
    cases8 = in_scope_cases(8)
    assert ("D", 6, 6) in cases8 and ("D", 8, 8) in cases8
    assert ("E6", 6, 6) in cases8 and ("E7", 7, 3) in cases8


def test_heis_adds_the_partner_of_each_half():
    sys = build_root_system("B", 4)
    centre, members = _heis(sys, [(1, 1), (1, 2)], [[(1, 1)], [(1, 1), (1, 3)]])
    assert centre == _ev(sys, [(1, 1), (1, 2)])
    assert members == {
        centre,
        _ev(sys, [(1, 1)]),
        _ev(sys, [(1, 2)]),
        _ev(sys, [(1, 1), (1, 3)]),
        _ev(sys, [(1, 2), (-1, 3)]),
    }


def test_heis_rejects_a_half_whose_partner_is_not_a_root():
    # in B_4, eps_3 is a root but eps_1 + eps_2 - eps_3 is not
    sys = build_root_system("B", 4)
    with pytest.raises(ValueError, match=r"\[\(1, 1\), \(1, 2\), \(-1, 3\)\]"):
        _heis(sys, [(1, 1), (1, 2)], [[(1, 3)]])


ONE_OBJECT_CASES = (
    in_scope_cases(12) + [("D", n, n - 1) for n in range(6, 13, 2)] + [("E6", 6, 1)]
)


@pytest.mark.parametrize("family,n,s", ONE_OBJECT_CASES)
def test_every_root_of_a_case_is_its_systems_own_object(family, n, s):
    # the case data holds int codes of the system's roots, the tuples in
    # increasing order and the Gamma sets by increasing centre; the cascade
    # roots are int codes too.  The closed forms are sorted int tuples
    cand = build_case(family, n, s)
    sys = cand.system
    by_code = sys.by_code
    tuples = (
        cand.S_plus,
        cand.S_minus,
        cand.S_mixed,
        cand.T,
        cand.T_star,
        cand.T_expected,
        cand.parabolic.dual_support,
        tuple(cand.gamma_sets),
    )
    for codes in tuples:
        assert type(codes) is tuple and list(codes) == sorted(set(codes))
    held = [code for codes in tuples for code in codes]
    for members in cand.gamma_sets.values():
        assert type(members) is frozenset
        held += members
    assert all(type(c) is int and c in by_code for c in held)
    for _, beta, size in cascade(sys):
        assert type(beta) is int and beta in by_code and type(size) is int
    for values in (cand.eigenvalues_expected, cand.bounds_expected):
        assert type(values) is tuple and list(values) == sorted(values)
        assert all(type(v) is int for v in values)
