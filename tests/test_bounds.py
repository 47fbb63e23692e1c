import math
from collections import Counter
from fractions import Fraction

import pytest

import engine_oracle as oracle
from adapted_pairs.bounds import (
    BoundWeight,
    _lowest,
    _t_of_all,
    bound_multiples,
    delta_gamma,
    improved_bound,
    lower_bound,
    ray_multiple,
)
from adapted_pairs.construction import build_case, in_scope_cases
from adapted_pairs.parabolic import ParabolicData
from adapted_pairs.roots import build_root_system

F = Fraction


def _integers(values):
    """Ints as the engine's rationals (num, 1)."""
    return [(v, 1) for v in values]


def _orbit(parab, idxs):
    target = frozenset(i - 1 for i in idxs)
    match = [o for o in parab.orbits if o == target]
    assert match, f"no orbit {idxs}"
    return match[0]


def test_delta_gamma_b_equal_rank():
    # pair orbits in the n = s case contribute -4 varpi_n
    parab = build_case("B", 8, 8).parabolic
    for t in range(1, 4):
        d = delta_gamma(parab, _orbit(parab, [t, 8 - t]))
        assert ray_multiple(d, 8) == (-4, 1)
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [4])), 8) == (-2, 1)


def test_delta_gamma_e6():
    parab = build_case("E6", 6, 6).parabolic
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [1, 6])), 6) == (-3, 1)
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [2, 3, 5])), 6) == (-6, 1)
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [4])), 6) == (-3, 1)


def test_delta_gamma_e7():
    parab = build_case("E7", 7, 3).parabolic
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [1])), 3) == (-1, 1)
    assert ray_multiple(delta_gamma(parab, _orbit(parab, [4, 6])), 3) == (-4, 1)
    for idxs in ([3], [2, 7], [5]):
        assert ray_multiple(delta_gamma(parab, _orbit(parab, idxs)), 3) == (-2, 1)


@pytest.mark.parametrize(
    "family,n,s,expected",
    [
        ("B", 6, 6, {2: 2, 4: 2}),  # eq (1)
        ("B", 9, 4, {1: 2, 2: 6}),  # eq (2)
        ("D", 9, 4, {1: 3, 2: 5}),  # eq (3)
        ("D", 10, 10, {2: 3, 4: 3}),  # eq (4)
        ("E6", 6, 6, {3: 2, 6: 1}),
        ("E7", 7, 3, {1: 1, 2: 3, 4: 1}),
    ],
)
def test_lower_bound_closed_forms(family, n, s, expected):
    cand = build_case(family, n, s)
    lower = lower_bound(cand.parabolic)
    multiples = Counter(bound_multiples(cand, lower))
    assert multiples == {(m, 1): k for m, k in expected.items()}
    assert bound_multiples(cand, lower) == _integers(cand.bounds_expected)


def _t_multiples(cand, gamma):
    """The multiple of varpi_s of gamma + t(gamma), from the rational oracle
    and from the package's integer solve."""
    _, weight = oracle.t_of_gamma(cand, gamma)
    (scaled,) = _t_of_all(cand, [gamma])
    ours = ray_multiple(scaled, cand.s)
    return oracle.multiple_of(weight, oracle.varpi_s(cand)), F(*ours)


def test_t_of_gamma_e6_alpha4():
    cand = build_case("E6", 6, 6)
    sys = cand.system
    rc = sys.root_from_coeffs
    coeffs, _ = oracle.t_of_gamma(cand, rc((0, 0, 0, 1, 0, 0)))
    assert coeffs[rc((1, 2, 2, 3, 2, 1))] == 5  # beta_1
    assert coeffs[rc((1, 0, 1, 1, 1, 1))] == 3  # beta_2
    assert coeffs[rc((0, 0, 1, 1, 1, 0))] == 3  # beta_3
    assert coeffs[rc((-1, -1, -2, -2, -1, 0))] == 4  # -beta'_1
    assert coeffs[rc((0, 0, 0, -1, -1, 0))] == 2  # alpha_2 - beta'_2
    assert _t_multiples(cand, rc((0, 0, 0, 1, 0, 0))) == (6, 6)


def test_t_of_gamma_e6_other_entries():
    cand = build_case("E6", 6, 6)
    sys = cand.system
    rc = sys.root_from_coeffs
    assert _t_multiples(cand, rc((0, 0, 0, 0, 0, 1))) == (3, 3)
    assert _t_multiples(cand, rc((0, 1, 1, 1, 0, 0))) == (3, 3)


def test_t_of_gamma_e7_minus_alpha1():
    cand = build_case("E7", 7, 3)
    sys = cand.system
    gamma = sys.root_from_coeffs((-1, 0, 0, 0, 0, 0, 0))
    coeffs, _ = oracle.t_of_gamma(cand, gamma)
    beta1 = sys.highest_root()
    assert coeffs[beta1] == 2
    assert all(v == 0 for g, v in coeffs.items() if g != beta1)
    assert _t_multiples(cand, gamma) == (1, 1)


def test_t_of_gamma_b_equal_rank():
    cand = build_case("B", 8, 8)
    sys = cand.system
    gamma = oracle.root_from_eps(sys, [0, 0, 0, 0, 0, 0, 1, 1])  # eps_{s-1}+eps_s
    coeffs, _ = oracle.t_of_gamma(cand, gamma)
    assert _t_multiples(cand, gamma) == (2, 2)
    # t(gamma) is integral on the cascade part here
    assert all(c.denominator == 1 for c in coeffs.values())


@pytest.mark.parametrize("family,n,s", in_scope_cases(9))
def test_bounds_coincide_everywhere(family, n, s):
    cand = build_case(family, n, s)
    lower = lower_bound(cand.parabolic)
    improved = improved_bound(cand)
    assert len(lower) == len(improved) == cand.parabolic.index
    assert lower == improved
    assert bound_multiples(cand, lower) == _integers(cand.bounds_expected)


def test_all_entries_on_the_varpi_ray():
    for family, n, s in [("B", 7, 4), ("D", 8, 8), ("E6", 6, 1), ("E7", 7, 3)]:
        cand = build_case(family, n, s)
        for w in lower_bound(cand.parabolic) + improved_bound(cand):
            m = ray_multiple(w, s)
            assert m is not None and m[0] > 0


def test_coincidence_negative():
    cand = build_case("B", 6, 4)
    lower = lower_bound(cand.parabolic)
    improved = improved_bound(cand)
    assert lower == improved
    assert lower[1:] != improved
    doubled = _lowest([2 * x for x in lower[0].num], lower[0].den)
    assert sorted(lower[1:] + [doubled]) != improved


def test_ray_multiple_reads_the_label_at_s():
    w = BoundWeight((0, 0, 3, 0), 2)
    assert ray_multiple(w, 3) == (3, 2)
    assert ray_multiple(BoundWeight((0, 0, 0, 0), 1), 3) == (0, 1)
    for off in (0, 1, 3):
        num = [0, 0, 3, 0]
        num[off] = -1  # one nonzero label off s
        assert ray_multiple(BoundWeight(tuple(num), 2), 3) is None


def test_bound_multiples_sorts_by_value():
    # the multiples of varpi_s at s = 4 of B6, over denominators 1, 2 and
    # 3: lexicographic order would put 1/3 after 1/2 and -1/2 after -1/3,
    # and (big + 1) / 3 and big / 3 differ by 1/3 only
    cand = build_case("B", 6, 4)
    big = 10**30
    qs = [(1, 2), (-1, 3), (big + 1, 3), (big, 3), (0, 1), (-1, 2), (1, 3), (2, 1)]
    weights = [BoundWeight((0, 0, 0, num, 0, 0), den) for num, den in qs]
    assert bound_multiples(cand, weights) == sorted(qs, key=lambda q: F(*q))
    assert bound_multiples(cand, []) == []


def test_bound_multiples_refuses_an_entry_off_the_ray():
    cand = build_case("B", 6, 4)
    lower = lower_bound(cand.parabolic)
    bound_multiples(cand, lower)
    num = list(lower[0].num)
    num[0] += 1
    with pytest.raises(ArithmeticError, match="not a multiple of varpi_s"):
        bound_multiples(cand, lower[1:] + [BoundWeight(tuple(num), lower[0].den)])


def test_flipped_cases_use_flipped_ray():
    # the E6 s=1 bounds lie on the ray of w_1, and read at s=6, the ray of
    # the unflipped case, every entry is off it
    cand = build_case("E6", 6, 1)
    lower = lower_bound(cand.parabolic)
    assert Counter(ray_multiple(w, 1) for w in lower) == {(3, 1): 2, (6, 1): 1}
    for w in lower + improved_bound(cand):
        assert ray_multiple(w, 6) is None


def _labels(system, coeffs):
    """The Dynkin labels sum_k c_k <alpha_k, alpha_j^vee> of the weight with
    simple-root coordinates coeffs."""
    return tuple(
        sum(c * row[j] for c, row in zip(coeffs, system.cartan))
        for j in range(system.rank)
    )


def _rational(weights):
    return Counter(tuple(F(x, w.den) for x in w.num) for w in weights)


@pytest.mark.parametrize("family,n,s", in_scope_cases(10) + [("E6", 6, 1)])
def test_integer_bounds_match_the_rational_oracle(family, n, s):
    # the integer labels, and their multiples of varpi_s, equal those of
    # the Fraction path kept in the tests (E7 s=3 is among the rank-10 cases)
    cand = build_case(family, n, s)
    parab = cand.parabolic
    sys = cand.system
    for ours, theirs in (
        (lower_bound(parab), oracle.lower_bound(parab)),
        (improved_bound(cand), oracle.improved_bound(cand)),
    ):
        assert all(w.den > 0 and math.gcd(w.den, *w.num) == 1 for w in ours)
        assert _rational(ours) == Counter(_labels(sys, w.coeffs) for w in theirs)
        multiples = bound_multiples(cand, ours)
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in multiples)
        assert [F(*m) for m in multiples] == oracle.bound_multiples(cand, theirs)


DELTA_SYSTEMS = (
    [("B", n) for n in range(2, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("E6", 6), ("E7", 7)]
)


@pytest.mark.parametrize("family,n", DELTA_SYSTEMS)
def test_delta_gamma_matches_the_oracle_on_every_orbit(family, n):
    sys = build_root_system(family, n)
    for s in range(1, n + 1):
        parab = ParabolicData(sys, s)
        for orbit in parab.orbits:
            ours = delta_gamma(parab, orbit)
            theirs = oracle.delta_gamma(parab, orbit)
            assert tuple(F(x, ours.den) for x in ours.num) == _labels(
                sys, theirs.coeffs
            ), (s, sorted(orbit))


LEVI_SYSTEMS = (
    [("B", n) for n in range(2, 25)]
    + [("D", n) for n in range(4, 25)]
    + [("E6", 6), ("E7", 7)]
)


def _levi_shift_holds(parab, s):
    """Whether the coordinates of `removed_projection` are the Levi
    corrections at s of `bounds.delta_gamma`: w'_a = w_a + (num_a / den) w_s
    has alpha_s coordinate 0 for every a in pi', the simple roots other
    than alpha_s, i.e. den (w_a)_s + num_a (w_s)_s == 0 on the integer
    rows of the fundamental weights."""
    den, num = parab.removed_projection
    _, fund = parab.system.weight_rows()
    s0 = s - 1
    pi_prime = [i for i in range(parab.system.rank) if i != s0]
    return all(
        den * fund[a][s0] + c * fund[s0][s0] == 0 for a, c in zip(pi_prime, num)
    )


@pytest.mark.parametrize("family,n", LEVI_SYSTEMS)
def test_rank_one_levi_weights_are_those_of_pi_prime(family, n):
    sys = build_root_system(family, n)
    for s in range(1, n + 1):
        parab = ParabolicData(sys, s)
        assert _levi_shift_holds(parab, s), s
        if n <= 8:
            # in labels w'_a is the unit vector at a plus num_a / den at s
            den, num = parab.removed_projection
            theirs = oracle.levi_weights(sys, parab.pi_prime)
            for a, c in zip(parab.pi_prime, num):
                ours = [F(0)] * n
                ours[a] += 1
                ours[s - 1] += F(c, den)
                assert tuple(ours) == _labels(sys, theirs[a].coeffs), (s, a)


def test_rank_one_levi_update_at_a_wrong_s_mismatches():
    # a projection taken at a wrong s breaks the identity whenever it differs
    # from the right one; in D7 it differs at all such pairs but s=1, wrong=2,
    # where w_2 = 2 w_1 - alpha_1 makes the two projections over pi' equal
    sys = build_root_system("D", 7)
    same = []
    for s in range(1, 8):
        right = ParabolicData(sys, s).removed_projection
        for wrong in range(1, 8):
            if wrong == s:
                continue
            parab = ParabolicData(sys, s)
            parab.s = wrong  # the projection reads s; pi' stays that of s
            if parab.removed_projection == right:
                same.append((s, wrong))
            else:
                assert not _levi_shift_holds(parab, s), (s, wrong)
    assert same == [(1, 2)]
