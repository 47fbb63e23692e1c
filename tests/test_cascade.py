import pytest

from adapted_pairs.cascade import cascade
from adapted_pairs.construction import build_case
from adapted_pairs.parabolic import subsystem_roots
from adapted_pairs.roots import build_root_system
from engine_oracle import (
    _indecomposables,
    cascade_oracle,
    cascade_sets,
    coeffs_key,
    eps_of,
    root_from_eps,
    vec_add,
    vec_sub,
)


def detect_type(system, simples):
    """Cartan type of an irreducible simple system, e.g. ('D', 6).

    Only the shapes that occur inside B/D/E6/E7 are recognized:
    A, B, C, D, E.
    """
    k = len(simples)
    if k == 0:
        raise ValueError("empty simple system")
    adj = {
        i: [
            j
            for j in range(k)
            if j != i and system.inner(simples[i], simples[j]) != 0
        ]
        for i in range(k)
    }
    degrees = sorted(len(v) for v in adj.values())
    lengths = {system.inner(s, s) for s in simples}
    if len(lengths) > 1:
        # chain with one short/long end: B_k has the short root at one end
        short = min(lengths)
        ends = [i for i in range(k) if len(adj[i]) <= 1]
        is_b = any(system.inner(simples[i], simples[i]) == short for i in ends)
        return ("B" if is_b else "C", k)
    if not degrees or degrees[-1] <= 2:
        return ("A", k)
    if degrees[-1] == 3:
        centre = next(i for i in range(k) if len(adj[i]) == 3)
        arms = []
        for start in adj[centre]:
            length = 1
            prev, cur = centre, start
            while True:
                nxt = [j for j in adj[cur] if j != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return ("D", k)
        return ("E", k)
    raise ValueError("unrecognized Dynkin shape")


def _eps_set(system):
    # the cascade roots of the closed form, as the filter's sets are keyed
    betas = [beta for _, beta, _ in cascade(system)]
    assert betas == list(cascade_sets(system))
    return {eps_of(system, beta) for beta in betas}


def _v(system, terms):
    from fractions import Fraction

    v = [Fraction(0)] * system.dim
    for c, i in terms:
        v[i - 1] += Fraction(c)
    return tuple(v)


def test_cascade_b4():
    sys = build_root_system("B", 4)
    got = _eps_set(sys)
    assert got == {
        _v(sys, [(1, 1), (1, 2)]),
        _v(sys, [(1, 3), (1, 4)]),
        _v(sys, [(1, 1), (-1, 2)]),
        _v(sys, [(1, 3), (-1, 4)]),
    }


def test_cascade_b5_has_short_bottom():
    sys = build_root_system("B", 5)
    assert _v(sys, [(1, 5)]) in _eps_set(sys)


def test_cascade_d_parity_bottoms():
    d7 = build_root_system("D", 7)
    assert _v(d7, [(1, 5), (-1, 6)]) in _eps_set(d7)
    d6 = build_root_system("D", 6)
    assert _v(d6, [(1, 5), (-1, 6)]) in _eps_set(d6)
    assert _v(d6, [(1, 5), (1, 6)]) in _eps_set(d6)


@pytest.mark.parametrize(
    "family,rank",
    [("B", 2), ("B", 5), ("B", 8), ("D", 4), ("D", 7), ("E6", 6), ("E7", 7)],
)
def test_heisenberg_sets_partition_positive_roots(family, rank):
    sys = build_root_system(family, rank)
    seen = set()
    for heis in cascade_sets(sys).values():
        for r in heis:
            assert r not in seen
            seen.add(r)
    assert seen == set(sys.positive_roots)


@pytest.mark.parametrize("family,rank", [("B", 6), ("D", 6), ("E6", 6)])
def test_each_h_beta_is_heisenberg(family, rank):
    sys = build_root_system(family, rank)
    by_code = sys.by_code
    for beta, members in cascade_sets(sys).items():
        assert beta in members
        for a in members:
            if a == beta:
                continue
            partner = sys.try_root(vec_sub(by_code[beta], by_code[a]))
            assert partner is not None and partner != a
            assert partner in members


def test_cascade_roots_strongly_orthogonal():
    for family, rank in [("B", 6), ("D", 7), ("E7", 7)]:
        sys = build_root_system(family, rank)
        betas = list(cascade_sets(sys))
        by_code = sys.by_code
        for i, a in enumerate(betas):
            for b in betas[i + 1 :]:
                assert sys.inner(a, b) == 0
                assert sys.try_root(vec_add(by_code[a], by_code[b])) is None
                assert sys.try_root(vec_sub(by_code[a], by_code[b])) is None


def test_singleton_components_give_singleton_sets():
    sys = build_root_system("B", 4)
    a1 = root_from_eps(sys, _v(sys, [(1, 1), (-1, 2)]))
    assert cascade_sets(sys)[a1] == {a1}


def test_orthogonal_complement_types():
    # E7: the roots orthogonal to the highest root form a D6 system
    e7 = build_root_system("E7", 7)
    b1 = e7.highest_root()
    comp = [r for r in e7.positive_roots if e7.inner(r, b1) == 0]
    assert detect_type(e7, _indecomposables(e7, comp)) == ("D", 6)
    # E6: the analogous complement is of type A5
    e6 = build_root_system("E6", 6)
    b1 = e6.highest_root()
    comp = [r for r in e6.positive_roots if e6.inner(r, b1) == 0]
    assert detect_type(e6, _indecomposables(e6, comp)) == ("A", 5)


def test_detect_type_on_levi_parts():
    b6 = build_root_system("B", 6)
    assert detect_type(b6, [b6.simple_roots[i] for i in range(3)]) == ("A", 3)
    assert detect_type(b6, [b6.simple_roots[i] for i in (3, 4, 5)]) == ("B", 3)
    d6 = build_root_system("D", 6)
    assert detect_type(d6, d6.simple_roots) == ("D", 6)
    e7 = build_root_system("E7", 7)
    assert detect_type(e7, e7.simple_roots) == ("E", 7)


def test_levi_cascade_e6():
    # E6, s = 6: the set centred at -beta'_1 is -H_{beta'_1} in the cascade
    # of the D5 Levi part, which the oracle builds from the Levi roots
    sys = build_root_system("E6", 6)
    levi = cascade_oracle(sys, subsystem_roots(sys, range(5)))
    heis = {beta: h for _, beta, _, h in levi}
    b1p = sys.root_from_coeffs((1, 1, 2, 2, 1, 0))
    assert levi[0][1] == b1p
    assert build_case("E6", 6, 6).gamma_sets[-b1p] == {-r for r in heis[b1p]}


CASCADE_SYSTEMS = (
    [("B", n) for n in range(2, 15)]
    + [("D", n) for n in range(4, 15)]
    + [("E6", 6), ("E7", 7)]
)


@pytest.mark.parametrize("family,rank", CASCADE_SYSTEMS)
def test_cascade_matches_the_oracle(family, rank):
    # the closed form against the oracle's recursion over components
    sys = build_root_system(family, rank)
    oracle = [(label, beta, len(heis)) for label, beta, _, heis in cascade_oracle(sys)]
    assert cascade(sys) == oracle


@pytest.mark.parametrize("family,rank", CASCADE_SYSTEMS)
def test_orthogonal_filter_matches_the_oracle(family, rank):
    # the sets the tests read at rank 40, against the oracle's H_beta
    sys = build_root_system(family, rank)
    oracle = [(beta, frozenset(heis)) for _, beta, _, heis in cascade_oracle(sys)]
    assert list(cascade_sets(sys).items()) == oracle


def test_indecomposables_are_the_simple_roots():
    for family, rank in [("B", 7), ("D", 8), ("E6", 6), ("E7", 7)]:
        sys = build_root_system(family, rank)
        key = coeffs_key(sys)
        assert _indecomposables(sys, sys.positive_roots) == sorted(
            sys.simple_roots, key=key
        )
        # and of a Levi subsystem, the simple roots it is spanned by
        pos = subsystem_roots(sys, range(1, rank))
        assert _indecomposables(sys, pos) == sorted(sys.simple_roots[1:], key=key)


def test_e7_complement_of_the_highest_root_is_a_levi_subsystem():
    # the facts the stated map of `construction.e7_d6_embedding` rests on:
    # the highest root is orthogonal to exactly alpha_2, ..., alpha_7, and,
    # as it is dominant, the roots orthogonal to it are generated by these
    e7 = build_root_system("E7", 7)
    b1 = e7.highest_root()
    comp = [r for r in e7.positive_roots if e7.inner(r, b1) == 0]
    orthogonal = [a for a in e7.simple_roots if e7.inner(a, b1) == 0]
    assert sorted(orthogonal, key=coeffs_key(e7)) == _indecomposables(e7, comp)
    assert orthogonal == e7.simple_roots[1:]
