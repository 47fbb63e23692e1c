"""Kostant cascade of strongly orthogonal roots and maximal Heisenberg sets.

The cascade is built recursively: highest root of each irreducible component,
then recurse on the roots orthogonal to it.  H_beta collects the component
roots pairing strictly positively with beta; within each component these sets
are Heisenberg sets and together they partition the positive roots.

Each beta is the highest root of its component, hence dominant for it, so
the component roots orthogonal to beta form the subsystem generated by the
component's simple roots orthogonal to beta.  The recursion passes those
simple roots down, starting from the simple roots of Delta+ or of the
subsystem they are given for, so no level searches for its simple roots.
Everything runs on root codes (`RootSystem.base`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .roots import Root, RootSystem


class CascadeItem(NamedTuple):
    """One cascade root beta with its component and H_beta."""

    label: str  # tree path such as "1", "1.2"
    beta: Root
    subsystem: Tuple[Root, ...]  # positive roots of the defining component
    heisenberg: Tuple[Root, ...]  # H_beta inside the component


def _split_components(
    system: RootSystem, pos: Sequence[Root], simples: Sequence[Root]
) -> List[Tuple[List[Root], List[Root]]]:
    """(simples, roots) per irreducible component of a positive subsystem,
    given its simple roots; pos is in coefficient order, and so is each
    component's list.  Components come in the order of their least simple.

    Two simple roots of a subsystem are joined when their sum is a root.  A
    root that is not simple lies in the component of r - alpha for some
    simple alpha of the subsystem with r - alpha in pos; r - alpha precedes r
    in coefficient order, so one pass over pos in that order finds it.
    """
    by_code = system.by_code
    comp_of: Dict[int, int] = {}
    comps: List[List[Root]] = []
    for s in sorted(simples, key=attrgetter("code")):
        if s.code in comp_of:
            continue
        idx = len(comps)
        comp = [s]
        comp_of[s.code] = idx
        queue = [s.code]
        while queue:
            cur = queue.pop()
            for t in simples:
                tc = t.code
                if tc not in comp_of and cur + tc in by_code:
                    comp_of[tc] = idx
                    comp.append(t)
                    queue.append(tc)
        comps.append(sorted(comp, key=attrgetter("code")))
    simple_codes = [s.code for s in simples]
    members: List[List[Root]] = [[] for _ in comps]
    for r in pos:
        rc = r.code
        idx = comp_of.get(rc)
        if idx is None:
            below = next((rc - sc for sc in simple_codes if rc - sc in comp_of), None)
            if below is None:
                raise ValueError(f"{r.coeffs} is not generated by the given simples")
            idx = comp_of[rc] = comp_of[below]
        members[idx].append(r)
    return list(zip(comps, members))


def kostant_cascade(
    system: RootSystem, subset: Optional[Sequence[int]] = None
) -> List[CascadeItem]:
    """The full cascade for Delta+, or for the subsystem generated by the
    simple roots of the given (0-based) indices."""
    if subset is None:
        return list(_full_cascade(system))
    # imported here so that the `cascade` command loads no parabolic data
    from .parabolic import subsystem_roots

    simples = [system.simple_roots[i] for i in subset]
    return _build_cascade(system, subsystem_roots(system, subset), simples)


@lru_cache(maxsize=None)
def _full_cascade(system: RootSystem) -> Tuple[CascadeItem, ...]:
    """The cascade of Delta+, the same for every s: built once per system."""
    return tuple(_build_cascade(system, system.positive_roots, system.simple_roots))


def _build_cascade(
    system: RootSystem, positive: Sequence[Root], simples: Sequence[Root]
) -> List[CascadeItem]:
    by_code = system.by_code
    items: List[CascadeItem] = []

    def recurse(pos: Sequence[Root], simples: Sequence[Root], prefix: str) -> None:
        for k, (comp_simples, comp_roots) in enumerate(
            _split_components(system, pos, simples), start=1
        ):
            label = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            beta = max(comp_roots, key=lambda r: (r.height, r.code))
            bc = beta.code
            # for a positive root r of the component other than beta,
            # (r, beta) > 0 exactly when beta - r is a root; otherwise
            # (r, beta) = 0, since beta is dominant for the component
            heis, rest = [], []
            for r in comp_roots:
                (heis if r is beta or bc - r.code in by_code else rest).append(r)
            items.append(CascadeItem(label, beta, tuple(comp_roots), tuple(heis)))
            if rest:
                heis_codes = {r.code for r in heis}
                orthogonal = [s for s in comp_simples if s.code not in heis_codes]
                recurse(rest, orthogonal, label)

    recurse(sorted(positive, key=attrgetter("code")), simples, "")
    return items


def cascade_heisenberg_by_beta(
    system: RootSystem, subset: Optional[Sequence[int]] = None
) -> Dict[int, FrozenSet[int]]:
    """Map beta_K -> H_{beta_K} over the whole cascade, on codes."""
    return {
        item.beta.code: frozenset([r.code for r in item.heisenberg])
        for item in kostant_cascade(system, subset)
    }
