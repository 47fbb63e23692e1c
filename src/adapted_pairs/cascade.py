"""Kostant cascade of strongly orthogonal roots and maximal Heisenberg sets.

The cascade is built recursively: highest root of each irreducible component,
then recurse on the roots orthogonal to it.  H_beta collects the component
roots pairing strictly positively with beta; within each component these sets
are Heisenberg sets and together they partition the positive roots.

Each beta is the highest root of its component, hence dominant for it, so
the component roots orthogonal to beta form the subsystem generated by the
component's simple roots orthogonal to beta.  The recursion passes those
simple roots down, starting from the simple roots of Delta+, so no level
searches for its simple roots.
Every root is its code (`RootSystem.base`), and a cascade root beta, the
highest root of its component, is the component root of largest code.
The `cascade` command is its only caller in the package: the case
builders state their sets at cascade roots in closed form.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .roots import RootSystem


class CascadeItem(NamedTuple):
    """One cascade root beta with its component and H_beta, as root codes;
    both tuples are in increasing order."""

    label: str  # tree path such as "1", "1.2"
    beta: int
    subsystem: Tuple[int, ...]  # positive roots of the defining component
    heisenberg: Tuple[int, ...]  # H_beta inside the component


def _split_components(
    system: RootSystem, pos: Sequence[int], simples: Sequence[int]
) -> List[Tuple[List[int], List[int]]]:
    """(simples, roots) per irreducible component of a positive subsystem,
    given its simple roots; pos is in increasing code order, and so is each
    component's list.  Components come in the order of their least simple.

    Two simple roots of a subsystem are joined when their sum is a root.  A
    root r lies in the component of its leading simple root.  Every given
    simple is a unit code, and r's digits lie in [0, base), so that is the
    largest given simple not above r, where r's digit must be nonzero.
    """
    by_code = system.by_code
    ordered = sorted(simples)
    comp_of: Dict[int, int] = {}
    comps: List[List[int]] = []
    for s in ordered:
        if s in comp_of:
            continue
        idx = len(comps)
        comp = [s]
        comp_of[s] = idx
        queue = [s]
        while queue:
            cur = queue.pop()
            for t in simples:
                if t not in comp_of and cur + t in by_code:
                    comp_of[t] = idx
                    comp.append(t)
                    queue.append(t)
        comps.append(sorted(comp))
    members: List[List[int]] = [[] for _ in comps]
    base = system.base
    for r in pos:
        k = bisect_right(ordered, r) - 1
        if k < 0 or not (r // ordered[k]) % base:
            raise ValueError(f"{by_code[r]} is not generated by the given simples")
        members[comp_of[ordered[k]]].append(r)
    return list(zip(comps, members))


def kostant_cascade(system: RootSystem) -> Tuple[CascadeItem, ...]:
    """The full cascade for Delta+, the same for every s: built once per
    system and kept, immutable, in its `RootSystem.derived` store."""
    return system.derived(_full_cascade)


def _full_cascade(system: RootSystem) -> Tuple[CascadeItem, ...]:
    by_code = system.by_code
    items: List[CascadeItem] = []

    def recurse(pos: Sequence[int], simples: Sequence[int], prefix: str) -> None:
        for k, (comp_simples, comp_roots) in enumerate(
            _split_components(system, pos, simples), start=1
        ):
            label = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            # the highest root of the component exceeds each of its roots by
            # a sum of positive roots, so its code is the largest
            beta = comp_roots[-1]
            # for a positive root r of the component other than beta,
            # (r, beta) > 0 exactly when beta - r is a root; otherwise
            # (r, beta) = 0, since beta is dominant for the component
            heis, rest = [], []
            for r in comp_roots:
                (heis if r == beta or beta - r in by_code else rest).append(r)
            items.append(CascadeItem(label, beta, tuple(comp_roots), tuple(heis)))
            if rest:
                in_heis = set(heis)
                orthogonal = [a for a in comp_simples if a not in in_heis]
                recurse(rest, orthogonal, label)

    recurse(sorted(system.positive_roots), system.simple_roots, "")
    return tuple(items)
