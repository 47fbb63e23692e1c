"""Kostant cascade of strongly orthogonal roots and maximal Heisenberg sets.

The cascade is built recursively: highest root of each irreducible component,
then recurse on the roots orthogonal to it.  H_beta collects the component
roots pairing strictly positively with beta; within each component these sets
are Heisenberg sets and together they partition the positive roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .roots import Root, RootSystem


@dataclass(frozen=True)
class CascadeItem:
    label: str  # tree path such as "1", "1.2"
    beta: Root
    subsystem: Tuple[Root, ...]  # positive roots of the defining component
    heisenberg: Tuple[Root, ...]  # H_beta inside the component


def indecomposables(system: RootSystem, pos: Sequence[Root]) -> List[Root]:
    """Elements of a positive subsystem that are not sums of two others."""
    pos_set = {r.coeffs for r in pos}
    by_height = [(r.coeffs, r.height) for r in pos]
    out = []
    for r in pos:
        rc, h = r.coeffs, r.height
        decomposable = any(
            tuple([x - y for x, y in zip(rc, ac)]) in pos_set
            for ac, ah in by_height
            if ah < h
        )
        if not decomposable:
            out.append(r)
    return sorted(out)


def _split_components(
    system: RootSystem, pos: Sequence[Root]
) -> List[Tuple[List[Root], List[Root]]]:
    """(simples, roots) per irreducible component of a positive subsystem."""
    simples = indecomposables(system, pos)
    comps: List[List[Root]] = []
    seen = set()
    for s in simples:
        if s.coeffs in seen:
            continue
        comp = [s]
        seen.add(s.coeffs)
        queue = [s]
        while queue:
            cur = queue.pop()
            for t in simples:
                if t.coeffs not in seen and system.inner(cur, t) != 0:
                    seen.add(t.coeffs)
                    comp.append(t)
                    queue.append(t)
        comps.append(sorted(comp))
    out = []
    for comp in comps:
        roots = [
            r for r in pos if any(system.inner(r, s) != 0 for s in comp)
        ]
        out.append((comp, sorted(roots)))
    out.sort(key=lambda cr: cr[0][0].coeffs)
    return out


def kostant_cascade(
    system: RootSystem, positive: Optional[Sequence[Root]] = None
) -> List[CascadeItem]:
    """The full cascade for Delta+ or for any closed positive subsystem.

    The cascade of Delta+ is the same for every s; it is kept on the system.
    """
    if positive is None:
        if system.cascade is None:
            system.cascade = _build_cascade(system, system.positive_roots)
        return list(system.cascade)
    return _build_cascade(system, positive)


def _build_cascade(system: RootSystem, positive: Sequence[Root]) -> List[CascadeItem]:
    items: List[CascadeItem] = []

    def recurse(pos: Sequence[Root], prefix: str) -> None:
        for k, (comp_simples, comp_roots) in enumerate(
            _split_components(system, pos), start=1
        ):
            label = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            beta = max(comp_roots, key=lambda r: (r.height, r.coeffs))
            heis = tuple(r for r in comp_roots if system.inner(r, beta) > 0)
            items.append(CascadeItem(label, beta, tuple(comp_roots), heis))
            rest = [r for r in comp_roots if system.inner(r, beta) == 0]
            if rest:
                recurse(rest, label)

    recurse(list(positive), "")
    return items


def cascade_heisenberg_by_beta(
    system: RootSystem, positive: Optional[Sequence[Root]] = None
) -> Dict[Root, Tuple[Root, ...]]:
    """Map beta_K -> H_{beta_K} over the whole cascade."""
    return {item.beta: item.heisenberg for item in kostant_cascade(system, positive)}

