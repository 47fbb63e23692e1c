"""Kostant cascade of strongly orthogonal roots, in closed form.

The cascade of Delta+ (Kostant, Moscow Math. J. 12 (2012)) is the highest
root beta of each irreducible component, followed by the cascade of the
roots of that component orthogonal to beta; H_beta, the component roots
pairing strictly positively with beta, is a Heisenberg set, and these sets
partition Delta+.  The `cascade` command is its only caller in the
package: the case builders state their sets at cascade roots themselves.

In a B_m or D_m on eps_a..eps_n (m >= 3 in D) the highest root is
eps_a + eps_{a+1}, with |H| = 4m-5 in B and 4m-7 in D, and the roots
orthogonal to it are the B_{m-2} or D_{m-2} on eps_{a+2}..eps_n and the
A1 of eps_a - eps_{a+1}, in that order.  At the bottom, B_1 is eps_n, D_2
the two A1 of eps_{n-1} + eps_n and eps_{n-1} - eps_n, and B_0 and D_1 are
empty.  E6 and E7 are a table in simple-root coefficients.
"""

from __future__ import annotations

from typing import List, Tuple

from .roots import RootSystem

# (label, coefficients of beta over the simple roots, |H_beta|) in preorder
_E_CASCADES = {
    "E6": (("1", (1, 2, 2, 3, 2, 1), 21), ("1.1", (1, 0, 1, 1, 1, 1), 9),
           ("1.1.1", (0, 0, 1, 1, 1, 0), 5), ("1.1.1.1", (0, 0, 0, 1, 0, 0), 1)),
    "E7": (("1", (2, 2, 3, 4, 3, 2, 1), 33), ("1.1", (0, 1, 1, 2, 2, 2, 1), 17),
           ("1.1.1", (0, 0, 0, 0, 0, 0, 1), 1), ("1.1.2", (0, 1, 1, 2, 1, 0, 0), 9),
           ("1.1.2.1", (0, 0, 0, 0, 1, 0, 0), 1), ("1.1.2.2", (0, 0, 1, 0, 0, 0, 0), 1),
           ("1.1.2.3", (0, 1, 0, 0, 0, 0, 0), 1)),
}


def cascade(system: RootSystem) -> List[Tuple[str, int, int]]:
    """(label, beta, |H_beta|) for every cascade root of Delta+, in preorder:
    the label is the tree path, such as "1.2", and beta a root code."""
    if system.family in _E_CASCADES:
        rc = system.root_from_coeffs
        return [(label, rc(c), h) for label, c, h in _E_CASCADES[system.family]]
    n, in_b, eps = system.rank, system.family == "B", system.eps_root
    items, tops, label, a = [], [], "", 1
    # the highest roots eps_a + eps_{a+1} of the chain of B_m or D_m, each
    # the first component of the one before
    last = n if in_b else n - 1
    while a < last:
        size = 4 * (n - a + 1) - (5 if in_b else 7)  # 4m-5 in B_m, 4m-7 in D_m
        label = f"{label}.1" if label else "1"
        items.append((label, eps([(1, a), (1, a + 1)]), size))
        tops.append((label, a))
        a += 2
    if a > last:  # B_0 and D_1
        bottom = []
    else:  # B_1 and D_2
        bottom = [[(1, n)]] if in_b else [[(1, a), (1, n)], [(1, a), (-1, n)]]
    for k, terms in enumerate(bottom, start=1):
        items.append((f"{label}.{k}", eps(terms), 1))
    # then each A1 eps_a - eps_{a+1}, after the components below its top
    k = len(bottom) + 1
    for top, a in reversed(tops):
        items.append((f"{top}.{k}", eps([(1, a), (-1, a + 1)]), 1))
        k = 2
    return items
