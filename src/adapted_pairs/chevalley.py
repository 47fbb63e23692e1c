"""Integer Chevalley structure constants, one closed form per entry.

N(a, b) is 0 when a + b is not a root, and otherwise (p + 1) times a sign,
p the largest k with b - k*a a root (Carter, *Simple Groups of Lie Type*,
Sect. 4.2).  So |N(a, b)| is 2 exactly when a and b are both short roots
of B, and 1 otherwise.  For short a = +-eps_i and b = +-eps_j, a + b is a
root only if i != j, and then b - a is a root and b - 2a is not: p = 1.
Otherwise p = 0: D and E are simply laced, so no root string holds more
than two roots; in B, a string along a long a holds at most two, as
<x, a^vee> = (x, a) is 0 or +-1 for x != +-a, and along a short a through
a long b, at most one of b + a and b - a is a root.  The sign is read off
a model whose root vectors are known, up to a positive factor per root:

- B and D: so(2n+1) and so(2n).  On signed indices, with eps_0 = 0 and
  eps_-u = -eps_u, the root eps_u + eps_v has the vector M(u, v) =
  E_{u,-v} - E_{v,-u}, where u is a positive root's first epsilon index
  and v its second (0 for a short root of B), and [M(u,v), M(x,y)] =
  d(x,-v) M(u,y) - d(y,-v) M(u,x) - d(x,-u) M(v,y) + d(y,-u) M(v,x), d
  the Kronecker delta.  (u, v) is written down with the root
  (`RootSystem.eps_indices`), so an entry costs O(1).
- E6 and E7: the Frenkel-Kac cocycle (-1)^(a^T E b) on coefficient
  vectors, with E_ii = 1, E_ij = (alpha_i, alpha_j) mod 2 for i < j and
  E_ij = 0 below the diagonal (Kac, *Infinite-Dimensional Lie Algebras*,
  Sect. 7.8).

In both, the vector of a negative root is minus the model's vector, so the
sign flips once for each negative root among a, b and a + b, and
N(-a, -b) = -N(a, b).  Each entry is computed on every call, which costs
no more than a lookup would: O(1) in B and D, a product over the rank and
the Dynkin edges in E6 and E7.  `n_code` answers on root codes
(`RootSystem.base`) alone, which is what the per-pair loops of `verify`
call.

The convention does not reach a certificate.  A twist X_g -> c(g) X_g,
with c = +-1 and c(-g) = c(g), gives another Chevalley basis, with
N'(x, y) = c(x) c(y) c(x+y) N(x, y); the models are the extraspecial-pair
convention up to such a twist.  Once S passes the basis check, it is
linearly independent on the truncated Cartan, so a torus element t has
gamma(t) = c(gamma) for every gamma in S; put d(a) = a(t).  On Phi_y every
entry (a, b) has a + b in S, so M' = D M D with D = diag(c(a) d(a)), and
det M' = (prod over O of d(a))^2 det M.  O is the union of the pairs
{a, theta(a)} with a + theta(a) in S, so that product is +-1 and
det M' = det M.  The rows of [M | e_T] for regularity likewise scale by
c(r) d(r), and its columns by c(b) d(b) (by the inverse on e_t), so no
rank moves.  No other check reads the table.  So the engine takes the
models as they stand, untwisted; the tests compare them with the Jacobi
recursion of extraspecial pairs up to a twist, and pin the certificate
bytes under that convention and under twists.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .roots import RootSystem


class StructureTable:
    """Exact structure constants N(a, b) for a fixed root system, on root
    codes, each computed when it is asked for; the table keeps no entry."""

    def __init__(self, system: RootSystem):
        self.system = system
        self._by_code = system.by_code
        if system.family in ("B", "D"):
            self._uv = system._uv  # each root's (u, v), as `eps_indices` reads it
            self._sign = self._so_sign
        else:
            # the edges i < j of the Dynkin diagram: (alpha_i, alpha_j) odd
            gram, rank = system.gram, system.rank
            edges = [
                (i, j) for i in range(rank) for j in range(i + 1, rank) if gram[i][j] % 2
            ]
            self._lo = itemgetter(*[i for i, _ in edges])
            self._hi = itemgetter(*[j for _, j in edges])
            self._sign = self._fk_sign

    def n_code(self, a: int, b: int) -> int:
        """N(a, b) for the roots with codes a and b; 0 when a+b is not a root.
        A code's sign is its root's sign, which the flip reads."""
        c = a + b
        if c not in self._by_code:
            return 0
        n = self._sign(a, b)
        return -n if (a < 0) ^ (b < 0) ^ (c < 0) else n

    def _fk_sign(self, a: int, b: int) -> int:
        """N(a, b) before the flip for negative roots: (-1)^(a^T E b), the
        diagonal of E giving a . b and its upper triangle a_i b_j over the
        edges i < j."""
        x, y = self._by_code[a], self._by_code[b]
        t = sum(map(mul, x, y)) + sum(map(mul, self._lo(x), self._hi(y)))
        return -1 if t & 1 else 1

    def _so_sign(self, a: int, b: int) -> int:
        """N(a, b) before the flip for negative roots: the sign of [M_a,
        M_b] against M_(a+b), times 2 for two short roots (v = y = 0).  The
        one delta term of the bracket that does not vanish when a + b is a
        root is s M(p, q).  M(p, q) = -M(q, p), and M_(a+b) = M(p, q)
        exactly when p is the first index of a+b: q = 0, or 0 < |p| < |q|."""
        (u, v), (x, y) = self._uv[a], self._uv[b]
        if x == -v:
            s, p, q = 1, u, y
        elif y == -v:
            s, p, q = -1, u, x
        elif x == -u:
            s, p, q = -1, v, y
        else:
            s, p, q = 1, v, x
        if not (q == 0 or 0 < abs(p) < abs(q)):
            s = -s
        return 2 * s if v == y == 0 else s


def build_structure_table(system: RootSystem) -> StructureTable:
    """The structure table of a system, kept in its `RootSystem.derived`."""
    return system.derived(StructureTable)
