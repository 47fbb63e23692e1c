"""Test-side references for the engine: code that only the tests call.

- `replace`: a copy of an engine object with some constructor arguments
  changed, built again through the constructor.
- `rat_value`: a rational of a certificate, {"num", "den"}, as a Fraction;
  `rat_pair` and `fraction` convert between Fractions and the engine's
  rationals, (num, den) int pairs in lowest terms with den > 0.
- `adapted_pair_oracle`: h, its eigenvalues on g_T and the degrees in
  Fractions, h solved by the plain elimination of `linalg_oracle`.
- `centre_moved_outside`: a candidate whose S leaves the support, for the
  negative tests of the regularity check.  Like the case data, it names
  roots by their codes.
- `structure_table_oracle`: the eager table of the extraspecial-pair
  convention, built by the Jacobi recursion that `chevalley` replaced by
  closed-form models.  `WrappedTable` hands the engine a table with its
  entries changed, and `sign_twist` is such a change: a seeded twist of
  the sign convention.
- `string_down`: the root-string probe p = max k with b - k*a a root,
  which `chevalley` replaced by the rule that |N(a, b)| is 2 exactly for
  two short roots of B.
- The bracket oracle: exact Lie algebra elements (`GElem`), N(a, b) on
  roots (`n_const`), brackets (`bracket_roots`, `bracket`) and the
  coadjoint action on the dual of the truncated parabolic (`ad_on_dual`,
  with the orthogonal projection `project_h`), all in
  `fractions.Fraction` from the constants of `StructureTable.n_code`.
  The tests rebuild the matrix of `verify.coadjoint_rows` from it,
  column by column.
- The column builders that `verify` replaced by row builders:
  `coadjoint_columns`, which probes support x S once per column of
  (ad p^-) y, and `nondegeneracy_oracle`, which builds the pairing rows
  (`pairing_matrix`) and then tests the t-grading in a second pass over
  S_alpha, in fractions.  The tests compare the rows, ranks, determinant,
  grading verdict and degree of the engine with them.
- `jacobiator`: the Jacobi sum of three root vectors through `bracket`;
  `code_term` and `code_jacobiator`, a term [x, [y, z]] and the same sum
  on root codes and ints.
- `orbit_structure`: the orbit structure that `check_heisenberg` builds.
- The probe loops that `verify` replaced by each centre's splittings
  (`RootSystem.splittings`): `s_alpha_oracle`, which tests every orbit root
  against every centre, and `coadjoint_rows_oracle`, which tests every
  support root against every member of S.
- `walk_oracle`: the sequence walk of `verify.walk_sequence` as an
  enumeration of every simple path, which is exponential in the worst
  case.
- `pairing`: <a, alpha^vee> from the integer form.
- `enumerate_pairings`: every S-compatible permutation of O, by
  backtracking, for the rigidity and monomial checks on small cases.
- The epsilon oracle: the simple roots in epsilon coordinates in
  fractions (`simple_roots_eps`), roots and weights in them (`eps_of`),
  Cartan elements given in coroot coordinates (`cartan_eps`, with
  `coroot_eps` for a coroot), for comparisons with the closed forms, and
  the rendering `cli.eps_str` printed from them (`eps_str`).  The package
  keeps the same coordinates as integer rows over one denominator.
  `root_from_eps` finds a root of any family by its epsilon coordinates,
  through a table of every root's row: the reverse map that the package
  replaced by the linearity of the code in the epsilon terms of B_n and
  D_n (`RootSystem.eps_root`).  `eps_indices_oracle` reads the signed
  epsilon indices (u, v) of a root of B_n or D_n back from its
  coefficients, where the package writes them down with the root.
- `removed_projection_oracle`: the projection of alpha_s^vee onto the
  truncated Cartan from a solve with the coroot Gram matrix of pi', the
  linear system that `ParabolicData.removed_projection` answers in closed
  form.
- `levi_i_oracle`: the involution i of `ParabolicData` from one descent
  per Dynkin component of pi', where the package runs one descent on all
  of pi'.
- Arithmetic on coefficient tuples (`vec_add`, `vec_sub`, and the sort
  key `coeffs_key`): the tests add, subtract and order roots through their
  coefficients, never through the engine's codes.
- The closure of the simple roots under root strings on coefficient
  tuples with Gram-matrix pairings (`closure_positive_roots`), the
  reference of the written-down B and D roots and of the simply-laced
  rule of `RootSystem._generate_positive` in E6 and E7, and the Kostant
  cascade that tests every pair of roots with the inner
  product and finds each level's simple roots again (`cascade_oracle`),
  the reference of the closed form `cascade.cascade`.
- `cascade_sets`: H_beta at each root of the closed-form cascade by an
  orthogonality filter over the positive roots, fast enough at rank 40.
- `extremal_cascade_sets`: the sets of the extremal D case at its cascade
  roots by the decreasing induction over the cascade's H_beta that
  `construction` replaced by closed ranges.
- The rational bound path: fundamental and Levi weights (each from a
  solve with the Cartan block of its simple roots), orbit weights,
  t(gamma) and both bound multisets in `fractions.Fraction` (`Weight`),
  with t(gamma) solved by the plain Gaussian elimination of
  `linalg_oracle`.  The package computes the same bounds on integers; the
  tests compare the two.

Every root is named by its code, as in the engine; the oracle reads its
coefficients from `RootSystem.by_code`.
"""

import inspect
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from adapted_pairs.cascade import cascade
from adapted_pairs.construction import _spoke, build_case
from adapted_pairs.parabolic import minus_w0_on_subset
from adapted_pairs.verify import _successors, check_heisenberg
from linalg_oracle import det_dense, solve_in_span


def replace(obj, **changes):
    """obj rebuilt through its constructor, with the given arguments
    changed; state the constructor does not take, such as a cached
    `Candidate.s_inverse`, is computed afresh."""
    params = list(inspect.signature(type(obj)).parameters)
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no {sorted(unknown)}")
    return type(obj)(**{p: changes.get(p, getattr(obj, p)) for p in params})


def rat_value(obj: Dict[str, int]) -> Fraction:
    """A rational stored as {"num", "den"} in a certificate."""
    return Fraction(obj["num"], obj["den"])


def rat_pair(num: int, den: int = 1) -> Tuple[int, int]:
    """num / den as the engine writes a rational, reduced by Fraction."""
    q = Fraction(num, den)
    return q.numerator, q.denominator


def fraction(q: Tuple[int, int]) -> Fraction:
    """An engine rational (num, den) as a Fraction."""
    return Fraction(*q)


def adapted_pair_oracle(
    cand,
) -> Tuple[Dict[int, Fraction], Dict[int, Fraction], List[Fraction]]:
    """The h coefficients (1-based simple index, pi' only), the eigenvalues
    gamma(h) on T and the sorted degrees gamma(h) + 1 of `verify.solve_h`,
    in Fractions: h solves gamma(h) = -1 on S in the span of the columns
    of the pairing matrix of S."""
    pairs = cand.parabolic.pairing_on_coroots
    columns = [list(c) for c in zip(*[pairs(g) for g in cand.S])]
    x = solve_in_span(columns, [-1] * len(cand.S))
    h = {i + 1: c for i, c in zip(cand.parabolic.pi_prime, x)}
    eigen = {t: sum([c * p for c, p in zip(x, pairs(t))], Fraction(0)) for t in cand.T}
    return h, eigen, sorted(v + 1 for v in eigen.values())


def centre_moved_outside(cand) -> Tuple[object, int]:
    """cand with a centre of S+ that involves the removed node, and its
    Gamma set, negated, and the code of the new centre: the Heisenberg
    structure is kept, but the centre lies outside Delta+ | Delta-_{pi'}."""
    root = cand.system.by_code
    g = next(g for g in cand.S_plus if root[g][cand.s - 1])
    sets = dict(cand.gamma_sets)
    sets[-g] = frozenset(-a for a in sets.pop(g))
    s_plus = tuple(-x if x == g else x for x in cand.S_plus)
    return replace(cand, S_plus=s_plus, gamma_sets=sets), -g


def orbit_structure(cand):
    """The orbit structure of `check_heisenberg`; raises ValueError when
    the check could not build it."""
    report = check_heisenberg(cand)
    if report.orbits is None:
        raise ValueError(f"no orbit structure: {report.problems}")
    return report.orbits


def s_alpha_oracle(cand, theta: Dict[int, int]) -> Dict[int, Tuple[int, ...]]:
    """S_alpha of `verify._orbit_structure` by |O| x |S| probes: for each
    orbit root a, the orbit roots g - a over the centres g."""
    centres = list(cand.gamma_sets)
    return {
        a: tuple(sorted([g - a for g in centres if g - a in theta]))
        for a in sorted(theta)
    }


def coadjoint_rows_oracle(cand, table) -> List[Dict[int, int]]:
    """`verify.coadjoint_rows` by one probe pass over support x S: each
    nonzero N(-b, p) goes into the row of p - b, when that is a support
    root."""
    sys = cand.system
    parab = cand.parabolic
    support = parab.dual_support
    row_of = {c: i for i, c in enumerate(support)}
    nroots = len(support)
    dim_p = nroots + parab.h_dim
    rows: List[Dict[int, int]] = [{} for _ in range(dim_p)]
    for col, b in enumerate(support):
        for p in cand.S:
            i = row_of.get(p - b)
            if i is not None:
                n = table.n_code(-b, p)
                if n:
                    rows[i][col] = n
    for p in cand.S:
        col = row_of[p]
        h = parab.h_in_coroot_basis_scaled([-x for x in sys.coroot(p)])
        for k, (c, v) in enumerate(zip(h, parab.pairing_on_coroots(p))):
            if c:
                rows[nroots + k][col] = c
            if v:
                rows[col][nroots + k] = v
    for j, t in enumerate(cand.T):
        rows[row_of[t]][dim_p + j] = 1
    return rows


def walk_oracle(os, start: int) -> Tuple[bool, FrozenSet[int]]:
    """`verify.walk_sequence` by enumerating every simple path from start:
    (stationary, nodes).  A branch fails at an undefined step or a step
    back onto its own path.  Exponential in the worst case; only for the
    orbit structures of real cases, whose sequences branch little."""
    nodes: Set[int] = set()
    stationary = True
    stack = [(start, frozenset({start}))]
    while stack:
        x, seen = stack.pop()
        nodes.add(x)
        nodes.add(os.theta[x])
        nxt = _successors(os, x)
        if nxt is None:
            stationary = False
            continue
        for nx in nxt:
            if nx in seen:
                stationary = False
            else:
                stack.append((nx, seen | {nx}))
    return stationary, frozenset(nodes)


def vec_add(x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
    """The coefficient vector x + y."""
    return tuple([a + b for a, b in zip(x, y, strict=True)])


def vec_sub(x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
    """The coefficient vector x - y."""
    return tuple([a - b for a, b in zip(x, y, strict=True)])


def coeffs_key(system) -> Callable[[int], Tuple[int, ...]]:
    """Sort key of the roots of system, by code: their coefficient
    vectors."""
    return system.by_code.__getitem__


def pairing(system, a: int, alpha: int) -> int:
    """<a, alpha^vee> = 2 (a, alpha) / (alpha, alpha), an integer."""
    return 2 * system.inner(a, alpha) // system.inner(alpha, alpha)


# -- the bracket oracle ------------------------------------------------------


class GElem:
    """A Lie algebra element: root-vector coefficients plus a Cartan part.

    The Cartan part is written in coroot coordinates of the full Cartan.
    """

    __slots__ = ("root_part", "h_part")

    def __init__(
        self,
        root_part: Optional[Dict[Tuple[int, ...], Fraction]] = None,
        h_part: Optional[Tuple[Fraction, ...]] = None,
    ):
        self.root_part = {} if root_part is None else root_part
        self.h_part = h_part

    def add_root(self, coeffs: Tuple[int, ...], c: Fraction) -> None:
        v = self.root_part.get(coeffs, Fraction(0)) + c
        if v == 0:
            self.root_part.pop(coeffs, None)
        else:
            self.root_part[coeffs] = v

    def add_h(self, vec, c: Fraction = Fraction(1)) -> None:
        scaled = tuple([c * x for x in vec])
        if self.h_part is not None:
            scaled = tuple([a + b for a, b in zip(self.h_part, scaled)])
        self.h_part = scaled if any(scaled) else None

    def is_zero(self) -> bool:
        return not self.root_part and self.h_part is None


class _JacobiTable:
    """The extraspecial-pair convention, built eagerly: for each positive
    gamma, in order of height and then code, the first pair (alpha, beta)
    with alpha + beta = gamma and alpha before beta gets N = p + 1, every
    other positive pair follows by the Jacobi identity, and the mixed
    constants by the length-ratio identity for triples summing to zero."""

    def __init__(self, system):
        self.system = system
        by_code = system.by_code
        self._by_code = by_code
        self._pos: Dict[Tuple[int, int], int] = {}
        self._norm = {r: system.inner(r, r) for r in system.positive_roots}
        order = sorted([(sum(by_code[r]), r) for r in system.positive_roots])
        heights = [h for h, _ in order]
        pos_by_order = [r for _, r in order]
        place = {r: i for i, r in enumerate(pos_by_order)}
        for h, gamma in order:
            pairs = []
            for i, alpha in enumerate(pos_by_order):
                if heights[i] * 2 > h:
                    break
                j = place.get(gamma - alpha)
                if j is not None and i < j:
                    pairs.append((alpha, pos_by_order[j]))
            if not pairs:
                continue  # a simple root
            alpha, beta = pairs[0]
            self._set_pos(alpha, beta, self.string_down(alpha, beta) + 1)
            for xi, eta in pairs[1:]:
                self._set_pos(xi, eta, self._special_constant(alpha, xi, eta))

    def string_down(self, alpha: int, beta: int) -> int:
        p, probe = 0, beta - alpha
        while probe in self._by_code:
            p, probe = p + 1, probe - alpha
        return p

    def _set_pos(self, a: int, b: int, n: int) -> None:
        self._pos[(a, b)] = n
        self._pos[(b, a)] = -n

    def _special_constant(self, alpha: int, xi: int, eta: int) -> int:
        """With xi + eta = alpha + beta, the Jacobi identity for
        (x_-alpha, x_xi, x_eta) gives N(xi, eta) N(-alpha, xi + eta) =
        N(-alpha, xi) N(xi - alpha, eta) + N(-alpha, eta) N(xi, eta - alpha),
        every right-hand constant on a pair with a lower sum."""
        n = self.n_code
        # N(-alpha, xi) is 0 exactly when xi - alpha is no root
        total = 0
        if n(-alpha, xi):
            total += n(-alpha, xi) * n(xi - alpha, eta)
        if n(-alpha, eta):
            total += n(-alpha, eta) * n(xi, eta - alpha)
        lhs = n(-alpha, xi + eta)
        if total % lhs:
            raise ArithmeticError("non-integral structure constant")
        return total // lhs

    def n_code(self, a: int, b: int) -> int:
        if a + b not in self._by_code:
            return 0
        if a > 0 and b > 0:
            return self._pos.get((a, b), 0)
        if a < 0 and b < 0:
            return -self._pos.get((-a, -b), 0)
        if a > 0:
            return -self._neg_pos(-b, a)
        return self._neg_pos(-a, b)

    def _neg_pos(self, alpha: int, b: int) -> int:
        """N(-alpha, b) for positive alpha and b with b - alpha a root."""
        c, norm = b - alpha, self._norm
        if c > 0:
            # (-alpha) + b + (-c) = 0: N(-alpha,b)/(c,c) = N(-c,-alpha)/(b,b)
            num, den = norm[c] * -self._pos.get((c, alpha), 0), norm[b]
        else:
            # (-alpha) + b + (-c) = 0: N(-alpha,b)/(-c,-c) = N(b,-c)/(alpha,alpha)
            num, den = norm[-c] * self._pos.get((b, -c), 0), norm[alpha]
        if num % den:
            raise ArithmeticError("non-integral mixed structure constant")
        return num // den


@lru_cache(maxsize=None)
def structure_table_oracle(system) -> _JacobiTable:
    """The eager Jacobi table of the extraspecial-pair convention, which
    `chevalley.StructureTable` replaced by closed-form models: it has the
    same `n_code` and `string_down`, and equals the models up to a twist."""
    return _JacobiTable(system)


class WrappedTable:
    """A structure table whose n_code is change(a, b, N(a, b)), N the
    wrapped table's: a sign twist, or a corrupted entry for a negative
    test, handed to the engine in place of `build_structure_table`."""

    def __init__(self, table, change: Callable[[int, int, int], int]):
        self.system = table.system
        self._n_code = table.n_code
        self._change = change

    def n_code(self, a: int, b: int) -> int:
        return self._change(a, b, self._n_code(a, b))


def sign_twist(system, seed: int) -> Callable[[int, int, int], int]:
    """The change of `WrappedTable` for a seeded twist X_g -> c(g) X_g,
    c: Delta -> +-1 with c(-g) = c(g): N(a, b) -> c(a) c(b) c(a+b) N(a, b)."""
    rng = random.Random(seed)
    c: Dict[int, int] = {}
    for g in system.positive_roots:
        c[g] = c[-g] = rng.choice((1, -1))
    return lambda a, b, n: c[a] * c[b] * c[a + b] * n if n else 0


def n_const(table, a: Optional[int], b: Optional[int]) -> int:
    """N(a, b) with [x_a, x_b] = N(a, b) x_{a+b}; 0 when a+b is not a root."""
    if a is None or b is None:
        return 0
    return table.n_code(a, b)


def string_down(system, alpha: int, beta: int) -> int:
    """p = max k with beta - k*alpha a root, for root codes alpha and beta:
    each probe is the difference of two roots, so its code is a root's code
    exactly when it is that root."""
    p = 0
    probe = beta - alpha
    while probe in system.by_code:
        p += 1
        probe -= alpha
    return p


def root_on_h(system, a: int, h: Sequence) -> Fraction:
    """a(h) for h in coroot coordinates."""
    return sum([p * c for p, c in zip(system.simple_pairings(a), h)], Fraction(0))


def bracket_roots(table, a: int, b: int) -> GElem:
    """[x_a, x_b] as a GElem (root vector, coroot, or zero)."""
    sys = table.system
    out = GElem()
    total = vec_add(sys.by_code[a], sys.by_code[b])
    if not any(total):
        # Chevalley normalization [x_a, x_{-a}] = a^vee
        out.add_h(sys.coroot(a))
        return out
    n = n_const(table, a, b)
    if n != 0:
        out.add_root(total, Fraction(n))
    return out


def bracket(table, x: GElem, y: GElem) -> GElem:
    """Bilinear bracket of two exact elements."""
    sys = table.system
    out = GElem()
    for ca, va in x.root_part.items():
        a = sys.root_from_coeffs(ca)
        for cb, vb in y.root_part.items():
            part = bracket_roots(table, a, sys.root_from_coeffs(cb))
            for cc, vc in part.root_part.items():
                out.add_root(cc, va * vb * vc)
            if part.h_part is not None:
                out.add_h(part.h_part, va * vb)
    if x.h_part is not None:
        for cb, vb in y.root_part.items():
            b = sys.root_from_coeffs(cb)
            out.add_root(cb, vb * root_on_h(sys, b, x.h_part))
    if y.h_part is not None:
        for ca, va in x.root_part.items():
            a = sys.root_from_coeffs(ca)
            out.add_root(ca, -va * root_on_h(sys, a, y.h_part))
    return out


def project_h(parab, v: Sequence) -> Tuple[Fraction, ...]:
    """Orthogonal projection of a Cartan vector (coroot coordinates) onto
    the truncated Cartan, in coroot coordinates of the full Cartan: the
    scaled form of `ParabolicData.h_in_coroot_basis_scaled` over its
    denominator."""
    den, _ = parab.removed_projection
    out = [Fraction(0)] * parab.system.rank
    for i, c in zip(parab.pi_prime, parab.h_in_coroot_basis_scaled(v)):
        out[i] = Fraction(c) / den
    return tuple(out)


def ad_on_dual(table, parab, x: GElem, y: GElem) -> GElem:
    """Coadjoint action of x on y in the realization of the dual space.

    The bracket is computed in the full algebra, then projected onto
    g_{Delta+} + h_trunc + g_{Delta-_{pi'}}: root components outside the
    support are dropped and the Cartan part is projected orthogonally onto
    the truncated Cartan (the invariant form restricted to the Cartan agrees
    with the Killing form up to scale, so this is the Killing projection).
    """
    raw = bracket(table, x, y)
    out = GElem()
    support = parab.dual_support_codes
    for cc, vc in raw.root_part.items():
        if table.system.code(cc) in support:
            out.add_root(cc, vc)
    if raw.h_part is not None:
        proj = project_h(parab, raw.h_part)
        if any(v != 0 for v in proj):
            out.add_h(proj)
    return out


def coadjoint_columns(
    cand, table
) -> Tuple[List[Dict[int, int]], Dict[int, int], int, int]:
    """The matrix M of `verify.coadjoint_rows`, without its e_T block, as
    sparse integer columns: (columns, row_of, dim_p, scale), row_of the
    row of each support root by code and scale the denominator of
    `ParabolicData.removed_projection`, which scales the Cartan rows.

    Column x_{-b} probes every member p of S: p = b gives the Cartan
    entries h(-b^vee) and otherwise N(-b, p) goes to the row of p - b,
    when that is a support root.  The coroot columns hold the pairings of
    S.  Every member of S must lie in the support."""
    sys = cand.system
    parab = cand.parabolic
    support = parab.dual_support
    row_of = {c: i for i, c in enumerate(support)}
    nroots = len(support)
    scale, _ = parab.removed_projection
    columns: List[Dict[int, int]] = []
    for bc in support:
        col: Dict[int, int] = {}
        for pc in cand.S:
            if pc == bc:
                coroot = sys.coroot(bc)
                h_coeffs = parab.h_in_coroot_basis_scaled([-x for x in coroot])
                for k, c in enumerate(h_coeffs):
                    if c:
                        col[nroots + k] = col.get(nroots + k, 0) + c
                continue
            i = row_of.get(pc - bc)
            if i is not None:
                n = table.n_code(-bc, pc)
                if n:
                    col[i] = col.get(i, 0) + n
        columns.append({k: v for k, v in col.items() if v != 0})
    s_pairings = [(row_of[pc], parab.pairing_on_coroots(pc)) for pc in cand.S]
    for k in range(parab.h_dim):
        columns.append({i: vals[k] for i, vals in s_pairings if vals[k]})
    return columns, row_of, nroots + parab.h_dim, scale


def pairing_matrix(table, os) -> Tuple[List[Dict[int, int]], List[int]]:
    """Rows of the skew matrix M with M[a][b] = N(-a,-b) when a+b is in S,
    and the codes of its rows and columns in order."""
    order = list(os.O)
    pos = {a: i for i, a in enumerate(order)}
    rows: List[Dict[int, int]] = []
    for a in order:
        row: Dict[int, int] = {}
        for b in os.S_alpha[a]:
            n = table.n_code(-a, -b)
            if n:
                row[pos[b]] = n
        rows.append(row)
    return rows, order


def nondegeneracy_oracle(cand, table, os) -> Tuple[List[Dict[int, int]], bool, int]:
    """The pairing rows (`pairing_matrix`), the t-grading verdict and the
    monomial degree of `verify.check_nondegeneracy`, the grading from a
    second pass over S_alpha in fractions: h_w solves
    gamma(h_w) = |rho(gamma)| over S, u(a) = a(h_w), every b in S_alpha[a]
    needs |rho(a + b)| = u(a) + u(b), and 2 sum u must equal the sum over
    O of |rho(a + theta(a))|.  Without such an h there is no grading and
    the degree is 0."""
    rows, order = pairing_matrix(table, os)
    pairs = cand.parabolic.pairing_on_coroots
    s_rows = [pairs(g) for g in cand.S]
    if len(s_rows) != cand.parabolic.h_dim or det_dense(s_rows) == 0:
        return rows, False, 0
    root = os.by_code
    height = {a: sum(root[a]) for a in order}
    columns = [list(c) for c in zip(*s_rows)]
    x = solve_in_span(columns, [abs(sum(root[g])) for g in cand.S])
    u = {a: sum(xk * p for xk, p in zip(x, pairs(a))) for a in order}
    graded = len(order) % 2 == 0 and all(
        abs(height[a] + height[b]) == u[a] + u[b] for a in order for b in os.S_alpha[a]
    )
    total = sum(u.values())
    if 2 * total != sum(abs(height[a] + height[os.theta[a]]) for a in order):
        graded = False
    return rows, graded, int(2 * total)


def jacobiator(table, a: int, b: int, c: int) -> GElem:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] on root vectors; zero iff Jacobi."""
    by_code = table.system.by_code
    xa, xb, xc = (GElem({by_code[r]: Fraction(1)}) for r in (a, b, c))
    out = GElem()
    for t in (
        bracket(table, xa, bracket(table, xb, xc)),
        bracket(table, xb, bracket(table, xc, xa)),
        bracket(table, xc, bracket(table, xa, xb)),
    ):
        for cc, vc in t.root_part.items():
            out.add_root(cc, vc)
        if t.h_part is not None:
            out.add_h(t.h_part)
    return out


def code_term(table, x: int, y: int, z: int):
    """[x_x, [x_y, x_z]] for root codes x, y, z, on ints: the list of
    coroot coordinates of the Cartan element it is when x + y + z = 0,
    otherwise the coefficient of x_{x+y+z} (0 when that is no root).

    The term is N(y, z) x^vee when x + y + z = 0, -<x, y^vee> when
    y + z = 0 (as [x_y, x_{-y}] = y^vee), and N(y, z) N(x, y + z)
    otherwise; the Cartan terms come from the integer `RootSystem.coroot`."""
    sys = table.system
    if x + y + z == 0:
        m = table.n_code(y, z)
        return [m * v for v in sys.coroot(x)]
    if y + z == 0:
        h = sys.coroot(y)
        return -sum(map(mul, sys.simple_pairings(x), h))
    m = table.n_code(y, z)
    return m * table.n_code(x, y + z) if m else 0


def code_jacobiator(table, a: int, b: int, c: int):
    """The jacobiator of x_a, x_b, x_c on root codes, in the form of
    `code_term`: the sum of its three cyclic terms."""
    terms = [code_term(table, *t) for t in ((a, b, c), (b, c, a), (c, a, b))]
    if a + b + c == 0:
        return [sum(t) for t in zip(*terms)]
    return sum(terms)


def enumerate_pairings(os, limit: int = 100000) -> List[Dict[int, int]]:
    """All permutations theta' of O with a + theta'(a) in S for every a,
    on root codes like the orbit structure.

    Backtracking over the S_alpha candidate lists.
    """
    order = sorted(os.O, key=lambda a: (len(os.S_alpha[a]), a))
    results: List[Dict[int, int]] = []
    assign: Dict[int, int] = {}
    used: Set[int] = set()

    def rec(i: int) -> None:
        if len(results) >= limit:
            return
        if i == len(order):
            results.append(dict(assign))
            return
        a = order[i]
        for b in os.S_alpha[a]:
            if b in used:
                continue
            assign[a] = b
            used.add(b)
            rec(i + 1)
            used.discard(b)
            del assign[a]

    rec(0)
    return results


def _frac(vals) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in vals)


@lru_cache(maxsize=None)
def simple_roots_eps(family: str, rank: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Bourbaki simple roots in epsilon coordinates, in fractions."""
    if family in ("B", "D"):
        simples = []
        for i in range(rank - 1):
            v = [0] * rank
            v[i], v[i + 1] = 1, -1
            simples.append(_frac(v))
        v = [0] * rank
        if family == "B":
            v[rank - 1] = 1
        else:
            v[rank - 2], v[rank - 1] = 1, 1
        simples.append(_frac(v))
        return tuple(simples)
    half = Fraction(1, 2)
    a1 = [half, -half, -half, -half, -half, -half, -half, half]
    simples = [_frac(a1), _frac([1, 1, 0, 0, 0, 0, 0, 0])]
    for i in range(rank - 2):
        v = [Fraction(0)] * 8
        v[i], v[i + 1] = Fraction(-1), Fraction(1)
        simples.append(tuple(v))
    return tuple(simples)


def eps_of(system, x) -> Tuple[Fraction, ...]:
    """Epsilon coordinates of a root (its code) or a `Weight`:
    sum_i c_i alpha_i over its simple-root coefficients c_i."""
    simples = simple_roots_eps(system.family, system.rank)
    out = [Fraction(0)] * len(simples[0])
    coeffs = system.by_code[x] if isinstance(x, int) else x.coeffs
    for c, a in zip(coeffs, simples, strict=True):
        if c:
            for d, e in enumerate(a):
                if e:
                    out[d] += c * e
    return tuple(out)


def cartan_eps(system, h: Sequence) -> Tuple[Fraction, ...]:
    """Epsilon coordinates of a Cartan element given in coroot coordinates:
    sum_k h_k alpha_k^vee with alpha^vee = 2 alpha / (alpha, alpha)."""
    simples = simple_roots_eps(system.family, system.rank)
    out = [Fraction(0)] * len(simples[0])
    for c, a in zip(h, simples, strict=True):
        if c:
            scale = 2 * Fraction(c) / sum(e * e for e in a)
            for d, e in enumerate(a):
                out[d] += scale * e
    return tuple(out)


def coroot_eps(system, r: int):
    """alpha^vee as a Cartan vector in epsilon coordinates."""
    return cartan_eps(system, system.coroot(r))


def eps_str(system, root: int) -> str:
    """The epsilon form of a root, e.g. 'e1+e2' or '(1/2)(e1-e2+...)', from
    its coordinates in fractions scaled by their largest denominator."""
    terms = []
    eps = eps_of(system, root)
    denom = max(x.denominator for x in eps)
    for i, x in enumerate(eps, start=1):
        x = x * denom
        if x == 0:
            continue
        sign = "+" if x > 0 else "-"
        mag = abs(x)
        coef = "" if mag == 1 else str(mag)
        terms.append(f"{sign}{coef}e{i}")
    body = "".join(terms).lstrip("+")
    return body if denom == 1 else f"(1/{denom})({body})"


def root_from_eps(system, eps: Sequence) -> int:
    """The root with these epsilon coordinates, ints or exact rationals,
    from a table of every root's integer row (`RootSystem.eps_scaled`),
    built once per system; KeyError for a vector that is no root.  The
    query is scaled by the rows' denominator once: an integral rational
    hashes and compares like its int, and any other one matches no row."""
    den, rows = _eps_table(system)
    return rows[tuple([x * den for x in eps])]


@lru_cache(maxsize=None)
def _eps_table(system) -> Tuple[int, Dict[Tuple[int, ...], int]]:
    den = system.eps_scaled(system.simple_roots[0])[0]
    return den, {tuple(system.eps_scaled(r)[1]): r for r in system.by_code}


def eps_indices_oracle(system, r: int) -> Tuple[int, int]:
    """(u, v) with r = eps_u + eps_v, for a root of B_n or D_n, on signed
    1-based indices, u the first index of a positive root and v = 0 for a
    short one, read from the coefficients c of the positive root, which
    have 1 from alpha_u on.  In B, up to alpha_(w-1), then 0 (eps_u -
    eps_w), 1 (eps_u, w = n + 1) or 2 (eps_u + eps_w) to the end: the last
    coefficient less 1 is the sign of v = +-w, or 0.  In D, eps_u - eps_w
    ends in 0, eps_u + eps_n in 0, 1 (alpha_n itself is eps_(n-1) +
    eps_n), and eps_u + eps_w, w < n, has 2 from alpha_w to alpha_(n-2)
    and ends in 1, 1."""
    c = system.by_code[abs(r)]
    n = system.rank
    u = c.index(1) + 1
    if system.family == "B":
        v = (c[-1] - 1) * (u + c.count(1))
    elif not c[-1]:
        v = -(u + c.count(1))
    elif not c[-2]:
        u, v = min(u, n - 1), n
    else:
        v = n - 1 - c.count(2)
    return (u, v) if r > 0 else (-u, -v)


def removed_projection_oracle(parab) -> List[Fraction]:
    """Coroot coordinates, over pi', of the orthogonal projection of
    alpha_s^vee onto the truncated Cartan: the x with
    sum_k (alpha_i^vee, alpha_k^vee) x_k = (alpha_i^vee, alpha_s^vee) for
    every i in pi', solved in fractions."""
    gram = parab.system.gram
    s0 = parab.s - 1

    def co_gram(i: int, k: int) -> Fraction:
        return Fraction(4 * gram[i][k], gram[i][i] * gram[k][k])

    # the coroot Gram matrix is symmetric: its rows are its columns
    columns = [[co_gram(i, k) for k in parab.pi_prime] for i in parab.pi_prime]
    rhs = [co_gram(i, s0) for i in parab.pi_prime]
    solution = solve_in_span(columns, rhs)
    if solution is None:
        raise ArithmeticError("coroot Gram matrix is singular")
    return solution


def levi_i_oracle(parab) -> Dict[int, int]:
    """The involution i of `ParabolicData`, with -w0' found one Dynkin
    component of pi' at a time: the components by a search on the Cartan
    matrix, the descent of `minus_w0_on_subset` on each, and alpha_s sent
    along the j-orbit to the first index outside pi'."""
    system = parab.system
    left = set(parab.pi_prime)
    i_map: Dict[int, int] = {}
    while left:
        comp = [min(left)]
        left.discard(comp[0])
        for cur in comp:
            near = [j for j in left if system.cartan[cur][j]]
            left.difference_update(near)
            comp.extend(near)
        i_map.update(minus_w0_on_subset(system, comp))
    x = parab.j_map[parab.s - 1]
    while x in parab.pi_prime:
        x = parab.j_map[i_map[x]]
    i_map[parab.s - 1] = x
    return i_map


# -- root generation and the cascade ----------------------------------------


def closure_positive_roots(system) -> List[Tuple[int, ...]]:
    """The coefficient vectors of the positive roots, sorted, as the
    closure of the simple roots via root strings: beta + alpha is a root
    iff p - <beta, alpha^vee> > 0, with p the largest k such that
    beta - k*alpha is a known root, and the pairing taken from the Gram
    matrix."""
    gram = system.gram
    rank = system.rank
    # the nonzero entries of each Gram row, at most three on a Dynkin diagram
    sparse = [[(i, g) for i, g in enumerate(row) if g] for row in gram]

    def pairing(beta: Tuple[int, ...], j: int) -> int:
        return 2 * sum(beta[i] * g for i, g in sparse[j]) // gram[j][j]

    simples = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    known: Set[Tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        new_frontier: List[Tuple[int, ...]] = []
        for beta in frontier:
            for j, alpha in enumerate(simples):
                if beta == alpha:
                    continue
                # the alpha-string through beta stays among positive roots
                p = 0
                probe = list(beta)
                probe[j] -= 1
                while probe[j] >= 0 and tuple(probe) in known:
                    p += 1
                    probe[j] -= 1
                if p - pairing(beta, j) > 0:
                    cand = vec_add(beta, alpha)
                    if cand not in known:
                        known.add(cand)
                        new_frontier.append(cand)
        frontier = new_frontier
    return sorted(known)


def _indecomposables(system, pos: Sequence[int]) -> List[int]:
    """The roots of pos that are no sum of two roots of pos, in
    coefficient order."""
    coeffs = coeffs_key(system)
    pos_set = {coeffs(r) for r in pos}
    return sorted(
        (
            r
            for r in pos
            if not any(
                vec_sub(coeffs(r), coeffs(a)) in pos_set
                for a in pos
                if sum(coeffs(a)) < sum(coeffs(r))
            )
        ),
        key=coeffs,
    )


def _components(system, pos: Sequence[int]) -> List[Tuple[List[int], List[int]]]:
    coeffs = coeffs_key(system)
    simples = _indecomposables(system, pos)
    comps: List[List[int]] = []
    seen: Set[int] = set()
    for s in simples:
        if s in seen:
            continue
        comp, queue = [s], [s]
        seen.add(s)
        while queue:
            cur = queue.pop()
            for t in simples:
                if t not in seen and system.inner(cur, t) != 0:
                    seen.add(t)
                    comp.append(t)
                    queue.append(t)
        comps.append(sorted(comp, key=coeffs))
    out = [
        (
            comp,
            sorted(
                (r for r in pos if any(system.inner(r, s) for s in comp)),
                key=coeffs,
            ),
        )
        for comp in comps
    ]
    return sorted(out, key=lambda cr: coeffs(cr[0][0]))


def cascade_oracle(
    system, positive: Optional[Sequence[int]] = None
) -> List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]]]:
    """(label, beta, component roots, H_beta) for every cascade root: the
    highest root of each irreducible component, then the roots orthogonal
    to it, with the components' simple roots found again at every level.
    Roots are codes, ordered and compared through their coefficients."""
    coeffs = coeffs_key(system)
    items = []

    def recurse(pos: Sequence[int], prefix: str) -> None:
        for k, (_, comp_roots) in enumerate(_components(system, pos), start=1):
            label = f"{prefix}.{k}" if prefix else f"{k}"
            beta = max(comp_roots, key=lambda r: (sum(coeffs(r)), coeffs(r)))
            heis = tuple(r for r in comp_roots if system.inner(r, beta) > 0)
            items.append((label, beta, tuple(comp_roots), heis))
            rest = [r for r in comp_roots if system.inner(r, beta) == 0]
            if rest:
                recurse(rest, label)

    recurse(list(system.positive_roots if positive is None else positive), "")
    return items


def cascade_sets(system) -> Dict[int, FrozenSet[int]]:
    """H_beta for every root beta of `cascade.cascade`, in its preorder: the
    positive roots orthogonal to every earlier cascade root that pair
    positively with beta."""
    sets = {}
    rest = list(system.positive_roots)
    for _, beta, _ in cascade(system):
        pairings = [(r, system.inner(r, beta)) for r in rest]
        sets[beta] = frozenset(r for r, p in pairings if p > 0)
        rest = [r for r, p in pairings if p == 0]
    return sets


def extremal_cascade_sets(n: int) -> Dict[int, FrozenSet[int]]:
    """The sets of the extremal case D_n, s = n, at the cascade roots
    beta_i = eps_{2i-1} + eps_{2i}, i <= n/2-2: for i from n/2-2 down to 1,
    what no set so far holds of the cascade's H_beta_i, joined by the
    halves eps_{2i-1} - eps_j for j <= 2i-2 (j <= n-6 at the top i, which
    also has eps_{2i-1} + eps_j for odd j <= n-7).  The sets at the other
    centres are the case's own."""
    cand = build_case("D", n, n)
    system = cand.system
    heis = cascade_sets(system)
    top = n // 2 - 2
    betas = [system.eps_root([(1, 2 * i - 1), (1, 2 * i)]) for i in range(1, top + 1)]
    gamma = {c: m for c, m in cand.gamma_sets.items() if c not in betas}
    for i in range(top, 0, -1):
        used = set().union(*gamma.values())
        plus = range(1, n - 5, 2) if i == top else ()
        minus = range(1, (n - 6 if i == top else 2 * i - 2) + 1)
        beta, extra = _spoke(system, (1, 2 * i - 1), (1, 2 * i), plus, minus)
        gamma[beta] = extra | (heis[beta] - used)
    return {beta: gamma[beta] for beta in betas}


# -- the rational bound path -------------------------------------------------


class Weight:
    """An exact rational vector in simple-root coordinates."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[Fraction, ...]):
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.coeffs))

    def scale(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def __repr__(self) -> str:
        return f"Weight{tuple(str(x) for x in self.coeffs)}"


def multiple_of(w: Weight, base: Weight) -> Optional[Fraction]:
    """The exact c with w == c*base, or None when not proportional."""
    ratio: Optional[Fraction] = None
    for x, y in zip(w.coeffs, base.coeffs):
        if y == 0:
            if x != 0:
                return None
            continue
        c = Fraction(x) / y
        if ratio is None:
            ratio = c
        elif ratio != c:
            return None
    if ratio is None:
        ratio = Fraction(0) if w.is_zero() else None
    return ratio


def levi_weights(system, subset: Sequence[int]) -> Dict[int, Weight]:
    """Fundamental weights of the subsystem on subset (0-based simple
    indices), inside its span, as rationals: w_i = sum_k x_k alpha_k over k
    in subset, with sum_k x_k <alpha_k, alpha_j^vee> = delta_ij for j in
    subset; solved once per system and subset."""
    return _levi_weights(system, tuple(subset))


@lru_cache(maxsize=None)
def _levi_weights(system, subset: Tuple[int, ...]) -> Dict[int, Weight]:
    columns = [[system.cartan[k][j] for j in subset] for k in subset]
    out = {}
    for i in subset:
        x = solve_in_span(columns, [int(j == i) for j in subset])
        coeffs = [Fraction(0)] * system.rank
        for k, v in zip(subset, x):
            coeffs[k] = v
        out[i] = Weight(tuple(coeffs))
    return out


def fundamental_weights(system) -> List[Weight]:
    """The weights with <w_i, alpha_j^vee> = delta_ij, inside span(pi)."""
    weights = levi_weights(system, range(system.rank))
    return [weights[i] for i in range(system.rank)]



def delta_gamma(parab, orbit) -> Weight:
    """-sum_G w - sum_{j(G)} w + sum_{G & pi'} w' + sum_{i(G & pi')} w'."""
    sys = parab.system
    fund = fundamental_weights(sys)
    levi = levi_weights(sys, parab.pi_prime)
    total = Weight(tuple(Fraction(0) for _ in range(sys.rank)))
    for a in orbit:
        total = total - fund[a]
    for a in {parab.j_map[a] for a in orbit}:
        total = total - fund[a]
    inter = [a for a in orbit if a in set(parab.pi_prime)]
    for a in inter:
        total = total + levi[a]
    for a in {parab.i_map[a] for a in inter}:
        total = total + levi[a]
    return total


def lower_bound(parab) -> List[Weight]:
    weights = [-delta_gamma(parab, orbit) for orbit in parab.orbits]
    return sorted(weights, key=lambda w: w.coeffs)


def t_of_gamma(cand, gamma: int) -> Tuple[Dict[int, Fraction], Weight]:
    """The unique rational combination of S making gamma + t(gamma) vanish
    on the truncated Cartan, keyed by the codes of S, plus the weight
    gamma + t(gamma); gamma is a root code, like the case data."""
    root = cand.system.by_code
    pairing = cand.parabolic.pairing_on_coroots
    columns = [pairing(g) for g in cand.S]
    coeffs = solve_in_span(columns, [-v for v in pairing(gamma)])
    w = [Fraction(x) for x in root[gamma]]
    for c, g in zip(coeffs, cand.S):
        for i, x in enumerate(root[g]):
            w[i] += c * x
    return dict(zip(cand.S, coeffs)), Weight(tuple(w))


def improved_bound(cand) -> List[Weight]:
    return sorted((t_of_gamma(cand, g)[1] for g in cand.T), key=lambda w: w.coeffs)


def varpi_s(cand) -> Weight:
    return fundamental_weights(cand.system)[cand.s - 1]


def bound_multiples(cand, weights) -> List[Fraction]:
    base = varpi_s(cand)
    return sorted(multiple_of(w, base) for w in weights)
