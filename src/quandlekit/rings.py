"""Quandle-ring arithmetic over Z, Q and F_p.

A BasedRing has a basis e_0 .. e_(n-1) in which every product of two
basis elements is a basis element or 0, so the ring is an n x n integer
table, for a quandle ring the quandle's own table: e_i * e_j = e_(i > j).
Coefficients are plain Python numbers (int, Fraction, or int mod p);
sums and products are plain arithmetic, and the domain's ``reduce``
brings a result over F_p back into [0, p).
"""

import itertools
from collections import Counter

from ._record import Record
from .domains import GF, ZZ
from .errors import (
    CapacityError,
    DimensionMismatchError,
    DomainMismatchError,
    PreconditionError,
)
from .linalg import field_rank, hermite_normal_form

DEFAULT_WITNESS_BOX = (-2, -1, 1, 2)  # the coefficients power_assoc_witness tries first
DEFAULT_ISO_BUDGET = 10**7


class BasedRing(Record):
    """table[i][j] = k means e_i * e_j = e_k; k = -1 means e_i * e_j = 0.

    Code that scatters into a list of length dim + 1 lets the spare last
    slot, index -1, absorb the zero products.
    """

    __slots__ = ("domain", "table")

    @property
    def dim(self):
        return len(self.table)

    def basis_vector(self, i):
        v = [self.domain.zero] * self.dim
        v[i] = self.domain.one
        return v


def quandle_ring(x, domain):
    """k[X]: e_i * e_j = e_{i > j}."""
    return BasedRing(domain, x.table)


def direct_sum(r1, r2):
    """Block sum: cross-block basis products are zero."""
    if r1.domain is not r2.domain:
        raise DomainMismatchError("direct sum needs a common domain")
    d1, d2 = r1.dim, r2.dim
    table = tuple(row + (-1,) * d2 for row in r1.table) + tuple(
        (-1,) * d1 + tuple(k + d1 if k >= 0 else -1 for k in row) for row in r2.table
    )
    return BasedRing(r1.domain, table)


def multiply(ring, u, v):
    """Bilinear product of coefficient vectors: u_i * v_j is added to
    coordinate table[i][j], and over F_p the sums are reduced at the end."""
    n = ring.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError("element length does not match ring dimension")
    acc = [ring.domain.zero] * (n + 1)
    nonzero_v = [(j, vj) for j, vj in enumerate(v) if vj]
    for row, ui in zip(ring.table, u):
        if ui:
            for j, vj in nonzero_v:
                acc[row[j]] += ui * vj
    acc.pop()
    return ring.domain.reduce(acc)


def augmentation(ring, u):
    """Coefficient-sum map; multiplicative on quandle rings."""
    return ring.domain.reduce([sum(u, ring.domain.zero)])[0]


def _albert_identities(ring, u):
    """The two power-associativity identities for u, each as (identity,
    lhs, rhs): "cube" is (u*u)*u = u*(u*u) and "fourth" is
    (u*u)*(u*u) = ((u*u)*u)*u.  The fourth is computed only when asked for."""
    uu = multiply(ring, u, u)
    uu_u = multiply(ring, uu, u)
    yield "cube", uu_u, multiply(ring, u, uu)
    yield "fourth", multiply(ring, uu, uu), multiply(ring, uu_u, u)


def _albert_polynomials(table, support, p):
    """c(u) = (u*u)*u - u*(u*u) and f(u) = (u*u)*(u*u) - ((u*u)*u)*u for
    u supported on `support`, expanded over the table in characteristic p:
    each a dict {(monomial, m): coefficient of the monomial at e_m}, zero
    coefficients dropped.  A monomial is the sorted tuple of its indices;
    for 0 < p < 5 its exponents are reduced by x^p = x."""
    t = table
    polys = (Counter(), Counter())

    def add(poly, indices, plus, minus):
        if plus != minus:
            key = tuple(sorted(indices))
            if 0 < p < 5:
                key = tuple(v for v in sorted(set(key)) for _ in range((key.count(v) - 1) % (p - 1) + 1))
            poly[key, plus] += 1
            poly[key, minus] -= 1

    for i in support:
        ti = t[i]
        for j in support:
            tj, tij = t[j], t[ti[j]]
            for k in support:
                tk, tijk = t[k], t[tij[k]]
                add(polys[0], (i, j, k), tij[k], ti[tj[k]])
                for l in support:
                    add(polys[1], (i, j, k, l), tij[tk[l]], tijk[l])
    return [{km: c for km, c in poly.items() if (c % p if p else c)} for poly in polys]


def _violation(ring, u):
    """The first Albert identity u violates, as a witness; None if none."""
    for identity, lhs, rhs in _albert_identities(ring, u):
        if lhs != rhs:
            return PowerAssocWitness(tuple(u), identity, tuple(lhs), tuple(rhs))
    return None


class PowerAssocWitness(Record):
    __slots__ = ("element", "identity", "lhs", "rhs")  # identity: "cube" or "fourth"


def power_assoc_witness(x, domain):
    """An element u of k[X] violating an Albert identity, or None when both
    (u*u)*u = u*(u*u) and (u*u)*(u*u) = ((u*u)*u)*u hold for every u.  In
    characteristic 0 that is power-associativity (A. A. Albert, "On the
    power-associativity of rings", 1948); over F_p the verdict is exact
    for these two identities.

    The decision.  The differences of the two sides, c(u) and f(u), are
    homogeneous polynomial maps of degree 3 and 4 in the coefficients of
    u.  Expanded over the table (`_albert_polynomials`, n^3 + n^4
    lookups), a monomial u_a u_b u_c has at e_m the number of orderings
    (i, j, k) of its indices with (i > j) > k = m, less those with
    i > (j > k) = m; the degree-4 monomials likewise.  An identity holds
    on all of k^n exactly when its polynomial is 0 once x^p is rewritten
    as x over F_p, p < 5, which is the same function there: over Z and Q
    as they are infinite domains, over F_p as every exponent is then
    below p, and a nonzero polynomial in one variable of degree below p
    has a non-root in F_p (induct on the number of variables).

    The witness is the first u = a*e_i + b*e_j, i < j, a and b in
    `DEFAULT_WITNESS_BOX`, in that order, violating the cube identity or
    else the fourth; a pair whose two polynomials vanish on {i, j} is
    skipped.  Only when none is found is the decision made.  If it finds a
    nonzero monomial, u is restricted to its at most 4 indices: that
    polynomial keeps the monomial, with degree at most 4 (p - 1 over F_p,
    p < 5) in each variable, so by Alon's Combinatorial Nullstellensatz
    (1999, Lemma 2.1) it is nonzero somewhere on S^k for S = {-2, ..., 2},
    or F_p when p < 5.  Reaching the end of that grid is an internal error.

    Every point tried is an integer one, and c(u), f(u) of an integer u are
    the same over Z and Q, so over Q the search runs in Z and only the
    witness it returns is read into Q.
    """
    p = domain.char
    arith = domain if p else ZZ
    ring = quandle_ring(x, arith)

    def witness(u):
        found = _violation(ring, u)
        if found and arith is not domain:
            element, lhs, rhs = (tuple(map(domain.coerce, w)) for w in (found.element, found.lhs, found.rhs))
            found = PowerAssocWitness(element, found.identity, lhs, rhs)
        return found

    box = [arith.coerce(c) for c in DEFAULT_WITNESS_BOX]
    for i, j in itertools.combinations(range(x.n), 2):  # (j, i) tries the same points
        pair = _albert_polynomials(x.table, (i, j), p)
        if any(pair):
            for a, b in itertools.product(box, repeat=2):
                u = [arith.zero] * x.n
                u[i], u[j] = a, b
                found = witness(u)
                if found:
                    return found
    polys = _albert_polynomials(x.table, range(x.n), p)
    if not any(polys):
        return None
    monomial, _ = next(iter(next(poly for poly in polys if poly)))
    support = sorted(set(monomial))
    grid = [arith.coerce(c) for c in (range(p) if 0 < p < 5 else (-2, -1, 0, 1, 2))]
    for point in itertools.product(grid, repeat=len(support)):
        u = [arith.zero] * x.n
        for v, a in zip(support, point):
            u[v] = a
        found = witness(u)
        if found:
            return found
    raise RuntimeError("no Albert identity violation on the Nullstellensatz grid of a nonzero polynomial")


def right_annihilator_count(x, p):
    """|{v in F_p^n : u*v = 0 for all u}|.  Coordinate k of e_i * v is the
    sum of v_j over the fibre L_i^-1(k) = {j : i > j = k}, so v is such a
    v exactly when it is orthogonal to the 0/1 indicator rows of every
    fibre of every left translation: the rows of the stacked
    left-multiplication matrices, less their duplicates and zero rows."""
    fibres = set()
    for row in x.table:
        indicators = {}  # k -> the indicator row of L_i^-1(k)
        for j, k in enumerate(row):
            indicators.setdefault(k, [0] * x.n)[j] = 1
        fibres.update(map(tuple, indicators.values()))
    return p ** (x.n - field_rank(fibres, GF(p)))


def _respects_products(ring, products, cols):
    """Whether phi(e_a) * phi(e_b) = phi(e_c) in ring for each (a, b, c)
    in products, where phi(e_i) = cols[i], a list, and cols[-1] = phi(0) = 0."""
    return all(multiply(ring, cols[a], cols[b]) == cols[c] for a, b, c in products)


def is_ring_homomorphism(r1, r2, matrix):
    """Multiplicativity of the linear map phi(e_j) = column j of the matrix,
    checked on all basis pairs: phi(e_i) * phi(e_j) = phi(e_i * e_j)."""
    n = r1.dim
    if r2.dim != n or len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatchError("matrix shape must match ring dimension")
    dom = r2.domain
    cols = [[dom.coerce(row[j]) for row in matrix] for j in range(n)]
    cols.append([dom.zero] * n)  # phi(0), at index -1
    products = [(i, j, k) for i, row in enumerate(r1.table) for j, k in enumerate(row)]
    return _respects_products(r2, products, cols)


def is_ring_isomorphism(r1, r2, matrix):
    """Homomorphism plus invertibility over the target domain: full rank
    over a field; over Z, rows spanning Z^n (an HNF equal to the
    identity), which holds exactly when the determinant is +-1."""
    if not is_ring_homomorphism(r1, r2, matrix):
        return False
    n, dom = r1.dim, r2.domain
    if dom is ZZ:
        return hermite_normal_form(matrix) == [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return field_rank(matrix, dom) == n


def _multiplication_matrix(ring, u, side, p):
    """The matrix over F_p of w -> u * w (side "left") or w -> w * u."""
    n = ring.dim
    m = [[0] * n for _ in range(n + 1)]
    for i, row in enumerate(ring.table):
        for j, k in enumerate(row):
            # e_i * e_j = e_k: u_i adds to column j on the left, u_j to column i on the right
            if side == "left":
                m[k][j] += u[i]
            else:
                m[k][i] += u[j]
    m.pop()
    return [[x % p for x in row] for row in m]


def _multiplication_invariants(ring, u, p):
    """The ranks over F_p of w -> u * w and w -> w * u, and the traces of
    each map and of its square.  A ring isomorphism phi keeps them: it
    conjugates the maps of u to those of phi(u)."""
    n = ring.dim
    out = ()
    for side in ("left", "right"):
        m = _multiplication_matrix(ring, u, side, p)
        trace = sum(m[i][i] for i in range(n)) % p
        trace_of_square = sum(m[i][k] * m[k][i] for i in range(n) for k in range(n)) % p
        out += (field_rank(m, GF(p)), trace, trace_of_square)
    return out


def find_ring_isomorphism(r1, r2, budget=DEFAULT_ISO_BUDGET):
    """A ring isomorphism r1 -> r2 over their common prime field F_p, as
    the matrix whose column j is phi(e_j), or None when there is none.
    Rings of different dimension are not isomorphic over any domain, so
    they get None before the domain is asked to be a prime field.

    Needs e_i * e_i = c_i * e_i in r1 for every i, as in a quandle ring and
    in direct sums of quandle rings.  Backtracking over the images of the
    basis elements: column i starts from the nonzero v of r2 with
    v * v = c_i * v (for a quandle ring, the nonzero idempotents of r2)
    whose multiplication maps have the ranks and traces (of the map and of
    its square) of those of e_i, found by one scan of F_p^n, or of its
    slice eps(v) = 1 between quandle rings (below).  Each step places the
    column with the fewest candidates left and skips a candidate in the
    span of the placed columns.  Then, for each pair (a, b) that involves
    one unplaced column k besides placed ones (a, b and the support of
    e_a * e_b), column k keeps the candidates w with phi(e_a) * phi(e_b) =
    phi(e_a * e_b) when w is put in for phi(e_k), the check
    is_ring_homomorphism makes.  For a quandle ring, placing e_a and e_b
    leaves one candidate for e_(a > b).  The matrix returned is confirmed
    by is_ring_isomorphism.

    Between quandle rings every column sums to 1: every isomorphism
    phi: k[X] -> k[Y] preserves the augmentation eps.  A k-linear ring map
    psi: k[Z] -> k of a quandle ring has psi(e_i)^2 = psi(e_i * e_i) =
    psi(e_i), so psi(e_i) is 0 or 1, k having no other idempotents; if
    psi(e_j) = 0, then psi(e_(i > j)) = psi(e_i) * psi(e_j) = 0 for every
    i, and R_j is onto, so psi = 0.  So eps is the only nonzero one, and
    eps_Y o phi, nonzero as phi is onto, is eps_X.  The proof needs only
    that neither table has a zero product (so eps is multiplicative on
    both), that e_i * e_i = e_i in r1 and that every column of r1 is onto;
    when the tables have that, the scan takes only the p^(n-1) vectors
    with v_(n-1) = 1 - (v_0 + ... + v_(n-2)), in the order of the full
    scan.  Direct sums with zero products keep the scan of F_p^n.

    budget caps the candidate vectors scanned (p^(n-1) or p^n - 1, then
    each narrowing) plus the search nodes visited; CapacityError beyond it.
    """
    if r1.domain is not r2.domain:
        raise DomainMismatchError("rings must share a domain")
    if r1.dim != r2.dim:
        return None
    dom = r1.domain
    p = dom.char
    if not p:
        raise PreconditionError("the ring isomorphism search needs a prime field, not %r" % dom)
    n = r1.dim
    # (a, b, c, the columns the pair involves) for e_a * e_b = e_c, c = -1 for 0
    pairs = [(a, b, c, {a, b, c} - {-1}) for a, row in enumerate(r1.table) for b, c in enumerate(row)]
    if any(r1.table[i][i] not in (i, -1) for i in range(n)):
        raise PreconditionError("every e_i * e_i must be a multiple of e_i")
    spent = 0

    def charge(work):
        nonlocal spent
        spent += work
        if spent > budget:
            raise CapacityError("ring isomorphism search exceeds budget %d" % budget)

    keys = [(int(r1.table[i][i] == i), _multiplication_invariants(r1, r1.basis_vector(i), p))
            for i in range(n)]
    pools = {key: [] for key in keys}
    if n and all(min(row) >= 0 for row in r1.table + r2.table) and all(
        r1.table[i][i] == i and len(set(column)) == n for i, column in enumerate(zip(*r1.table))
    ):
        charge(p ** (n - 1))
        scan = (head + ((1 - sum(head)) % p,) for head in itertools.product(range(p), repeat=n - 1))
    else:
        charge(p**n - 1)
        scan = itertools.islice(itertools.product(range(p), repeat=n), 1, None)
    for v in scan:
        square = multiply(r2, v, v)
        c = next((c for c, _ in pools if square == [c * x % p for x in v]), None)
        key = (c, _multiplication_invariants(r2, v, p)) if c is not None else None
        if key in pools:
            pools[key].append(list(v))

    cols = [None] * n + [[0] * n]  # phi(e_0) .. phi(e_(n-1)), then phi(0)

    def narrowed(k, d, j):
        """The candidates w in d for column k with which the pairs whose
        last unplaced column besides k was j respect products, w put in
        for phi(e_k)."""
        checks = [(a, b, c) for a, b, c, used in pairs
                  if j in used and k in used and all(cols[x] is not None for x in used if x != k)]
        if not checks:
            return d
        charge(len(d))
        for a, b, c in checks:
            if k not in (a, b):  # then c = k: phi(e_k) is a product of placed columns
                product = multiply(r2, cols[a], cols[b])
                d = [w for w in d if w == product]
        return [w for w in d if _respects_products(r2, checks, cols[:k] + [w] + cols[k + 1:])]

    def search(domains):
        if not domains:
            return [[cols[j][r] for j in range(n)] for r in range(n)]
        j = min(domains, key=lambda k: (len(domains[k]), k))
        placed = [c for c in cols[:n] if c is not None]
        for v in domains[j]:
            charge(1)
            if field_rank(placed + [v], dom) <= len(placed):
                continue
            cols[j] = v
            rest = {}
            for k, d in domains.items():
                if k != j:
                    rest[k] = narrowed(k, d, j)
                    if not rest[k]:
                        break
            else:
                found = search(rest)
                if found is not None:
                    return found
            cols[j] = None
        return None

    try:
        matrix = search({i: pools[key] for i, key in enumerate(keys)})
    finally:
        del search  # it refers to itself: unlink it so the search state is freed now
    if matrix is not None and not is_ring_isomorphism(r1, r2, matrix):
        raise RuntimeError("ring isomorphism search returned a map that is not one")
    return matrix
