"""Quandle-ring arithmetic over pluggable exact coefficient domains.

A BasedRing stores structure constants for a ring with a distinguished
basis; for a quandle ring every basis product is again a basis element,
so structure entries are sparse coefficient maps.
"""

import itertools
from dataclasses import dataclass

from .domains import GF, ZZ
from .errors import (
    CapacityError,
    DimensionMismatchError,
    DomainMismatchError,
    PreconditionError,
    QuandleKitError,
)
from .linalg import field_rank

DEFAULT_WITNESS_BOX = (-2, -1, 1, 2)
DEFAULT_ISO_BUDGET = 10**7


@dataclass(frozen=True)
class BasedRing:
    domain: object
    dim: int
    structure: tuple  # structure[i][j]: dict {k: coeff} for e_i * e_j
    labels: tuple

    def basis_vector(self, i):
        v = [self.domain.zero] * self.dim
        v[i] = self.domain.one
        return v


def quandle_ring(x, domain):
    """k[X]: e_i * e_j = e_{i > j}."""
    structure = tuple(
        tuple({x.table[i][j]: domain.one} for j in range(x.n)) for i in range(x.n)
    )
    labels = tuple("a%d" % i for i in range(x.n))
    return BasedRing(domain=domain, dim=x.n, structure=structure, labels=labels)


def direct_sum(r1, r2):
    """Block sum: cross-block basis products are zero."""
    if r1.domain is not r2.domain:
        raise DomainMismatchError("direct sum needs a common domain")
    d1, d2 = r1.dim, r2.dim
    dim = d1 + d2
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < d1 and j < d1:
                row.append(dict(r1.structure[i][j]))
            elif i >= d1 and j >= d1:
                row.append({k + d1: c for k, c in r2.structure[i - d1][j - d1].items()})
            else:
                row.append({})
        structure.append(tuple(row))
    return BasedRing(
        domain=r1.domain,
        dim=dim,
        structure=tuple(structure),
        labels=r1.labels + tuple(lbl + "'" for lbl in r2.labels),
    )


def multiply(ring, u, v):
    """Bilinear product of coefficient vectors."""
    if len(u) != ring.dim or len(v) != ring.dim:
        raise DimensionMismatchError("element length does not match ring dimension")
    dom = ring.domain
    acc = [dom.zero] * ring.dim
    for i, ui in enumerate(u):
        if dom.is_zero(ui):
            continue
        for j, vj in enumerate(v):
            if dom.is_zero(vj):
                continue
            c = dom.mul(ui, vj)
            for k, s in ring.structure[i][j].items():
                acc[k] = dom.add(acc[k], dom.mul(c, s))
    return acc


def scalar_mul(ring, c, u):
    return [ring.domain.mul(c, x) for x in u]


def add(ring, u, v):
    return [ring.domain.add(a, b) for a, b in zip(u, v)]


def sub(ring, u, v):
    return [ring.domain.sub(a, b) for a, b in zip(u, v)]


def augmentation(ring, u):
    """Coefficient-sum map; multiplicative on quandle rings."""
    dom = ring.domain
    total = dom.zero
    for c in u:
        total = dom.add(total, c)
    return total


def _vec_eq(dom, u, v):
    return all(dom.eq(a, b) for a, b in zip(u, v))


def albert_check(ring, u):
    """The two power-associativity identities for a single element.

    Returns (first, second): first is (u*u)*u == u*(u*u), second is
    (u*u)*(u*u) == ((u*u)*u)*u.
    """
    dom = ring.domain
    uu = multiply(ring, u, u)
    uu_u = multiply(ring, uu, u)
    u_uu = multiply(ring, u, uu)
    first = _vec_eq(dom, uu_u, u_uu)
    second = _vec_eq(dom, multiply(ring, uu, uu), multiply(ring, uu_u, u))
    return first, second


@dataclass(frozen=True)
class PowerAssocWitness:
    element: tuple
    identity: str  # "cube" or "fourth"
    lhs: tuple
    rhs: tuple


def power_assoc_witness(x, domain, box=DEFAULT_WITNESS_BOX):
    """Search u = a*e_i + b*e_j (i != j, a,b in the box) for an Albert
    identity violation; None when every probe passes.

    Violations are expected for every non-trivial quandle when the
    characteristic is not 2 or 3; the search itself runs for any domain.
    """
    ring = quandle_ring(x, domain)
    dom = domain
    coeffs = [dom.coerce(c) for c in box]
    for i in range(x.n):
        for j in range(x.n):
            if i == j:
                continue
            for a in coeffs:
                for b in coeffs:
                    u = [dom.zero] * x.n
                    u[i] = a
                    u[j] = dom.add(u[j], b)
                    uu = multiply(ring, u, u)
                    uu_u = multiply(ring, uu, u)
                    u_uu = multiply(ring, u, uu)
                    if not _vec_eq(dom, uu_u, u_uu):
                        return PowerAssocWitness(tuple(u), "cube", tuple(uu_u), tuple(u_uu))
                    lhs = multiply(ring, uu, uu)
                    rhs = multiply(ring, uu_u, u)
                    if not _vec_eq(dom, lhs, rhs):
                        return PowerAssocWitness(tuple(u), "fourth", tuple(lhs), tuple(rhs))
    return None


def right_annihilator_count(x, p):
    """|{v in F_p^n : u*v = 0 for all u}| via the stacked left-multiplication
    constraints e_i * v = 0."""
    dom = GF(p)
    n = x.n
    # constraint rows: for each i and output coordinate k,
    # sum_j [i>j == k] v_j = 0
    rows = []
    for i in range(n):
        for k in range(n):
            row = [dom.one if x.table[i][j] == k else dom.zero for j in range(n)]
            if any(row):
                rows.append(row)
    rank = field_rank(rows, dom)
    return p ** (n - rank)


def _matrix_column(m, j, dom):
    return [dom.coerce(m[i][j]) for i in range(len(m))]


def _apply_matrix(m, v, dom):
    n = len(m)
    out = [dom.zero] * n
    for j, c in enumerate(v):
        if dom.is_zero(c):
            continue
        for i in range(n):
            out[i] = dom.add(out[i], dom.mul(dom.coerce(m[i][j]), c))
    return out


def is_ring_homomorphism(r1, r2, matrix):
    """Multiplicativity of the linear map phi(e_j) = column j of the matrix,
    checked on all basis pairs."""
    if r1.dim != r2.dim or len(matrix) != r1.dim or any(len(row) != r1.dim for row in matrix):
        raise DimensionMismatchError("matrix shape must match ring dimension")
    dom = r2.domain
    cols = [_matrix_column(matrix, j, dom) for j in range(r1.dim)]
    for i in range(r1.dim):
        for j in range(r1.dim):
            prod = [dom.zero] * r1.dim
            for k, c in r1.structure[i][j].items():
                prod[k] = dom.add(prod[k], dom.coerce(c))
            lhs = _apply_matrix(matrix, prod, dom)
            rhs = multiply(r2, cols[i], cols[j])
            if not _vec_eq(dom, lhs, rhs):
                return False
    return True


def is_ring_isomorphism(r1, r2, matrix):
    """Homomorphism plus full rank over the target domain."""
    if not is_ring_homomorphism(r1, r2, matrix):
        return False
    dom = r2.domain
    if dom is ZZ:
        from .linalg import det
        return abs(det(matrix)) == 1
    rows = [[dom.coerce(v) for v in row] for row in matrix]
    return field_rank(rows, dom) == r1.dim


def _multiplication_matrix(ring, u, side, p):
    """The matrix over F_p of w -> u * w (side "left") or w -> w * u."""
    n = ring.dim
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # column j: u_i * e_i * e_j on the left, u_i * e_j * e_i on the right
            for k, s in (ring.structure[i][j] if side == "left" else ring.structure[j][i]).items():
                m[k][j] += u[i] * s
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


def find_ring_isomorphism(r1, r2, p, budget=DEFAULT_ISO_BUDGET):
    """A ring isomorphism r1 -> r2 over F_p, as the matrix whose column j
    is phi(e_j), or None when there is none.

    Needs e_i * e_i = c_i * e_i in r1 for every i, as in a quandle ring and
    in direct sums of quandle rings.  Backtracking over the images of the
    basis elements: column i starts from the nonzero v of r2 with
    v * v = c_i * v (for a quandle ring, the nonzero idempotents of r2)
    whose multiplication maps have the ranks and traces (of the map and of
    its square) of those of e_i, found by one scan of F_p^n.  Each step places the column with the
    fewest candidates left and skips a candidate in the span of the placed
    columns.  Then, for each pair (a, b) that involves one unplaced column
    k besides placed ones (a, b and the support of e_a * e_b),
    phi(e_a) * phi(e_b) = phi(e_a * e_b) is a linear equation in phi(e_k),
    and the candidates of column k narrow to its solutions.  For a quandle
    ring, placing e_a and e_b leaves one candidate for e_(a > b).  The
    matrix returned is confirmed by is_ring_isomorphism.

    budget caps the candidate vectors scanned (F_p^n once, then each
    narrowing) plus the search nodes visited; CapacityError beyond it.
    """
    if r1.dim != r2.dim:
        raise DimensionMismatchError("rings must have equal dimension")
    n = r1.dim
    dom = GF(p)
    ring1 = BasedRing(dom, n, r1.structure, r1.labels)
    ring2 = BasedRing(dom, n, r2.structure, r2.labels)
    # (a, b, e_a * e_b, the columns the pair involves)
    pairs = []
    for a in range(n):
        for b in range(n):
            prod = {k: c % p for k, c in ring1.structure[a][b].items() if c % p}
            pairs.append((a, b, prod, {a, b, *prod}))
    squares = [pairs[i * n + i][2] for i in range(n)]
    if any(set(sq) - {i} for i, sq in enumerate(squares)):
        raise PreconditionError("every e_i * e_i must be a multiple of e_i")
    spent = 0

    def charge(work):
        nonlocal spent
        spent += work
        if spent > budget:
            raise CapacityError("ring isomorphism search exceeds budget %d" % budget)

    keys = [(sq.get(i, 0), _multiplication_invariants(ring1, ring1.basis_vector(i), p))
            for i, sq in enumerate(squares)]
    pools = {key: [] for key in keys}
    charge(p**n - 1)
    for v in itertools.islice(itertools.product(range(p), repeat=n), 1, None):
        square = multiply(ring2, v, v)
        c = next((c for c, _ in pools if square == [c * x % p for x in v]), None)
        key = (c, _multiplication_invariants(ring2, v, p)) if c is not None else None
        if key in pools:
            pools[key].append(v)

    cols = [None] * n

    def narrowed(k, d, j):
        """The candidates in d for column k that solve the linear equations
        on phi(e_k) from the pairs whose last unplaced column besides k
        was j."""
        eqs = []
        for a, b, prod, used in pairs:
            if j not in used or k not in used or any(cols[x] is None for x in used if x != k):
                continue
            if a == k:
                m, lhs = _multiplication_matrix(ring2, cols[b], "right", p), [0] * n
            elif b == k:
                m, lhs = _multiplication_matrix(ring2, cols[a], "left", p), [0] * n
            else:
                m, lhs = [[0] * n for _ in range(n)], multiply(ring2, cols[a], cols[b])
            for r in range(n):
                row = [(m[r][s] - prod.get(k, 0) * (r == s)) % p for s in range(n)]
                value = (sum(c * cols[x][r] for x, c in prod.items() if x != k) - lhs[r]) % p
                if any(row) or value:
                    eqs.append((row, value))
        if not eqs:
            return d
        charge(len(d))
        return [w for w in d if all(sum(x * y for x, y in zip(row, w)) % p == value for row, value in eqs)]

    def search(domains):
        if not domains:
            return [[cols[j][r] for j in range(n)] for r in range(n)]
        j = min(domains, key=lambda k: (len(domains[k]), k))
        placed = [c for c in cols if c is not None]
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

    matrix = search({i: pools[key] for i, key in enumerate(keys)})
    if matrix is not None and not is_ring_isomorphism(ring1, ring2, matrix):
        raise RuntimeError("ring isomorphism search returned a map that is not one")
    return matrix
