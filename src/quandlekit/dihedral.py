"""Closed-form products in the augmentation ideal of dihedral quandle
rings, the Delta-filtration quotients for R_n, and an exact certificate,
over a prime field holding the needed roots of unity, of the complex
decomposition of C[R_n] into rotation-eigenvector planes.

Basis convention: e_i = a_i - a_0 for 1 <= i < n, with e_0 identically
zero, so any index is reduced mod n and index 0 is dropped.
"""

import itertools

from ._record import Record
from .domains import GF, ZZ, _is_prime
from .errors import PreconditionError, QuandleKitError
from .lattices import delta_powers, delta_quotients, span
from .linalg import rref, spin
from .quandles import dihedral_quandle, inner_moves, orbits


class EBasisExpr(Record):
    """Sparse integer combination of e_1, ..., e_{n-1}."""

    __slots__ = ("n", "coeffs")  # coeffs: sorted tuple of (index, coefficient), no zeros

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx, c in self.coeffs:
            term = "e_%d" % idx if abs(c) == 1 else "%de_%d" % (abs(c), idx)
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def e_expr(n, pairs):
    """Build an EBasisExpr from (index, coefficient) pairs, reducing
    indices mod n and dropping index 0 and zero coefficients."""
    acc = {}
    for idx, c in pairs:
        idx %= n
        if idx == 0 or c == 0:
            continue
        acc[idx] = acc.get(idx, 0) + c
    return EBasisExpr(n=n, coeffs=tuple(sorted((i, c) for i, c in acc.items() if c != 0)))


def e_product(n, i, j):
    """e_i * e_j in Z[R_n]: e_{2j-i} - e_{2j} - e_{n-i}.

    Expanding (a_i - a_0)(a_j - a_0) with the dihedral table gives
    a_{2j-i} - a_{n-i} - a_{2j} + a_0, and rewriting a_k = e_k + a_0
    leaves exactly these three terms.
    """
    if not (1 <= i < n and 1 <= j < n):
        raise PreconditionError("indices must lie in [1, %d)" % n)
    return e_expr(n, [(2 * j - i, 1), (2 * j, -1), (n - i, -1)])


def e_to_vector(expr):
    """Coefficients over the a-basis: e_i = a_i - a_0."""
    v = [0] * expr.n
    for idx, c in expr.coeffs:
        v[idx] += c
        v[0] -= c
    return v


def vector_to_e(n, v):
    """Inverse of e_to_vector for augmentation-zero vectors."""
    if sum(v) != 0:
        raise QuandleKitError("vector is not in the augmentation ideal")
    return e_expr(n, [(i, v[i]) for i in range(1, n)])


def column_periodicity_holds(n):
    """For even n, column j equals column j + n/2 throughout."""
    if n % 2 != 0:
        raise PreconditionError("periodicity concerns even n")
    half = n // 2
    for i in range(1, n):
        for j in range(1, half):
            if e_product(n, i, j) != e_product(n, i, j + half):
                return False
    return True


def _families(n, case):
    """The displayed product families of case 1 or 2, in display order, as
    (label, instances); a family for both cases has case None."""
    half, quarter = n // 2, n // 4
    below = range(1, (n + 3) // 4)  # the i with 4i < n
    fams = [
        (None, "e_{2i}*e_i = -e_{2i} - e_{n-2i}",
         [(2 * i, i, [(2 * i, -1), (n - 2 * i, -1)]) for i in range(1, quarter + 1)]),
        (None, "e_{n-2i}*e_i = -2e_{2i} + e_{4i}",
         [(n - 2 * i, i, [(2 * i, -2), (4 * i, 1)]) for i in below]),
        (None, "e_{2i}*e_{n/2-i} = e_{n-4i} - 2e_{n-2i}",
         [(2 * i, half - i, [(n - 4 * i, 1), (n - 2 * i, -2)]) for i in below]),
        (1, "e_i*e_{n/4} = -e_{n-i} - e_{n/2} + e_{3n/2-i}  (upper i)",
         [(i, quarter, [(n - i, -1), (half, -1), (half + n - i, 1)]) for i in range(half + 1, n)]),
        (1, "e_i*e_{n/4} = e_{n/2-i} - e_{n/2} - e_{n-i}  (lower i)",
         [(i, quarter, [(half - i, 1), (half, -1), (n - i, -1)]) for i in range(1, half)]),
        (None, "e_i*e_{n/2} = 0", [(i, half, []) for i in range(1, n)]),
        (2, "e_1*e_1 = e_1 - e_2 - e_{n-1}", [(1, 1, [(1, 1), (2, -1), (n - 1, -1)])]),
        (2, "e_{n-1}*e_1 = -e_1 - e_2 + e_3", [(n - 1, 1, [(1, -1), (2, -1), (3, 1)])]),
        (2, "e_i*e_1 = -e_2 - e_{n-i} + e_{n-i+2}",
         [(i, 1, [(2, -1), (n - i, -1), (n - i + 2, 1)]) for i in range(3, n - 2)]),
    ]
    return [(label, instances) for only, label, instances in fams if only in (None, case)]


class FormulaReport(Record):
    __slots__ = ("n", "case", "checked", "mismatches")  # mismatches: (family label, i-index of the instance)

    @property
    def ok(self):
        return not self.mismatches


def verify_product_formulas(n):
    """Check every displayed product family against e_product.

    Case 1 covers n divisible by 4, case 2 the other even n; odd n has no
    displayed families.
    """
    if n < 4 or n % 2 != 0:
        raise PreconditionError("the formula families require even n >= 4")
    case = 1 if n % 4 == 0 else 2
    checked = 0
    mismatches = []
    for label, instances in _families(n, case):
        for lhs_i, lhs_j, rhs_pairs in instances:
            checked += 1
            if e_product(n, lhs_i, lhs_j) != e_expr(n, rhs_pairs):
                mismatches.append((label, lhs_i))
    return FormulaReport(n=n, case=case, checked=checked, mismatches=tuple(mismatches))


def delta_series_shapes(n, k_max):
    """quotient_shape(Delta^k, Delta^(k+1)) for k = 1..k_max over Z; R_n is
    principal, so `delta_quotients` stops at the first two of equal rank."""
    if n < 2 or k_max < 1:
        raise PreconditionError("need n >= 2 and k_max >= 1")
    return delta_quotients(dihedral_quandle(n), k_max)[0]


def star_relations_check(n):
    """Even n: e_l collapses to (l//2)e_2 (+ e_1 when l is odd) mod Delta^2."""
    if n < 4 or n % 2 != 0:
        raise PreconditionError("needs even n >= 4")
    delta2 = delta_powers(dihedral_quandle(n), ZZ, 2)[1]
    exprs = [e_expr(n, [(l, 1), (2, -(l // 2))] + ([(1, -1)] if l % 2 else [])) for l in range(2, n)]
    return delta2.contains(*map(e_to_vector, exprs))


def odd_relations_check(n):
    """Odd n: e_{2i} + e_{n-2i}, e_k - k*e_1 and n*e_1 all lie in Delta^2."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("needs odd n >= 3")
    delta2 = delta_powers(dihedral_quandle(n), ZZ, 2)[1]
    exprs = [e_expr(n, [(2 * i, 1), (n - 2 * i, 1)]) for i in range(1, (n - 1) // 2 + 1)]
    exprs += [e_expr(n, [(k, 1), (1, -k)]) for k in range(2, n)] + [e_expr(n, [(1, n)])]
    return delta2.contains(*map(e_to_vector, exprs))


class ComplexSummand(Record):
    __slots__ = ("label", "dim", "invariant", "simple")


class ComplexDecompositionReport(Record):
    __slots__ = ("n", "prime", "summands", "total_dim")  # total_dim: dimension of the sum of the summands

    @property
    def ok(self):
        """The summands are simple right ideals whose dimensions add up to
        n and whose sum is everything, so the sum is direct."""
        dims = sum(s.dim for s in self.summands)
        return self.total_dim == dims == self.n and all(s.invariant and s.simple for s in self.summands)

    def to_json(self):
        return {
            "n": self.n,
            "prime": self.prime,
            "total_dim": self.total_dim,
            "ok": self.ok,
            "summands": [
                {"label": s.label, "dim": s.dim, "invariant": s.invariant, "simple": s.simple}
                for s in self.summands
            ],
        }


def _summand_check(domain, moves, rows):
    """(dim, invariant, simple) for the span of the rows over F_p.

    The span is invariant when spinning the rows up under the moves does
    not grow it, and an invariant span is simple when
    `meataxe._irreducible` finds no proper nonzero invariant subspace in it.
    """
    from .meataxe import _irreducible  # loaded on first use, as in lattices

    sub = span(len(rows[0]), domain, rows)
    invariant = spin(domain, rows, moves) == sub.basis
    return sub.rank, invariant, invariant and _irreducible(domain, moves, sub)[0]


def _root_of_unity(m, p):
    """An element of order m in F_p, for m dividing p - 1."""
    for a in range(2, p):
        xi = pow(a, (p - 1) // m, p)
        if all(pow(xi, d, p) != 1 for d in range(1, m)):
            return xi


def complex_decomposition_check(n):
    """Exact decomposition of C[R_n] into simple right ideals: one
    indicator line per orbit plus eigenvector planes of the rotation
    R_1 R_0 (a sign line when the orbit size is even).

    Odd n has a single orbit of size m = n; even n = 2m splits into the
    even and odd residues, each of size m, and each contributes its own
    set of planes (so the plane types appear with multiplicity two).

    The check runs over F_p for the least prime p = 1 mod lcm(m, 2), with
    an element xi of order m in place of exp(2 pi i / m).  Such a p does
    not divide |Inn(R_n)| = 2m, and F_p holds the m-th roots of unity, so
    reduction mod p keeps the simple summands and their dimensions
    (Brauer; Serre, Linear Representations of Finite Groups, Part III).
    """
    if n < 3:
        raise PreconditionError("need n >= 3")
    x = dihedral_quandle(n)
    orbit_list = orbits(x)
    m = len(orbit_list[0])
    step = m if m % 2 == 0 else 2 * m  # lcm(m, 2)
    p = next(q for q in itertools.count(step + 1, step) if _is_prime(q))
    domain, xi = GF(p), _root_of_unity(m, p)
    moves = inner_moves(x)

    def row_on(orb, value):
        row = [0] * n
        for t, v in enumerate(orb):
            row[v] = value(t)
        return row

    summands, rows = [], []
    for which, orb in enumerate(orbit_list):
        tag = "" if len(orbit_list) == 1 else (".even" if which == 0 else ".odd")
        parts = [("triv" + tag, [row_on(orb, lambda t: 1)])]
        for j in range(1, m // 2 + 1):
            if 2 * j == m:
                parts.append(("sign" + tag, [row_on(orb, lambda t: (-1) ** t % p)]))
            else:
                plane = [row_on(orb, lambda t, e=e: pow(xi, e * t, p)) for e in (j, m - j)]
                parts.append(("plane%d%s" % (j, tag), plane))
        for label, part in parts:
            summands.append(ComplexSummand(label, *_summand_check(domain, moves, part)))
            rows += part
    return ComplexDecompositionReport(n=n, prime=p, summands=tuple(summands), total_dim=len(rref(rows, domain)))
