"""Closed-form products in the augmentation ideal of dihedral quandle
rings, the Delta-filtration quotients for R_n, and a numeric check of the
complex decomposition of C[R_n] into rotation-eigenvector planes.

Basis convention: e_i = a_i - a_0 for 1 <= i < n, with e_0 identically
zero, so any index is reduced mod n and index 0 is dropped.
"""

from dataclasses import dataclass

from .domains import ZZ
from .errors import PreconditionError, QuandleKitError
from .lattices import VARIANT_ALL, delta_powers, quotient_shape
from .quandles import dihedral_quandle, right_translation
from .rings import multiply, quandle_ring


@dataclass(frozen=True)
class EBasisExpr:
    """Sparse integer combination of e_1, ..., e_{n-1}."""

    n: int
    coeffs: tuple  # sorted tuple of (index, coefficient), no zeros

    def coeff(self, i):
        for idx, c in self.coeffs:
            if idx == i:
                return c
        return 0

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


def e_product_generic(n, i, j):
    """The same product computed through the generic structure constants,
    used to cross-validate the closed form."""
    ring = quandle_ring(dihedral_quandle(n), ZZ)
    prod = multiply(ring, e_to_vector(e_expr(n, [(i, 1)])), e_to_vector(e_expr(n, [(j, 1)])))
    return vector_to_e(n, prod)


def e_basis_table(n):
    """Full (n-1) x (n-1) product table; entry [i-1][j-1] is e_i * e_j."""
    if n < 3:
        raise PreconditionError("need n >= 3")
    return tuple(
        tuple(e_product(n, i, j) for j in range(1, n)) for i in range(1, n)
    )


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


def _case1_families(n):
    half, quarter = n // 2, n // 4
    fams = []
    fams.append((
        "e_{2i}*e_i = -e_{2i} - e_{n-2i}",
        [(2 * i, i, [(2 * i, -1), (n - 2 * i, -1)]) for i in range(1, quarter + 1)],
    ))
    fams.append((
        "e_{n-2i}*e_i = -2e_{2i} + e_{4i}",
        [(n - 2 * i, i, [(2 * i, -2), (4 * i, 1)]) for i in range(1, quarter)],
    ))
    fams.append((
        "e_{2i}*e_{n/2-i} = e_{n-4i} - 2e_{n-2i}",
        [(2 * i, half - i, [(n - 4 * i, 1), (n - 2 * i, -2)]) for i in range(1, quarter)],
    ))
    fams.append((
        "e_i*e_{n/4} = -e_{n-i} - e_{n/2} + e_{3n/2-i}  (upper i)",
        [
            (i, quarter, [(n - i, -1), (half, -1), (half + n - i, 1)])
            for i in range(half + 1, n)
        ],
    ))
    fams.append((
        "e_i*e_{n/4} = e_{n/2-i} - e_{n/2} - e_{n-i}  (lower i)",
        [(i, quarter, [(half - i, 1), (half, -1), (n - i, -1)]) for i in range(1, half)],
    ))
    fams.append((
        "e_i*e_{n/2} = 0",
        [(i, half, []) for i in range(1, n)],
    ))
    return fams


def _case2_families(n):
    half, quarter = n // 2, n // 4
    fams = []
    fams.append((
        "e_{2i}*e_i = -e_{2i} - e_{n-2i}",
        [(2 * i, i, [(2 * i, -1), (n - 2 * i, -1)]) for i in range(1, quarter + 1)],
    ))
    fams.append((
        "e_{n-2i}*e_i = -2e_{2i} + e_{4i}",
        [(n - 2 * i, i, [(2 * i, -2), (4 * i, 1)]) for i in range(1, quarter + 1)],
    ))
    fams.append((
        "e_{2i}*e_{n/2-i} = e_{n-4i} - 2e_{n-2i}",
        [(2 * i, half - i, [(n - 4 * i, 1), (n - 2 * i, -2)]) for i in range(1, quarter + 1)],
    ))
    fams.append((
        "e_i*e_{n/2} = 0",
        [(i, half, []) for i in range(1, n)],
    ))
    fams.append((
        "e_1*e_1 = e_1 - e_2 - e_{n-1}",
        [(1, 1, [(1, 1), (2, -1), (n - 1, -1)])],
    ))
    fams.append((
        "e_{n-1}*e_1 = -e_1 - e_2 + e_3",
        [(n - 1, 1, [(1, -1), (2, -1), (3, 1)])],
    ))
    fams.append((
        "e_i*e_1 = -e_2 - e_{n-i} + e_{n-i+2}",
        [(i, 1, [(2, -1), (n - i, -1), (n - i + 2, 1)]) for i in range(3, n - 2)],
    ))
    return fams


@dataclass(frozen=True)
class FormulaReport:
    n: int
    case: int
    checked: int
    mismatches: tuple  # of (family label, i-index of the instance)

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
    families = _case1_families(n) if case == 1 else _case2_families(n)
    checked = 0
    mismatches = []
    for label, instances in families:
        for lhs_i, lhs_j, rhs_pairs in instances:
            checked += 1
            if e_product(n, lhs_i, lhs_j) != e_expr(n, rhs_pairs):
                mismatches.append((label, lhs_i))
    return FormulaReport(n=n, case=case, checked=checked, mismatches=tuple(mismatches))


def delta_series_shapes(n, k_max, variant=VARIANT_ALL):
    """quotient_shape(Delta^k, Delta^(k+1)) for k = 1..k_max over Z."""
    if n < 2 or k_max < 1:
        raise PreconditionError("need n >= 2 and k_max >= 1")
    powers = delta_powers(dihedral_quandle(n), ZZ, k_max + 1, variant)
    return [quotient_shape(powers[k - 1], powers[k]) for k in range(1, k_max + 1)]


def _in_delta2(n, expr, delta2):
    return delta2.contains(e_to_vector(expr))


def star_relations_check(n):
    """Even n: e_l collapses to (l//2)e_2 (+ e_1 when l is odd) mod Delta^2."""
    if n < 4 or n % 2 != 0:
        raise PreconditionError("needs even n >= 4")
    delta2 = delta_powers(dihedral_quandle(n), ZZ, 2)[1]
    for l in range(2, n):
        expected = [(2, l // 2)] + ([(1, 1)] if l % 2 else [])
        diff = e_expr(n, [(l, 1)] + [(i, -c) for i, c in expected])
        if not _in_delta2(n, diff, delta2):
            return False
    return True


def odd_relations_check(n):
    """Odd n: e_{2i} + e_{n-2i}, e_k - k*e_1 and n*e_1 all lie in Delta^2."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("needs odd n >= 3")
    delta2 = delta_powers(dihedral_quandle(n), ZZ, 2)[1]
    for i in range(1, (n - 1) // 2 + 1):
        if not _in_delta2(n, e_expr(n, [(2 * i, 1), (n - 2 * i, 1)]), delta2):
            return False
    for k in range(2, n):
        if not _in_delta2(n, e_expr(n, [(k, 1), (1, -k)]), delta2):
            return False
    return _in_delta2(n, e_expr(n, [(1, n)]), delta2)


@dataclass(frozen=True)
class ComplexSummand:
    label: str
    dim: int
    residual: float


@dataclass(frozen=True)
class ComplexDecompositionReport:
    n: int
    summands: tuple
    tol: float

    @property
    def total_dim(self):
        return sum(s.dim for s in self.summands)

    @property
    def ok(self):
        return self.total_dim == self.n and all(s.residual < self.tol for s in self.summands)

    def to_json(self):
        return {
            "n": self.n,
            "tol": self.tol,
            "total_dim": self.total_dim,
            "ok": self.ok,
            "summands": [
                {"label": s.label, "dim": s.dim, "residual": s.residual}
                for s in self.summands
            ],
        }


def complex_decomposition_check(n, tol=1e-9):
    """Numeric decomposition of C[R_n] into right-translation-invariant
    subspaces: one indicator line per orbit plus eigenvector planes of the
    rotation subgroup (a sign line when the orbit size is even).

    Odd n has a single orbit of size n; even n = 2k splits into the even
    and odd residues, each of size k, and each contributes its own set of
    planes (so the plane types appear with multiplicity two).
    """
    import numpy as np

    if n < 3:
        raise PreconditionError("need n >= 3")
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    x = dihedral_quandle(n)
    translations = [right_translation(x, j) for j in range(n)]

    if n % 2 == 1:
        orbit_list = [list(range(n))]
    else:
        orbit_list = [list(range(0, n, 2)), list(range(1, n, 2))]

    def residual_of(span_rows):
        # max over generators of the least-squares defect of the permuted
        # rows against the original span
        a = np.array(span_rows, dtype=complex).T  # n x d
        worst = 0.0
        for g in translations:
            moved = np.zeros_like(a)
            for col in range(a.shape[1]):
                for i in range(n):
                    moved[g[i], col] = a[i, col]
            coeffs = np.linalg.lstsq(a, moved, rcond=None)[0]
            defect = a @ coeffs - moved
            worst = max(worst, float(np.abs(defect).max()))
        return worst

    summands = []
    for which, orb in enumerate(orbit_list):
        m = len(orb)
        tag = "" if len(orbit_list) == 1 else (".even" if which == 0 else ".odd")
        indicator = [0.0] * n
        for v in orb:
            indicator[v] = 1.0
        summands.append(
            ComplexSummand(
                label="triv" + tag, dim=1, residual=residual_of([indicator])
            )
        )
        xi = np.exp(2j * np.pi / m)
        for j in range(1, m // 2 + 1):
            if 2 * j == m:
                row = [0.0] * n
                for t, v in enumerate(orb):
                    row[v] = (-1.0) ** t
                summands.append(
                    ComplexSummand(label="sign" + tag, dim=1, residual=residual_of([row]))
                )
            else:
                rows = []
                for e in (j, m - j):
                    row = [0.0 + 0.0j] * n
                    for t, v in enumerate(orb):
                        row[v] = xi ** (e * t)
                    rows.append(row)
                summands.append(
                    ComplexSummand(
                        label="plane%d%s" % (j, tag), dim=2, residual=residual_of(rows)
                    )
                )
    return ComplexDecompositionReport(n=n, summands=tuple(summands), tol=tol)
