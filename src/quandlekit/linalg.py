"""Exact linear algebra: integer Hermite/Smith normal forms and row
reduction over Q or F_p, in plain Python arithmetic on ints and Fractions.

Both reduced forms are built one row at a time by an echelon form whose
``insert`` reports whether the span grew.  The integer HNF stays reduced
after every change, each row's entries at the later pivots in [0, pivot),
which keeps intermediate entries from swelling.
"""

from .domains import ZZ
from .errors import DimensionMismatchError, PreconditionError


class _Echelon:
    """Reduced basis of the rows inserted so far, by pivot column."""

    def __init__(self):
        self.basis = {}  # pivot column -> row
        self.ncols = None

    def _checked(self, row):
        row = list(row)
        if self.ncols is None:
            self.ncols = len(row)
        elif len(row) != self.ncols:
            raise DimensionMismatchError("ragged matrix")
        return row

    def extend(self, rows):
        for row in rows:
            self.insert(row)
        return self.rows()

    def rows(self):
        return [tuple(self.basis[c]) for c in sorted(self.basis)]


class IntegerEchelon(_Echelon):
    """Row-style HNF, pivots positive and entries above them in [0, pivot);
    a row is cleared at each pivot by the exact quotient, else by Euclid."""

    def _reduced(self, row, c):
        # entries at the pivots after c into [0, pivot), or they swell
        for k, top in sorted(self.basis.items()):
            q = row[k] // top[k] if k > c else 0
            if q:
                row = [a - q * b for a, b in zip(row, top)]
        return row

    def insert(self, row):
        """Add row to the lattice; True when the lattice grew."""
        basis, row, grew = self.basis, self._checked(row), False
        for c in range(self.ncols):
            if not row[c]:
                continue
            top = basis.get(c)
            if top is None:
                top, row = row, None
            else:
                q, r = divmod(row[c], top[c])
                if not r:
                    row = [a - q * b for a, b in zip(row, top)]
                    continue
                while row[c]:  # Euclid; the leftover row goes on past c
                    q = top[c] // row[c]
                    top, row = row, [a - q * b for a, b in zip(top, row)]
            grew = True
            top = basis[c] = self._reduced(top if top[c] > 0 else [-a for a in top], c)
            for k in basis:
                q = basis[k][c] // top[c] if k < c else 0
                if q:
                    basis[k] = self._reduced([a - q * b for a, b in zip(basis[k], top)], c)
            if row is None:
                break
        return grew


class FieldEchelon(_Echelon):
    """Reduced row echelon form over Q or F_p, entries coerced into the
    domain; each pivot row is 1 at its pivot and 0 at the others."""

    def __init__(self, domain):
        if domain is ZZ:
            raise PreconditionError("row reduction needs a field, not %r" % domain)
        super().__init__()
        self.domain = domain

    def insert(self, row):
        """Add row to the span; True when the span grew."""
        dom, basis, p = self.domain, self.basis, self.domain.char
        row = self._checked(row)
        if len(basis) == self.ncols:
            return False
        row = [dom.coerce(v) for v in row]
        for c, top in basis.items():
            f = row[c] % p if p else row[c]
            if f:
                row = [a - f * b for a, b in zip(row, top)]
        row = dom.reduce(row)
        c = next((c for c, a in enumerate(row) if a), None)
        if c is None:
            return False
        inv = pow(row[c], -1, p) if p else 1 / row[c]
        top = basis[c] = dom.reduce([inv * v for v in row])
        for k, other in basis.items():
            if other[c] and k != c:
                basis[k] = dom.reduce([a - other[c] * b for a, b in zip(other, top)])
        return True


def echelon(domain):
    """An empty incremental echelon form over the domain."""
    return IntegerEchelon() if domain is ZZ else FieldEchelon(domain)


def hermite_normal_form(rows):
    """Unique row-style HNF of the row lattice; zero rows dropped.
    Idempotent.  Rows may come from any iterable."""
    return IntegerEchelon().extend(rows)


def hnf_coordinates(hnf_rows, v):
    """Express v as an integer combination of HNF basis rows, or None."""
    v = list(v)
    coords = []
    for row in hnf_rows:
        p = next(c for c, val in enumerate(row) if val != 0)
        if v[p] % row[p] != 0:
            return None
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
    if any(v):
        return None
    return coords


def lattice_contains(hnf_rows, v):
    return hnf_coordinates(hnf_rows, v) is not None


def smith_normal_form(matrix, transforms=False):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    With transforms=True also returns unimodular (U, V) such that
    U*M*V is the diagonal form.
    """
    a = [list(r) for r in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)] if transforms else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if transforms else None

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        if transforms:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        if transforms:
            for row in v:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if transforms:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if transforms:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if transforms:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < n:
        # pivot: smallest nonzero absolute value in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            moved = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if not moved and all(a[i][t] == 0 for i in range(t + 1, m)) \
                    and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility d_t | every remaining entry
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, -1)  # add row i into row t, redo this pivot
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1
    factors = [a[i][i] for i in range(t)]
    if transforms:
        return factors, ([tuple(r) for r in u], [tuple(r) for r in v])
    return factors


def det(matrix):
    """Determinant of a square integer/rational matrix (fraction-free Bareiss)."""
    a = [list(r) for r in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rref(rows, domain):
    """Reduced row echelon form over Q or F_p; zero rows dropped."""
    return FieldEchelon(domain).extend(rows)


def field_rank(rows, domain):
    return len(rref(rows, domain))
