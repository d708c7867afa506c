"""Exact linear algebra: the integer Hermite normal form (HNF), the Smith
invariant factors, row reduction over Q or F_p, left kernels, and the
spin-up of a submodule under coordinate moves, in plain Python arithmetic
on ints and Fractions.

Both reduced forms are built one row at a time by an echelon form whose
``insert`` reports whether the span grew, and ``spin`` moves only the rows
that grew it.  The integer HNF stays reduced after every change, each
row's entries at the later pivots in [0, pivot), which keeps intermediate
entries from swelling.  Its pivot columns are kept
in one ascending list, so each reduction walks only the pivots it needs;
``hnf_solve`` finds the pivots of a basis once and walks each vector right
from one pivot to the next.  The Smith form splits off each +-1 entry as a
factor 1 before its HNF turns.
"""

from bisect import bisect_left, bisect_right, insort
from itertools import islice
from math import gcd

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

    def __init__(self):
        super().__init__()
        self.pivots = []  # pivot columns, ascending

    def _reduced(self, row, c):
        # entries at the pivots after c into [0, pivot), or they swell
        basis, pivots = self.basis, self.pivots
        for k in pivots[bisect_right(pivots, c):]:
            q = row[k] // basis[k][k]
            if q:
                row = [a - q * b for a, b in zip(row, basis[k])]
        return row

    def insert(self, row):
        """Add row to the lattice; True when the lattice grew."""
        basis, pivots, row, grew = self.basis, self.pivots, self._checked(row), False
        for c in range(self.ncols):
            if not row[c]:
                continue
            top = basis.get(c)
            if top is None:
                top, row = row, None
                insort(pivots, c)
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
            for k in pivots[:bisect_left(pivots, c)]:
                q = basis[k][c] // top[c]
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


def hnf_solve(hnf_rows, vectors):
    """Each vector as an integer combination of HNF basis rows, or None;
    the pivots are found once for all the vectors."""
    rows, pivots, p, out = list(hnf_rows), [], -1, []
    n = len(rows[0]) if rows else None
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError("vector length does not match the rows")
        start = p = p + 1
        while p < n and not row[p]:
            p += 1
        if p == n or any(islice(row, start)):
            raise PreconditionError("rows are not in echelon order")
        pivots.append(p)
    for v in vectors:
        v, coords, r = list(v), [], 0
        if rows and len(v) != n:
            raise DimensionMismatchError("vector length does not match the rows")
        for row, p in zip(rows, pivots):
            q, r = divmod(v[p], row[p])
            if r:
                break
            if q:
                v = [a - q * b for a, b in zip(v, row)]
            coords.append(q)
        out.append(None if r or any(v) else coords)
    return out


def hnf_coordinates(hnf_rows, v):
    """Express v as an integer combination of HNF basis rows, or None."""
    return hnf_solve(hnf_rows, [v])[0]


def smith_normal_form(matrix):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    First each entry u = +-1 splits off a factor 1: at (i, j) it clears
    column j of the other rows by row operations, then row i off column j
    by column operations, which touch no other row once column j is clear.
    All are unimodular, so the factors are 1 and those of the other rows,
    whose column j is now zero.  These go to Kannan and Bachem (1979): the
    HNF of the rows, then the HNF of its columns, and so on in turns until
    the form is diagonal; then each pair (d_i, d_j), i < j, becomes (gcd, lcm).

    The turns end: each makes the first diagonal entry whose row or column
    still holds another nonzero entry the gcd of that column or row, so
    the entry falls to a proper divisor, or it divides the rest and the
    next turn clears its row and column for good.
    """
    rows, units = [list(row) for row in matrix], 0
    if len({len(row) for row in rows}) > 1:
        raise DimensionMismatchError("ragged matrix")
    while hit := next(((i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a in (1, -1)), None):
        top, j, units = rows.pop(hit[0]), hit[1], units + 1
        rows = [[a - row[j] * top[j] * b for a, b in zip(row, top)] if row[j] else row for row in rows]
    while True:
        rows = IntegerEchelon().extend(rows)
        if not any(any(row[i + 1:]) for i, row in enumerate(rows)):
            break
        rows = list(zip(*rows))
    factors = [row[i] for i, row in enumerate(rows)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return [1] * units + factors


def rref(rows, domain):
    """Reduced row echelon form over Q or F_p; zero rows dropped."""
    return FieldEchelon(domain).extend(rows)


def field_rank(rows, domain):
    return len(rref(rows, domain))


def left_kernel(domain, rows):
    """Reduced basis of the c with sum of c_i * rows[i] zero, over Q or
    F_p: the rows of the reduced form of [rows | I] that vanish on the
    first block."""
    d = len(rows[0])
    aug = [list(row) + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]
    return [row[d:] for row in rref(aug, domain) if not any(row[:d])]


def spin(domain, seeds, moves):
    """Reduced basis of the smallest submodule holding the seeds and closed
    under the linear moves; a move scatters coordinate i to move[i], index
    -1 (a spare slot) taking zero products.  Only rows that grew the span
    have their images inserted."""
    form = echelon(domain)
    for seed in seeds:
        if not form.insert(seed):
            continue
        stack = [seed]
        while stack:
            v = stack.pop()
            for move in moves:
                w = [domain.zero] * (len(v) + 1)
                for vi, k in zip(v, move):
                    w[k] += vi
                w.pop()
                if form.insert(w):
                    stack.append(w)
    return tuple(form.rows())
