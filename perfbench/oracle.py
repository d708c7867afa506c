"""Reference values and checks that do not use the code under test.

These values are kept apart from ``quandlekit.cli.EXPECTED`` on purpose:
the measuring instrument must not move with the code it measures.  A
change that edited both the library and its own reference table would
otherwise pass the benchmark with wrong answers.  Values come from three
places:

* the literature (OEIS A057991; the 2-transitivity tallies and the
  Delta-filtration quotients proved in the paper);
* invariant summaries of the base quandles, recorded once in
  ``reference.json`` by ``record_reference.py`` at the commit that
  introduced the benchmark;
* invariance under relabeling, and small algebra checks written here
  (quandle isomorphisms, ring-map certificates, power-associativity
  witnesses).
"""

import json
import os
from fractions import Fraction

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# OEIS A057991: isomorphism classes of quandles of order n.
QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
# n -> (classes, right-orbit 2-transitive, left-peak 2-transitive)
CENSUS_TALLIES = {3: (3, 3, 2), 4: (7, 6, 3), 5: (22, 16, 7), 6: (73, 42, 14)}


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def map_orbits(orbits, sigma):
    """Orbit partition after renaming element i to sigma[i]."""
    return sorted(sorted(sigma[v] for v in orb) for orb in orbits)


def is_quandle_isomorphism(x, y, sigma):
    """sigma is a bijection with sigma(i > j) = sigma(i) > sigma(j)."""
    n = len(x)
    if sigma is None or len(sigma) != n or sorted(sigma) != list(range(n)):
        return False
    return all(y[sigma[i]][sigma[j]] == sigma[x[i][j]] for i in range(n) for j in range(n))


def _reduce(value, p):
    return value % p if p else value


def _determinant(matrix, p):
    """Determinant over F_p (p prime) or over Q (p = 0) by elimination."""
    a = [[_reduce(Fraction(v) if not p else v, p) for v in row] for row in matrix]
    n, det = len(a), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = _reduce(det * a[c][c], p)
        inv = pow(a[c][c], p - 2, p) if p else 1 / a[c][c]
        for r in range(c + 1, n):
            f = _reduce(a[r][c] * inv, p)
            if f:
                a[r] = [_reduce(u - f * v, p) for u, v in zip(a[r], a[c])]
    return det


def is_ring_isomorphism(x, y, matrix, p):
    """The linear map e_j -> column j of the matrix, from the quandle ring of
    table x to that of table y over F_p (p = 0: over Q), is multiplicative
    on basis pairs and has nonzero determinant."""
    n = len(x)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return False
    cols = [[_reduce(matrix[a][j], p) for a in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = cols[x[i][j]]
            rhs = [0] * n
            for a, ca in enumerate(cols[i]):
                if ca:
                    for b, cb in enumerate(cols[j]):
                        if cb:
                            rhs[y[a][b]] += ca * cb
            if [_reduce(v, p) for v in rhs] != lhs:
                return False
    return _determinant(matrix, p) != 0


def _product(table, u, v, p):
    n = len(table)
    out = [0] * n
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[table[i][j]] += ui * vj
    return [_reduce(c, p) for c in out]


def power_assoc_witness_holds(table, p, witness):
    """The reported element really violates the named Albert identity and
    the reported sides are the true products."""
    parse = (lambda c: c % p) if p else Fraction
    u = [parse(c) for c in witness["element"]]
    uu = _product(table, u, u, p)
    uu_u = _product(table, uu, u, p)
    if witness["identity"] == "cube":
        lhs, rhs = uu_u, _product(table, u, uu, p)
    elif witness["identity"] == "fourth":
        lhs, rhs = _product(table, uu, uu, p), _product(table, uu_u, u, p)
    else:
        return False
    claimed = ([parse(c) for c in witness["lhs"]], [parse(c) for c in witness["rhs"]])
    return lhs != rhs and (lhs, rhs) == claimed


def expected_delta_shape(n, k, variant, recorded):
    """Quotient Delta^k / Delta^(k+1) of Z[R_n]: Z_n for odd n (every k),
    Z + Z_{n/2} for even n at k = 1, and the value recorded at the
    benchmark's commit for even n beyond k = 1."""
    if n % 2:
        return {"free_rank": 0, "torsion": [n]}
    if k == 1:
        return {"free_rank": 1, "torsion": [n // 2]}
    return recorded["%d/%d/%s" % (n, k, variant)]
