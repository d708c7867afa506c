"""Finite quandles: representation, standard families, validation, orbits.

A quandle of size n is stored as an n x n table of element indices with
``table[i][j] = i > j`` (the row element acted on by the column element).
Elements are 0-indexed throughout; serialized tables are 0-indexed too.
"""

import json
from functools import wraps
from itertools import islice
from math import gcd

from ._record import Record
from .errors import (
    AxiomViolationError,
    EmptyQuandleError,
    GroupAxiomError,
    MalformedTableError,
    NonUnitParameterError,
    QuandleKitError,
)

AXIOM_IDEMPOTENCE = "I"
AXIOM_RIGHT_INVERTIBLE = "II"
AXIOM_SELF_DISTRIBUTIVE = "III"
MAX_WITNESSES = 10  # reported per axiom


class ValidationReport(Record):
    __slots__ = ("ok", "violations")  # violations: tuple of (axiom_id, witness_tuple)


def _check_shape(n, table):
    if not isinstance(n, int) or isinstance(n, bool) or not isinstance(table, (list, tuple)):
        raise MalformedTableError("bad-structure", "'n' must be an int and 'table' a list")
    if n < 1:
        raise MalformedTableError("bad-structure", "table size must be >= 1, got %d" % n)
    if len(table) != n:
        raise MalformedTableError("ragged-rows", "expected %d rows, got %d" % (n, len(table)))
    indices = frozenset(range(n))
    for i, row in enumerate(table):
        # a well-formed row passes on row-level builtins; only a bad one is walked entry by entry
        if type(row) in (list, tuple) and len(row) == n and set(map(type, row)) == {int} and indices.issuperset(row):
            continue
        if not isinstance(row, (list, tuple)):
            raise MalformedTableError("bad-structure", "row %d is not a list" % i)
        if len(row) != n:
            raise MalformedTableError("ragged-rows", "row %d has length %d, expected %d" % (i, len(row), n))
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTableError(
                    "entry-out-of-range", "entry (%d,%d)=%r not an index in [0,%d)" % (i, j, v, n)
                )


def validate_table(n, table):
    """Check the three quandle axioms, reporting the first MAX_WITNESSES
    witnesses of each in lexicographic order.

    Once every column is onto, axiom III is decided at the distinct
    columns R_k, k in `generating_set` (`inner_moves`), and the n^3 scan
    runs only if that fails.

    Raises MalformedTableError for structurally broken input; axiom
    violations are reported, not raised.
    """
    _check_shape(n, table)
    return _axiom_report(Quandle(n, table))


def _axiom_report(x):
    """`validate_table`'s report on x, a Quandle of a table of the right shape."""
    n, table = x.n, x.table
    not_onto = [(j,) for j, column in enumerate(zip(*table)) if len(set(column)) != n]
    # The k whose R_k respects > are closed under >, as R_(a>b) = R_b R_a R_b^-1
    # when R_b is an automorphism; so they are all of X if they hold its generators,
    # whose distinct non-identity columns are `inner_moves`.
    scan = not_onto or not all(
        [r[v] for v in row] == [table[r[i]][v] for v in r]  # R_k(i > j) = R_k(i) > R_k(j)
        for r in inner_moves(x)
        for i, row in enumerate(table)
    )
    scans = (
        (AXIOM_IDEMPOTENCE, ((i,) for i in range(n) if table[i][i] != i)),
        (AXIOM_RIGHT_INVERTIBLE, not_onto),
        (
            AXIOM_SELF_DISTRIBUTIVE,
            # (i > j) > k against (i > k) > (j > k)
            (
                (i, j, k)
                for i, row_i in enumerate(table)
                for j, row_j in enumerate(table)
                for k, ij_k in enumerate(table[row_i[j]])
                if ij_k != table[row_i[k]][row_j[k]]
            )
            if scan
            else (),
        ),
    )
    violations = tuple((axiom, w) for axiom, found in scans for w in islice(found, MAX_WITNESSES))
    return ValidationReport(ok=not violations, violations=violations)


def _checked(n, table):
    """The Quandle of an n x n table: MalformedTableError for a broken
    shape, AxiomViolationError carrying every reported witness otherwise.
    The generators and moves found in checking stay cached on the quandle."""
    _check_shape(n, table)
    x = Quandle(n, tuple(tuple(row) for row in table))
    report = _axiom_report(x)
    if not report.ok:
        raise AxiomViolationError(
            "table violates quandle axioms: %s" % (report.violations[:3],),
            violations=report.violations,
        )
    return x


class Quandle(Record):
    """Immutable finite quandle; table[i][j] = i > j.

    ``Quandle(n, table)`` trusts its caller: it checks neither the shape
    nor the axioms, and is what the constructors below use.  Tables from
    outside go through the checked path, ``from_table`` or
    ``from_json_dict``.  The slot ``_derived`` is not a field: it maps each
    `derived` function to its value on this quandle, filled on first use.
    """

    __slots__ = ("n", "table", "_derived")  # table: tuple of tuples of int

    @staticmethod
    def from_table(table, validate=True):
        """The checked quandle of a table; ``validate=False`` only copies it."""
        tbl = tuple(tuple(row) for row in table)
        return _checked(len(tbl), tbl) if validate else Quandle(len(tbl), tbl)

    def op(self, i, j):
        return self.table[i][j]


def trivial_quandle(n):
    """Quandle with i > j = i."""
    if n < 1:
        raise EmptyQuandleError("trivial quandle needs n >= 1")
    return Quandle(n, tuple(tuple(i for _ in range(n)) for i in range(n)))


def dihedral_quandle(n):
    """Dihedral quandle on Z_n: i > j = 2j - i (mod n)."""
    if n < 1:
        raise EmptyQuandleError("dihedral quandle needs n >= 1")
    return Quandle(n, tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))


def alexander_quandle(n, t):
    """Alexander quandle on Z_n: i > j = t*i + (1-t)*j (mod n); t must be a unit."""
    if n < 1:
        raise EmptyQuandleError("alexander quandle needs n >= 1")
    t = t % n if n > 1 else 0
    if n > 1 and gcd(t, n) != 1:
        raise NonUnitParameterError("t=%d is not a unit mod %d" % (t, n))
    return Quandle(n, tuple(tuple((t * i + (1 - t) * j) % n for j in range(n)) for i in range(n)))


def _validate_group(cayley):
    """Identity and inverses of a group Cayley table.

    MalformedTableError when the table is not a square list of indices,
    GroupAxiomError when it is one but not a group table.
    """
    if not isinstance(cayley, (list, tuple)):
        raise MalformedTableError("bad-structure", "a Cayley table must be a list of rows")
    n = len(cayley)
    _check_shape(n, cayley)
    identity = None
    for e in range(n):
        if all(cayley[e][j] == j for j in range(n)) and all(cayley[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupAxiomError("no identity element")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if cayley[i][j] == identity and cayley[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise GroupAxiomError("element %d has no inverse" % i)
    # Light's test: the g with (x*g)*y = x*(g*y) for all x, y are closed under *, so they
    # are all of G if they hold the generators, whose orbit under u -> u*s covers G
    gens = generating_set(Quandle(n, cayley))
    if not all(list(cayley[row[g]]) == [row[v] for v in cayley[g]] for g in gens for row in cayley):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
                        raise GroupAxiomError("associativity fails at (%d,%d,%d)" % (a, b, c))
    return identity, inverse


def conjugation_quandle(cayley):
    """Conj(G): i > j = j^-1 * i * j, from a validated group Cayley table."""
    _, inverse = _validate_group(cayley)
    n = len(cayley)
    return Quandle(
        n, tuple(tuple(cayley[cayley[inverse[j]][i]][j] for j in range(n)) for i in range(n))
    )


def core_quandle(cayley):
    """Core(G): i > j = j * i^-1 * j, from a validated group Cayley table."""
    _, inverse = _validate_group(cayley)
    n = len(cayley)
    return Quandle(
        n, tuple(tuple(cayley[cayley[j][inverse[i]]][j] for j in range(n)) for i in range(n))
    )


def disjoint_union(x, y):
    """Disjoint union: blocks replicate X and Y, cross products return the left argument."""
    n, m = x.n, y.n
    size = n + m
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i < n and j < n:
                table[i][j] = x.table[i][j]
            elif i >= n and j >= n:
                table[i][j] = y.table[i - n][j - n] + n
            else:
                table[i][j] = i
    return Quandle(size, tuple(tuple(row) for row in table))


def derived(fn):
    """Cache fn(x) in ``x._derived``, once per quandle object, on first use.
    Every caller gets the same value, so fn must return an immutable one."""
    @wraps(fn)
    def cached(x):
        if fn not in x._derived:
            x._derived[fn] = fn(x)
        return x._derived[fn]
    return cached


@derived
def orbits(x):
    """Orbit partition of [0,n) under Inn(X), as a sorted tuple of sorted tuples.

    Row i holds every R_j(i), and the columns are bijections of a finite
    set, so closing a point under the rows gives its Inn(X)-orbit.
    """
    found, seen = [], set()
    for i in range(x.n):
        if i not in seen:
            orbit, new = {i}, {i}
            while new:
                new = set().union(*(x.table[u] for u in new)) - orbit
                orbit |= new
            seen |= orbit
            found.append(tuple(sorted(orbit)))
    return tuple(found)


def partition_type(x):
    """lambda[j-1] = number of orbits of cardinality j, for 1 <= j <= n."""
    lam = [0] * x.n
    for orb in orbits(x):
        lam[len(orb) - 1] += 1
    return tuple(lam)


@derived
def generating_set(x):
    """Greedy generators: each the least element outside the orbit of the
    ones before under their columns u -> u > s, found breadth-first in
    O(n * len(gens)).  In a quandle, R_(a > b) = R_b R_a R_b^-1, so that
    orbit is closed under the operation: it is the subquandle the ones
    before generate, and their R_a generate Inn(X)."""
    t, gens, inside = x.table, [], set()
    for a in range(x.n):
        if a not in inside:
            gens.append(a)
            new = {a}.union(t[u][a] for u in inside) - inside  # a, and the old orbit moved by R_a
            while new:
                inside |= new
                new = {t[u][s] for u in new for s in gens} - inside
    return tuple(gens)


@derived
def inner_moves(x):
    """The distinct non-identity columns R_a, a in `generating_set(x)`, as
    a tuple: they generate Inn(X), so closure or transitivity under these
    moves is closure or transitivity under every R_j."""
    columns = tuple(zip(*x.table))
    identity = tuple(range(x.n))
    return tuple(m for m in dict.fromkeys(columns[a] for a in generating_set(x)) if m != identity)


def right_translation(x, j):
    """R_j: i -> i > j, a permutation of [0,n)."""
    if not 0 <= j < x.n:
        raise QuandleKitError("index %d out of range" % j)
    return tuple(x.table[i][j] for i in range(x.n))


def left_translation(x, i):
    """L_i: j -> i > j, an arbitrary self-map of [0,n)."""
    if not 0 <= i < x.n:
        raise QuandleKitError("index %d out of range" % i)
    return tuple(x.table[i])


def to_json_dict(x):
    return {"n": x.n, "table": [list(row) for row in x.table]}


def from_json_dict(d):
    """The quandle of a decoded ``{"n": ..., "table": ...}`` document, its
    shape and axioms checked once."""
    if not isinstance(d, dict) or "n" not in d or "table" not in d:
        raise MalformedTableError("bad-structure", "expected an object with 'n' and 'table'")
    return _checked(d["n"], d["table"])


def dumps(x):
    return json.dumps(to_json_dict(x), sort_keys=True)
