"""The enumerator against the search it replaced.

`oracle_enumerate` is the earlier enumerator, kept here as a
differential oracle: every column ranges over all (n-1)! permutations
fixing its index, each placement rescans the axiom III instances it made
decidable, and every complete table is canonicalised.  It is exponential
in n, so it is compared for n <= 5 only.
"""

import itertools
import random

import pytest

from quandlekit.quandles import Quandle, validate_table
from quandlekit.symmetry import (
    _cycle_type_reps,
    canonical_form,
    enumerate_quandles,
    quandles_isomorphic,
)

PARTITION_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 7, 7: 11, 8: 15}  # p(n - 1)


def _fixing_perms(n, j):
    rest = [i for i in range(n) if i != j]
    out = []
    for perm in itertools.permutations(rest):
        col = [0] * n
        col[j] = j
        for src, dst in zip(rest, perm):
            col[src] = dst
        out.append(col)
    return out


def _partial_axiom3_ok(t, n, c):
    """Check axiom III instances that became decidable when column c was placed."""
    for j in range(c + 1):
        for k in range(c + 1):
            m = t[j][k]
            if m > c:
                continue
            if j != c and k != c and m != c:
                continue
            for i in range(n):
                if t[t[i][j]][k] != t[t[i][k]][m]:
                    return False
    return True


def oracle_enumerate(n):
    columns = [_fixing_perms(n, j) for j in range(n)]
    t = [[None] * n for _ in range(n)]
    found = set()

    def place(c):
        if c == n:
            found.add(canonical_form(Quandle(n, tuple(tuple(r) for r in t))))
            return
        for col in columns[c]:
            for i in range(n):
                t[i][c] = col[i]
            if _partial_axiom3_ok(t, n, c):
                place(c + 1)
        for i in range(n):
            t[i][c] = None

    place(0)
    return tuple(Quandle(n, tbl) for tbl in sorted(found))


def cycle_type(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        v = start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_oracle(n):
    assert enumerate_quandles(n) == oracle_enumerate(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_relabeled_class_matches_exactly_one(n):
    # a relabeled class is isomorphic to its own representative and to
    # no other, whatever cycle type its element 0 has
    rng = random.Random(n)
    qs = enumerate_quandles(n)
    for q in qs:
        sigma = list(range(n))
        rng.shuffle(sigma)
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[sigma[i]][sigma[j]] = sigma[q.op(i, j)]
        moved = Quandle.from_table(table)
        assert sum(quandles_isomorphic(moved, r) is not None for r in qs) == 1


def test_order7_class_count():
    assert len(enumerate_quandles(7)) == 298  # OEIS A057991


def test_one_search_per_order_whatever_the_bound():
    assert enumerate_quandles(4) is enumerate_quandles(4, bound=6)
    assert enumerate_quandles(4, bound=5) is enumerate_quandles(4, bound=4)


@pytest.mark.parametrize("n", sorted(PARTITION_COUNTS))
def test_cycle_type_reps(n):
    reps = _cycle_type_reps(n)
    assert len(reps) == PARTITION_COUNTS[n]
    for perm in reps:
        assert sorted(perm) == list(range(n))
        assert perm[0] == 0
    types = [cycle_type(perm) for perm in reps]
    assert len(set(types)) == len(types)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerated_tables_are_quandles(n):
    for q in enumerate_quandles(n):
        assert validate_table(n, q.table).ok
        assert canonical_form(q) == q.table
