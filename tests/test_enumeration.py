"""The enumerator and the canonical form against the searches they
replaced.

`oracle_enumerate` is the earlier enumerator, kept here as a
differential oracle: every column ranges over all (n-1)! permutations
fixing its index, each placement rescans the axiom III instances it made
decidable, and every complete table is canonicalised by
`oracle_canonical_form`, the earlier n! relabeling scan.  Both are
exponential in n, so the enumerator is compared for n <= 5 only.
`oracle_unseeded_canonical_form` is the canonical form before it knew
the columns R_j as automorphisms: it learns every automorphism from
equal leaves.
"""

import itertools
import random
import time

import pytest
from conftest import relabel

from quandlekit.quandles import Quandle, trivial_quandle, validate_table
from quandlekit.symmetry import (
    _cycle_type_reps,
    _element_invariants,
    _find_isomorphism,
    _orbit,
    _refine,
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


def oracle_canonical_form(x):
    """The lexicographically least row-major table over all n! relabelings,
    with an early abort on a prefix worse than the best."""
    n = x.n
    t = x.table
    best = None
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(sigma):
            inv[v] = i
        flat = []
        worse = False
        comparing = best is not None
        for a in range(n):
            ia = inv[a]
            for b in range(n):
                entry = sigma[t[ia][inv[b]]]
                if comparing:
                    cmp = best[len(flat)]
                    if entry > cmp:
                        worse = True
                        break
                    if entry < cmp:
                        comparing = False  # strictly better prefix
                flat.append(entry)
            if worse:
                break
        if not worse and not comparing:
            best = tuple(flat)
    return tuple(tuple(best[a * n:(a + 1) * n]) for a in range(n))


def oracle_unseeded_canonical_form(x):
    """The individualisation-refinement search of `canonical_form` with no
    automorphism known at the start."""
    n, t = x.n, x.table
    inv = _element_invariants(x)
    leaves, autos = [], []

    def search(cells, path):
        cells = _refine(t, cells)
        c = next((c for c, cell in enumerate(cells) if len(cell) > 1), None)
        if c is None:
            order = [cell[0] for cell in cells]
            label = [0] * n
            for a, v in enumerate(order):
                label[v] = a
            table = tuple(label[t[v][w]] for v in order for w in order)
            for kept, kept_order in leaves:
                if kept == table:
                    autos.append(tuple(kept_order[label[v]] for v in range(n)))
                    return
            if len(leaves) < 2:
                leaves.append((table, order))
            elif table < leaves[1][0]:
                leaves[1] = (table, order)
            return
        tried = []
        for v in cells[c]:
            if _orbit(v, [g for g in autos if all(g[p] == p for p in path)]).isdisjoint(tried):
                tried.append(v)
                search(cells[:c] + [[v], [w for w in cells[c] if w != v]] + cells[c + 1:], path + [v])

    search([[v for v in range(n) if inv[v] == key] for key in sorted(set(inv))], [])
    best = min(leaves)[0]
    return tuple(best[a * n:(a + 1) * n] for a in range(n))


def oracle_enumerate(n):
    columns = [_fixing_perms(n, j) for j in range(n)]
    t = [[None] * n for _ in range(n)]
    found = set()

    def place(c):
        if c == n:
            found.add(oracle_canonical_form(Quandle(n, tuple(tuple(r) for r in t))))
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
    # the same classes, one representative each: the representatives'
    # lex-min tables are the oracle's tables
    got = sorted(oracle_canonical_form(q) for q in enumerate_quandles(n))
    assert got == [q.table for q in oracle_enumerate(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_relabeled_class_matches_exactly_one(n):
    # a relabeled class is isomorphic to its own representative and to
    # no other, whatever cycle type its element 0 has
    rng = random.Random(n)
    qs = enumerate_quandles(n)
    for q in qs:
        sigma = list(range(n))
        rng.shuffle(sigma)
        moved = relabel(q, sigma)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_enumerated_tables_are_quandles(n):
    for q in enumerate_quandles(n):
        assert validate_table(n, q.table).ok
        assert canonical_form(q) == q.table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_canonical_forms_agree_exactly_on_isomorphic_tables(n):
    # three seeded relabelings of each class, against every representative
    # with the same sorted invariants: equal canonical tables exactly when
    # the backtracking finds an isomorphism
    rng = random.Random(1000 + n)
    reps = enumerate_quandles(n)
    buckets = {}
    for r in reps:
        buckets.setdefault(tuple(sorted(_element_invariants(r))), []).append((r, canonical_form(r)))
    for q in reps:
        for _ in range(3):
            sigma = list(range(n))
            rng.shuffle(sigma)
            moved = relabel(q, sigma)
            form = canonical_form(moved)
            for r, form_r in buckets[tuple(sorted(_element_invariants(moved)))]:
                assert (form == form_r) == (_find_isomorphism(moved, r) is not None)


def test_canonical_form_of_the_most_symmetric_order8_quandle_is_fast():
    # Aut is all of S_8: the automorphism prune keeps the leaves few
    start = time.perf_counter()
    form = canonical_form(trivial_quandle(8))
    assert time.perf_counter() - start < 0.1
    assert form == trivial_quandle(8).table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_form_is_one_table_under_every_relabeling(n):
    # every relabeling of each class up to order 5, and 20 seeded ones of
    # each class of order 6: the automorphism prune may skip a member only
    # when its subtree repeats leaves already seen
    rng = random.Random(2300 + n)
    for q in enumerate_quandles(n):
        sigmas = itertools.permutations(range(n)) if n <= 5 else (rng.sample(range(n), n) for _ in range(20))
        assert {canonical_form(relabel(q, sigma)) for sigma in sigmas} == {q.table}


def test_canonical_form_matches_the_unseeded_search():
    # every class of order <= 7 and two seeded relabelings of each: the
    # columns known as automorphisms from the start only skip subtrees
    rng = random.Random(2900)
    for n in range(1, 8):
        for q in enumerate_quandles(n):
            for x in (q, relabel(q, rng.sample(range(n), n)), relabel(q, rng.sample(range(n), n))):
                assert canonical_form(x) == oracle_unseeded_canonical_form(x) == q.table


# The two relabeled classes of order <= 7 (three seeded relabelings each
# searched) on which pruning with every known automorphism, and not only
# with those that fix the path, gives a leaf table other than the least.
PRUNE_WITNESSES = [
    (
        [[0, 2, 1, 0, 0, 0], [2, 1, 0, 1, 1, 1], [1, 0, 2, 2, 2, 2], [3, 4, 5, 3, 3, 3],
         [5, 3, 4, 4, 4, 4], [4, 5, 3, 5, 5, 5]],
        [1, 4, 2, 5, 3, 0],
    ),
    (
        [[0, 0, 0, 0, 1, 2, 3], [1, 1, 1, 1, 0, 3, 2], [2, 2, 2, 2, 3, 1, 0], [3, 3, 3, 3, 2, 0, 1],
         [4, 4, 4, 4, 4, 4, 4], [5, 5, 5, 5, 5, 5, 5], [6, 6, 6, 6, 6, 6, 6]],
        [3, 2, 0, 4, 6, 1, 5],
    ),
]


@pytest.mark.parametrize("table, sigma", PRUNE_WITNESSES)
def test_canonical_form_prunes_only_with_automorphisms_fixing_the_path(table, sigma):
    q = Quandle.from_table(table)
    assert canonical_form(q) == q.table
    assert canonical_form(relabel(q, sigma)) == q.table
