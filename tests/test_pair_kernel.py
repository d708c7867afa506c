"""Differential tests of the pair-digraph kernel, the group closure and
the peak 2-transitivity kernel against the searches they replaced.

``reaches_every_pair`` decides 2-transitivity by searches of the digraph
on ordered pairs of distinct points from the single pair (0, 1): one
forward, which alone decides when every map is a permutation, and one
backward otherwise.  The oracles below are the earlier
implementations: a depth-first orbit count for groups, a breadth-first
reachability set from every pair for semigroups, and the one-step image
check for collections closed under composition.  They are quadratic in
the number of pairs and stay here only as references for small inputs.
``oracle_closure`` is the whole semigroup the maps generate, by a
breadth-first search that keeps every product; ``_closure`` is the group
closure of permutations.  ``oracle_maximal_subgroups`` finds the units of
eSe at every idempotent by a pairwise search for inverses, quadratic in
|eSe|; ``peak_2transitive``, which reads only the generators, is checked
against the one-step check on the peak subgroups it finds.
``oracle_orbits`` is the union-find that ``orbits`` replaced, and
``quandle_summary``, which derives the two global predicates from the
others, is checked against the predicates themselves.
"""

import itertools
import random
import time

from conftest import relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.cli import quandle_summary
from quandlekit.quandles import (
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    left_translation,
    orbits,
    right_translation,
    trivial_quandle,
)
from quandlekit.symmetry import (
    DEFAULT_CLOSURE_CAP,
    _closure,
    compose,
    enumerate_quandles,
    inner_group,
    is_left_2transitive,
    is_left_peak_2transitive,
    is_right_2transitive,
    is_right_orbit_2transitive,
    peak_2transitive,
    reaches_every_pair,
    restricted_action,
)


def oracle_closure(gens):
    """The semigroup generated by gens: breadth-first, every product kept."""
    elements = set(gens)
    frontier = list(elements)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h not in elements:
                    elements.add(h)
                    new.append(h)
        frontier = new
    return elements


def peak_part(elements):
    """The elements of largest rank."""
    m = max((len(set(f)) for f in elements), default=0)
    return {f for f in elements if len(set(f)) == m}


def oracle_pair_orbit_count(gens, m):
    """Orbits on ordered pairs of distinct points under the group
    generated by gens (permutations of [0,m))."""
    seen = set()
    count = 0
    for x in range(m):
        for y in range(m):
            if x == y or (x, y) in seen:
                continue
            count += 1
            stack = [(x, y)]
            seen.add((x, y))
            while stack:
                a, b = stack.pop()
                for g in gens:
                    p = (g[a], g[b])
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
    return count


def oracle_pair_reachable(gens, m):
    """For each distinct ordered pair, the set of pairs reachable by >= 1
    generator applications (semigroup action, pairs may collapse)."""
    results = {}
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            reached = set()
            frontier = [(x, y)]
            while frontier:
                new = []
                for a, b in frontier:
                    for g in gens:
                        p = (g[a], g[b])
                        if p not in reached:
                            reached.add(p)
                            new.append(p)
                frontier = new
            results[(x, y)] = reached
    return results


def oracle_semigroup_2transitive(gens, m):
    needed = {(a, b) for a in range(m) for b in range(m) if a != b}
    return all(needed <= r for r in oracle_pair_reachable(gens, m).values())


def oracle_one_step_2transitive(elements, m):
    """Every distinct pair is sent onto every distinct pair by one element."""
    if m <= 1:
        return True
    needed = m * (m - 1)
    for x1, y1 in itertools.permutations(range(m), 2):
        seen = {(f[x1], f[y1]) for f in elements if f[x1] != f[y1]}
        if len(seen) < needed:
            return False
    return True


def oracle_right_2transitive(x):
    gens = [right_translation(x, j) for j in range(x.n)]
    return x.n <= 1 or oracle_pair_orbit_count(gens, x.n) == 1


def oracle_left_2transitive(x):
    return oracle_semigroup_2transitive([left_translation(x, i) for i in range(x.n)], x.n)


def oracle_right_orbit_2transitive(x):
    gens = [right_translation(x, j) for j in range(x.n)]
    return all(
        len(orb) <= 1 or oracle_pair_orbit_count(restricted_action(gens, orb), len(orb)) == 1
        for orb in orbits(x)
    )


def oracle_maximal_subgroups(s):
    """For each idempotent e of the semigroup s, the group of units of eSe
    restricted to the image of e (reindexed to image coordinates)."""
    elements = sorted(s)
    results = []
    for e in elements:
        if compose(e, e) != e:
            continue
        monoid = {compose(e, compose(f, e)) for f in elements}
        monoid.add(e)
        units = set()
        for g in monoid:
            for h in monoid:
                if compose(g, h) == e and compose(h, g) == e:
                    units.add(g)
                    break
        image = sorted(set(e))
        restricted = restricted_action(sorted(units), image)
        results.append((e, frozenset(restricted)))
    return results


def oracle_peak_subgroups(s):
    """Element sets of `oracle_maximal_subgroups` at the idempotents of
    maximal rank, keyed by idempotent."""
    maxrank = max((len(set(f)) for f in s), default=0)
    return {e: group for e, group in oracle_maximal_subgroups(s) if len(set(e)) == maxrank}


def oracle_peak_2transitive(s):
    """Some peak maximal subgroup of s is 2-transitive on its image."""
    return any(
        oracle_one_step_2transitive(elements, len(set(e)))
        for e, elements in oracle_peak_subgroups(s).items()
    )


def oracle_left_peak_2transitive(x):
    if x.n <= 1:
        return True
    return oracle_peak_2transitive(oracle_closure([left_translation(x, i) for i in range(x.n)]))


def shuffled(q, rng):
    """q under a relabeling drawn from rng."""
    sigma = list(range(q.n))
    rng.shuffle(sigma)
    return relabel(q, sigma)


def cayley_table(gens):
    """Cayley table of the permutation group generated by gens."""
    elements = [tuple(range(len(gens[0])))]
    index = {elements[0]: 0}
    for f in elements:
        for g in gens:
            h = compose(g, f)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    return [[index[compose(f, g)] for g in elements] for f in elements]


def dihedral_group(k):
    return cayley_table([tuple((i + 1) % k for i in range(k)), tuple(-i % k for i in range(k))])


def family_quandles():
    """Relabeled dihedral, Alexander, conjugation and union quandles of
    order <= 15, with left-2-transitive ones among them."""
    qs = [dihedral_quandle(n) for n in range(3, 16)]
    alexander = ((5, 2), (7, 3), (7, 5), (8, 3), (9, 2), (11, 7), (13, 2))
    qs += [alexander_quandle(n, t) for n, t in alexander]
    qs += [
        conjugation_quandle(dihedral_group(3)),
        conjugation_quandle(dihedral_group(4)),
        conjugation_quandle(dihedral_group(5)),
        conjugation_quandle(cayley_table([(1, 2, 0, 3), (1, 0, 3, 2)])),  # A_4
        conjugation_quandle(dihedral_group(7)),
    ]
    qs += [
        disjoint_union(dihedral_quandle(3), dihedral_quandle(5)),
        disjoint_union(dihedral_quandle(5), trivial_quandle(2)),
        disjoint_union(alexander_quandle(7, 3), dihedral_quandle(4)),
        disjoint_union(trivial_quandle(3), conjugation_quandle(dihedral_group(4))),
    ]
    rng = random.Random(20180515)
    return [shuffled(q, rng) for q in qs]


def small_quandles():
    return [q for n in range(1, 7) for q in enumerate_quandles(n)]


def test_family_includes_left_2transitive_quandles():
    qs = family_quandles()
    assert max(q.n for q in qs) == 15
    # R_3, R_5, R_11, R_13 and the Alexander quandles (7, 3), (7, 5)
    assert sum(oracle_left_2transitive(q) for q in qs) == 6


def test_predicates_match_oracles():
    for q in small_quandles() + family_quandles():
        assert is_right_2transitive(q) == oracle_right_2transitive(q), q.table
        assert is_left_2transitive(q) == oracle_left_2transitive(q), q.table
        assert is_right_orbit_2transitive(q) == oracle_right_orbit_2transitive(q), q.table


def test_left_peak_matches_oracle():
    for q in small_quandles() + family_quandles():
        assert is_left_peak_2transitive(q) == oracle_left_peak_2transitive(q), q.table


def test_inner_group_matches_oracle_on_quandles():
    # the rows of these quandles go to peak_2transitive in test_left_peak_matches_oracle
    for q in small_quandles() + family_quandles():
        columns = [right_translation(q, j) for j in range(q.n)]
        assert inner_group(q) == oracle_closure(columns), q.table


def conj_s4():
    return conjugation_quandle(cayley_table([(1, 0, 2, 3), (1, 2, 3, 0)]))


def test_left_peak_of_conj_s4_is_fast():
    # the pairwise unit search took about 264 s here, the rank-m closure 8 maps
    q = conj_s4()
    start = time.perf_counter()
    assert is_left_peak_2transitive(q) is False
    assert time.perf_counter() - start < 30


def test_conj_s5_is_not_left_peak_2transitive():
    # n = 120: the full closure H_X does not fit in memory, so no oracle
    q = conjugation_quandle(cayley_table([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]))
    assert q.n == 120
    assert is_left_peak_2transitive(q) is False


def permutation_sets(m):
    return st.tuples(st.just(m), st.lists(st.permutations(list(range(m))).map(tuple), max_size=3))


def map_sets(m):
    maps = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(tuple)
    return st.tuples(st.just(m), st.lists(maps, max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(permutation_sets))
def test_group_reaches_every_pair_iff_one_pair_orbit(case):
    m, gens = case
    assert reaches_every_pair(gens, m) == (oracle_pair_orbit_count(gens, m) <= 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(map_sets))
def test_semigroup_single_component_is_2transitive(case):
    m, gens = case
    assert reaches_every_pair(gens, m) == oracle_semigroup_2transitive(gens, m)


def test_pair_01_reaching_every_pair_is_not_enough():
    # (0, 1) reaches every pair, but (0, 2), (2, 0), (1, 2) and (2, 1)
    # reach only one another, never (0, 1): only the backward search
    # rejects these maps, and about 1% of random map sets are like this
    gens = [(1, 0, 2), (2, 1, 1), (0, 0, 2)]
    assert oracle_pair_reachable(gens, 3)[(0, 1)] >= {(a, b) for a in range(3) for b in range(3) if a != b}
    assert not oracle_semigroup_2transitive(gens, 3)
    assert not reaches_every_pair(gens, 3)


def oracle_peak(gens):
    return oracle_peak_2transitive(oracle_closure(gens))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(map_sets))
def test_peak_subgroups_of_random_semigroups(case):
    m, gens = case
    assert peak_2transitive(gens) == oracle_peak(gens)


def mixed_rank_map_sets(m):
    """Up to five maps on [0, m), each of its own drawn rank."""
    def of_rank(r):
        image = st.lists(st.integers(0, m - 1), min_size=r, max_size=r, unique=True)
        return image.flatmap(lambda pts: st.permutations(list(pts) + [pts[0]] * (m - r))).map(tuple)
    maps = st.integers(1, m).flatmap(of_rank)
    return st.tuples(st.just(m), st.lists(maps, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(mixed_rank_map_sets))
def test_peak_kernel_matches_oracle_on_mixed_ranks(case):
    m, gens = case
    assert peak_2transitive(gens) == oracle_peak(gens)
    # the peak images are the rank-m generators' images, so the image
    # graph never has more nodes than there are generators
    peak = peak_part(oracle_closure(gens))
    assert {frozenset(f) for f in peak} == {frozenset(g) for g in peak_part(gens)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(permutation_sets))
def test_group_closure_matches_oracle_closure(case):
    m, gens = case
    assert _closure(gens, DEFAULT_CLOSURE_CAP) == oracle_closure(gens)


def test_peak_2transitive_basics():
    sym3 = [tuple(p) for p in itertools.permutations(range(3))]
    rotations = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    constants = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    # the rows of the one-swap quandle reach rank 2, but no idempotent does
    one_swap = [(0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 1, 1), (2, 2, 2)]
    for gens, expected in ((sym3, True), (rotations, False), (constants, True), (one_swap, False)):
        assert peak_2transitive(gens) == oracle_peak(gens) == expected, gens
    assert peak_2transitive([]) == oracle_peak([]) == False


def test_peak_class_without_idempotent():
    # image {0, 1}, kernel {0, 1 | 2}: no rank-2 element is injective on its image
    assert peak_2transitive([(1, 1, 0)]) == oracle_peak([(1, 1, 0)]) == False


def test_peak_images_in_two_components():
    # {0, 1} is the image of (0, 1, 1, 0) and (1, 0, 0, 1), which permute
    # it as S_2; {2, 3}, the image of (2, 2, 3, 3), has one edge, to
    # {0, 1}, and no idempotent image
    gens = [(0, 1, 1, 0), (1, 0, 0, 1), (2, 2, 3, 3)]
    assert peak_2transitive(gens) == oracle_peak(gens) == True
    assert peak_2transitive(gens[::2]) == oracle_peak(gens[::2]) == False


def test_peak_groups_of_separate_components_are_not_merged():
    # {6, 7, 8} has edges to {0, 1, 2}, where a is a 3-cycle, and to
    # {3, 4, 5}, where b swaps 3 and 4; neither group is 2-transitive,
    # though the two conjugated into one group would give S_3
    a = (1, 2, 0, 0, 0, 0, 0, 1, 2)
    b = (3, 3, 3, 4, 3, 5, 3, 4, 5)
    c = (6, 6, 7, 6, 6, 8, 6, 6, 8)
    assert peak_2transitive([a, b, c]) == oracle_peak([a, b, c]) == False


def test_constant_maps_isolate_every_pair():
    assert not reaches_every_pair([(0, 0, 0), (2, 2, 2)], 3)
    assert not reaches_every_pair([], 2)
    assert reaches_every_pair([], 1)
    assert reaches_every_pair([(1, 0)], 2)
    # the collapse (0, 1) -> (0, 0) is an edge to no pair
    assert reaches_every_pair([(0, 0), (1, 0)], 2)


def mixed_map_sets(m):
    """At least one permutation and at least one map that is not injective."""
    perms = st.lists(st.permutations(list(range(m))).map(tuple), min_size=1, max_size=3)
    collapsing = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(tuple).filter(lambda g: len(set(g)) < m)
    maps = st.tuples(perms, st.lists(collapsing, min_size=1, max_size=2)).flatmap(lambda p: st.permutations(p[0] + p[1]))
    return st.tuples(st.just(m), maps)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5).flatmap(mixed_map_sets))
def test_permutations_mixed_with_collapsing_maps(case):
    # a collapsing map keeps the backward search, though the permutations
    # alone would generate a group
    m, gens = case
    assert reaches_every_pair(gens, m) == oracle_semigroup_2transitive(gens, m)
    perms = [g for g in gens if len(set(g)) == m]
    if oracle_pair_orbit_count(perms, m) == 1:
        assert reaches_every_pair(gens, m)


class CountedMap(tuple):
    """A map that counts the lookups made in it."""

    lookups = 0

    def __getitem__(self, i):
        CountedMap.lookups += 1
        return tuple.__getitem__(self, i)


def test_forward_search_stops_once_every_pair_is_seen():
    # S_m from a transposition and an m-cycle: the search looks each map up
    # four times per pair it expands, so expanding every pair would take
    # 4 * len(gens) * m * (m - 1) lookups and a backward search as many
    # again; it stops before either
    for m in range(3, 9):
        gens = [CountedMap((1, 0) + tuple(range(2, m))), CountedMap(tuple(range(1, m)) + (0,))]
        CountedMap.lookups = 0
        assert reaches_every_pair(gens, m)
        assert CountedMap.lookups < 4 * len(gens) * m * (m - 1)
        assert oracle_pair_orbit_count(gens, m) == 1
    # the same stop in the forward search of maps that are not all onto
    gens = [(1, 0, 2), (1, 2, 0), (0, 0, 2)]
    assert reaches_every_pair(gens, 3) == oracle_semigroup_2transitive(gens, 3) == True


def oracle_orbits(x):
    """Inn(X)-orbits by union-find over every product i > j."""
    parent = list(range(x.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(x.n):
        for j in range(x.n):
            parent[find(i)] = find(x.op(i, j))
    groups = {}
    for i in range(x.n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def large_family_quandles():
    """Relabeled dihedral, Alexander, conjugation, core and union quandles of
    order up to 29."""
    qs = [dihedral_quandle(n) for n in (16, 18, 21, 24, 25, 27, 29)]
    qs += [alexander_quandle(n, t) for n, t in ((16, 3), (19, 2), (23, 2), (25, 2), (27, 2), (29, 2))]
    qs += [conjugation_quandle(dihedral_group(k)) for k in (6, 9, 10, 12)]
    qs += [conjugation_quandle(cayley_table([(1, 0, 2, 3), (1, 2, 3, 0)]))]  # S_4
    qs += [core_quandle(dihedral_group(k)) for k in (5, 8, 12)]
    qs += [core_quandle(cayley_table([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]))]  # Z_3 x Z_3
    qs += [
        disjoint_union(dihedral_quandle(11), alexander_quandle(13, 2)),
        disjoint_union(conjugation_quandle(dihedral_group(5)), trivial_quandle(4)),
        disjoint_union(dihedral_quandle(9), disjoint_union(dihedral_quandle(9), dihedral_quandle(9))),
    ]
    rng = random.Random(20231020)
    return [shuffled(q, rng) for q in qs]


def test_orbits_match_union_find():
    for q in small_quandles() + family_quandles() + large_family_quandles():
        assert orbits(q) == oracle_orbits(q), q.table


def test_summary_asks_the_direct_predicates():
    large = large_family_quandles()
    assert max(q.n for q in large) == 29
    seen = set()
    for q in small_quandles() + large:
        s = quandle_summary(q)
        assert s["right2t_global"] == is_right_2transitive(q), q.table
        assert s["left2t_global"] == is_left_2transitive(q), q.table
        assert s["right2t"] == is_right_orbit_2transitive(q), q.table
        assert s["left2t"] == is_left_peak_2transitive(q), q.table
        seen.add(tuple(s[key] for key in ("latin", "right2t", "right2t_global", "left2t", "left2t_global")))
    # the cases a shortcut could get wrong: right2t on a disconnected table,
    # left2t without left2t_global on non-latin rows, and both global
    # predicates true
    assert any(right and not right_global for _, right, right_global, _, _ in seen)
    assert any(not latin and left and not left_global for latin, _, _, left, left_global in seen)
    assert (True, True, True, True, True) in seen
