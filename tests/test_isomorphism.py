"""The generator-image isomorphism search against the position
backtracking it replaced.

`oracle_find_isomorphism` is the earlier search, kept here as a
differential oracle: element v = 0, 1, ... goes in turn to each free w of
equal invariants, and every product among the placed elements is checked
after each placement.  It is exponential in n on quandles with many
automorphisms, so it runs on the pairs the enumerator compares up to
order 7, on the bases of the `translations` benchmark workload, and on
two pairs where it is slow but finishes.  Each isomorphism returned is
checked here, not by the library.
"""

import itertools
import random

import pytest
from conftest import relabel
from test_pair_kernel import cayley_table, dihedral_group

from quandlekit import symmetry
from quandlekit.counterexamples import PAIR4_X, PAIR4_Y, PAIR7_X, PAIR7_Y
from quandlekit.quandles import (
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    trivial_quandle,
)
from quandlekit.symmetry import _element_invariants, _find_isomorphism, quandles_isomorphic


def oracle_find_isomorphism(x, y, inv_x, inv_y):
    """Position-by-position backtracking: sigma(0), sigma(1), ... each
    ranges over the free elements of equal invariants, and a placement
    stands when it keeps every product a>b = t with a, b and t placed."""
    n = x.n
    candidates = [[w for w in range(n) if inv_y[w] == inv_x[v]] for v in range(n)]
    sigma = [None] * n
    used = [False] * n
    landing = [[] for _ in range(n)]  # landing[t]: the pairs (a, b) with a>b = t
    for a in range(n):
        for b in range(n):
            landing[x.table[a][b]].append((a, b))

    def consistent(v):
        for i in range(n):
            if sigma[i] is None:
                continue
            for a, b in ((i, v), (v, i)):
                t = x.table[a][b]
                if sigma[t] is not None and y.table[sigma[a]][sigma[b]] != sigma[t]:
                    return False
        for a, b in landing[v]:
            if sigma[a] is not None and sigma[b] is not None and y.table[sigma[a]][sigma[b]] != sigma[v]:
                return False
        return True

    def backtrack(v):
        if v == n:
            return True
        for w in candidates[v]:
            if used[w]:
                continue
            sigma[v] = w
            used[w] = True
            if consistent(v) and backtrack(v + 1):
                return True
            sigma[v] = None
            used[w] = False
        return False

    return tuple(sigma) if backtrack(0) else None


def is_isomorphism(x, y, sigma):
    """sigma is a bijection of x's elements onto y's that keeps >."""
    n = x.n
    return (
        y.n == n
        and sorted(sigma) == list(range(n))
        and all(sigma[x.table[a][b]] == y.table[sigma[a]][sigma[b]] for a in range(n) for b in range(n))
    )


def agree(x, y):
    """The search and the oracle give the same verdict on x and y, and a
    found sigma is an isomorphism; returns the verdict."""
    inv_x, inv_y = _element_invariants(x), _element_invariants(y)
    if sorted(inv_x) != sorted(inv_y):
        return False
    sigma = _find_isomorphism(x, y)
    assert (sigma is None) == (oracle_find_isomorphism(x, y, inv_x, inv_y) is None)
    assert sigma is None or is_isomorphism(x, y, sigma)
    return sigma is not None


def union(*parts):
    q = parts[0]
    for p in parts[1:]:
        q = disjoint_union(q, p)
    return q


def translation_groups():
    """The Cayley tables of the groups the `translations` workload builds
    conjugation and core quandles of."""
    groups = {
        "S3": cayley_table([(1, 0, 2), (1, 2, 0)]),
        "Q8": cayley_table([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),
        "A4": cayley_table([(1, 2, 0, 3), (0, 2, 3, 1)]),
        "Z2xZ4": cayley_table([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]),
        "Z3xZ3": cayley_table([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),
        "Z4xZ4": cayley_table([(1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)]),
    }
    groups.update(("D%d" % k, dihedral_group(k)) for k in (4, 5, 6, 7, 8, 9, 10, 12))
    return groups


def translation_bases():
    """The base quandles of the `translations` workload, order 6 to 29."""
    R, A, T = dihedral_quandle, alexander_quandle, trivial_quandle
    g = translation_groups()
    s3, q8, a4, z2z4, z3z3, z4z4 = (g[k] for k in ("S3", "Q8", "A4", "Z2xZ4", "Z3xZ3", "Z4xZ4"))
    qs = [R(n) for n in list(range(6, 19)) + [20, 21, 24]]
    qs += [
        A(n, t)
        for n, t in (
            (7, 2), (7, 3), (7, 5), (8, 3), (8, 5), (9, 2), (9, 4), (9, 5), (10, 3),
            (11, 2), (11, 3), (11, 6), (12, 5), (12, 7), (13, 2), (13, 4), (14, 3),
            (15, 2), (16, 3), (16, 5), (17, 3), (18, 5), (19, 2), (20, 3), (21, 2),
            (22, 3), (23, 2), (25, 2), (27, 2), (29, 2),
        )
    ]
    groups = [s3, q8, dihedral_group(4), dihedral_group(5), dihedral_group(6)]
    qs += [conjugation_quandle(g) for g in groups + [a4] + [dihedral_group(k) for k in (7, 8, 9, 10)] + [z2z4]]
    qs += [core_quandle(g) for g in groups + [dihedral_group(k) for k in (7, 8, 10, 12)] + [z3z3, z4z4]]
    qs += [
        union(R(3), R(3)), union(T(3), R(3)), union(T(1), R(5)), union(R(3), R(5)),
        union(T(2), R(7)), union(R(3), R(3), R(3)), union(R(5), A(7, 3)), union(R(6), R(6)),
        union(A(9, 2), R(3)), union(conjugation_quandle(s3), R(5)), union(R(11), T(2)),
        union(R(7), R(7)), union(R(5), R(5), R(5)), union(R(3), R(5), R(7)),
        union(R(15), T(1)), union(R(9), R(9)),
    ]
    return qs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_enumeration_pairs_match_oracle(monkeypatch, n):
    # every pair the enumerator compares, with the search's own answer
    # checked as it is made
    pairs = []

    def checked(x, y):
        pairs.append(agree(x, y))
        return _find_isomorphism(x, y)

    monkeypatch.setattr(symmetry, "_find_isomorphism", checked)
    assert len(symmetry._enumerate.__wrapped__(n)) == (1, 1, 3, 7, 22, 73, 298)[n - 1]
    if n >= 5:  # below order 5 the enumerator compares no tables
        assert True in pairs and False in pairs


def test_translation_bases_match_oracle():
    # two seeded relabelings of each base; every two bases of one order up
    # to 12 whose sorted invariants agree (above that the oracle spends
    # seconds on R_n against Aff(Z_n, t)); and the workload's pairs of
    # non-isomorphic quandles
    rng = random.Random(20261020)
    bases = [relabel(q, rng.sample(range(q.n), q.n)) for q in translation_bases()]
    assert len(bases) == 84 and max(q.n for q in bases) == 29
    for q in bases:
        assert agree(q, relabel(q, rng.sample(range(q.n), q.n)))
    verdicts = [agree(a, b) for a, b in itertools.combinations(bases, 2) if a.n == b.n <= 12]
    assert True in verdicts and False in verdicts
    others = [(PAIR4_X, PAIR4_Y), (PAIR7_X, PAIR7_Y)]
    others += [(dihedral_quandle(9), alexander_quandle(9, 4))]
    others += [(conjugation_quandle(dihedral_group(4)), core_quandle(dihedral_group(4)))]
    others += [(union(trivial_quandle(2), dihedral_quandle(7)), union(*[dihedral_quandle(3)] * 3))]
    for x, y in others:
        assert not agree(x, relabel(y, rng.sample(range(y.n), y.n)))


def test_affine_pair_matches_oracle():
    assert not agree(alexander_quandle(29, 2), alexander_quandle(29, 3))
    assert agree(alexander_quandle(29, 2), relabel(alexander_quandle(29, 2), random.Random(29).sample(range(29), 29)))


def test_union_with_trivial_part():
    # the position backtracking spends over a second here, placing the
    # trivial points in every order before Aff(7, 3) fails to map; with
    # T_6 in place of T_4 it takes about a minute
    a73, a75 = alexander_quandle(7, 3), alexander_quandle(7, 5)
    rng = random.Random(4)
    x = union(trivial_quandle(4), a73, a75)
    y = relabel(union(trivial_quandle(4), a75, a75), rng.sample(range(18), 18))
    assert quandles_isomorphic(x, y) is None
    assert not agree(x, y)
    assert agree(x, relabel(x, rng.sample(range(18), 18)))
