"""Differential tests of two quandle-ring kernels over F_p against the code
they replaced.

The oracles:

- ``oracle_right_annihilator_count``: the rank of the n stacked
  left-multiplication matrices of the basis elements, n^2 rows;
- ``oracle_find_ring_isomorphism``: the ring isomorphism search with its
  candidate scan over all of F_p^n, before the scan of quandle rings kept
  to the slice eps(v) = 1.
"""

import itertools
import random

import pytest
from conftest import relabel

from quandlekit.domains import GF
from quandlekit.errors import CapacityError, PreconditionError
from quandlekit.linalg import field_rank
from quandlekit.quandles import alexander_quandle, dihedral_quandle, disjoint_union, trivial_quandle
from quandlekit.rings import (
    BasedRing,
    _multiplication_invariants,
    _multiplication_matrix,
    direct_sum,
    find_ring_isomorphism,
    is_ring_isomorphism,
    multiply,
    quandle_ring,
    right_annihilator_count,
)
from quandlekit.symmetry import enumerate_quandles

PRIMES = (2, 3, 5, 7)


def oracle_right_annihilator_count(x, p):
    """p^(n - rank) of the n^2 x n matrix stacking the matrices of
    w -> e_i * w, e_i * e_j = e_k adding 1 at row k, column j of block i."""
    n = x.n
    rows = []
    for i in range(n):
        block = [[0] * n for _ in range(n)]
        for j in range(n):
            block[x.op(i, j)][j] += 1
        rows += block
    return p ** (n - field_rank(rows, GF(p)))


def oracle_find_ring_isomorphism(r1, r2):
    """The search as it was before the eps slice: one scan of F_p^n for
    the candidates, then the same backtracking with no budget."""
    if r1.dim != r2.dim:
        return None
    dom, p, n = r1.domain, r1.domain.char, r1.dim
    pairs = [(a, b, c, {a, b, c} - {-1}) for a, row in enumerate(r1.table) for b, c in enumerate(row)]
    if any(r1.table[i][i] not in (i, -1) for i in range(n)):
        raise PreconditionError("every e_i * e_i must be a multiple of e_i")
    keys = [(int(r1.table[i][i] == i), _multiplication_invariants(r1, r1.basis_vector(i), p))
            for i in range(n)]
    pools = {key: [] for key in keys}
    for v in itertools.islice(itertools.product(range(p), repeat=n), 1, None):
        square = multiply(r2, v, v)
        c = next((c for c, _ in pools if square == [c * x % p for x in v]), None)
        key = (c, _multiplication_invariants(r2, v, p)) if c is not None else None
        if key in pools:
            pools[key].append(v)
    cols = [None] * n
    zero = [0] * n

    def narrowed(k, d, j):
        eqs = []
        for a, b, c, used in pairs:
            if j not in used or k not in used or any(cols[x] is None for x in used if x != k):
                continue
            if a == k:
                m, lhs = _multiplication_matrix(r2, cols[b], "right", p), zero
            elif b == k:
                m, lhs = _multiplication_matrix(r2, cols[a], "left", p), zero
            else:
                m, lhs = [zero] * n, multiply(r2, cols[a], cols[b])
            rhs = zero if c in (-1, k) else cols[c]
            for r in range(n):
                row = [(m[r][s] - (c == k) * (r == s)) % p for s in range(n)]
                value = (rhs[r] - lhs[r]) % p
                if any(row) or value:
                    eqs.append((row, value))
        return [w for w in d if all(sum(x * y for x, y in zip(row, w)) % p == value for row, value in eqs)]

    def search(domains):
        if not domains:
            return [[cols[j][r] for j in range(n)] for r in range(n)]
        j = min(domains, key=lambda k: (len(domains[k]), k))
        placed = [c for c in cols if c is not None]
        for v in domains[j]:
            if field_rank(placed + [v], dom) <= len(placed):
                continue
            cols[j] = v
            rest = {}
            for k, d in domains.items():
                if k != j:
                    rest[k] = narrowed(k, d, j)
                    if not rest[k]:
                        break
            else:
                found = search(rest)
                if found is not None:
                    return found
            cols[j] = None
        return None

    return search({i: pools[key] for i, key in enumerate(keys)})


def annihilator_quandles():
    """Every quandle of order <= 6, and relabeled dihedral, Alexander and
    union quandles up to order 16."""
    yield from (q for n in range(1, 7) for q in enumerate_quandles(n))
    bases = [dihedral_quandle(n) for n in range(3, 17)]
    bases += [alexander_quandle(n, t) for n, t in ((5, 2), (7, 3), (8, 3), (9, 2), (10, 3), (11, 2), (13, 2), (16, 3))]
    R, A, T = dihedral_quandle, alexander_quandle, trivial_quandle
    bases += [disjoint_union(x, y) for x, y in ((R(3), R(5)), (T(2), A(7, 3)), (R(4), R(12)), (T(9), R(6)))]
    rng = random.Random(27)
    for q in bases:
        yield relabel(q, rng.sample(range(q.n), q.n))


@pytest.mark.parametrize("p", PRIMES)
def test_annihilator_count_matches_stacked_matrices(p):
    for q in annihilator_quandles():
        assert right_annihilator_count(q, p) == oracle_right_annihilator_count(q, p)


def iso_pairs():
    """(r1, r2) for every pair of quandles, each pair once, of order <= 4 over F_2
    and F_3, and of order 5 over F_2."""
    for n, primes in ((1, (2, 3)), (2, (2, 3)), (3, (2, 3)), (4, (2, 3)), (5, (2,))):
        for p in primes:
            rings = [quandle_ring(q, GF(p)) for q in enumerate_quandles(n)]
            yield from itertools.combinations_with_replacement(rings, 2)


def test_search_verdicts_match_the_full_scan():
    found = 0
    for r1, r2 in iso_pairs():
        matrix = find_ring_isomorphism(r1, r2)
        assert (matrix is None) == (oracle_find_ring_isomorphism(r1, r2) is None)
        if matrix is not None:
            assert is_ring_isomorphism(r1, r2, matrix)
            found += 1
    # the self-pairs alone: 12 of order <= 4 over F_2 and over F_3, 22 of order 5 over F_2
    assert found > 2 * (1 + 1 + 3 + 7) + 22


def test_rings_with_zero_products_keep_the_full_scan():
    """Where a table has a zero product, an isomorphism may need columns
    off eps(v) = 1, so only the full scan finds it: k x k onto k[Z_2] (off
    characteristic 2), which sends the point idempotents to
    (e_0 +- e_1)/2; and k[T_2] onto the same ring in the basis e_0,
    e_0 - e_1, where every isomorphism has a column of sum 0."""
    for p in (2, 3, 5):
        dom = GF(p)
        point = quandle_ring(trivial_quandle(1), dom)
        cases = [
            (direct_sum(point, point), BasedRing(dom, ((0, 1), (1, 0))), p != 2),
            (quandle_ring(trivial_quandle(2), dom), BasedRing(dom, ((0, -1), (1, -1))), True),
            (direct_sum(direct_sum(point, point), point), quandle_ring(trivial_quandle(3), dom), False),
        ]
        for r1, r2, isomorphic in cases:
            matrix = find_ring_isomorphism(r1, r2)
            assert (matrix is not None) == isomorphic == (oracle_find_ring_isomorphism(r1, r2) is not None)
            if matrix is not None:
                assert is_ring_isomorphism(r1, r2, matrix)
                assert any(sum(row[j] for row in matrix) % p != 1 for j in range(r1.dim))


def test_the_scan_of_quandle_rings_charges_p_to_the_n_minus_1():
    for x, p in ((dihedral_quandle(3), 3), (alexander_quandle(5, 2), 2), (trivial_quandle(4), 3)):
        r = quandle_ring(x, GF(p))
        with pytest.raises(CapacityError):
            find_ring_isomorphism(r, r, budget=p ** (x.n - 1) - 1)
        assert find_ring_isomorphism(r, r, budget=p ** (x.n - 1) + 10**4) is not None
    point = quandle_ring(trivial_quandle(1), GF(3))
    three_points = direct_sum(direct_sum(point, point), point)
    with pytest.raises(CapacityError):
        find_ring_isomorphism(three_points, three_points, budget=3**3 - 2)
