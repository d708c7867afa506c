"""Differential tests of the ring isomorphism search against the
exhaustive matrix search it replaced, and its certificates on the paper's
pair and on relabeled quandles.

``oracle_ring_iso`` tries all p^(n^2) matrices over F_p in row-major
lexicographic order, so it stays here only as a reference for
dimension <= 3.
"""

import gc
import itertools
import time

import pytest
from conftest import ACCEPTANCE_LINES, relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.counterexamples import PAIR4_MATRIX, PAIR4_Q_MATRIX, PAIR4_X, PAIR4_Y, PAIR7_MATRIX, PAIR7_X, PAIR7_Y
from quandlekit.domains import GF, QQ
from quandlekit.errors import DomainMismatchError, PreconditionError
from quandlekit.linalg import field_rank
from quandlekit.quandles import alexander_quandle, dihedral_quandle, trivial_quandle
from quandlekit.rings import (
    BasedRing,
    direct_sum,
    find_ring_isomorphism,
    is_ring_isomorphism,
    quandle_ring,
)
from quandlekit.symmetry import enumerate_quandles


def oracle_ring_iso(r1, r2, p):
    """First ring isomorphism r1 -> r2 over F_p among all p^(n^2) matrices
    in row-major lexicographic order, else None."""
    n = r1.dim

    def product(u, v):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                if r2.table[i][j] >= 0:
                    out[r2.table[i][j]] += u[i] * v[j]
        return [x % p for x in out]

    def image(k, cols):
        return list(cols[k]) if k >= 0 else [0] * n

    for flat in itertools.product(range(p), repeat=n * n):
        cols = [flat[j::n] for j in range(n)]
        if all(
            product(cols[a], cols[b]) == image(r1.table[a][b], cols)
            for a in range(n)
            for b in range(n)
        ):
            matrix = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            if field_rank(matrix, GF(p)) == n:
                return matrix
    return None


def small_rings(p):
    """Quandle rings of order <= 3 and the direct sum of criterion 09."""
    rings = [quandle_ring(q, GF(p)) for n in (1, 2, 3) for q in enumerate_quandles(n)]
    point = quandle_ring(trivial_quandle(1), GF(p))
    rings.append(direct_sum(direct_sum(point, point), point))
    return rings


@pytest.mark.parametrize("p", [2, 3])
def test_search_agrees_with_oracle(p):
    rings = small_rings(p)
    pairs = [(r1, r2) for r1 in rings for r2 in rings if r1.dim == r2.dim]
    isomorphic = 0
    for r1, r2 in pairs:
        found = find_ring_isomorphism(r1, r2)
        oracle = oracle_ring_iso(r1, r2, p)
        assert (found is None) == (oracle is None)
        if found is not None:
            assert is_ring_isomorphism(r1, r2, found)
            isomorphic += 1
        if oracle is not None:
            assert is_ring_isomorphism(r1, r2, oracle)
    assert 0 < isomorphic < len(pairs)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_paper_pair_rings_isomorphic_in_odd_characteristic(p):
    r1, r2 = quandle_ring(PAIR4_X, GF(p)), quandle_ring(PAIR4_Y, GF(p))
    found = find_ring_isomorphism(r1, r2)
    assert found is not None and is_ring_isomorphism(r1, r2, found)


@pytest.mark.parametrize("p", [2, 3])
def test_order7_pair_rings_isomorphic(p):
    r1, r2 = quandle_ring(PAIR7_X, GF(p)), quandle_ring(PAIR7_Y, GF(p))
    found = find_ring_isomorphism(r1, r2)
    assert found is not None and is_ring_isomorphism(r1, r2, found)


def test_paper_pair_rings_not_isomorphic_over_f2():
    r1, r2 = quandle_ring(PAIR4_X, GF(2)), quandle_ring(PAIR4_Y, GF(2))
    assert find_ring_isomorphism(r1, r2) is None


def test_quandle_ring_isomorphisms_preserve_augmentation():
    """Every column of a quandle-ring isomorphism sums to 1 (the argument
    is in the find_ring_isomorphism docstring): the paper's certificates
    and every isomorphism the search finds between rings of order <= 4
    over F_2 and F_3."""
    certificates = [(PAIR4_MATRIX, 3), (PAIR4_Q_MATRIX, 0), (PAIR7_MATRIX, 0)]
    for n in (1, 2, 3, 4):
        for x, y in itertools.product(enumerate_quandles(n), repeat=2):
            for p in (2, 3):
                found = find_ring_isomorphism(quandle_ring(x, GF(p)), quandle_ring(y, GF(p)))
                if found is not None:
                    certificates.append((found, p))
    assert len(certificates) > 3 + 2 * 12
    for matrix, p in certificates:
        for j in range(len(matrix)):
            total = sum(row[j] for row in matrix)
            assert (total % p if p else total) == 1


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_search_recovers_relabelings(data):
    for n in (1, 2, 3, 4):
        for q in enumerate_quandles(n):
            moved = relabel(q, data.draw(st.permutations(range(n))))
            for p in (2, 3):
                r1, r2 = quandle_ring(q, GF(p)), quandle_ring(moved, GF(p))
                found = find_ring_isomorphism(r1, r2)
                assert found is not None and is_ring_isomorphism(r1, r2, found)


def test_search_leaves_no_reference_cycles():
    # the recursive search is unlinked on return, so refcounting frees its
    # state and the cyclic collector finds nothing to do
    r3 = quandle_ring(dihedral_quandle(3), GF(3))
    gc.collect()
    gc.disable()
    try:
        assert find_ring_isomorphism(r3, r3) is not None
        assert gc.collect() == 0
        assert find_ring_isomorphism(quandle_ring(PAIR4_X, GF(3)), quandle_ring(PAIR4_Y, GF(3))) is not None
        assert gc.collect() == 0
        assert find_ring_isomorphism(quandle_ring(PAIR4_X, GF(2)), quandle_ring(PAIR4_Y, GF(2))) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_needs_squares_on_the_diagonal():
    dom = GF(2)
    ring = BasedRing(dom, ((1, -1), (-1, 1)))
    with pytest.raises(PreconditionError):
        find_ring_isomorphism(ring, ring)


def test_rings_of_different_dimension_are_not_isomorphic():
    for dom in (GF(3), QQ):
        assert find_ring_isomorphism(quandle_ring(PAIR4_X, dom), quandle_ring(trivial_quandle(3), dom)) is None


def test_search_needs_one_prime_field():
    with pytest.raises(DomainMismatchError):
        find_ring_isomorphism(quandle_ring(PAIR4_X, GF(2)), quandle_ring(PAIR4_Y, GF(3)))
    with pytest.raises(PreconditionError):
        find_ring_isomorphism(quandle_ring(PAIR4_X, QQ), quandle_ring(PAIR4_Y, QQ))


def test_order7_searches_over_f5_reported():
    """Non-gating: the verdict and seconds of the search over F_5 on the
    paper's order-7 pair (isomorphic) and on Aff(Z_7, 3) against
    Aff(Z_7, 5) (not), each scanning the 5^6 vectors of eps(v) = 1."""
    parts = []
    cases = (("order-7 pair", PAIR7_X, PAIR7_Y), ("Aff(Z_7,3)|Aff(Z_7,5)", alexander_quandle(7, 3), alexander_quandle(7, 5)))
    for name, x, y in cases:
        start = time.monotonic()
        found = find_ring_isomorphism(quandle_ring(x, GF(5)), quandle_ring(y, GF(5)))
        parts.append("%s %s %.2fs" % (name, "isomorphic" if found is not None else "none", time.monotonic() - start))
    ACCEPTANCE_LINES.append("ring iso over F_5 REPORT (non-gating): %s" % "; ".join(parts))
