import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.domains import GF, QQ, ZZ
from quandlekit.errors import DimensionMismatchError, PreconditionError
from quandlekit.lattices import delta_powers, span
from quandlekit.linalg import (
    IntegerEchelon,
    field_rank,
    hermite_normal_form,
    hnf_coordinates,
    rref,
    smith_normal_form,
)
from quandlekit.quandles import dihedral_quandle
from quandlekit.rings import is_ring_homomorphism, is_ring_isomorphism, quandle_ring

small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


def det(matrix):
    """Determinant of a square integer matrix by elimination over Fraction."""
    n = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            d = -d
        d *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return int(d)


def fraction_rank(matrix):
    work = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        work[rank] = [v / work[rank][c] for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def minors_gcd_factors(matrix):
    """Invariant factors via gcd of k x k minors: d_k = D_k / D_(k-1)."""
    m, n = len(matrix), len(matrix[0])
    r = fraction_rank(matrix)
    factors = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(det(sub)))
        factors.append(g // prev)
        prev = g
    return factors


def test_hnf_known_lattice():
    h = hermite_normal_form([(2, 0), (0, 2), (1, 1)])
    assert h == [(1, 1), (0, 2)]


def test_hnf_identity():
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hermite_normal_form(eye) == list(eye)


def test_hnf_membership_against_enumeration():
    rows = [(2, 0), (0, 2), (1, 1)]
    h = hermite_normal_form(rows)
    # brute-force small combinations of the original generators
    members = set()
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        v = tuple(a * x + b * y + c * z for x, y, z in zip(*rows))
        members.add(v)
    for v in members:
        assert hnf_coordinates(h, v) is not None
    for v in itertools.product(range(-2, 3), repeat=2):
        if v in members:
            continue
        assert hnf_coordinates(h, v) is None


@settings(max_examples=120, deadline=None)
@given(small_matrix)
def test_hnf_idempotent_and_preserves_lattice(rows):
    h = hermite_normal_form(rows)
    assert hermite_normal_form(h) == h
    for r in rows:
        assert hnf_coordinates(h, r) is not None
    # the HNF rows lie in the lattice of the originals: joint HNF is equal
    assert hermite_normal_form(list(rows) + list(h)) == h


def test_hnf_rejects_ragged_rows():
    for rows in ([(1, 2), (3,)], iter([(1, 2), (0, 0), (3, 4, 5)])):
        with pytest.raises(DimensionMismatchError):
            hermite_normal_form(rows)


def test_hnf_pivots_strictly_increase():
    h = hermite_normal_form([(0, 3, 1), (0, 0, 5), (2, 1, 1)])
    pivots = [next(c for c, v in enumerate(row) if v) for row in h]
    assert pivots == sorted(set(pivots))


def test_hnf_coordinates_roundtrip():
    h = hermite_normal_form([(2, 1, 0), (0, 3, 1)])
    v = tuple(2 * a + 5 * b for a, b in zip(*[h[0], h[1]]))
    coords = hnf_coordinates(h, v)
    assert coords == [2, 5]
    assert hnf_coordinates(h, (1, 0, 0)) is None


def test_hnf_coordinates_roundtrip_when_pivots_skip_columns():
    rng = random.Random(2022)
    for _ in range(200):
        n = rng.randint(2, 7)
        zero_cols = set(rng.sample(range(n), rng.randint(1, n - 1)))
        rows = [[0 if j in zero_cols else rng.randint(-4, 4) for j in range(n)] for _ in range(rng.randint(1, n))]
        h = hermite_normal_form(rows)
        coords = [rng.randint(-5, 5) for _ in h]
        v = [sum(c * row[j] for c, row in zip(coords, h)) for j in range(n)]
        assert hnf_coordinates(h, v) == coords == hnf_coordinates(h, iter(v))
    h = [(0, 2, 1, 0, 0), (0, 0, 0, 3, 1)]  # pivots 1 and 3
    assert hnf_coordinates(h, (0, 4, 2, -3, -1)) == [2, -1]
    assert hnf_coordinates(h, (0, 4, 2, -3, 0)) is None
    assert hnf_coordinates(h, (1, 0, 0, 0, 0)) is None


def test_hnf_coordinates_rejects_a_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        hnf_coordinates([(1, 0)], (1, 0, 5))
    with pytest.raises(DimensionMismatchError):
        hnf_coordinates([(1, 0, 0)], (1, 0))
    with pytest.raises(DimensionMismatchError):
        hnf_coordinates([(1, 0), (0, 1, 0)], (1, 1))


def test_hnf_coordinates_rejects_rows_out_of_echelon_order():
    for rows in (
        [(0, 0)],  # a zero row
        [(1, 0), (0, 0)],
        [(0, 1), (1, 0)],  # pivot left of the previous one
        [(1, 0), (2, 0)],  # the same pivot twice
        [(0, 1, 0), (1, 0, 1)],
    ):
        with pytest.raises(PreconditionError):
            hnf_coordinates(rows, (0,) * len(rows[0]))


def test_integer_echelon_any_insertion_order_gives_the_hnf():
    rng = random.Random(4115)
    cases = [
        [(2, 1), (3, 0)],  # a Euclid step at the existing pivot 0
        [(3, 0), (2, 1)],
        [(0, 0, 5), (0, 3, 1), (2, 1, 1), (0, 0, 0)],
        [(4, 6, 2), (6, 9, 3), (2, 0, 8)],
    ]
    for _ in range(300):
        n = rng.randint(1, 6)
        cases.append([tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(1, 6))])
    for rows in cases:
        want = hermite_normal_form(sorted(rows))
        orders = [sorted(rows), sorted(rows, reverse=True)] + [rng.sample(rows, len(rows)) for _ in range(4)]
        for order in orders:
            form = IntegerEchelon()
            form.extend(order)
            assert form.rows() == want, (rows, order)
            assert form.pivots == sorted(form.basis)  # each pivot once, ascending
    form = IntegerEchelon()
    assert form.insert((2, 1)) and form.insert((3, 0))
    assert form.pivots == [0, 1] and form.rows() == [(1, 2), (0, 3)]


def test_snf_known_cases():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[6]]) == [6]
    wide = [[-1, -1, -5, -7, 9, -1], [-2, -2, 8, 8, -9, 3], [-9, -4, -1, 9, -9, 0], [-3, 9, 8, 8, -4, -8],
            [-8, 1, -4, -8, -7, 4]]
    assert smith_normal_form(wide) == minors_gcd_factors(wide) == [1, 1, 1, 1, 16]


def test_snf_transforms_known():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def test_snf_needs_several_column_turns():
    # rows HNF [[4, 2], [0, 3]], then columns [[2, 3], [0, 6]], then
    # [[1, 6], [0, 12]]: reading the diagonal after one column turn gives [2, 6]
    assert smith_normal_form([[4, -1], [0, 3]]) == [1, 12]
    assert smith_normal_form([[0, 3], [4, -1]]) == [1, 12]


def test_snf_5x5_against_minors():
    rng = random.Random(55)
    for _ in range(10):
        a = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        assert smith_normal_form(a) == minors_gcd_factors(a)
    assert smith_normal_form([[9, -9, 0, 3, 6]] * 5) == [3]


def test_snf_rejects_a_ragged_matrix():
    for matrix in ([[1, 2], [3]], [[3], [1, 2]], [[-1, 0, 0], [2, 2]]):
        with pytest.raises(DimensionMismatchError):
            smith_normal_form(matrix)


def test_snf_unit_entries_against_minors():
    rng = random.Random(1979)
    cases = [
        [[-1]],
        [[-1, -1], [-1, -1]],
        [[-1, 0, -1], [0, -1, -1], [-1, -1, 0]],
        [[2, -1, 4], [-1, 6, 2]],
        [[0, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[2, 4], [6, 8], [4, -2]],  # no unit entry: only the turns run
        [[0, 0], [0, 0], [6, 0]],
    ]
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:  # only -1 and 0
            a = [[rng.choice((-1, 0, 0)) for _ in range(n)] for _ in range(m)]
        elif kind == 1:  # every entry even: no unit, only the turns
            a = [[2 * rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        else:  # +-1 anywhere among larger entries
            a = [[rng.choice((-1, 1, rng.randint(-6, 6))) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 1)):  # a zero row or a zero column
            if rng.random() < 0.5:
                a.insert(rng.randint(0, m), [0] * n)
            else:
                j = rng.randint(0, n)
                a = [row[:j] + [0] + row[j:] for row in a]
        cases.append(a)
    for a in cases:
        assert smith_normal_form(a) == minors_gcd_factors(a), a


def test_snf_of_delta_relation_matrices_against_minors():
    for n in range(3, 10):
        powers = delta_powers(dihedral_quandle(n), ZZ, 4)
        for a, b in zip(powers, powers[1:]):
            relations = [hnf_coordinates(a.basis, v) for v in b.basis]
            assert smith_normal_form(relations) == minors_gcd_factors(relations), (n, relations)


def random_matrix(rng, max_dim=4, lo=-2, hi=2):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_random_properties_500():
    rng = random.Random(20260823)
    for _ in range(500):
        a = random_matrix(rng)
        factors = smith_normal_form(a)
        # divisibility chain
        for d1, d2 in zip(factors, factors[1:]):
            assert d2 % d1 == 0
        assert all(d >= 1 for d in factors)
        # independent oracle: gcd of k x k minors
        assert factors == minors_gcd_factors(a)
        assert len(factors) == fraction_rank(a)


def reduce_mod_hnf(h, v):
    """Canonical residue of v modulo a full-rank upper-triangular lattice."""
    v = list(v)
    for i, row in enumerate(h):
        q = v[i] // row[i]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def test_snf_against_coset_enumeration():
    """Quotient Z^n / rowspace(M) for full-rank M: compare the invariant
    factors with direct coset counting."""
    rng = random.Random(99)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if fraction_rank(a) < n:
            continue
        done += 1
        factors = [d for d in smith_normal_form(a) if d > 1]
        h = hermite_normal_form(a)
        residues = set()
        ranges = [range(row[i]) for i, row in enumerate(h)]
        for combo in itertools.product(*ranges):
            residues.add(reduce_mod_hnf(h, combo))
        order = 1
        for d in factors:
            order *= d
        assert len(residues) == order
        # solution counts of m*x = 0 determine the invariant factor multiset
        max_m = max(factors, default=1)
        for m in range(1, max_m + 1):
            expected = 1
            for d in factors:
                expected *= gcd(d, m)
            actual = sum(
                1 for r in residues if reduce_mod_hnf(h, [m * c for c in r]) == tuple([0] * n)
            )
            assert actual == expected


def test_det_oracle_against_leibniz_formula():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        total = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= a[i][j]
            total += term
        assert det(a) == total


def test_ring_isomorphism_over_z_is_unimodularity():
    ring = quandle_ring(dihedral_quandle(5), ZZ)
    double = [[int(i == 2 * j % 5) for j in range(5)] for i in range(5)]  # x -> 2x, a 4-cycle
    assert det(double) == -1
    assert is_ring_isomorphism(ring, ring, double)
    onto_zero = [[int(i == 0) for _ in range(5)] for i in range(5)]  # every e_j -> e_0
    assert is_ring_homomorphism(ring, ring, onto_zero) and not is_ring_isomorphism(ring, ring, onto_zero)


def test_rref_over_gf5():
    dom = GF(5)
    reduced = rref([[2, 4], [1, 2]], dom)
    assert reduced == [(1, 2)]
    assert field_rank([[2, 4], [1, 3]], dom) == 2


def test_field_solve_and_span():
    # membership by reduction at the RREF pivots (the old field_solve is an
    # oracle in test_arithmetic_oracles)
    for dom in (QQ, GF(5)):
        sub = span(3, dom, [(1, 0, 1), (0, 1, 1)])
        assert sub.basis == ((1, 0, 1), (0, 1, 1))
        assert sub.contains([2, 3, 5])
        assert not sub.contains([0, 0, 1])
    with pytest.raises(PreconditionError):
        rref([[2, 4]], ZZ)


def test_field_rank_matches_fraction_rank():
    rng = random.Random(13)
    for _ in range(100):
        a = random_matrix(rng)
        rows = [[Fraction(v) for v in row] for row in a]
        assert field_rank(rows, QQ) == fraction_rank(a)
