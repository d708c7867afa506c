from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.counterexamples import (
    PAIR4_MATRIX,
    PAIR4_Q_MATRIX,
    PAIR4_X,
    PAIR4_Y,
    PAIR7_MATRIX,
    PAIR7_X,
    PAIR7_Y,
    generalized_counterexample,
)
from quandlekit.domains import GF, QQ, ZZ
from quandlekit.errors import CapacityError, DimensionMismatchError, PreconditionError
from quandlekit.quandles import Quandle, dihedral_quandle, trivial_quandle
from quandlekit.rings import (
    BasedRing,
    _albert_identities,
    augmentation,
    direct_sum,
    find_ring_isomorphism,
    is_ring_homomorphism,
    is_ring_isomorphism,
    multiply,
    power_assoc_witness,
    quandle_ring,
    right_annihilator_count,
)
from quandlekit.symmetry import quandles_isomorphic

ONE_SWAP = Quandle.from_table([[0, 0, 1], [1, 1, 0], [2, 2, 2]])

small_vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)


def albert_check(ring, u):
    """(cube holds, fourth holds) for u, as in rings._albert_identities."""
    return tuple(lhs == rhs for _, lhs, rhs in _albert_identities(ring, u))


def test_basis_products_follow_table():
    ring = quandle_ring(dihedral_quandle(3), ZZ)
    e0 = ring.basis_vector(0)
    e1 = ring.basis_vector(1)
    assert multiply(ring, e0, e1) == [0, 0, 1]  # 0 > 1 = 2


@given(small_vec, small_vec)
def test_multiply_is_bilinear_in_left_argument(u, v):
    ring = quandle_ring(dihedral_quandle(3), ZZ)
    w = [1, -1, 2]
    lhs = multiply(ring, [a + b for a, b in zip(u, w)], v)
    rhs = [a + b for a, b in zip(multiply(ring, u, v), multiply(ring, w, v))]
    assert lhs == rhs


@given(small_vec, small_vec)
def test_augmentation_is_multiplicative(u, v):
    ring = quandle_ring(ONE_SWAP, ZZ)
    prod = multiply(ring, u, v)
    assert augmentation(ring, prod) == augmentation(ring, u) * augmentation(ring, v)


def test_trivial_ring_left_ideal_annihilates():
    # a * (x - y) = 0 for the trivial quandle: every product returns the left factor
    ring = quandle_ring(trivial_quandle(3), QQ)
    a = [Fraction(2), Fraction(-1), Fraction(5)]
    diff = [Fraction(1), Fraction(-1), Fraction(0)]
    assert multiply(ring, a, diff) == [Fraction(0)] * 3


def test_dimension_checks():
    ring = quandle_ring(trivial_quandle(3), ZZ)
    with pytest.raises(DimensionMismatchError):
        multiply(ring, [1, 2], [0, 0, 0])


def test_albert_check_trivial_always_passes():
    ring = quandle_ring(trivial_quandle(4), QQ)
    u = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)]
    assert albert_check(ring, u) == (True, True)


def test_power_assoc_witness_dihedral3():
    w = power_assoc_witness(dihedral_quandle(3), QQ)
    assert w is not None
    ring = quandle_ring(dihedral_quandle(3), QQ)
    uu = multiply(ring, list(w.element), list(w.element))
    if w.identity == "cube":
        assert multiply(ring, uu, list(w.element)) != multiply(ring, list(w.element), uu)
    else:
        assert multiply(ring, uu, uu) != multiply(ring, multiply(ring, uu, list(w.element)), list(w.element))


def test_power_assoc_witness_none_for_trivial():
    assert power_assoc_witness(trivial_quandle(4), QQ) is None
    assert power_assoc_witness(trivial_quandle(4), GF(5)) is None


def test_witness_deterministic():
    a = power_assoc_witness(dihedral_quandle(5), QQ)
    b = power_assoc_witness(dihedral_quandle(5), QQ)
    assert a == b


def test_right_annihilator_counts_order3():
    for p in (2, 5, 7, 11):
        assert right_annihilator_count(trivial_quandle(3), p) == p * p
        assert right_annihilator_count(ONE_SWAP, p) == p
        assert right_annihilator_count(dihedral_quandle(3), p) == 1
    # p = 3 behaves the same way for these three quandles
    assert right_annihilator_count(trivial_quandle(3), 3) == 9
    assert right_annihilator_count(ONE_SWAP, 3) == 3
    assert right_annihilator_count(dihedral_quandle(3), 3) == 1


def test_pair4_matrix_is_iso_over_f3():
    r1 = quandle_ring(PAIR4_X, GF(3))
    r2 = quandle_ring(PAIR4_Y, GF(3))
    assert is_ring_isomorphism(r1, r2, PAIR4_MATRIX)
    assert quandles_isomorphic(PAIR4_X, PAIR4_Y) is None


def test_pair4_matrix_needs_characteristic_3():
    r1 = quandle_ring(PAIR4_X, GF(5))
    r2 = quandle_ring(PAIR4_Y, GF(5))
    assert not is_ring_homomorphism(r1, r2, PAIR4_MATRIX)


def test_pair4_q_matrix_is_iso_over_q_not_z():
    assert is_ring_isomorphism(quandle_ring(PAIR4_X, QQ), quandle_ring(PAIR4_Y, QQ), PAIR4_Q_MATRIX)
    assert not is_ring_isomorphism(quandle_ring(PAIR4_X, ZZ), quandle_ring(PAIR4_Y, ZZ), PAIR4_Q_MATRIX)


def test_pair7_matrix_is_iso_over_q():
    r1 = quandle_ring(PAIR7_X, QQ)
    r2 = quandle_ring(PAIR7_Y, QQ)
    assert is_ring_isomorphism(r1, r2, PAIR7_MATRIX)
    assert quandles_isomorphic(PAIR7_X, PAIR7_Y) is None


def test_pair7_matrix_over_z_is_unimodular_iso():
    r1 = quandle_ring(PAIR7_X, ZZ)
    r2 = quandle_ring(PAIR7_Y, ZZ)
    assert is_ring_isomorphism(r1, r2, PAIR7_MATRIX)


def test_identity_matrix_iso_iff_same_ring():
    ring = quandle_ring(dihedral_quandle(3), GF(5))
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert is_ring_isomorphism(ring, ring, eye)


def test_generalized_counterexample():
    x, y, matrix = generalized_counterexample(6, 5)
    assert x.n == y.n == 6
    assert quandles_isomorphic(x, y) is None
    assert is_ring_isomorphism(quandle_ring(x, GF(5)), quandle_ring(y, GF(5)), matrix)
    generalized_counterexample(12, 11)


def test_generalized_counterexample_preconditions():
    with pytest.raises(PreconditionError):
        generalized_counterexample(6, 7)  # 7 does not divide 5
    with pytest.raises(PreconditionError):
        generalized_counterexample(3, 2)


def test_direct_sum_blocks():
    pt = quandle_ring(trivial_quandle(1), GF(2))
    s = direct_sum(pt, pt)
    assert s.dim == 2
    assert multiply(s, [1, 0], [0, 1]) == [0, 0]
    assert multiply(s, [1, 0], [1, 0]) == [1, 0]


def test_brute_force_finds_identity_for_equal_rings():
    ring = quandle_ring(trivial_quandle(2), GF(2))
    m = find_ring_isomorphism(ring, ring)
    assert m is not None
    assert is_ring_isomorphism(ring, ring, m)


def test_brute_force_separates_sum_of_points_from_trivial3():
    for p in (2, 3):
        pt = quandle_ring(trivial_quandle(1), GF(p))
        s = direct_sum(direct_sum(pt, pt), pt)
        t3 = quandle_ring(trivial_quandle(3), GF(p))
        assert find_ring_isomorphism(s, t3) is None


def test_brute_force_checks_zero_products():
    # r2 is r1 with its zero product e_1 * e_2 = 0 made e_0: the identity
    # respects every other product, so only that one rules it out
    r1_table = ((-1, 1, 0), (0, 1, -1), (2, 1, 2))
    r2_table = ((-1, 1, 0), (0, 1, 0), (2, 1, 2))
    for p in (2, 3, 5):
        r1, r2 = BasedRing(GF(p), r1_table), BasedRing(GF(p), r2_table)
        assert find_ring_isomorphism(r1, r2) is None
        assert find_ring_isomorphism(r1, r1) == [[int(i == j) for j in range(3)] for i in range(3)]


def test_brute_force_budget():
    ring = quandle_ring(trivial_quandle(4), GF(5))
    with pytest.raises(CapacityError):
        find_ring_isomorphism(ring, ring, budget=10)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=4), small_vec)
def test_scalar_mul_distributes(c, v):
    ring = quandle_ring(dihedral_quandle(3), ZZ)
    w = [2, 0, -1]
    assert multiply(ring, [c * a for a in v], w) == [c * a for a in multiply(ring, v, w)]
