import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pair_kernel import oracle_pair_orbit_count

from quandlekit.domains import GF, QQ, ZZ
from quandlekit.errors import ContainmentError, DomainMismatchError, NonSplitError, PreconditionError
from quandlekit.lattices import (
    AbelianGroupShape,
    augmentation_ideal,
    delta_powers,
    generated_left_ideal,
    generated_right_ideal,
    orbit_summands,
    quotient_shape,
    span,
    submodule_leq,
    submodule_product,
    verify_simple_decomposition,
)
from quandlekit.quandles import (
    dihedral_quandle,
    disjoint_union,
    trivial_quandle,
)
from quandlekit.rings import multiply, quandle_ring
from quandlekit.symmetry import enumerate_quandles, inner_group, is_right_orbit_2transitive


def submodule_sum(a, b):
    return span(a.ambient_dim, a.domain, a.basis + b.basis)


def test_augmentation_ideal_rank():
    for n in (1, 2, 5):
        sub = augmentation_ideal(trivial_quandle(n), ZZ)
        assert sub.rank == n - 1
    sub = augmentation_ideal(dihedral_quandle(3), ZZ)
    assert sub.basis == ((1, 0, -1), (0, 1, -1))


def test_augmentation_ideal_is_kernel_of_coefficient_sum():
    # same lattice as the null space of the all-ones row
    sub = augmentation_ideal(dihedral_quandle(4), ZZ)
    assert all(sum(v) == 0 for v in sub.basis)
    for v in ((1, -1, 0, 0), (0, 0, 2, -2), (3, -1, -1, -1)):
        assert sub.contains(v)
    assert not sub.contains((1, 0, 0, 0))


def test_submodule_product_zero():
    ring = quandle_ring(dihedral_quandle(3), ZZ)
    delta = augmentation_ideal(dihedral_quandle(3), ZZ)
    zero = span(3, ZZ, [])
    assert submodule_product(ring, delta, zero).rank == 0


def test_delta_square_r3_contains_known_product():
    ring = quandle_ring(dihedral_quandle(3), ZZ)
    delta = augmentation_ideal(dihedral_quandle(3), ZZ)
    d2 = submodule_product(ring, delta, delta)
    e1 = [-1, 1, 0]
    prod = multiply(ring, e1, e1)
    assert prod == [1, 1, -2]  # a_0 + a_1 - 2 a_2
    assert d2.contains(prod)
    assert submodule_leq(d2, delta)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_submodule_leq_agrees_with_the_per_row_check(data):
    """One pass of `submodule_leq`, and one call of `Submodule.contains`
    on all the rows at once, against `contains` row by row, both ways
    round: b and a submodule a built from combinations of b's rows, plus
    at most two arbitrary rows that may take it out of b.  No vectors at
    all are always contained."""
    domain = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    n = data.draw(st.integers(1, 5))
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    b_rows = data.draw(st.lists(vector, max_size=4))
    weights = st.lists(st.integers(-3, 3), min_size=len(b_rows), max_size=len(b_rows))
    a_rows = [[sum(w * row[k] for w, row in zip(ws, b_rows)) for k in range(n)]
              for ws in data.draw(st.lists(weights, max_size=3))]
    a_rows += data.draw(st.lists(vector, max_size=2))
    a, b = span(n, domain, a_rows), span(n, domain, b_rows)
    for lower, upper in ((a, b), (b, a)):
        per_row = all(upper.contains(v) for v in lower.basis)
        assert submodule_leq(lower, upper) == upper.contains(*lower.basis) == per_row
        assert upper.contains()


def test_submodule_leq_sees_index_and_missing_rows():
    lattice = span(3, ZZ, [[1, 0, 0], [0, 1, 0]])
    doubled = span(3, ZZ, [[2, 0, 0], [0, 2, 0]])
    assert submodule_leq(doubled, lattice) and not submodule_leq(lattice, doubled)
    for domain in (QQ, GF(2), GF(3)):
        plane, line = span(3, domain, [[1, 1, 0], [0, 1, 1]]), span(3, domain, [[1, 2, 1]])
        assert submodule_leq(line, plane) and not submodule_leq(plane, line)
        assert not submodule_leq(span(3, domain, [[1, 2, 1], [0, 0, 1]]), plane)
        assert submodule_leq(span(3, domain, []), line)
    with pytest.raises(DomainMismatchError):
        submodule_leq(span(2, ZZ, [[1, 0]]), lattice)


def test_span_rejects_rows_of_another_length():
    for domain in (ZZ, QQ, GF(3)):
        for rows in ([[1, 2, 3, 4]], [[1, 2]], [[1, 0, 0], [0, 0, 0, 0]]):
            with pytest.raises(DomainMismatchError):
                span(3, domain, rows)


def test_delta_powers_descending_r5():
    powers = delta_powers(dihedral_quandle(5), ZZ, 4)
    for a, b in zip(powers, powers[1:]):
        assert submodule_leq(b, a)


def test_delta_power_bad_args():
    with pytest.raises(PreconditionError):
        delta_powers(dihedral_quandle(3), ZZ, 0)


def test_quotient_shape_trivial():
    a = span(3, ZZ, [(1, 0, 0), (0, 1, 0)])
    assert quotient_shape(a, a) == AbelianGroupShape(0, ())
    assert str(quotient_shape(a, a)) == "0"


def test_quotient_shape_known():
    powers = delta_powers(dihedral_quandle(3), ZZ, 2)
    shape = quotient_shape(powers[0], powers[1])
    assert shape == AbelianGroupShape(0, (3,))
    assert shape.order() == 3
    powers = delta_powers(dihedral_quandle(8), ZZ, 2)
    shape = quotient_shape(powers[0], powers[1])
    assert shape == AbelianGroupShape(1, (4,))
    assert shape.order() is None
    assert str(shape) == "Z + Z_4"


def test_quotient_shape_containment_enforced():
    a = span(2, ZZ, [(2, 0)])
    b = span(2, ZZ, [(1, 0)])
    with pytest.raises(ContainmentError):
        quotient_shape(a, b)
    # the other way round is fine
    assert quotient_shape(b, a) == AbelianGroupShape(0, (2,))


def test_quotient_shape_generator_invariance():
    rng = random.Random(5)
    base = [(2, 0, 4), (0, 6, 2)]
    a = span(3, ZZ, base)
    inner = [(2, 6, 6), (4, 0, 8)]  # combinations of the base rows
    b = span(3, ZZ, inner)
    expected = quotient_shape(a, b)
    for _ in range(20):
        mixed_a = []
        for _ in range(4):
            coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
            mixed_a.append(tuple(sum(c * r[k] for c, r in zip(coeffs, base)) for k in range(3)))
        a2 = span(3, ZZ, list(base) + mixed_a)
        assert a2.basis == a.basis
        assert quotient_shape(a2, b) == expected


def test_quotient_shape_over_field_is_dimension():
    a = span(3, QQ, [(1, 0, 0), (0, 1, 0)])
    b = span(3, QQ, [(1, 1, 0)])
    assert quotient_shape(a, b) == AbelianGroupShape(1, ())


def test_generated_right_ideal_fixpoint():
    ring = quandle_ring(dihedral_quandle(5), GF(5))
    sub = generated_right_ideal(ring, [[1, 4, 0, 0, 0]])
    basis_vectors = [ring.basis_vector(j) for j in range(5)]
    for v in sub.basis:
        for e in basis_vectors:
            assert sub.contains(multiply(ring, list(v), e))


def test_orbit_indicator_generates_rank1_ideal():
    q = disjoint_union(dihedral_quandle(3), trivial_quandle(1))
    ring = quandle_ring(q, QQ)
    indicator = [QQ.one, QQ.one, QQ.one, QQ.zero]
    sub = generated_right_ideal(ring, [indicator])
    assert sub.rank == 1


def test_generated_left_ideal_of_trivial_is_everything_or_zero():
    ring = quandle_ring(trivial_quandle(3), QQ)
    # left multiplication by basis vectors returns the left factor, so the
    # left ideal generated by any nonzero v includes every basis element
    sub = generated_left_ideal(ring, [[QQ.one, QQ.zero, QQ.zero]])
    assert sub.rank == 3


def test_orbit_summands_dimensions():
    q = dihedral_quandle(3)
    summands = orbit_summands(q, QQ)
    assert len(summands) == 1
    _, v_triv, v_st = summands[0]
    assert v_triv.rank == 1
    assert v_st.rank == 2

    q = trivial_quandle(3)
    summands = orbit_summands(q, QQ)
    assert len(summands) == 3
    assert all(vt.rank == 1 and vs.rank == 0 for _, vt, vs in summands)


def test_orbit_summands_characteristic_guard():
    with pytest.raises(NonSplitError):
        orbit_summands(dihedral_quandle(3), GF(3))


def test_orbit_summands_over_z_needs_a_field():
    # over Z the two summands of the orbit of R_3 span a sublattice of index 3
    with pytest.raises(PreconditionError, match="needs a field, not Z"):
        orbit_summands(dihedral_quandle(3), ZZ)


def test_dims_sum_to_n():
    for n in range(2, 6):
        for q in enumerate_quandles(n):
            total = sum(vt.rank + vs.rank for _, vt, vs in orbit_summands(q, QQ))
            assert total == n


def test_verify_decomposition_r3_over_f5():
    report = verify_simple_decomposition(dihedral_quandle(3), GF(5))
    assert report.verdict == "verified"
    entry = report.entries[0]
    assert (entry.dim_triv, entry.dim_st) == (1, 2)


def test_verify_decomposition_over_z_needs_a_field():
    # the orbit of R_3 does not split over Z: the indicator line and the
    # augmentation-zero summand span a sublattice of index 3
    with pytest.raises(PreconditionError, match="needs a field, not Z"):
        verify_simple_decomposition(dihedral_quandle(3), ZZ)
    with pytest.raises(PreconditionError):
        verify_simple_decomposition(trivial_quandle(2), ZZ)


def test_verify_decomposition_r9_over_f5_not_simple():
    # spin-up decides that the augmentation-zero summand of R_9 is not simple
    report = verify_simple_decomposition(dihedral_quandle(9), GF(5))
    assert report.verdict == "not-simple"
    entry = report.entries[0]
    assert entry.invariant
    assert entry.simple is False


def test_verify_decomposition_r5_over_q_by_reduction():
    # Inn(R_5) = D_5 has two orbits on the 20 ordered pairs of distinct
    # points, so 2-transitivity does not decide R_5; the summand reduced
    # mod 2 is simple, and so it is simple over Q
    report = verify_simple_decomposition(dihedral_quandle(5), QQ)
    assert report.verdict == "verified"
    assert report.entries[0].invariant
    assert report.entries[0].simple is True
    assert report.entries[0].reduction_prime == 2
    assert oracle_pair_orbit_count(list(inner_group(dihedral_quandle(5))), 5) == 2


def test_verify_decomposition_over_q_stays_unknown_for_r9():
    # the augmentation-zero summand of Q[R_9] holds the pullback of that of
    # R_3, so no reduction can be simple
    report = verify_simple_decomposition(dihedral_quandle(9), QQ)
    assert report.verdict == "inconclusive"
    assert (report.entries[0].simple, report.entries[0].reduction_prime) == ("unknown", None)


def test_verify_decomposition_order3_over_q():
    for q in enumerate_quandles(3):
        report = verify_simple_decomposition(q, QQ)
        assert report.verdict == "verified"


def test_positive_verdict_bases_have_full_rank():
    for n in range(2, 5):
        for q in enumerate_quandles(n):
            if not is_right_orbit_2transitive(q):
                continue
            report = verify_simple_decomposition(q, GF(5))
            if report.verdict == "verified":
                assert sum(e.dim_triv + e.dim_st for e in report.entries) == q.n


def test_krull_schmidt_consequence_small():
    # orbit-2-transitive quandles of order <= 3 with different partition
    # types never have ring isomorphisms over F_2
    import itertools

    from quandlekit.quandles import partition_type
    from quandlekit.rings import quandle_ring as qring
    from quandlekit.rings import find_ring_isomorphism

    eligible = []
    for n in (2, 3):
        for q in enumerate_quandles(n):
            if is_right_orbit_2transitive(q):
                eligible.append(q)
    for a, b in itertools.combinations(eligible, 2):
        if a.n != b.n or partition_type(a) == partition_type(b):
            continue
        assert find_ring_isomorphism(qring(a, GF(2)), qring(b, GF(2))) is None


def test_submodule_sum_monotone():
    a = span(3, ZZ, [(1, 0, 0)])
    b = span(3, ZZ, [(0, 2, 0)])
    s = submodule_sum(a, b)
    assert submodule_leq(a, s) and submodule_leq(b, s)
    assert s.rank == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=3))
def test_span_reduction_idempotent(rows):
    a = span(3, ZZ, rows)
    assert span(3, ZZ, list(a.basis)).basis == a.basis
