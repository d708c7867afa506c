import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.cli import EXPECTED
from quandlekit.dihedral import (
    ComplexDecompositionReport,
    ComplexSummand,
    _summand_check,
    column_periodicity_holds,
    complex_decomposition_check,
    delta_series_shapes,
    e_expr,
    e_product,
    e_to_vector,
    odd_relations_check,
    star_relations_check,
    vector_to_e,
    verify_product_formulas,
)
from quandlekit.domains import GF, ZZ
from quandlekit.errors import PreconditionError, QuandleKitError
from quandlekit.lattices import AbelianGroupShape
from quandlekit.quandles import dihedral_quandle, inner_moves
from quandlekit.rings import multiply, quandle_ring


def e_product_generic(n, i, j):
    """e_i * e_j through the generic structure constants, the oracle for
    the closed form."""
    ring = quandle_ring(dihedral_quandle(n), ZZ)
    prod = multiply(ring, e_to_vector(e_expr(n, [(i, 1)])), e_to_vector(e_expr(n, [(j, 1)])))
    return vector_to_e(n, prod)


def e_basis_table(n):
    """Full (n-1) x (n-1) product table; entry [i-1][j-1] is e_i * e_j."""
    return tuple(tuple(e_product(n, i, j) for j in range(1, n)) for i in range(1, n))


def reference_cells(n):
    """The paper's product-table cells of R_n that `verify` checks, as
    (i, j) -> tuple of (index, coeff)."""
    return {(i, j): pairs for (m, i, j), pairs in EXPECTED["product_cells"].items() if m == n}


def test_e_expr_reduces_indices():
    e = e_expr(8, [(9, 1), (0, 2), (8, 3), (4, 1), (4, -1)])
    assert e == e_expr(8, [(1, 1)])


def test_e_expr_str():
    assert str(e_expr(8, [(3, 1), (4, -1), (7, -1)])) == "e_3 - e_4 - e_7"
    assert str(e_expr(8, [(4, -2)])) == "-2e_4"
    assert str(e_expr(8, [])) == "0"


def test_e_product_index_range():
    with pytest.raises(PreconditionError):
        e_product(5, 0, 1)
    with pytest.raises(PreconditionError):
        e_product(5, 1, 5)


def test_closed_form_matches_generic_exhaustively():
    for n in range(3, 13):
        for i in range(1, n):
            for j in range(1, n):
                assert e_product(n, i, j) == e_product_generic(n, i, j)


def test_diagonal_products():
    for n in (5, 8, 9):
        for i in range(1, n):
            assert e_product(n, i, i) == e_expr(n, [(i, 1), (2 * i, -1), (n - i, -1)])


def test_reference_cells_n8():
    cells = reference_cells(8)
    assert len(cells) == 23
    for (i, j), pairs in cells.items():
        assert e_product(8, i, j) == e_expr(8, list(pairs)), (i, j)


def test_reference_cells_n10():
    cells = reference_cells(10)
    assert len(cells) == 32
    for (i, j), pairs in cells.items():
        assert e_product(10, i, j) == e_expr(10, list(pairs)), (i, j)


def test_e_basis_table_shape():
    table = e_basis_table(8)
    assert len(table) == 7 and all(len(row) == 7 for row in table)
    assert table[0][1] == e_expr(8, [(3, 1), (4, -1), (7, -1)])


def test_middle_column_vanishes():
    for n in (8, 10, 12):
        for i in range(1, n):
            assert e_product(n, i, n // 2) == e_expr(n, [])


def test_column_periodicity():
    for n in (4, 6, 8, 10, 12, 14):
        assert column_periodicity_holds(n)
    with pytest.raises(PreconditionError):
        column_periodicity_holds(7)


def test_formula_families_pass():
    for n in (8, 12):
        report = verify_product_formulas(n)
        assert report.case == 1
        assert report.ok, report.mismatches
    for n in (10, 14):
        report = verify_product_formulas(n)
        assert report.case == 2
        assert report.ok, report.mismatches


def test_formula_families_reject_odd():
    with pytest.raises(PreconditionError):
        verify_product_formulas(9)


def test_vector_roundtrip():
    e = e_expr(6, [(1, 2), (4, -1)])
    assert vector_to_e(6, e_to_vector(e)) == e
    with pytest.raises(QuandleKitError):
        vector_to_e(6, [1, 0, 0, 0, 0, 0])


def test_delta_series_odd():
    for n in (3, 5, 7, 9):
        shapes = delta_series_shapes(n, 3)
        assert shapes == [AbelianGroupShape(0, (n,))] * 3


def test_delta_series_even_first_quotient():
    for n in (4, 6, 8, 10):
        shape = delta_series_shapes(n, 1)[0]
        assert shape == AbelianGroupShape(1, (n // 2,))


def test_star_relations():
    for n in (6, 8, 10, 12):
        assert star_relations_check(n)
    with pytest.raises(PreconditionError):
        star_relations_check(5)


def test_odd_relations():
    for n in (3, 5, 7, 9):
        assert odd_relations_check(n)
    with pytest.raises(PreconditionError):
        odd_relations_check(6)


def expected_summands(n):
    """(label, dim) of the rotation-eigenvector decomposition of C[R_n]:
    per orbit of size m, the trivial line, a plane for each pair of
    conjugate characters and, for even m, a sign line."""
    m, tags = (n, [""]) if n % 2 else (n // 2, [".even", ".odd"])
    out = []
    for tag in tags:
        out.append(("triv" + tag, 1))
        for j in range(1, m // 2 + 1):
            out.append(("sign" + tag, 1) if 2 * j == m else ("plane%d%s" % (j, tag), 2))
    return out


def is_prime(p):
    return p > 1 and all(p % d for d in range(2, p))


def test_complex_decomposition_odd():
    report = complex_decomposition_check(5)
    assert report.ok and report.prime == 11
    assert report.total_dim == 5
    assert [s.dim for s in report.summands] == [1, 2, 2]


def test_complex_decomposition_n3_single_plane():
    report = complex_decomposition_check(3)
    assert report.ok and report.prime == 7
    assert [(s.label, s.dim) for s in report.summands] == [("triv", 1), ("plane1", 2)]


def test_complex_decomposition_even():
    report = complex_decomposition_check(8)
    assert report.ok and report.prime == 5
    # two orbits, each 1 + 2 + 1
    assert [s.label for s in report.summands] == [
        "triv.even", "plane1.even", "sign.even", "triv.odd", "plane1.odd", "sign.odd",
    ]
    assert sum(s.dim for s in report.summands) == 8


def test_complex_decomposition_exact_up_to_64():
    for n in range(3, 65):
        doc = complex_decomposition_check(n).to_json()
        assert doc["ok"] is True and doc["total_dim"] == n, n
        want = [{"label": label, "dim": dim, "invariant": True, "simple": True} for label, dim in expected_summands(n)]
        assert doc["summands"] == want, n
        m = n if n % 2 else n // 2
        step = m if m % 2 == 0 else 2 * m  # lcm(m, 2)
        assert doc["prime"] == next(p for p in range(step + 1, 10**4, step) if is_prime(p)), n


def test_complex_decomposition_needs_the_summands_to_span():
    # two simple summands of the right dimensions whose sum is only 2-dimensional
    summands = (ComplexSummand("triv", 1, True, True), ComplexSummand("plane1", 2, True, True))
    assert not ComplexDecompositionReport(n=3, prime=7, summands=summands, total_dim=2).ok
    assert ComplexDecompositionReport(n=3, prime=7, summands=summands, total_dim=3).ok


def test_complex_decomposition_rejects_small_n():
    with pytest.raises(PreconditionError):
        complex_decomposition_check(2)


def test_summand_check_on_one_orbit_of_r8():
    """Over F_5, 2 has order 4; on the even orbit of R_8 the trivial and
    sign lines together are invariant but not simple, and a plane row
    added to the trivial line is not invariant."""
    x = dihedral_quandle(8)
    moves = inner_moves(x)
    orbit = (0, 2, 4, 6)

    def row(value):
        out = [0] * 8
        for t, v in enumerate(orbit):
            out[v] = value(t) % 5
        return out

    triv, sign, plane_row = row(lambda t: 1), row(lambda t: (-1) ** t), row(lambda t: 2**t)
    assert _summand_check(GF(5), moves, [triv]) == (1, True, True)
    assert _summand_check(GF(5), moves, [triv, sign]) == (2, True, False)
    assert _summand_check(GF(5), moves, [plane_row, row(lambda t: 3**t)]) == (2, True, True)
    assert _summand_check(GF(5), moves, [triv, plane_row]) == (2, False, False)
    # the two trivial lines share the rotation eigenvalue 1; the plane they
    # span is decided all the same
    odd_triv = [int(v % 2 == 1) for v in range(8)]
    assert _summand_check(GF(5), moves, [triv, odd_triv]) == (2, True, False)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=16), st.data())
def test_closed_form_random_spot_checks(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert e_product(n, i, j) == e_product_generic(n, i, j)
