"""Tests of the two kernels behind every spin-up: the quandle generating
set whose right translations generate Inn(X), and the incremental echelon
forms whose ``insert`` reports whether the span grew."""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_arithmetic_oracles import oracle_field_in_span, oracle_hnf, oracle_rref
from test_multiply_oracle import coefficients
from test_pair_kernel import family_quandles, small_quandles

from quandlekit.domains import GF, QQ, ZZ
from quandlekit.linalg import echelon, hnf_coordinates
from quandlekit.quandles import dihedral_quandle, generating_set, right_translation, trivial_quandle
from quandlekit.symmetry import compose, inner_group


def subquandle_closure(x, elements):
    inside = set(elements)
    while True:
        more = {x.table[u][v] for u in inside for v in inside} - inside
        if not more:
            return inside
        inside |= more


def group_closure(gens, n):
    elements, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        new = {compose(f, g) for f in frontier for g in gens} - elements
        elements |= new
        frontier = list(new)
    return elements


def test_generating_set_generates_quandle_and_inner_group():
    quandles = small_quandles() + family_quandles()
    assert len(quandles) == 107 + 29
    for q in quandles:
        gens = generating_set(q)
        assert list(gens) == sorted(set(gens))
        assert subquandle_closure(q, gens) == set(range(q.n))
        translations = [right_translation(q, a) for a in gens]
        assert group_closure(translations, q.n) == inner_group(q)


def test_generating_set_is_small_on_connected_families():
    # R_n is generated by two elements, a trivial quandle by all of them
    assert generating_set(dihedral_quandle(12)) == (0, 1)
    assert generating_set(trivial_quandle(4)) == (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_insert_reports_growth_exactly_when_row_is_new(data):
    """Rows are drawn at random or as combinations of the rows before, so
    both answers come up; after every insert the form is the reduced basis
    the sweep oracles give for all rows so far."""
    domain = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5)]))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    vectors = st.lists(coefficients(domain), min_size=ncols, max_size=ncols)
    form, rows = echelon(domain), []
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        if rows and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(coefficients(domain), min_size=len(rows), max_size=len(rows)))
            row = [sum((c * r[i] for c, r in zip(coeffs, rows)), 0) for i in range(ncols)]
        else:
            row = data.draw(vectors)
        basis = form.rows()
        if domain is ZZ:
            already = hnf_coordinates(basis, row) is not None
        else:
            already = oracle_field_in_span(basis, [domain.coerce(c) for c in row], domain)
        assert form.insert(row) == (not already)
        rows.append(row)
        assert form.rows() == (oracle_hnf(rows) if domain is ZZ else oracle_rref(rows, domain))
