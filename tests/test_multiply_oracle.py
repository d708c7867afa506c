"""Differential test of ``rings.multiply``, a scatter-add over the ring's
int table, against the product it replaced.

The oracle is the earlier dict-based ring: one {k: coeff} map of
structure constants per basis pair, built here from the same quandle
table.  Over F_p it reduces mod p after every scalar operation, where
``multiply`` reduces once at the end.
"""

from conftest import relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.domains import GF, QQ, ZZ
from quandlekit.quandles import alexander_quandle, dihedral_quandle
from quandlekit.rings import direct_sum, multiply, quandle_ring
from quandlekit.symmetry import enumerate_quandles

DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(7)]
SMALL_QUANDLES = [q for n in range(1, 6) for q in enumerate_quandles(n)]
ALEXANDER_PARAMETERS = [(5, 2), (5, 3), (7, 3), (8, 3), (9, 2), (9, 4)]


def oracle_constants(x, domain):
    """constants[i][j]: dict {k: coeff} for e_i * e_j in the quandle ring."""
    return tuple(tuple({x.table[i][j]: domain.one} for j in range(x.n)) for i in range(x.n))


def oracle_direct_sum(s1, s2):
    """Block sum: cross-block basis products are zero."""
    d1, d2 = len(s1), len(s2)
    constants = []
    for i in range(d1 + d2):
        row = []
        for j in range(d1 + d2):
            if i < d1 and j < d1:
                row.append(dict(s1[i][j]))
            elif i >= d1 and j >= d1:
                row.append({k + d1: c for k, c in s2[i - d1][j - d1].items()})
            else:
                row.append({})
        constants.append(tuple(row))
    return tuple(constants)


def oracle_multiply(dom, constants, u, v):
    """Bilinear product of coefficient vectors."""
    p = dom.char

    def r(a):
        return a % p if p else a

    acc = [dom.zero] * len(constants)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            c = r(ui * vj)
            for k, s in constants[i][j].items():
                acc[k] = r(acc[k] + r(c * s))
    return acc


@st.composite
def quandles(draw):
    """A quandle of order <= 5, or a relabeled dihedral or Alexander quandle."""
    kind = draw(st.sampled_from(["small", "dihedral", "alexander"]))
    if kind == "small":
        return draw(st.sampled_from(SMALL_QUANDLES))
    if kind == "dihedral":
        q = dihedral_quandle(draw(st.integers(min_value=3, max_value=9)))
    else:
        q = alexander_quandle(*draw(st.sampled_from(ALEXANDER_PARAMETERS)))
    return relabel(q, draw(st.permutations(range(q.n))))


def ring_and_oracle(draw, domain, depth):
    """A quandle ring or a nested direct sum of them, with the oracle's
    constants for the same ring."""
    if depth == 0 or draw(st.booleans()):
        q = draw(quandles())
        return quandle_ring(q, domain), oracle_constants(q, domain)
    r1, s1 = ring_and_oracle(draw, domain, depth - 1)
    r2, s2 = ring_and_oracle(draw, domain, depth - 1)
    return direct_sum(r1, r2), oracle_direct_sum(s1, s2)


def coefficients(domain):
    if domain is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    values = st.integers(min_value=-6, max_value=6)
    return values if domain is ZZ else values.map(domain.coerce)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiply_matches_dict_oracle(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    ring, constants = ring_and_oracle(data.draw, domain, depth=2)
    vectors = st.lists(coefficients(domain), min_size=ring.dim, max_size=ring.dim)
    u, v = data.draw(vectors), data.draw(vectors)
    got, want = multiply(ring, u, v), oracle_multiply(domain, constants, u, v)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
