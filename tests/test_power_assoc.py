"""Differential tests of the exact power-associativity decision against
the probe it replaced and against brute force.

The oracles:

- ``oracle_probe_witness``: the earlier `power_assoc_witness`, which tried
  u = a*e_i + b*e_j over `DEFAULT_WITNESS_BOX` and answered None when no
  probe failed; it misses violations that need three basis elements;
- ``oracle_sides``: both sides of the two Albert identities from the
  dict-based product of ``test_multiply_oracle``, independent of
  ``rings.multiply``;
- the brute-force verdict over F_p: some u in F_p^n violates an identity.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_multiply_oracle import SMALL_QUANDLES, oracle_constants, oracle_multiply
from test_pair_kernel import dihedral_group, shuffled

from quandlekit import rings
from quandlekit.domains import GF, QQ, ZZ
from quandlekit.quandles import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    dihedral_quandle,
    disjoint_union,
    trivial_quandle,
)
from quandlekit.rings import (
    DEFAULT_WITNESS_BOX,
    PowerAssocWitness,
    _albert_identities,
    power_assoc_witness,
    quandle_ring,
)

DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(7)]


def oracle_probe_witness(x, domain):
    """Search u = a*e_i + b*e_j (i != j, a,b in `DEFAULT_WITNESS_BOX`) for
    an Albert identity violation; None when every probe passes."""
    ring = quandle_ring(x, domain)
    coeffs = [domain.coerce(c) for c in DEFAULT_WITNESS_BOX]
    for i in range(x.n):
        for j in range(x.n):
            if i == j:
                continue
            for a in coeffs:
                for b in coeffs:
                    u = [domain.zero] * x.n
                    u[i] = a
                    u[j] = b
                    for identity, lhs, rhs in _albert_identities(ring, u):
                        if lhs != rhs:
                            return PowerAssocWitness(tuple(u), identity, tuple(lhs), tuple(rhs))
    return None


def oracle_sides(x, domain, u):
    """{identity: (lhs, rhs)} for u by the dict-based product."""
    constants = oracle_constants(x, domain)

    def mul(a, b):
        return tuple(oracle_multiply(domain, constants, a, b))

    uu = mul(u, u)
    uu_u = mul(uu, u)
    return {"cube": (uu_u, mul(u, uu)), "fourth": (mul(uu, uu), mul(uu_u, u))}


def oracle_violated(x, domain, u):
    return any(lhs != rhs for lhs, rhs in oracle_sides(x, domain, u).values())


def assert_witness_holds(x, domain, w):
    """w names an identity that its element violates, with the true sides."""
    lhs, rhs = oracle_sides(x, domain, w.element)[w.identity]
    assert lhs != rhs
    assert (lhs, rhs) == (w.lhs, w.rhs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verdict_matches_brute_force(p):
    """Exact: a witness exactly when some u in F_p^n violates an identity,
    on every quandle of order at most 5."""
    domain = GF(p)
    for q in SMALL_QUANDLES:
        brute = any(oracle_violated(q, domain, u) for u in itertools.product(range(p), repeat=q.n))
        assert (power_assoc_witness(q, domain) is not None) == brute, (q.table, p)


def test_witnesses_match_probe():
    """Wherever the probe finds a witness the new one is the same; the
    probe misses 14 rings of order 4 and 5 over F_2 and F_3, and each now
    gets a witness; every witness violates the identity it names."""
    missed = Counter()
    for q in SMALL_QUANDLES:
        for domain in DOMAINS:
            w = power_assoc_witness(q, domain)
            probe = oracle_probe_witness(q, domain)
            if probe is not None:
                assert w == probe, (q.table, domain)
            elif w is not None:
                missed[q.n, repr(domain)] += 1
            if w is not None:
                assert_witness_holds(q, domain, w)
    assert sorted(missed.items()) == [((4, "F_2"), 2), ((4, "F_3"), 1), ((5, "F_2"), 10), ((5, "F_3"), 1)]


def test_witness_beyond_the_pair_box():
    """An order-4 ring over F_2 whose violations need three basis elements."""
    q = Quandle.from_table([[0, 0, 0, 0], [1, 1, 1, 1], [2, 3, 2, 2], [3, 2, 3, 3]])
    assert oracle_probe_witness(q, GF(2)) is None
    w = power_assoc_witness(q, GF(2))
    assert w == PowerAssocWitness((1, 1, 1, 0), "cube", (1, 1, 1, 0), (1, 1, 0, 1))


def test_empty_grid_is_an_internal_error(monkeypatch):
    """A nonzero polynomial with no violation on its grid is a bug, not None."""
    monkeypatch.setattr(rings, "_violation", lambda ring, u: None)
    with pytest.raises(RuntimeError):
        power_assoc_witness(dihedral_quandle(3), QQ)


RELABEL_BASES = (
    [dihedral_quandle(n) for n in range(3, 10)]
    + [alexander_quandle(n, t) for n, t in ((5, 2), (7, 3), (8, 3), (9, 2))]
    + [conjugation_quandle(dihedral_group(k)) for k in (3, 4)]
    + [disjoint_union(dihedral_quandle(3), dihedral_quandle(5)), disjoint_union(trivial_quandle(2), dihedral_quandle(3))]
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabeled_quandles(data):
    """The verdict does not depend on the labels; a witness is the probe's
    where the probe finds one and violates its identity; a ring declared
    power-associative passes both identities at random points."""
    base = data.draw(st.sampled_from(RELABEL_BASES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    q = shuffled(base, rng)
    domain = data.draw(st.sampled_from(DOMAINS))
    w = power_assoc_witness(q, domain)
    assert (w is None) == (power_assoc_witness(base, domain) is None)
    probe = oracle_probe_witness(q, domain)
    if probe is not None:
        assert w == probe
    if w is None:
        for _ in range(4):
            u = tuple(domain.coerce(rng.randint(-(10**6), 10**6)) for _ in range(q.n))
            assert not oracle_violated(q, domain, u)
    else:
        assert_witness_holds(q, domain, w)

