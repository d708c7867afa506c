import gc
import itertools
import json
import sys
from functools import lru_cache

import pytest
from conftest import relabel
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pair_kernel import oracle_closure, oracle_peak, small_quandles

from quandlekit import cli, symmetry
from quandlekit.errors import CapacityError, NotInvariantError
from quandlekit.quandles import (
    Quandle,
    dihedral_quandle,
    disjoint_union,
    left_translation,
    orbits,
    partition_type,
    right_translation,
    trivial_quandle,
)
from quandlekit.symmetry import (
    DEFAULT_CLOSURE_CAP,
    _closure,
    _is_cycle_off,
    canonical_form,
    compose,
    enumerate_quandles,
    inner_group,
    is_left_2transitive,
    is_left_cyclic_type,
    is_left_peak_2transitive,
    is_right_2transitive,
    is_right_cyclic_type,
    is_right_orbit_2transitive,
    peak_2transitive,
    quandle_polynomial,
    quandles_isomorphic,
    _enumerate,
    restricted_action,
)

ONE_SWAP = Quandle.from_table([[0, 0, 1], [1, 1, 0], [2, 2, 2]])


def test_compose_applies_right_first():
    f = (1, 2, 0)
    g = (0, 0, 0)
    assert compose(f, g) == (1, 1, 1)
    assert compose(g, f) == (0, 0, 0)


def test_inner_group_sizes():
    assert len(inner_group(trivial_quandle(4))) == 1
    assert len(inner_group(dihedral_quandle(3))) == 6
    assert len(inner_group(dihedral_quandle(5))) == 10


def rows(x):
    return [left_translation(x, i) for i in range(x.n)]


def test_left_semigroup_of_trivial_is_constants():
    assert oracle_closure(rows(trivial_quandle(3))) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
    assert peak_2transitive(rows(trivial_quandle(3))) == oracle_peak(rows(trivial_quandle(3))) == True


def test_left_semigroup_of_latin_is_all_permutations():
    h = oracle_closure(rows(dihedral_quandle(5)))
    assert all(len(set(f)) == 5 for f in h)
    assert peak_2transitive(rows(dihedral_quandle(5))) == oracle_peak(rows(dihedral_quandle(5))) == True


def test_closure_is_fixpoint():
    # the group closure of the columns is closed under composition, and
    # the rows' peak kernel agrees with the full closure
    for q in enumerate_quandles(4) + (ONE_SWAP,):
        h = _closure([right_translation(q, j) for j in range(q.n)], DEFAULT_CLOSURE_CAP)
        assert all(compose(f, g) in h for f in h for g in h)
        assert peak_2transitive(rows(q)) == oracle_peak(rows(q)), q.table


def test_closure_of_no_maps_is_empty():
    assert _closure([], DEFAULT_CLOSURE_CAP) == set()
    assert peak_2transitive([]) == oracle_peak([]) == False


def test_closure_capacity():
    with pytest.raises(CapacityError):
        inner_group(dihedral_quandle(7), cap=3)


def test_restricted_action():
    q = dihedral_quandle(4)
    gens = [tuple(q.table[i][j] for i in range(4)) for j in range(4)]
    restricted = restricted_action(gens, (0, 2))
    assert set(restricted) == {(0, 1), (1, 0)}
    with pytest.raises(NotInvariantError):
        restricted_action(gens, (0, 1))


def test_inn_r5_not_2transitive():
    assert not is_right_2transitive(dihedral_quandle(5))
    assert is_right_2transitive(dihedral_quandle(3))


def test_trivial_quandle_transitivity_flags():
    q = trivial_quandle(3)
    assert not is_right_2transitive(q)
    assert not is_left_2transitive(q)
    assert is_right_orbit_2transitive(q)  # singleton orbits are vacuous
    assert is_left_peak_2transitive(q)  # constants: rank-1 idempotents


def test_left_peak_2transitive_examples():
    # rows of R_3 generate S_3 acting 2-transitively
    assert is_left_peak_2transitive(dihedral_quandle(3))
    # the one-swap quandle has rank-2 maps but no rank-2 idempotent group
    assert not is_left_peak_2transitive(ONE_SWAP)
    # rows of R_5 generate the affine group of Z_5, which is 2-transitive
    assert is_left_peak_2transitive(dihedral_quandle(5))


def test_cyclic_type():
    assert is_right_cyclic_type(dihedral_quandle(3))
    assert not is_right_cyclic_type(trivial_quandle(3))
    assert not is_right_cyclic_type(dihedral_quandle(4))
    assert is_left_cyclic_type(dihedral_quandle(3))
    assert is_left_cyclic_type(dihedral_quandle(5))
    assert not is_left_cyclic_type(ONE_SWAP)


def oracle_full_cycle_off_fixed_point(f, x, n):
    """True iff f fixes x and acts as a single (n-1)-cycle on the rest."""
    if f[x] != x:
        return False
    if n <= 1:
        return True
    start = 0 if x != 0 else 1
    seen = 1
    cur = f[start]
    while cur != start:
        if cur == x:
            return False
        seen += 1
        if seen > n:
            return False
        cur = f[cur]
    return seen == n - 1


def test_cycle_off_matches_oracle_on_every_permutation():
    pairs = 0
    for n in range(1, 8):
        for f in itertools.permutations(range(n)):
            for j in range(n):
                assert _is_cycle_off(f, j) == oracle_full_cycle_off_fixed_point(f, j, n), (f, j)
                pairs += 1
    assert pairs == 40319


def test_cyclic_types_match_oracle_on_small_quandles():
    for q in small_quandles():
        right = all(oracle_full_cycle_off_fixed_point(right_translation(q, j), j, q.n) for j in range(q.n))
        left = all(
            len(set(f)) == q.n and oracle_full_cycle_off_fixed_point(f, i, q.n) for i, f in enumerate(rows(q))
        )
        assert is_right_cyclic_type(q) == right, q.table
        assert is_left_cyclic_type(q) == left, q.table


def test_right_2transitive_implies_right_cyclic():
    for n in range(2, 6):
        for q in enumerate_quandles(n):
            if is_right_2transitive(q):
                assert is_right_cyclic_type(q)


def test_quandle_polynomial_trivial():
    qp = quandle_polynomial(trivial_quandle(4))
    assert qp.counts() == {(4, 4): 4}
    assert str(qp) == "4s^4t^4"


def test_quandle_polynomial_serialization():
    qp = quandle_polynomial(ONE_SWAP)
    data = qp.to_json()
    assert all(set(d) == {"r", "c", "mult"} for d in data)
    assert sum(d["mult"] for d in data) == 3


def test_isomorphic_to_relabeling():
    q = dihedral_quandle(5)
    relabeled = relabel(q, (2, 0, 4, 1, 3))
    found = quandles_isomorphic(q, relabeled)
    assert found is not None
    for i in range(5):
        for j in range(5):
            assert found[q.op(i, j)] == relabeled.op(found[i], found[j])


def test_isomorphism_size_mismatch():
    # the contract of find_ring_isomorphism: no isomorphism, not an error
    assert quandles_isomorphic(trivial_quandle(2), trivial_quandle(3)) is None


def test_isomorphism_respects_invariants():
    qs = enumerate_quandles(4)
    for a, b in itertools.combinations(qs, 2):
        assert quandles_isomorphic(a, b) is None
        if quandle_polynomial(a) != quandle_polynomial(b):
            continue  # pruning path already exercised


def test_canonical_form_is_relabeling_invariant():
    q = dihedral_quandle(4)
    base = canonical_form(q)
    for sigma in itertools.permutations(range(4)):
        assert canonical_form(relabel(q, sigma)) == base


def test_canonical_form_idempotent_on_order4():
    for q in enumerate_quandles(4):
        c = canonical_form(q)
        assert canonical_form(Quandle(4, c)) == c


def test_canonical_form_capacity():
    with pytest.raises(CapacityError):
        canonical_form(trivial_quandle(9))


def test_enumeration_counts_small():
    assert len(enumerate_quandles(1)) == 1
    assert len(enumerate_quandles(2)) == 1
    assert len(enumerate_quandles(3)) == 3
    assert len(enumerate_quandles(4)) == 7


def test_enumeration_bound():
    with pytest.raises(CapacityError):
        enumerate_quandles(8)


def test_enumeration_above_canonical_limit_refused_before_search(monkeypatch):
    def no_search(n):
        raise AssertionError("searched order %d" % n)

    monkeypatch.setattr(symmetry, "_enumerate", no_search)
    with pytest.raises(CapacityError, match="bounded at n = 8"):
        enumerate_quandles(9, bound=9)


def test_enumeration_pairwise_non_isomorphic():
    for n in (3, 4, 5, 6):
        qs = enumerate_quandles(n)
        for a, b in itertools.combinations(qs, 2):
            assert quandles_isomorphic(a, b) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_enumeration_catches_random_relabelings(n, rng):
    qs = enumerate_quandles(n)
    q = qs[rng.randrange(len(qs))]
    sigma = list(range(n))
    rng.shuffle(sigma)
    assert canonical_form(relabel(q, sigma)) == canonical_form(q)


def test_union_partition_type_adds():
    q = disjoint_union(dihedral_quandle(3), trivial_quandle(2))
    assert partition_type(q)[0] == 2
    assert partition_type(q)[2] == 1
    assert orbits(q) == ((0, 1, 2), (3,), (4,))


def test_searches_leave_no_reference_cycles():
    # the recursive closures are unlinked on return, so refcounting frees
    # each search's state and the cyclic collector finds nothing to do
    x = dihedral_quandle(7)
    gc.collect()
    gc.disable()
    try:
        assert quandles_isomorphic(x, x) is not None
        assert len(_enumerate.__wrapped__(4)) == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


def count_calls(monkeypatch, names):
    """Wrap each `symmetry` function named in every quandlekit module
    namespace that binds it, as a tracer of the public functions does;
    returns the call counts, filled as the wrappers run."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "quandlekit"]
    for name in names:
        original = getattr(symmetry, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_searches_call_the_public_functions(monkeypatch, tmp_path):
    # enumeration and check reach canonical_form and
    # is_right_orbit_2transitive by name, so wrapping those names sees
    # every call; a cold cache for the search, the process's own kept
    monkeypatch.setattr(symmetry, "_enumerate", lru_cache(maxsize=None)(_enumerate.__wrapped__))
    counts = count_calls(monkeypatch, ("canonical_form", "is_right_orbit_2transitive"))
    assert len(enumerate_quandles(5)) == 22
    assert counts == {"canonical_form": 22, "is_right_orbit_2transitive": 0}
    path = tmp_path / "r5.json"
    path.write_text(json.dumps({"n": 5, "table": [list(row) for row in dihedral_quandle(5).table]}))
    assert cli.main(["check", str(path)]) == 0
    assert counts == {"canonical_form": 22, "is_right_orbit_2transitive": 1}
