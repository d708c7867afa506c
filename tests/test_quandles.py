import copy
import inspect
import itertools
import json
import pickle
import random

import pytest
from conftest import relabel
from hypothesis import given, settings
from hypothesis import strategies as st
from test_isomorphism import translation_bases, translation_groups

from quandlekit import dihedral, lattices, quandles, rings, symmetry
from quandlekit.errors import (
    AxiomViolationError,
    EmptyQuandleError,
    GroupAxiomError,
    MalformedTableError,
    NonUnitParameterError,
)
from quandlekit.quandles import (
    MAX_WITNESSES,
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    dumps,
    from_json_dict,
    generating_set,
    left_translation,
    orbits,
    partition_type,
    right_translation,
    to_json_dict,
    trivial_quandle,
    validate_table,
)
from quandlekit.symmetry import enumerate_quandles


def cyclic_cayley(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_cayley():
    # permutations of 3 points, composition table
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]


def test_trivial_table():
    q = trivial_quandle(3)
    assert q.table == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_dihedral_matches_formula():
    q = dihedral_quandle(5)
    for i in range(5):
        for j in range(5):
            assert q.op(i, j) == (2 * j - i) % 5


def test_alexander_requires_unit():
    with pytest.raises(NonUnitParameterError):
        alexander_quandle(4, 2)
    alexander_quandle(5, 2)  # fine


def test_alexander_t_minus_one_is_dihedral():
    assert alexander_quandle(7, -1).table == dihedral_quandle(7).table


def test_empty_rejected():
    with pytest.raises(EmptyQuandleError):
        trivial_quandle(0)


@given(st.integers(min_value=1, max_value=12))
def test_dihedral_is_valid(n):
    report = validate_table(n, dihedral_quandle(n).table)
    assert report.ok


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9))
def test_alexander_is_valid_when_unit(n, t):
    from math import gcd

    if gcd(t, n) != 1:
        return
    report = validate_table(n, alexander_quandle(n, t).table)
    assert report.ok


def test_validation_reports_witnesses():
    # break idempotence at 0 and column 1 bijectivity
    table = [[1, 0, 0], [1, 1, 1], [2, 2, 2]]
    report = validate_table(3, table)
    assert not report.ok
    axioms = {a for a, _ in report.violations}
    assert "I" in axioms


def test_from_table_raises_axiom_violation():
    with pytest.raises(AxiomViolationError):
        Quandle.from_table([[1, 0], [0, 1]])


def test_malformed_shapes():
    with pytest.raises(MalformedTableError) as exc:
        validate_table(2, [[0, 0]])
    assert exc.value.code == "ragged-rows"
    with pytest.raises(MalformedTableError) as exc:
        validate_table(2, [[0, 5], [1, 1]])
    assert exc.value.code == "entry-out-of-range"


@pytest.mark.parametrize(
    "table, code, message",
    [
        ([[0, True, 2], [0, 1, 2], [0, 1, 2]], "entry-out-of-range", "entry (0,1)=True not an index in [0,3)"),
        ([[0, 1, 2], [0, 1.0, 2], [0, 1, 2]], "entry-out-of-range", "entry (1,1)=1.0 not an index in [0,3)"),
        ([[0, 1, 2], [0, 1, 2], [-1, 1, 2]], "entry-out-of-range", "entry (2,0)=-1 not an index in [0,3)"),
        ([[0, 1, 2], [0, 1, 3], [0, 1, 2]], "entry-out-of-range", "entry (1,2)=3 not an index in [0,3)"),
        ([[0, 1, 2], [0, 1], [0, 1, 2, 0]], "ragged-rows", "row 1 has length 2, expected 3"),
        ([[0, 1, 2], "012", [0, 1, 2]], "bad-structure", "row 1 is not a list"),
        ([[0, 1, 2], {0: 0, 1: 1, 2: 2}, [0, 1, 2]], "bad-structure", "row 1 is not a list"),
        # the first bad entry in row-major order is named, whatever else follows
        ([[0, 1, 2], [0, 9, -1], [True, 1, 2]], "entry-out-of-range", "entry (1,1)=9 not an index in [0,3)"),
        ([[0, -1, 2.5], [0, 1, 2], [0, 1, 2]], "entry-out-of-range", "entry (0,1)=-1 not an index in [0,3)"),
        ([[0, 1, 2], [0, 1, 2], [0, 1]], "ragged-rows", "row 2 has length 2, expected 3"),
    ],
)
def test_malformed_entries_name_the_first_bad_one(table, code, message):
    with pytest.raises(MalformedTableError) as exc:
        validate_table(3, table)
    assert (exc.value.code, str(exc.value)) == (code, message)


def test_well_formed_rows_of_any_sequence_type_pass_the_shape_check():
    # tuples take the row-level path; an int subclass other than bool is walked and accepted
    class Index(int):
        pass

    for table in ([(0, 0), (1, 1)], ((0, 0), (1, 1)), [[Index(0), 0], [1, Index(1)]]):
        assert validate_table(2, table).ok


def test_conjugation_quandle_of_s3():
    q = conjugation_quandle(s3_cayley())
    assert validate_table(q.n, q.table).ok
    # identity is central: its row and column are constant/identity-like
    assert all(q.op(0, j) == 0 for j in range(6))


def test_core_of_cyclic_group_is_dihedral():
    q = core_quandle(cyclic_cayley(5))
    assert q.table == dihedral_quandle(5).table


def test_core_validates_group():
    with pytest.raises(GroupAxiomError):
        core_quandle([[0, 0], [0, 0]])


def test_disjoint_union_blocks():
    q = disjoint_union(dihedral_quandle(3), trivial_quandle(2))
    assert q.n == 5
    assert validate_table(5, q.table).ok
    # cross products return the left argument
    assert q.op(0, 4) == 0
    assert q.op(4, 0) == 4


def test_orbits_and_partition_type():
    assert orbits(dihedral_quandle(4)) == ((0, 2), (1, 3))
    assert partition_type(dihedral_quandle(4)) == (0, 2, 0, 0)
    assert partition_type(trivial_quandle(4)) == (4, 0, 0, 0)
    union = disjoint_union(dihedral_quandle(3), trivial_quandle(1))
    assert orbits(union) == ((0, 1, 2), (3,))


def test_translations():
    q = dihedral_quandle(3)
    assert right_translation(q, 0) == (0, 2, 1)
    assert left_translation(q, 0) == (0, 2, 1)
    q = trivial_quandle(3)
    assert right_translation(q, 1) == (0, 1, 2)
    assert left_translation(q, 1) == (1, 1, 1)


def test_json_roundtrip():
    q = dihedral_quandle(6)
    assert from_json_dict(json.loads(dumps(q))).table == q.table
    d = to_json_dict(q)
    assert from_json_dict(d).n == 6


def test_from_json_dict_rejects_garbage():
    with pytest.raises(MalformedTableError):
        from_json_dict([[0]])
    with pytest.raises(MalformedTableError):
        from_json_dict({"n": 2})
    with pytest.raises(MalformedTableError):
        from_json_dict({"n": 2, "table": [[0, 0], [1, "x"]]})
    with pytest.raises(AxiomViolationError):
        from_json_dict({"n": 2, "table": [[1, 0], [0, 1]]})


def test_from_json_dict_checks_the_shape_once(monkeypatch):
    calls = []
    real = quandles._check_shape

    def counted(n, table):
        calls.append(n)
        return real(n, table)

    monkeypatch.setattr(quandles, "_check_shape", counted)
    assert from_json_dict(to_json_dict(dihedral_quandle(5))).table == dihedral_quandle(5).table
    assert calls == [5]


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_disjoint_union_is_quandle(a, b):
    q = disjoint_union(dihedral_quandle(a), trivial_quandle(b))
    assert validate_table(q.n, q.table).ok


def oracle_validate(n, table):
    """(ok, violations) by the n^3 scan: every instance of every axiom
    checked, the first MAX_WITNESSES witnesses of each in lexicographic
    order."""
    found = (
        ("I", [(i,) for i in range(n) if table[i][i] != i]),
        ("II", [(j,) for j in range(n) if len({table[i][j] for i in range(n)}) != n]),
        (
            "III",
            [
                (i, j, k)
                for i in range(n)
                for j in range(n)
                for k in range(n)
                if table[table[i][j]][k] != table[table[i][k]][table[j][k]]
            ],
        ),
    )
    violations = tuple((axiom, w) for axiom, witnesses in found for w in witnesses[:MAX_WITNESSES])
    return not violations, violations


def validation_cases(seed):
    """Each class of order <= 6 and some quandles up to order 25 under a
    relabeling drawn from seed, each with ten pairs of mutants: two entries
    of one column swapped, so that axiom II still holds, and one entry
    changed, so that it fails."""
    rng = random.Random(seed)
    bases = [q for n in range(1, 7) for q in enumerate_quandles(n)]
    bases += [dihedral_quandle(n) for n in (9, 12, 15)]
    bases += [alexander_quandle(n, t) for n, t in ((11, 2), (16, 3), (25, 2))]
    bases += [
        core_quandle(cyclic_cayley(10)),
        disjoint_union(dihedral_quandle(5), dihedral_quandle(7)),
        disjoint_union(conjugation_quandle(s3_cayley()), trivial_quandle(4)),
    ]
    for q in bases:
        n = q.n
        table = [list(row) for row in relabel(q, rng.sample(range(n), n)).table]
        yield "class", table
        for _ in range(10 if n > 1 else 0):
            swapped = [row[:] for row in table]
            j, (a, b) = rng.randrange(n), rng.sample(range(n), 2)
            swapped[a][j], swapped[b][j] = swapped[b][j], swapped[a][j]
            yield "swap", swapped
            changed = [row[:] for row in table]
            i, j = rng.randrange(n), rng.randrange(n)
            changed[i][j] = (changed[i][j] + rng.randrange(1, n)) % n
            yield "change", changed


@pytest.mark.parametrize("draw", [8, 0])
def test_validation_matches_the_full_scan(draw):
    # every table whose columns are onto is first checked at its generators;
    # draw 0 is the seed of the original cases, draw 8 a second relabeling
    tally = {}
    for kind, table in validation_cases(20231019 + draw):
        report = validate_table(len(table), table)
        assert (report.ok, report.violations) == oracle_validate(len(table), table), table
        axioms = tuple(sorted({axiom for axiom, _ in report.violations}))
        tally[kind, axioms] = tally.get((kind, axioms), 0) + 1
    assert tally["class", ()] == 107 + 9
    # swaps that keep axioms I and II and break only III, and some that
    # give a quandle again; every changed entry breaks axiom II
    assert tally["swap", ("III",)] > 500 and tally["swap", ()] > 0
    assert sum(count for (kind, axioms), count in tally.items() if kind == "change" and "II" not in axioms) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=n, max_size=n)))
def test_validation_of_tables_with_bijective_columns(columns):
    table = [list(row) for row in zip(*columns)]
    report = validate_table(len(table), table)
    assert (report.ok, report.violations) == oracle_validate(len(table), table)


@pytest.mark.parametrize("seed", [8, 0])
def test_validation_of_every_table_up_to_order_3(seed):
    # a column that is not onto voids the argument for generators: 199 of
    # the 3 x 3 tables keep axiom III at their generators and break it
    # elsewhere, so they must still get the scan. Each table is validated
    # under one seeded relabeling per order, a bijection on the tables of
    # that order, which must break the same axioms as the table itself.
    rng = random.Random(seed)
    for n in (1, 2, 3):
        sigma = rng.sample(range(n), n)
        for flat in itertools.product(range(n), repeat=n * n):
            table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            moved = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    moved[sigma[i]][sigma[j]] = sigma[table[i][j]]
            report = validate_table(n, moved)
            assert (report.ok, report.violations) == oracle_validate(n, moved), moved
            broken = {axiom for axiom, _ in report.violations}
            assert broken == {axiom for axiom, _ in oracle_validate(n, table)[1]}, table


def oracle_generating_set(x):
    """Greedy generators, each the least element outside the closure of the
    ones before under the operation, closed pair by pair."""
    gens, inside = [], set()
    for a in range(x.n):
        if a not in inside:
            gens.append(a)
            new = {a}
            while new:
                inside |= new
                new = {w for u in new for v in inside for w in (x.table[u][v], x.table[v][u])} - inside
    return tuple(gens)


def test_generating_set_matches_the_pair_closure():
    # every class of order <= 7 and a seeded relabeling of each base of the
    # translations workload (order 6 to 29)
    rng = random.Random(2901)
    qs = [q for n in range(1, 8) for q in enumerate_quandles(n)]
    qs += [relabel(q, rng.sample(range(q.n), q.n)) for q in translation_bases()]
    for q in qs:
        assert generating_set(q) == oracle_generating_set(q), q.table


def test_validation_of_relabeled_bases_with_a_swapped_column_entry():
    # two entries of one column swapped, so every column stays onto and
    # each table is first checked at its generators
    rng = random.Random(2902)
    verdicts = []
    for q in translation_bases():
        n = q.n
        table = [list(row) for row in relabel(q, rng.sample(range(n), n)).table]
        for _ in range(3):
            swapped = [row[:] for row in table]
            j, (a, b) = rng.randrange(n), rng.sample(range(n), 2)
            swapped[a][j], swapped[b][j] = swapped[b][j], swapped[a][j]
            want = oracle_validate(n, swapped)
            report = validate_table(n, swapped)
            assert (report.ok, report.violations) == want, swapped
            verdicts.append(tuple(sorted({axiom for axiom, _ in want[1]})))
    assert verdicts.count(("III",)) > 200


def oracle_validate_group(cayley):
    """(identity, inverses) of a Cayley table, or the message of its first
    failure, associativity decided by the n^3 scan."""
    n = len(cayley)
    identity = next((e for e in range(n) if all(cayley[e][j] == j == cayley[j][e] for j in range(n))), None)
    if identity is None:
        return "no identity element"
    inverse = []
    for i in range(n):
        inverse.append(next((j for j in range(n) if cayley[i][j] == identity == cayley[j][i]), None))
        if inverse[i] is None:
            return "element %d has no inverse" % i
    for abc in itertools.product(range(n), repeat=3):
        a, b, c = abc
        if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
            return "associativity fails at (%d,%d,%d)" % abc
    return identity, inverse


def group_verdict(cayley):
    try:
        return quandles._validate_group(cayley)
    except GroupAxiomError as exc:
        return str(exc)


def test_group_validation_matches_the_full_scan():
    # the groups of the translations workload and two cyclic groups (whose
    # greedy generators are the identity and one more), each as built and
    # under a seeded relabeling, and each of those with one product changed
    # or two products of one row swapped
    rng = random.Random(2903)
    groups = list(translation_groups().values()) + [cyclic_cayley(6), cyclic_cayley(7)]
    verdicts = []
    for cayley in groups:
        n = len(cayley)
        sigma = rng.sample(range(n), n)
        moved = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                moved[sigma[a]][sigma[b]] = sigma[cayley[a][b]]
        for table in (cayley, moved):
            cases = [table]
            for _ in range(8):
                changed = [list(row) for row in table]
                a, b = rng.randrange(n), rng.randrange(n)
                changed[a][b] = (changed[a][b] + rng.randrange(1, n)) % n
                swapped = [list(row) for row in table]
                a, (b, c) = rng.randrange(n), rng.sample(range(n), 2)
                swapped[a][b], swapped[a][c] = swapped[a][c], swapped[a][b]
                cases += [changed, swapped]
            for case in cases:
                verdicts.append(oracle_validate_group(case))
                assert group_verdict(case) == verdicts[-1], case
    assert sum(isinstance(v, tuple) for v in verdicts) == 2 * len(groups)
    assert sum(isinstance(v, str) and v.startswith("associativity") for v in verdicts) > 200


# every result record of the library: its fields in order, and the defaulted ones
RECORDS = [
    (quandles.ValidationReport, ("ok", "violations"), {}),
    (quandles.Quandle, ("n", "table"), {}),
    (rings.BasedRing, ("domain", "table"), {}),
    (rings.PowerAssocWitness, ("element", "identity", "lhs", "rhs"), {}),
    (symmetry.QuandlePolynomial, ("terms",), {}),
    (lattices.Submodule, ("ambient_dim", "domain", "basis"), {}),
    (lattices.AbelianGroupShape, ("free_rank", "torsion"), {}),
    (
        lattices.OrbitSummandReport,
        ("orbit", "dim_triv", "dim_st", "simple", "witness", "reduction_prime"),
        {"witness": None, "reduction_prime": None},
    ),
    (lattices.DecompositionReport, ("entries", "verdict"), {}),
    (dihedral.EBasisExpr, ("n", "coeffs"), {}),
    (dihedral.FormulaReport, ("n", "case", "checked", "mismatches"), {}),
    (dihedral.ComplexSummand, ("label", "dim", "invariant", "simple"), {}),
    (dihedral.ComplexDecompositionReport, ("n", "prime", "summands", "total_dim"), {}),
]


def field_values(fields):
    # fresh equal tuples on every call, so equality is not identity
    return [(name, i, (i,)) for i, name in enumerate(fields)]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, defaults):
    values = field_values(fields)
    record = cls(*values)
    assert [getattr(record, name) for name in fields] == values
    assert cls(**dict(zip(fields, field_values(fields)))) == record
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind) for p in parameters] == [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in fields]
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == defaults
    required = [name for name in fields if name not in defaults]
    short = cls(*field_values(required))
    assert [getattr(short, name) for name in fields[len(required):]] == list(defaults.values())
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) missing" % cls.__name__):
        cls(*field_values(required)[:-1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)

    twin = cls(*field_values(fields))
    assert twin == record and not twin != record and hash(twin) == hash(record)
    assert cls(*values[:-1], ("other",)) != record
    other = type("Other", (cls,), {})(*values)
    assert other != record and record != other
    assert record != tuple(values)

    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == values

    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join("%s=%r" % pair for pair in zip(fields, values)))
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record


def test_quandle_cache_is_not_a_field():
    # derived data kept on a quandle change none of its value semantics,
    # and are shared, immutable, between callers
    q, fresh = dihedral_quandle(5), dihedral_quandle(5)
    moves = quandles.inner_moves(q)
    derived = (generating_set(q), orbits(q), moves, symmetry._element_invariants(q))
    assert len(q._derived) == 4 and fresh._derived == {}
    hash(derived)  # tuples all the way down
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert repr(q) == "Quandle(n=5, table=%r)" % (q.table,)
    for copied in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert type(copied) is Quandle and copied == q and copied._derived == {}
    assert quandles.inner_moves(q) is moves
    with pytest.raises(AttributeError):
        q._derived = {}


def test_records_of_two_classes_with_equal_fields_differ():
    t = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert Quandle(3, t) != dihedral.EBasisExpr(3, t)


def test_orbit_summands_are_invariant_by_class_attribute():
    report = lattices.OrbitSummandReport((0,), 1, 0, True)
    assert report.invariant is lattices.OrbitSummandReport.invariant is True
    assert "invariant" not in repr(report)
