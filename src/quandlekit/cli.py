"""Command-line front end: constructors, invariant summaries, enumeration
with a persistent catalog, Delta-filtration reports, isomorphism checks,
decomposition reports, and a golden verification suite.

Exit codes: 0 success, 2 bad parameters, 3 parse error, 4 axiom
violation, 5 capacity exceeded.  With --json all stdout is one JSON
document; the "outputs" section is deterministic for fixed inputs.
"""

import argparse
import functools
import json
import os
import re
import sys
from contextlib import contextmanager

from . import __version__
from .counterexamples import (
    PAIR4_MATRIX,
    PAIR4_X,
    PAIR4_Y,
    PAIR7_MATRIX,
    PAIR7_X,
    PAIR7_Y,
    generalized_counterexample,
)
from .dihedral import (
    column_periodicity_holds,
    complex_decomposition_check,
    delta_series_shapes,
    e_expr,
    e_product,
    odd_relations_check,
    star_relations_check,
    verify_product_formulas,
)
from .domains import GF, QQ, ZZ
from .errors import (
    AxiomViolationError,
    CapacityError,
    DimensionMismatchError,
    GroupAxiomError,
    MalformedTableError,
    QuandleKitError,
)
from .lattices import verify_simple_decomposition
from .quandles import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    dumps,
    from_json_dict,
    orbits,
    partition_type,
    to_json_dict,
    trivial_quandle,
)
from .rings import (
    DEFAULT_ISO_BUDGET,
    DEFAULT_WITNESS_BOX,
    find_ring_isomorphism,
    is_ring_isomorphism,
    power_assoc_witness,
    quandle_ring,
    right_annihilator_count,
)
from .symmetry import (
    DEFAULT_ENUM_BOUND,
    enumerate_quandles,
    inner_group,
    is_left_2transitive,
    is_left_cyclic_type,
    is_left_peak_2transitive,
    is_right_cyclic_type,
    is_right_orbit_2transitive,
    quandle_polynomial,
    quandles_isomorphic,
)

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_PARSE = 3
EXIT_AXIOM = 4
EXIT_CAPACITY = 5

CATALOG_ENV = "QUANDLEKIT_CATALOG"

# `delta` labels; both bracketings give the same powers (`lattices.delta_powers`)
DELTA_LABELS = ("all-bracketings", "left-normed")

# Reference values for the verification suite (cmd_verify).  Keyed facts
# only; the functions that compute the actual values live in their
# modules.  Tests mutate single entries to confirm the suite notices.
EXPECTED = {
    # n -> (isomorphism classes, right-orbit-2-transitive, left-peak-2-transitive)
    "enumeration": {3: (3, 3, 2), 4: (7, 6, 3), 5: (22, 16, 7)},
    "enumeration_stretch": {6: (73, 42, 14)},  # checked by the acceptance tests only
    "inner_group_sizes": {3: 6, 5: 10},
    "delta_odd": {n: ["Z_%d" % n] * 3 for n in (3, 5, 7, 9)},
    "delta_even_first": {n: "Z + Z_%d" % (n // 2) for n in (4, 6, 8, 10)},
    "qp_pair7_x": {(5, 7): 2, (6, 7): 2, (7, 3): 1, (7, 5): 1, (7, 7): 1},
    "qp_pair7_y": {(6, 7): 4, (7, 5): 2, (7, 7): 1},
    # reference product-table cells, (n, i, j) -> tuple of (index, coeff)
    "product_cells": {
        (8, 1, 2): ((3, 1), (4, -1), (7, -1)),
        (8, 1, 4): (),
        (8, 2, 1): ((2, -1), (6, -1)),
        (8, 2, 2): ((2, 1), (4, -1), (6, -1)),
        (8, 2, 3): ((4, 1), (6, -2)),
        (8, 2, 4): (),
        (8, 2, 5): ((2, -1), (6, -1)),
        (8, 2, 7): ((4, 1), (6, -2)),
        (8, 3, 2): ((1, 1), (4, -1), (5, -1)),
        (8, 3, 4): (),
        (8, 4, 2): ((4, -2),),
        (8, 4, 4): (),
        (8, 4, 6): ((4, -2),),
        (8, 5, 2): ((3, -1), (4, -1), (7, 1)),
        (8, 5, 4): (),
        (8, 6, 1): ((2, -2), (4, 1)),
        (8, 6, 2): ((2, -1), (4, -1), (6, 1)),
        (8, 6, 3): ((2, -1), (6, -1)),
        (8, 6, 4): (),
        (8, 6, 5): ((2, -2), (4, 1)),
        (8, 6, 7): ((2, -1), (6, -1)),
        (8, 7, 2): ((1, -1), (4, -1), (5, 1)),
        (8, 7, 4): (),
        (10, 1, 1): ((1, 1), (2, -1), (9, -1)),
        (10, 1, 5): (),
        (10, 2, 1): ((2, -1), (8, -1)),
        (10, 2, 4): ((6, 1), (8, -2)),
        (10, 2, 5): (),
        (10, 2, 6): ((2, -1), (8, -1)),
        (10, 2, 9): ((6, 1), (8, -2)),
        (10, 3, 1): ((2, -1), (7, -1), (9, 1)),
        (10, 3, 5): (),
        (10, 4, 1): ((2, -1), (6, -1), (8, 1)),
        (10, 4, 2): ((4, -1), (6, -1)),
        (10, 4, 3): ((2, 1), (6, -2)),
        (10, 4, 5): (),
        (10, 4, 7): ((4, -1), (6, -1)),
        (10, 4, 8): ((2, 1), (6, -2)),
        (10, 5, 1): ((2, -1), (5, -1), (7, 1)),
        (10, 5, 5): (),
        (10, 6, 1): ((2, -1), (4, -1), (6, 1)),
        (10, 6, 2): ((4, -2), (8, 1)),
        (10, 6, 3): ((4, -1), (6, -1)),
        (10, 6, 5): (),
        (10, 6, 7): ((4, -2), (8, 1)),
        (10, 6, 8): ((4, -1), (6, -1)),
        (10, 7, 1): ((2, -1), (3, -1), (5, 1)),
        (10, 7, 5): (),
        (10, 8, 1): ((2, -2), (4, 1)),
        (10, 8, 4): ((2, -1), (8, -1)),
        (10, 8, 5): (),
        (10, 8, 6): ((2, -2), (4, 1)),
        (10, 8, 9): ((2, -1), (8, -1)),
        (10, 9, 1): ((1, -1), (2, -1), (3, 1)),
        (10, 9, 5): (),
    },
    "annihilator_counts": {p: (p * p, p, 1) for p in (2, 5, 7)},
    "generalized_pairs": [(6, 5), (12, 11)],
}

# The quandle of order 3 with orbits {0, 1} and {2}, the middle column of
# the zero-column counts in `verify`.
TWO_ORBIT = Quandle.from_table([[0, 0, 1], [1, 1, 0], [2, 2, 2]])


def parse_domain(text):
    t = text.strip().upper()
    if t in ("Z", "ZZ"):
        return ZZ
    if t in ("Q", "QQ"):
        return QQ
    field = re.fullmatch(r"F_?([0-9]+)", t)
    if field:
        try:
            return GF(int(field.group(1)))
        except QuandleKitError as exc:
            raise QuandleKitError("bad field spec %r: %s" % (text, exc)) from exc
    raise QuandleKitError("unknown domain %r (use Z, Q, Fp or F_p)" % text)


def _read_json(path):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedTableError("bad-structure", "cannot read %s: %s" % (path, exc)) from exc


@contextmanager
def _naming(path):
    """Put path in front of a MalformedTableError, AxiomViolationError,
    GroupAxiomError or DimensionMismatchError raised inside the block."""
    try:
        yield
    except (MalformedTableError, AxiomViolationError, GroupAxiomError, DimensionMismatchError) as exc:
        exc.args = ("%s: %s" % (path, exc),)  # keeps the code or violations it carries
        raise


def _from_cayley(path, construct):
    """construct(cayley) on the group Cayley table in the JSON file at path."""
    doc = _read_json(path)
    with _naming(path):
        if not isinstance(doc, dict) or "table" not in doc:
            raise MalformedTableError("bad-structure", "expected an object with a 'table'")
        return construct(doc["table"])


def load_quandle(path):
    doc = _read_json(path)
    with _naming(path):
        return from_json_dict(doc)


def _read_matrix(path, domain):
    """The matrix in the JSON file at path, its entries read into domain."""
    doc = _read_json(path)
    try:
        if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
            raise QuandleKitError("expected a list of row lists")
        return [[domain.from_json(v) for v in row] for row in doc]
    except QuandleKitError as exc:
        message = "%s: not a matrix over %r: %s" % (path, domain, exc)
        raise MalformedTableError("bad-structure", message) from exc


def _int_param(text):
    try:
        return int(text)
    except ValueError as exc:
        raise QuandleKitError("expected an integer, got %r" % (text,)) from exc


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        doc = {
            "command": args.command,
            "version": __version__,
            "outputs": payload,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# family -> (number of parameters, what they are)
MAKE_PARAMS = {
    "trivial": (1, "n"),
    "dihedral": (1, "n"),
    "alexander": (2, "n and t"),
    "conj": (1, "a Cayley table file"),
    "core": (1, "a Cayley table file"),
    "union": (2, "two quandle files"),
    "table": (1, "a quandle file"),
}


def cmd_make(args):
    fam = args.family
    count, what = MAKE_PARAMS[fam]
    if len(args.params) != count:
        raise QuandleKitError("%s needs %s, got %d parameter(s)" % (fam, what, len(args.params)))
    if fam == "trivial":
        q = trivial_quandle(_int_param(args.params[0]))
    elif fam == "dihedral":
        q = dihedral_quandle(_int_param(args.params[0]))
    elif fam == "alexander":
        q = alexander_quandle(_int_param(args.params[0]), _int_param(args.params[1]))
    elif fam == "conj":
        q = _from_cayley(args.params[0], conjugation_quandle)
    elif fam == "core":
        q = _from_cayley(args.params[0], core_quandle)
    elif fam == "union":
        q = disjoint_union(load_quandle(args.params[0]), load_quandle(args.params[1]))
    else:
        q = load_quandle(args.params[0])
    text = dumps(q)
    if args.output and args.output != "-":
        _write(args.output, "w", text + "\n")
    else:
        print(text)
    return EXIT_OK


def quandle_summary(q):
    orbs = orbits(q)
    qp = quandle_polynomial(q)
    latin = all(len(set(row)) == q.n for row in q.table)
    right2t, left2t = is_right_orbit_2transitive(q), is_left_peak_2transitive(q)
    return {
        "n": q.n,
        "orbits": [list(o) for o in orbs],
        "partition_type": list(partition_type(q)),
        "connected": len(orbs) == 1,
        "latin": latin,
        "right2t": right2t,
        "right2t_global": right2t and len(orbs) == 1,  # X is then its one orbit
        "left2t": left2t,
        "left2t_global": left2t if latin else is_left_2transitive(q),  # latin rows generate a group
        "right_cyclic": is_right_cyclic_type(q),
        "left_cyclic": is_left_cyclic_type(q),
        "qp": qp.to_json(),
        "qp_str": str(qp),
    }


def cmd_check(args):
    try:
        q = load_quandle(args.file)
    except AxiomViolationError as exc:
        payload = {"valid": False, "violations": [[a, list(w)] for a, w in exc.violations]}
        lines = ["axiom %s violated at %s" % (axiom, witness) for axiom, witness in exc.violations]
        _emit(args, payload, lines)
        return EXIT_AXIOM
    s = quandle_summary(q)
    s["valid"] = True
    lines = ["n = %d" % q.n]
    for key in (
        "orbits",
        "partition_type",
        "connected",
        "latin",
        "right2t",
        "left2t",
        "right_cyclic",
        "left_cyclic",
        "qp_str",
    ):
        lines.append("%s: %s" % (key, s[key]))
    _emit(args, s, lines)
    return EXIT_OK


def _catalog_path(args):
    if args.catalog:
        return args.catalog
    return os.environ.get(CATALOG_ENV)


def _write(path, mode, text):
    """Write text to the file at path; an unusable path is bad parameters."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise QuandleKitError("cannot write %s: %s" % (path, exc)) from exc


def _append_catalog(path, quandles, flags):
    """Append each quandle not yet in the catalog at path, with its
    (right2t, left2t) pair from flags; returns how many were added.

    Every new line is built before the file is touched, and all of them
    go out in one write."""
    seen = set()
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = list(fh)
        except OSError as exc:
            raise QuandleKitError("cannot read catalog %s: %s" % (path, exc)) from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                seen.add((entry["n"], tuple(tuple(r) for r in entry["table"])))
            except (ValueError, KeyError, TypeError) as exc:
                message = "%s:%d: bad catalog entry: %r" % (path, lineno, exc)
                raise MalformedTableError("bad-structure", message) from exc
    new = []
    for q, (right2t, left2t) in zip(quandles, flags):
        key = (q.n, q.table)
        if key in seen:
            continue
        seen.add(key)
        entry = {
            **to_json_dict(q),
            "partition_type": list(partition_type(q)),
            "right2t": right2t,
            "left2t": left2t,
            "qp": quandle_polynomial(q).to_json(),
        }
        new.append(json.dumps(entry, sort_keys=True) + "\n")
    _write(path, "a", "".join(new))
    return len(new)


def _census(n, bound=DEFAULT_ENUM_BOUND):
    """The classes of order n, their (right2t, left2t) flags, and the tally
    (classes, right-orbit-2-transitive, left-peak-2-transitive)."""
    qs = enumerate_quandles(n, bound=bound)
    flags = [(is_right_orbit_2transitive(q), is_left_peak_2transitive(q)) for q in qs]
    tally = (len(qs), sum(right2t for right2t, _ in flags), sum(left2t for _, left2t in flags))
    return qs, flags, tally


def cmd_enumerate(args):
    qs, flags, (classes, right2t, left2t) = _census(args.n, args.bound)
    counts = {"n": args.n, "classes": classes, "right2t": right2t, "left2t": left2t}
    path = _catalog_path(args)
    if path:
        counts["catalog_added"] = _append_catalog(path, qs, flags)
    _emit(
        args,
        counts,
        [
            "n = %d: %d classes, %d right 2-transitive, %d left 2-transitive"
            % (args.n, counts["classes"], counts["right2t"], counts["left2t"])
        ],
    )
    return EXIT_OK


def cmd_power_assoc(args):
    q = load_quandle(args.file)
    domain = parse_domain(args.domain)
    witness = power_assoc_witness(q, domain)
    box = list(DEFAULT_WITNESS_BOX)
    if witness is None:
        payload = {"witness": None, "domain": repr(domain), "box": box}
        # Albert's reduction to the two identities needs characteristic 0
        _emit(args, payload, ["power associative" if domain.char == 0 else "both Albert identities hold"])
    else:
        payload = {
            "witness": {
                "element": [domain.to_json(c) for c in witness.element],
                "identity": witness.identity,
                "lhs": [domain.to_json(c) for c in witness.lhs],
                "rhs": [domain.to_json(c) for c in witness.rhs],
            },
            "domain": repr(domain),
            "box": box,
        }
        _emit(
            args,
            payload,
            [
                "not power associative: %s identity fails" % witness.identity,
                # str: a rational as its p/q, an integer without "/1"
                "element: (%s)" % ", ".join(map(str, witness.element)),
                "lhs: (%s)" % ", ".join(map(str, witness.lhs)),
                "rhs: (%s)" % ", ".join(map(str, witness.rhs)),
            ],
        )
    return EXIT_OK


def cmd_delta(args):
    if args.dihedral is None:
        raise QuandleKitError("specify --dihedral N (general tables: use the API)")
    n = args.dihedral
    shapes = delta_series_shapes(n, args.kmax)
    records = []
    for variant in [args.variant] if args.variant else DELTA_LABELS:
        for k, shape in enumerate(shapes, start=1):
            records.append(
                {
                    "n": n,
                    "k": k,
                    "shape": shape.to_json(),
                    "shape_str": str(shape),
                    "variant": variant,
                    "exploratory": n % 2 == 0 and k >= 2,
                }
            )
    lines = []
    for r in records:
        note = "  (exploratory)" if r["exploratory"] else ""
        lines.append(
            "n=%d k=%d [%s]: %s%s" % (r["n"], r["k"], r["variant"], r["shape_str"], note)
        )
    _emit(args, records, lines)
    return EXIT_OK


def cmd_iso(args):
    if args.matrix and not args.ring_domain:
        raise QuandleKitError("--matrix needs --ring-domain")
    if args.budget is not None and (args.matrix or not args.ring_domain):
        raise QuandleKitError("--budget bounds the ring isomorphism search: it needs --ring-domain and no --matrix")
    if args.budget is not None and args.budget < 0:
        raise QuandleKitError("--budget must be >= 0, got %d" % args.budget)
    qx = load_quandle(args.x)
    qy = load_quandle(args.y)
    sigma = quandles_isomorphic(qx, qy)
    payload = {"quandle_iso": list(sigma) if sigma else None}
    lines = ["quandle isomorphism: %s" % (list(sigma) if sigma else "none")]
    if args.ring_domain:
        domain = parse_domain(args.ring_domain)
        rx = quandle_ring(qx, domain)
        ry = quandle_ring(qy, domain)
        if args.matrix:
            matrix = _read_matrix(args.matrix, domain)
            with _naming(args.matrix):
                ok = is_ring_isomorphism(rx, ry, matrix)
            payload["ring_iso_matrix_valid"] = ok
            lines.append("given matrix is a ring isomorphism: %s" % ok)
        else:
            budget = DEFAULT_ISO_BUDGET if args.budget is None else args.budget
            found = find_ring_isomorphism(rx, ry, budget=budget)
            payload["ring_iso"] = found
            lines.append("ring isomorphism search: %s" % ("found" if found else "none"))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_decompose(args):
    if args.complex_dihedral is not None and args.file is not None:
        raise QuandleKitError("decompose takes a table file or --complex-dihedral N, not both")
    if args.complex_dihedral is not None:
        if args.domain is not None:
            raise QuandleKitError("--complex-dihedral N picks its own prime field; it takes no --domain")
        report = complex_decomposition_check(args.complex_dihedral)
        payload = report.to_json()
        lines = ["n=%d over F_%d: total dim %d, ok=%s" % (report.n, report.prime, report.total_dim, report.ok)]
        for s in report.summands:
            lines.append("  %s dim %d invariant=%s simple=%s" % (s.label, s.dim, s.invariant, s.simple))
        _emit(args, payload, lines)
        return EXIT_OK
    if args.file is None:
        raise QuandleKitError("decompose needs a table file or --complex-dihedral N")
    q = load_quandle(args.file)
    domain = parse_domain("F5" if args.domain is None else args.domain)
    report = verify_simple_decomposition(q, domain)
    payload = report.to_json()
    lines = ["verdict: %s" % report.verdict]
    for e in report.entries:
        lines.append(
            "  orbit %s: dims %d+%d invariant=%s simple=%s"
            % (list(e.orbit), e.dim_triv, e.dim_st, e.invariant, e.simple)
        )
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_checks():
    """Yield (name, actual, expected) triples for the golden suite."""
    for n, expected in sorted(EXPECTED["enumeration"].items()):
        yield "enumeration n=%d" % n, _census(n)[2], tuple(expected)
    for n, size in sorted(EXPECTED["inner_group_sizes"].items()):
        yield "inner group size R_%d" % n, len(inner_group(dihedral_quandle(n))), size
    for n, expected in sorted(EXPECTED["delta_odd"].items()):
        actual = [str(s) for s in delta_series_shapes(n, 3)]
        yield "delta series R_%d" % n, actual, expected
    for n, expected in sorted(EXPECTED["delta_even_first"].items()):
        actual = str(delta_series_shapes(n, 1)[0])
        yield "delta quotient R_%d" % n, actual, expected
    yield "qp pair7 X", quandle_polynomial(PAIR7_X).counts(), EXPECTED["qp_pair7_x"]
    yield "qp pair7 Y", quandle_polynomial(PAIR7_Y).counts(), EXPECTED["qp_pair7_y"]
    yield (
        "pair4 ring iso over F_3",
        is_ring_isomorphism(quandle_ring(PAIR4_X, GF(3)), quandle_ring(PAIR4_Y, GF(3)), PAIR4_MATRIX),
        True,
    )
    yield (
        "pair7 ring iso over Q",
        is_ring_isomorphism(quandle_ring(PAIR7_X, QQ), quandle_ring(PAIR7_Y, QQ), PAIR7_MATRIX),
        True,
    )
    yield "pair4 quandles non-isomorphic", quandles_isomorphic(PAIR4_X, PAIR4_Y), None
    yield "pair7 quandles non-isomorphic", quandles_isomorphic(PAIR7_X, PAIR7_Y), None
    for n, p in EXPECTED["generalized_pairs"]:
        try:
            generalized_counterexample(n, p)
            ok = True
        except QuandleKitError:
            ok = False
        yield "generalized pair (n=%d, p=%d)" % (n, p), ok, True
    for (n, i, j), pairs in sorted(EXPECTED["product_cells"].items()):
        yield (
            "product table cell n=%d e_%d*e_%d" % (n, i, j),
            e_product(n, i, j),
            e_expr(n, list(pairs)),
        )
    for n in (8, 10):
        yield "product formula families n=%d" % n, verify_product_formulas(n).ok, True
        yield "column periodicity n=%d" % n, column_periodicity_holds(n), True
    yield "even-index relations n=8", star_relations_check(8), True
    yield "odd-index relations n=9", odd_relations_check(9), True
    for p, expected in sorted(EXPECTED["annihilator_counts"].items()):
        yield "zero columns mod %d" % p, _zero_columns(p), tuple(expected)


def _zero_columns(p):
    """Right annihilator counts mod p of trivial_quandle(3), TWO_ORBIT and
    dihedral_quandle(3), in that order."""
    return tuple(right_annihilator_count(q, p) for q in (trivial_quandle(3), TWO_ORBIT, dihedral_quandle(3)))


def cmd_verify(args):
    results = []
    failures = 0
    for name, actual, expected in _verify_checks():
        ok = actual == expected
        if not ok:
            failures += 1
        results.append({"check": name, "ok": ok})
        if not args.json:
            print("%s %s" % ("PASS" if ok else "FAIL", name))
            if not ok:
                print("  expected: %r" % (expected,))
                print("  actual:   %r" % (actual,))
    # p = 3 sits outside the advertised pattern for the zero-column counts;
    # report the observed values without asserting them.
    p3 = dict(zip(("trivial3", "two_orbit3", "dihedral3"), _zero_columns(3)))
    if args.json:
        _emit(args, {"results": results, "failures": failures, "zero_columns_p3": p3}, [])
    else:
        print("zero columns at p=3 (reported, not asserted): %s" % json.dumps(p3, sort_keys=True))
        print("%d checks, %d failures" % (len(results), failures))
    return EXIT_OK if failures == 0 else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: a parser is a web of
    reference cycles, so one per `main` call would wait for the cyclic
    garbage collector."""
    parser = argparse.ArgumentParser(prog="quandlekit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="construct a quandle and write its JSON")
    p.add_argument("family", choices=list(MAKE_PARAMS))
    p.add_argument("params", nargs="+")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("check", help="validate a table and print its invariants")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="isomorphism classes of a given order")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=DEFAULT_ENUM_BOUND)
    p.add_argument("--catalog", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("power-assoc", help="decide power-associativity, with a witness when it fails")
    p.add_argument("file")
    p.add_argument("--domain", default="Q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_power_assoc)

    p = sub.add_parser("delta", help="successive augmentation-power quotients")
    p.add_argument("--dihedral", type=int, default=None)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--variant", choices=DELTA_LABELS, help="print only this label (both carry the same shapes)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("iso", help="quandle and quandle-ring isomorphism checks")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--ring-domain", default=None)
    p.add_argument("--matrix", default=None, help="JSON file with a candidate matrix")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the candidate vectors scanned plus the search nodes visited by the ring "
        "isomorphism search, the scan charging p^(n-1) between quandle rings and p^n - 1 otherwise; "
        "exit 5 beyond it (default %d)" % DEFAULT_ISO_BUDGET,
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("decompose", help="orbit summand decomposition report")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--domain", default=None, help="the field of a table file's ring (default F5)")
    p.add_argument("--complex-dihedral", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run the golden verification suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedTableError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except AxiomViolationError as exc:
        print("axiom violation: %s" % exc, file=sys.stderr)
        return EXIT_AXIOM
    except CapacityError as exc:
        print("capacity exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except QuandleKitError as exc:
        print("bad parameters: %s" % exc, file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
