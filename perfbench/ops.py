"""How each kind of job runs and how its output is checked.

``prepare`` does the set-up a job needs (writing the JSON files the CLI
reads, building quandle objects) and returns the job's body, a callable
with no arguments.  The body goes through ``quandlekit.cli.main`` where a
subcommand exists and calls the layer's public function otherwise.
Library functions are looked up on their modules when the body runs, so a
traced run sees the wrapped versions.

``check`` compares the body's raw result with ``oracle.py`` and returns
None when it is right, or a one-line reason.
"""

import contextlib
import io
import json
import os

import quandlekit.cli
import quandlekit.counterexamples
import quandlekit.dihedral
import quandlekit.lattices
import quandlekit.rings
from quandlekit.domains import ZZ
from quandlekit.quandles import Quandle

import oracle

CHARACTERISTIC = {"Q": 0, "F2": 2, "F3": 3, "F5": 5, "F7": 7}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = quandlekit.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _write(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _quandle_file(workdir, tag, table):
    return _write(workdir, tag + ".json", {"n": len(table), "table": [list(r) for r in table]})


def prepare(spec, index, workdir):
    op = spec["op"]
    tag = "job%03d" % index
    if op == "enumerate":
        catalog = os.path.join(workdir, "catalog.jsonl")
        argv = ["enumerate", str(spec["n"]), "--catalog", catalog, "--json"]
        return lambda: _cli(argv)
    if op == "verify":
        return lambda: _cli(["verify", "--json"])
    if op == "check":
        argv = ["check", _quandle_file(workdir, tag, spec["table"]), "--json"]
        return lambda: _cli(argv)
    if op in ("iso", "ring_iso", "certificate"):
        argv = ["iso", _quandle_file(workdir, tag + "x", spec["x"]), _quandle_file(workdir, tag + "y", spec["y"])]
        if op != "iso":
            argv += ["--ring-domain", spec["domain"]]
        if op == "certificate":
            argv += ["--matrix", _write(workdir, tag + "m.json", spec["matrix"])]
        argv.append("--json")
        return lambda: _cli(argv)
    if op == "power_assoc":
        argv = ["power-assoc", _quandle_file(workdir, tag, spec["table"]), "--domain", spec["domain"], "--json"]
        return lambda: _cli(argv)
    if op == "decompose":
        argv = ["decompose", _quandle_file(workdir, tag, spec["table"]), "--domain", spec["domain"], "--json"]
        return lambda: _cli(argv)
    if op == "delta":
        argv = ["delta", "--dihedral", str(spec["n"]), "--kmax", "3", "--json"]
        return lambda: _cli(argv)
    if op == "annihilator":
        q = Quandle.from_table(spec["table"], validate=False)
        return lambda: [quandlekit.rings.right_annihilator_count(q, p) for p in spec["primes"]]
    if op == "generalized":
        return lambda: quandlekit.counterexamples.generalized_counterexample(spec["n"], spec["p"])
    if op == "delta_powers":
        q = Quandle.from_table(spec["table"], validate=False)

        def body():
            lat = quandlekit.lattices
            powers = lat.delta_powers(q, ZZ, 4)
            return [lat.quotient_shape(powers[k - 1], powers[k]).to_json() for k in (1, 2, 3)]

        return body
    if op == "formulas":
        return lambda: quandlekit.dihedral.verify_product_formulas(spec["n"])
    if op == "star_relations":
        return lambda: quandlekit.dihedral.star_relations_check(spec["n"])
    if op == "odd_relations":
        return lambda: quandlekit.dihedral.odd_relations_check(spec["n"])
    raise ValueError("unknown op %r" % (op,))


def _outputs(raw):
    rc, out, err = raw
    if rc != 0:
        return None, "exit %s: %s" % (rc, err.strip()[:200])
    try:
        return json.loads(out)["outputs"], None
    except (ValueError, KeyError, TypeError) as exc:
        return None, "unreadable --json output: %s" % exc


def check(spec, raw, reference):
    op = spec["op"]
    if op in ("annihilator", "generalized", "delta_powers", "formulas", "star_relations", "odd_relations"):
        return _check_direct(spec, raw, reference)
    outputs, reason = _outputs(raw)
    if reason:
        return reason
    if op == "enumerate":
        n = spec["n"]
        classes, right, left = oracle.CENSUS_TALLIES[n]
        want = {"n": n, "classes": classes, "right2t": right, "left2t": left, "catalog_added": classes}
        return None if outputs == want else "got %s, want %s" % (outputs, want)
    if op == "verify":
        bad = [r["check"] for r in outputs["results"] if not r["ok"]]
        if outputs["failures"] or bad:
            return "verify failures: %s" % bad[:5]
        want = reference["verify_zero_columns_p3"]
        return None if outputs["zero_columns_p3"] == want else "zero_columns_p3 %s" % outputs["zero_columns_p3"]
    if op == "check":
        want = dict(reference["summaries"][spec["base"]])
        want["orbits"] = oracle.map_orbits(want["orbits"], spec["sigma"])
        if outputs == want:
            return None
        return "summary differs in %s" % sorted(k for k in want if outputs.get(k) != want[k])
    if op == "iso":
        sigma = outputs["quandle_iso"]
        if reference["quandle_iso"].get(spec["base"], True):
            return None if oracle.is_quandle_isomorphism(spec["x"], spec["y"], sigma) else "bad isomorphism %s" % sigma
        return None if sigma is None else "found %s for non-isomorphic quandles" % sigma
    if op in ("ring_iso", "certificate"):
        isomorphic = reference["quandle_iso"].get(spec["base"], True)
        if isomorphic != (outputs["quandle_iso"] is not None):
            return "quandle_iso %s" % outputs["quandle_iso"]
        if op == "certificate":
            return None if outputs["ring_iso_matrix_valid"] is True else "certificate rejected"
        found = outputs["ring_iso"]
        if reference["ring_iso"].get("%s %s" % (spec["base"], spec["domain"]), True):
            p = CHARACTERISTIC[spec["domain"]]
            if found is None or not oracle.is_ring_isomorphism(spec["x"], spec["y"], found, p):
                return "ring_iso %s is not a ring isomorphism" % found
            return None
        return None if found is None else "found %s for non-isomorphic rings" % found
    if op == "power_assoc":
        witness = outputs["witness"]
        key = "%s %s" % (spec["base"], spec["domain"])
        if (witness is not None) != reference["power_assoc"][key]:
            return "witness %s" % witness
        p = CHARACTERISTIC[spec["domain"]]
        if witness is not None and not oracle.power_assoc_witness_holds(spec["table"], p, witness):
            return "witness does not violate the identity: %s" % witness
        return None
    if op == "decompose":
        want = reference["decompositions"]["%s %s" % (spec["base"], spec["domain"])]
        got = [dict(e, orbit=sorted(e["orbit"])) for e in outputs["orbits"]]
        got.sort(key=lambda e: e["orbit"])
        moved = [dict(e, orbit=sorted(spec["sigma"][v] for v in e["orbit"])) for e in want["orbits"]]
        moved.sort(key=lambda e: e["orbit"])
        if outputs["verdict"] != want["verdict"] or got != moved:
            return "decomposition %s" % outputs
        if any(e["dim_triv"] != 1 or e["dim_st"] != len(e["orbit"]) - 1 for e in got):
            return "summand dimensions %s" % got
        return None
    if op == "delta":
        n = spec["n"]
        records = [(r["n"], r["k"], r["variant"], r["shape"]) for r in outputs]
        want = [
            (n, k, variant, oracle.expected_delta_shape(n, k, variant, reference["delta_even"]))
            for variant in ("all-bracketings", "left-normed")
            for k in (1, 2, 3)
        ]
        return None if records == want else "delta records %s" % records
    raise ValueError("unknown op %r" % (op,))


def _check_direct(spec, raw, reference):
    op = spec["op"]
    if op == "annihilator":
        want = reference["annihilators"][spec["base"]]
        return None if raw == want else "annihilator counts %s, want %s" % (raw, want)
    if op == "generalized":
        x, y, matrix = raw
        n, p = spec["n"], spec["p"]
        if x.n != n or y.n != n or not oracle.is_ring_isomorphism(x.table, y.table, matrix, p):
            return "certificate for (n=%d, p=%d) fails" % (n, p)
        return None
    if op == "delta_powers":
        want = reference["delta_powers"][spec["base"]]
        return None if raw == want else "shapes %s, want %s" % (raw, want)
    if op == "formulas":
        return None if raw.ok and raw.checked > 0 else "formula mismatches %s" % (raw.mismatches,)
    return None if raw is True else "%s returned %r" % (op, raw)
