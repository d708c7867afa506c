"""Record the reference values in reference.json from the current library.

Run once, at the commit that introduced the benchmark:

    python3 perfbench/record_reference.py

It takes about five minutes, most of it `quandlekit check` on Conj(S_4).
Every value is computed on the base quandles with their own labelling;
the benchmark maps them through each seed's relabeling.  Do not re-run it
to make a failing benchmark pass: a value that changes is a finding.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from quandlekit import cli, counterexamples, lattices, rings, symmetry  # noqa: E402
from quandlekit.domains import ZZ  # noqa: E402
from quandlekit.quandles import conjugation_quandle  # noqa: E402


def _cli_outputs(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--json"])
    if rc != 0:
        raise SystemExit("%s exited %d" % (argv, rc))
    return json.loads(out.getvalue())["outputs"]


def _file(tmp, name, q):
    path = os.path.join(tmp, name.replace("|", "_") + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": q.n, "table": [list(r) for r in q.table]}, fh)
    return path


def main():
    ref = {"quandle_iso": {}, "ring_iso": {}, "power_assoc": {}, "annihilators": {}}
    small = {}
    for n in range(1, 6):
        for i, q in enumerate(symmetry.enumerate_quandles(n)):
            small["Q%d_%d" % (n, i)] = q
    ref["small_quandles"] = {k: [list(r) for r in q.table] for k, q in small.items()}
    with tempfile.TemporaryDirectory() as tmp:
        bases = dict(workloads.translation_bases())
        bases["Conj_S4"] = conjugation_quandle(workloads.GROUPS["S4"]())
        ref["summaries"] = {name: _cli_outputs(["check", _file(tmp, name, q)]) for name, q in bases.items()}
        for key, x, y in workloads.translation_other_pairs():
            found = _cli_outputs(["iso", _file(tmp, key + "x", x), _file(tmp, key + "y", y)])["quandle_iso"]
            ref["quandle_iso"][key] = found is not None
        for left, right, domain in workloads.RING_ISO_OTHER:
            key = "%s|%s" % (left, right)
            x, y = _file(tmp, key + "x", small[left]), _file(tmp, key + "y", small[right])
            outputs = _cli_outputs(["iso", x, y, "--ring-domain", domain])
            ref["quandle_iso"][key] = outputs["quandle_iso"] is not None
            ref["ring_iso"]["%s %s" % (key, domain)] = outputs["ring_iso"] is not None
        # The paper's pairs: the quandles are not isomorphic, their rings are
        # (over F_3 for pair4, certified by PAIR4_MATRIX; over Q for pair7).
        ref["ring_iso"]["pair4 F3"] = oracle.is_ring_isomorphism(
            counterexamples.PAIR4_X.table, counterexamples.PAIR4_Y.table, counterexamples.PAIR4_MATRIX, 3
        )
        for name, q in small.items():
            path = _file(tmp, name, q)
            for domain in ("Q", "F5"):
                found = _cli_outputs(["power-assoc", path, "--domain", domain])["witness"]
                ref["power_assoc"]["%s %s" % (name, domain)] = found is not None
            ref["annihilators"][name] = [rings.right_annihilator_count(q, p) for p in (2, 3, 5, 7)]
        ref["decompositions"] = {}
        for name, domain in workloads.DECOMPOSE:
            q = workloads.decompose_base(name)
            outputs = _cli_outputs(["decompose", _file(tmp, name, q), "--domain", domain])
            ref["decompositions"]["%s %s" % (name, domain)] = outputs
    ref["delta_even"] = {}
    for n in range(4, 33, 2):
        for record in _cli_outputs(["delta", "--dihedral", str(n), "--kmax", "3"]):
            if record["k"] > 1:
                ref["delta_even"]["%d/%d/%s" % (n, record["k"], record["variant"])] = record["shape"]
    ref["delta_powers"] = {}
    for name, q in workloads.filtration_bases().items():
        powers = lattices.delta_powers(q, ZZ, 4)
        ref["delta_powers"][name] = [lattices.quotient_shape(powers[k - 1], powers[k]).to_json() for k in (1, 2, 3)]
    ref["verify_zero_columns_p3"] = _cli_outputs(["verify"])["zero_columns_p3"]
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
