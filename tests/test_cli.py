import builtins
import gc
import io
import itertools
import json
import math
import sys

import pytest

from quandlekit import cli, quandles
from quandlekit.cli import EXPECTED, main, parse_domain
from quandlekit.counterexamples import PAIR4_X, PAIR4_Y
from quandlekit.domains import GF, QQ, ZZ
from quandlekit.errors import AxiomViolationError, QuandleKitError
from quandlekit.quandles import dihedral_quandle, to_json_dict, validate_table
from quandlekit.rings import DEFAULT_WITNESS_BOX, is_ring_isomorphism, quandle_ring
from quandlekit.symmetry import DEFAULT_ENUM_BOUND, quandle_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_domain():
    assert parse_domain("Z") is ZZ
    assert parse_domain("q") is QQ
    for spec in ("F5", "F_5", "f5", "f_5"):
        assert parse_domain(spec).char == 5
    for spec in ("F4", "banana", "FF5", "F__5", "F_", "F5_", "F-5"):
        with pytest.raises(QuandleKitError):
            parse_domain(spec)


def test_domain_spec_is_exactly_fp_or_f_underscore_p(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    for spec in ("F5", "F_5", "f5"):
        code, stdout, _ = run(capsys, "power-assoc", str(path), "--domain", spec, "--json")
        assert code == 0, spec
        assert json.loads(stdout)["outputs"]["domain"] == repr(GF(5))
    for spec in ("FF5", "F__5"):
        code, stdout, err = run(capsys, "power-assoc", str(path), "--domain", spec)
        assert (code, stdout) == (2, ""), spec
        assert "bad parameters" in err


def test_make_and_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "r5.json"
    code, _, _ = run(capsys, "make", "dihedral", "5", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 5
    code, stdout, _ = run(capsys, "check", str(out))
    assert code == 0
    assert "connected: True" in stdout
    assert "latin: True" in stdout


def symmetric_group_cayley(k):
    """Cayley table of S_k, elements in lexicographic order."""
    perms = list(itertools.permutations(range(k)))
    index = {f: i for i, f in enumerate(perms)}
    return [[index[tuple(f[x] for x in g)] for g in perms] for f in perms]


@pytest.mark.parametrize("k", [4, 5])
def test_check_conjugation_quandle_of_symmetric_group(tmp_path, capsys, k):
    # the peak-rank part of H_X is 8 maps for Conj(S_4) and 30 for
    # Conj(S_5), out of 40,076 maps of H_X for Conj(S_4)
    cayley = write_json(tmp_path / "s.json", {"table": symmetric_group_cayley(k)})
    out = tmp_path / "conj.json"
    assert run(capsys, "make", "conj", cayley, "-o", str(out))[0] == 0
    code, stdout, _ = run(capsys, "check", str(out), "--json")
    assert code == 0
    doc = json.loads(stdout)["outputs"]
    assert doc["n"] == math.factorial(k)
    assert doc["left2t"] is False


def test_check_json_output(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run(capsys, "make", "trivial", "3", "-o", str(out))
    code, stdout, _ = run(capsys, "check", str(out), "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["command"] == "check"
    assert doc["outputs"]["valid"] is True
    assert doc["outputs"]["right2t"] is True
    assert doc["outputs"]["left2t_global"] is False


def test_exit_code_bad_params(capsys):
    code, _, err = run(capsys, "make", "dihedral", "0")
    assert code == 2
    assert "bad parameters" in err
    code, _, _ = run(capsys, "make", "alexander", "5", "5")
    assert code == 2


def test_non_integer_parameters_are_bad_parameters(tmp_path, capsys):
    code, _, err = run(capsys, "make", "dihedral", "five")
    assert code == 2
    assert "'five'" in err
    code, _, err = run(capsys, "make", "alexander", "5", "x")
    assert code == 2
    assert "'x'" in err


def test_internal_value_error_is_not_bad_parameters(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "delta_series_shapes", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["delta", "--dihedral", "5"])


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3
    assert "parse error" in err
    code, _, _ = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


def test_make_names_missing_parameters(capsys):
    code, _, err = run(capsys, "make", "alexander", "5")
    assert code == 2
    assert "alexander needs n and t" in err
    code, _, err = run(capsys, "make", "dihedral", "5", "3")
    assert code == 2
    assert "dihedral needs n" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": "2", "table": [[0, 0], [1, 1]]},
        {"n": True, "table": [[0]]},
        {"n": 2, "table": "01"},
        {"n": 2, "table": [0, 1]},
    ],
)
def test_check_wrongly_typed_table_is_parse_error(tmp_path, capsys, doc):
    path = write_json(tmp_path / "typed.json", doc)
    code, _, err = run(capsys, "check", path)
    assert code == 3
    assert "parse error" in err


@pytest.mark.parametrize(
    "command, doc",
    [
        (("check", "FILE"), {"n": 0, "table": []}),
        (("check", "FILE"), {"n": 2, "table": [[0, 0], [1]]}),
        (("iso", "FILE", "FILE"), {"n": 2, "table": [[0, 0], [1, 2]]}),
        (("make", "conj", "FILE"), {"n": 2}),
        (("make", "core", "FILE"), {"table": [[0, "1"], ["1", 0]]}),
        (("make", "conj", "FILE"), {"table": []}),
    ],
)
def test_malformed_table_file_is_named_parse_error(tmp_path, capsys, command, doc):
    path = write_json(tmp_path / "faulty.json", doc)
    code, _, err = run(capsys, *(path if arg == "FILE" else arg for arg in command))
    assert code == 3
    assert err.startswith("parse error: %s: " % path)


def test_exit_code_axiom_violation(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"n": 2, "table": [[1, 0], [0, 1]]})
    code, stdout, _ = run(capsys, "check", path)
    assert code == 4
    assert "axiom I" in stdout


def test_axiom_violation_json_lists_witnesses(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"n": 2, "table": [[1, 0], [0, 1]]})
    code, stdout, _ = run(capsys, "check", path, "--json")
    assert code == 4
    doc = json.loads(stdout)
    assert doc["outputs"]["valid"] is False
    assert doc["outputs"]["violations"]


BAD_AXIOM_I = {"n": 2, "table": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "command",
    [
        ("iso", "BAD", "GOOD"),
        ("iso", "GOOD", "BAD"),
        ("decompose", "BAD"),
        ("power-assoc", "BAD"),
        ("make", "table", "BAD"),
    ],
)
def test_axiom_violation_names_the_file(tmp_path, capsys, command):
    bad = write_json(tmp_path / "bad.json", BAD_AXIOM_I)
    good = write_json(tmp_path / "good.json", {"n": 2, "table": [[0, 0], [1, 1]]})
    paths = {"BAD": bad, "GOOD": good}
    code, stdout, err = run(capsys, *(paths.get(arg, arg) for arg in command))
    assert (code, stdout) == (4, "")
    assert err.startswith("axiom violation: %s: " % bad)
    assert good not in err


@pytest.mark.parametrize("family", ["conj", "core"])
def test_group_axiom_error_names_the_file(tmp_path, capsys, family):
    bad = write_json(tmp_path / "bad.json", {"table": [[0, 0], [0, 0]]})
    code, stdout, err = run(capsys, "make", family, bad)
    assert (code, stdout) == (2, "")
    assert err == "bad parameters: %s: no identity element\n" % bad


def test_load_quandle_keeps_the_violations(tmp_path):
    bad = write_json(tmp_path / "bad.json", BAD_AXIOM_I)
    with pytest.raises(AxiomViolationError) as info:
        cli.load_quandle(bad)
    assert str(info.value).startswith(bad + ": ")
    assert info.value.violations == validate_table(2, BAD_AXIOM_I["table"]).violations


def test_check_reads_the_table_from_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r5.json"
    run(capsys, "make", "dihedral", "5", "-o", str(path))
    _, from_file, _ = run(capsys, "check", str(path), "--json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, from_stdin, err = run(capsys, "check", "-", "--json")
    assert (code, err) == (0, "")
    assert from_stdin == from_file


def test_make_table_writes_the_same_json_back(tmp_path, capsys):
    path = tmp_path / "a5.json"
    run(capsys, "make", "alexander", "5", "2", "-o", str(path))
    code, stdout, err = run(capsys, "make", "table", str(path))
    assert (code, err) == (0, "")
    assert stdout == path.read_text()


def all_witnesses(n, table):
    """Every violation of each quandle axiom, in the order of its indices."""
    r = range(n)
    return {
        "I": [(i,) for i in r if table[i][i] != i],
        "II": [(j,) for j in r if sorted(table[i][j] for i in r) != list(r)],
        "III": [
            (i, j, k)
            for i in r
            for j in r
            for k in r
            if table[table[i][j]][k] != table[table[i][k]][table[j][k]]
        ],
    }


def test_check_reports_the_first_ten_witnesses_of_each_axiom(tmp_path, capsys):
    n = 13
    table = [[(i * i + j) % n for j in range(n)] for i in range(n)]
    found = all_witnesses(n, table)
    assert [len(found[axiom]) for axiom in ("I", "II", "III")] == [12, 13, 2028]
    expected = [(axiom, w) for axiom in ("I", "II", "III") for w in found[axiom][:10]]
    assert list(validate_table(n, table).violations) == expected
    path = write_json(tmp_path / "cap.json", {"n": n, "table": table})
    code, stdout, err = run(capsys, "check", path, "--json")
    assert (code, err) == (4, "")
    outputs = json.loads(stdout)["outputs"]
    assert outputs == {"valid": False, "violations": [[axiom, list(w)] for axiom, w in expected]}
    code, stdout, err = run(capsys, "check", path)
    assert (code, err) == (4, "")
    assert stdout.splitlines() == ["axiom %s violated at %s" % violation for violation in expected]


def test_exit_code_capacity(capsys):
    code, _, err = run(capsys, "enumerate", "9")
    assert code == 5
    assert "capacity" in err


def test_enumerate_above_canonical_limit_exits_at_once(capsys):
    code, _, err = run(capsys, "enumerate", "9", "--bound", "9")
    assert code == 5
    assert "bounded at n = 8" in err


@pytest.mark.parametrize("argv", [["0"], ["-1"], ["3", "--bound", "0"]])
def test_enumerate_argument_errors_are_bad_parameters(capsys, argv):
    code, _, err = run(capsys, "enumerate", *argv)
    assert code == 2
    assert "bad parameters" in err


def test_enumerate_counts(capsys):
    code, stdout, _ = run(capsys, "enumerate", "4")
    assert code == 0
    assert "n = 4: 7 classes, 6 right 2-transitive, 3 left 2-transitive" in stdout


def test_enumerate_catalog_dedup(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "catalog.jsonl"
    monkeypatch.setenv("QUANDLEKIT_CATALOG", str(catalog))
    code, stdout, _ = run(capsys, "enumerate", "3", "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"]["catalog_added"] == 3
    lines = [json.loads(l) for l in catalog.read_text().splitlines()]
    assert len(lines) == 3
    # a second run adds nothing
    code, stdout, _ = run(capsys, "enumerate", "3", "--json")
    assert json.loads(stdout)["outputs"]["catalog_added"] == 0
    assert len(catalog.read_text().splitlines()) == 3
    # --catalog flag takes precedence over the environment variable
    other = tmp_path / "other.jsonl"
    run(capsys, "enumerate", "2", "--catalog", str(other))
    assert len(other.read_text().splitlines()) == 1


def test_enumerate_catalog_flags_sum_to_counts(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    code, stdout, _ = run(capsys, "enumerate", "4", "--catalog", str(catalog), "--json")
    assert code == 0
    outputs = json.loads(stdout)["outputs"]
    entries = [json.loads(l) for l in catalog.read_text().splitlines()]
    assert len(entries) == outputs["classes"] == 7
    assert sum(e["right2t"] for e in entries) == outputs["right2t"] == 6
    assert sum(e["left2t"] for e in entries) == outputs["left2t"] == 3


def test_make_unwritable_output_is_bad_parameters(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "make", "dihedral", "3", "-o", str(target))
    assert code == 2
    assert str(target) in err


def test_enumerate_catalog_directory_is_bad_parameters(tmp_path, capsys):
    code, _, err = run(capsys, "enumerate", "3", "--catalog", str(tmp_path))
    assert code == 2
    assert str(tmp_path) in err


def test_enumerate_catalog_batch_is_atomic(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "catalog.jsonl"
    run(capsys, "enumerate", "2", "--catalog", str(catalog))
    before = catalog.read_bytes()
    calls = []

    def failing_polynomial(q):
        calls.append(q)
        if len(calls) == 2:
            raise RuntimeError("injected while building the second entry")
        return quandle_polynomial(q)

    monkeypatch.setattr(cli, "quandle_polynomial", failing_polynomial)
    with pytest.raises(RuntimeError):
        main(["enumerate", "3", "--catalog", str(catalog)])
    assert len(calls) == 2
    assert catalog.read_bytes() == before


def test_enumerate_catalog_appends_after_a_last_line_without_newline(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    assert run(capsys, "enumerate", "1", "--catalog", str(catalog))[0] == 0
    catalog.write_text(catalog.read_text().rstrip("\n"))
    for n in (2, 3):
        assert run(capsys, "enumerate", str(n), "--catalog", str(catalog))[0] == 0
    entries = [json.loads(line) for line in catalog.read_text().splitlines()]
    assert [e["n"] for e in entries] == [1, 2, 3, 3, 3]


def test_enumerate_catalog_line_not_json(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text('{"n": 1, "table": [[0]]}\n{not json\n')
    code, _, err = run(capsys, "enumerate", "2", "--catalog", str(catalog))
    assert code == 3
    assert "%s:2:" % catalog in err


def test_enumerate_catalog_line_without_table(tmp_path, capsys):
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text('\n{"n": 2}\n')
    code, _, err = run(capsys, "enumerate", "2", "--catalog", str(catalog))
    assert code == 3
    assert "%s:2:" % catalog in err


def test_power_assoc_witness_found(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    code, stdout, _ = run(capsys, "power-assoc", str(path), "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["outputs"]["witness"] is not None
    assert doc["outputs"]["box"] == list(DEFAULT_WITNESS_BOX)


def test_power_assoc_has_no_box_option(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["power-assoc", str(path), "--domain", "Q", "--box", "0"])
    assert exc.value.code == 2
    assert "--box" in capsys.readouterr().err


def test_power_assoc_none_for_trivial(tmp_path, capsys):
    path = tmp_path / "t4.json"
    run(capsys, "make", "trivial", "4", "-o", str(path))
    code, stdout, _ = run(capsys, "power-assoc", str(path), "--domain", "F5")
    assert code == 0
    # over F_p the verdict names what it decides, the two Albert identities
    assert stdout == "both Albert identities hold\n"
    for domain in ("Q", "Z"):
        code, stdout, _ = run(capsys, "power-assoc", str(path), "--domain", domain)
        assert code == 0
        assert stdout == "power associative\n"


def test_power_assoc_text_over_q(tmp_path, capsys):
    """Coefficients print as numbers, not as Fraction reprs."""
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    code, stdout, _ = run(capsys, "power-assoc", str(path), "--domain", "Q")
    assert code == 0
    assert stdout.splitlines() == [
        "not power associative: fourth identity fails",
        "element: (-2, -1, 0)",
        "lhs: (24, 33, 24)",
        "rhs: (30, 21, 30)",
    ]


def test_delta_report(capsys):
    code, stdout, _ = run(capsys, "delta", "--dihedral", "6", "--kmax", "2", "--variant", "all-bracketings")
    assert code == 0
    assert "n=6 k=1 [all-bracketings]: Z + Z_3" in stdout
    assert "(exploratory)" in stdout
    code, _, _ = run(capsys, "delta")
    assert code == 2


def test_delta_labels_print_the_one_filtration(capsys):
    code, stdout, _ = run(capsys, "delta", "--dihedral", "6", "--kmax", "3", "--json")
    assert code == 0
    shapes = {}
    for r in json.loads(stdout)["outputs"]:
        shapes.setdefault(r["variant"], []).append((r["k"], r["shape"]))
    assert sorted(shapes) == ["all-bracketings", "left-normed"]
    assert shapes["all-bracketings"] == shapes["left-normed"]
    assert len(shapes["left-normed"]) == 3
    code, stdout, _ = run(capsys, "delta", "--dihedral", "6", "--kmax", "3", "--variant", "left-normed")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3
    assert all("[left-normed]" in line for line in lines)


def test_delta_odd_not_exploratory(capsys):
    code, stdout, _ = run(capsys, "delta", "--dihedral", "5", "--kmax", "2", "--variant", "all-bracketings")
    assert code == 0
    assert "exploratory" not in stdout
    assert stdout.count("Z_5") == 2


def test_iso_quandle_and_ring(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "make", "dihedral", "3", "-o", str(a))
    run(capsys, "make", "dihedral", "3", "-o", str(b))
    code, stdout, _ = run(capsys, "iso", str(a), str(b), "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"]["quandle_iso"] is not None

    eye = write_json(tmp_path / "eye.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, stdout, _ = run(capsys, "iso", str(a), str(b), "--ring-domain", "F5", "--matrix", eye, "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"]["ring_iso_matrix_valid"] is True


def test_iso_brute_force_needs_prime_field(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "2", "-o", str(a))
    code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "Q")
    assert code == 2
    assert "prime field" in err
    code, stdout, _ = run(capsys, "iso", str(a), str(a), "--ring-domain", "F2", "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"]["ring_iso"] is not None


def test_iso_finds_certified_ring_map_for_paper_pair(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", to_json_dict(PAIR4_X))
    y = write_json(tmp_path / "y.json", to_json_dict(PAIR4_Y))
    code, stdout, _ = run(capsys, "iso", x, y, "--ring-domain", "F3", "--json")
    assert code == 0
    outputs = json.loads(stdout)["outputs"]
    assert outputs["quandle_iso"] is None
    ring_x, ring_y = quandle_ring(PAIR4_X, GF(3)), quandle_ring(PAIR4_Y, GF(3))
    assert is_ring_isomorphism(ring_x, ring_y, outputs["ring_iso"])


def test_iso_rings_of_different_dimension_are_not_isomorphic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "make", "dihedral", "3", "-o", str(a))
    run(capsys, "make", "trivial", "2", "-o", str(b))
    code, stdout, _ = run(capsys, "iso", str(a), str(b), "--ring-domain", "F3", "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"] == {"quandle_iso": None, "ring_iso": None}
    # a certificate of the wrong shape is still bad parameters
    eye = write_json(tmp_path / "eye.json", [[1, 0], [0, 1]])
    code, _, err = run(capsys, "iso", str(a), str(b), "--ring-domain", "F3", "--matrix", eye)
    assert code == 2
    assert "shape" in err and eye in err
    ragged = write_json(tmp_path / "ragged.json", [[1, 0, 0], [0, 1], [0, 0, 1]])
    code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--matrix", ragged)
    assert code == 2
    assert "shape" in err and ragged in err


def test_iso_budget_exceeded_is_capacity(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "3", "-o", str(a))
    code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--budget", "10")
    assert code == 5
    assert "capacity" in err


def test_iso_negative_budget_is_bad_parameters(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "3", "-o", str(a))
    code, stdout, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--budget", "-5")
    assert (code, stdout) == (2, "")
    assert "--budget" in err
    code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--budget", "0")
    assert code == 5
    assert "capacity" in err


@pytest.mark.parametrize(
    "matrix",
    [
        7,
        [[1, 0], "ab"],
        [[1, "x"], [0, 1]],
        [[1, None], [0, 1]],
        [[1.5, 0], [0, 1]],
        [[True, 0], [0, 1]],
        ["10", "01"],
    ],
)
def test_iso_malformed_matrix_is_named_parse_error(tmp_path, capsys, matrix):
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "2", "-o", str(a))
    m = write_json(tmp_path / "m.json", matrix)
    code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--matrix", m)
    assert code == 3
    assert m in err


def test_iso_matrix_over_q_reads_only_the_written_fractions(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "2", "-o", str(a))
    for bad in (["10", "01"], [["1", 0], [0, 1]], [["1.0", 0], [0, 1]], [["1/0", 0], [0, 1]], [[1.0, 0], [0, 1]]):
        m = write_json(tmp_path / "bad.json", bad)
        code, _, err = run(capsys, "iso", str(a), str(a), "--ring-domain", "Q", "--matrix", m)
        assert code == 3, bad
        assert m in err
    for matrix, valid in (([["1/1", "0/1"], [0, "1/1"]], True), ([["1/1", 0], [0, "2/1"]], False)):
        m = write_json(tmp_path / "m.json", matrix)
        code, stdout, _ = run(capsys, "iso", str(a), str(a), "--ring-domain", "Q", "--matrix", m, "--json")
        assert code == 0
        assert json.loads(stdout)["outputs"]["ring_iso_matrix_valid"] is valid


def test_iso_matrix_needs_ring_domain(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "make", "dihedral", "3", "-o", str(a))
    for matrix in (write_json(tmp_path / "m.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), str(tmp_path / "missing.json")):
        code, stdout, err = run(capsys, "iso", str(a), str(a), "--matrix", matrix)
        assert code == 2
        assert stdout == ""
        assert "--ring-domain" in err


def test_iso_budget_needs_the_ring_search(tmp_path, capsys):
    # --budget bounds only find_ring_isomorphism: refused where it would
    # be ignored; without it the search runs on its default budget
    a = tmp_path / "a.json"
    run(capsys, "make", "trivial", "3", "-o", str(a))
    eye = write_json(tmp_path / "eye.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for extra in ([], ["--ring-domain", "F3", "--matrix", eye]):
        code, stdout, err = run(capsys, "iso", str(a), str(a), "--budget", "1", "--json", *extra)
        assert code == 2
        assert stdout == ""
        assert "--budget" in err
    code, stdout, _ = run(capsys, "iso", str(a), str(a), "--ring-domain", "F3", "--json")
    assert code == 0
    assert json.loads(stdout)["outputs"]["ring_iso"] is not None


def test_decompose_file_mode(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    code, stdout, _ = run(capsys, "decompose", str(path), "--domain", "F5")
    assert code == 0
    assert "verdict: verified" in stdout


@pytest.mark.parametrize("n, verdict", [(11, "verified"), (31, "verified"), (13, "not-simple")])
def test_decompose_dihedral_over_f3(tmp_path, capsys, n, verdict):
    """R_11 and R_31 are simple over F_3; over F_3 the augmentation-zero
    summand of R_13 splits into two summands of dimension 6."""
    path = tmp_path / "r.json"
    run(capsys, "make", "dihedral", str(n), "-o", str(path))
    code, stdout, _ = run(capsys, "decompose", str(path), "--domain", "F3", "--json")
    assert code == 0
    doc = json.loads(stdout)["outputs"]
    assert doc["verdict"] == verdict
    assert [(e["dim_triv"], e["dim_st"]) for e in doc["orbits"]] == [(1, n - 1)]


def test_decompose_json_repeats(tmp_path, capsys):
    path = tmp_path / "r.json"
    run(capsys, "make", "dihedral", "13", "-o", str(path))
    outputs = [run(capsys, "decompose", str(path), "--domain", domain, "--json")[1] for domain in ("F3", "F3", "F5", "F5")]
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]


def test_decompose_over_z_is_bad_parameters(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    code, stdout, err = run(capsys, "decompose", str(path), "--domain", "Z", "--json")
    assert code == 2
    assert stdout == ""
    assert "needs a field, not Z" in err


def test_decompose_complex_mode(capsys):
    code, stdout, _ = run(capsys, "decompose", "--complex-dihedral", "6", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["outputs"]["ok"] is True
    assert doc["outputs"]["total_dim"] == 6


def test_decompose_complex_mode_needs_only_the_standard_library(monkeypatch, capsys):
    real_import = builtins.__import__

    def stdlib_only(name, globals=None, locals=None, fromlist=(), level=0):
        top = name.partition(".")[0]
        if level == 0 and top != "quandlekit" and top not in sys.stdlib_module_names:
            raise ImportError("third-party import of %r" % name)
        return real_import(name, globals, locals, fromlist, level)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "__import__", stdlib_only)
        code, stdout, _ = run(capsys, "decompose", "--complex-dihedral", "8", "--json")
    assert code == 0
    doc = json.loads(stdout)["outputs"]
    assert doc["ok"] is True and doc["prime"] == 5
    assert all(s["invariant"] and s["simple"] for s in doc["summands"])


def test_decompose_has_no_tolerance_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--complex-dihedral", "6", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_decompose_file_and_complex_mode_is_bad_parameters(tmp_path, capsys):
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    code, stdout, err = run(capsys, "decompose", str(path), "--complex-dihedral", "6")
    assert code == 2
    assert stdout == ""
    assert "not both" in err


def test_decompose_complex_mode_takes_no_domain(tmp_path, capsys):
    # complex mode picks its own prime, so any --domain is refused; table
    # mode still defaults to F5
    for domain in ("F5", "F7", "banana"):
        code, stdout, err = run(capsys, "decompose", "--complex-dihedral", "6", "--domain", domain)
        assert code == 2
        assert stdout == ""
        assert "--domain" in err
    path = tmp_path / "r3.json"
    run(capsys, "make", "dihedral", "3", "-o", str(path))
    outputs = [run(capsys, "decompose", str(path), *extra, "--json") for extra in ([], ["--domain", "F5"])]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_decompose_without_input_is_bad_parameters(capsys):
    code, stdout, err = run(capsys, "decompose")
    assert code == 2
    assert stdout == ""
    assert "table file" in err and "--complex-dihedral" in err


def test_main_calls_leave_no_reference_cycles(capsys):
    # one parser serves every call, so a call leaves no parser behind for
    # the cyclic collector
    run(capsys, "make", "dihedral", "3")
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, "verify", "--json")[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_defaults_come_from_library_constants():
    parser = cli.build_parser()
    assert parser.parse_args(["enumerate", "3"]).bound == DEFAULT_ENUM_BOUND


def test_union_make(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "make", "dihedral", "3", "-o", str(a))
    run(capsys, "make", "trivial", "2", "-o", str(b))
    code, stdout, _ = run(capsys, "make", "union", str(a), str(b))
    assert code == 0
    assert json.loads(stdout)["n"] == 5


def test_verify_all_pass(capsys):
    code, stdout, _ = run(capsys, "verify")
    assert code == 0
    lines = stdout.splitlines()
    assert all(not l.startswith("FAIL") for l in lines)
    assert sum(l.startswith("PASS") for l in lines) >= 80
    assert "0 failures" in lines[-1]
    assert "zero columns at p=3" in stdout


def test_verify_deterministic_json(capsys):
    _, out1, _ = run(capsys, "verify", "--json")
    _, out2, _ = run(capsys, "verify", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["outputs"]["failures"] == 0
    assert doc["outputs"]["zero_columns_p3"] == {"trivial3": 9, "two_orbit3": 3, "dihedral3": 1}


def test_verify_detects_injected_fault(capsys, monkeypatch):
    cells = dict(EXPECTED["product_cells"])
    cells[(8, 1, 2)] = ((3, 1), (4, -1), (7, 1))  # flip one sign
    monkeypatch.setitem(EXPECTED, "product_cells", cells)
    code, stdout, _ = run(capsys, "verify")
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL product table cell n=8 e_1*e_2"]


def test_verify_detects_a_bad_generalized_pair(capsys, monkeypatch):
    # generalized_counterexample(6, 3) refuses: 3 does not divide 6 - 1
    monkeypatch.setitem(EXPECTED, "generalized_pairs", [(6, 3)])
    code, stdout, _ = run(capsys, "verify")
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL generalized pair (n=6, p=3)"]


def test_check_finds_the_generators_once(monkeypatch, tmp_path):
    # above order 8 the axiom check finds the generators, and the quandle
    # it returns keeps them for the inner moves of the summary
    original, computed = quandles.generating_set, []

    def counted(x):
        computed.append(x.n)
        return original.__wrapped__(x)

    wrapper = quandles.derived(counted)
    for module in [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "quandlekit"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    path = write_json(tmp_path / "r9.json", to_json_dict(dihedral_quandle(9)))
    assert main(["check", path]) == 0
    assert computed == [9]
