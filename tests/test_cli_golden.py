"""Byte-identity guard for the CLI.

A fixed battery of invocations runs through `cli.main`; each is recorded
as its exit code, stdout and stderr and compared with the committed
transcript `tests/cli_golden.txt`.  The battery covers every command in
text and --json form, every `make` family, and at least one run for each
of the exit codes 2, 3, 4 and 5.  Its input files live in a temporary
directory, written `{tmp}` in the transcript.  `--help` is left out: its
layout varies across Python versions.

After a deliberate change of output, regenerate the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

import pytest

from quandlekit import cli
from quandlekit.counterexamples import PAIR4_MATRIX, PAIR4_X, PAIR4_Y
from quandlekit.quandles import to_json_dict

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.txt")


def _s3_cayley():
    perms = list(itertools.permutations(range(3)))
    index = {f: i for i, f in enumerate(perms)}
    return [[index[tuple(f[x] for x in g)] for g in perms] for f in perms]


INPUTS = {
    "s3.json": {"table": _s3_cayley()},
    "notgroup.json": {"table": [[0, 0], [0, 0]]},
    "ragged.json": {"n": 2, "table": [[0, 1], [1]]},
    "axiom.json": {"n": 2, "table": [[0, 0], [0, 0]]},
    "two_orbit.json": {"n": 3, "table": [[0, 0, 1], [1, 1, 0], [2, 2, 2]]},
    # over F_2 its violations need three basis elements
    "wide.json": {"n": 4, "table": [[0, 0, 0, 0], [1, 1, 1, 1], [2, 3, 2, 2], [3, 2, 3, 3]]},
    "pair4x.json": to_json_dict(PAIR4_X),
    "pair4y.json": to_json_dict(PAIR4_Y),
    "pair4m.json": PAIR4_MATRIX,
}

# In order: the first two write files that later ones read.
BATTERY = [
    "make dihedral 3 -o {tmp}/r3.json",
    "make trivial 2 -o {tmp}/t2.json",
    "make trivial 3",
    "make dihedral 4",
    "make alexander 5 2",
    "make conj {tmp}/s3.json",
    "make core {tmp}/s3.json",
    "make union {tmp}/r3.json {tmp}/t2.json",
    "make table {tmp}/r3.json",
    "make dihedral 3 4",
    "make trivial 2 -o {tmp}/nodir/t2.json",
    "make alexander 4 2",
    "make trivial x",
    "make conj {tmp}/notgroup.json",
    "make table {tmp}/ragged.json",
    "make table {tmp}/axiom.json",
    "check {tmp}/r3.json",
    "check {tmp}/two_orbit.json --json",
    "check {tmp}/axiom.json",
    "check {tmp}/axiom.json --json",
    "check {tmp}/missing.json",
    "enumerate 3",
    "enumerate 4 --json",
    "enumerate 3 --catalog {tmp}/c.jsonl",
    "enumerate 4 --catalog {tmp}/c.jsonl --json",
    "enumerate 3 --catalog {tmp}/c.jsonl --json",
    "enumerate 5 --bound 4",
    "power-assoc {tmp}/r3.json",
    "power-assoc {tmp}/r3.json --domain F3 --json",
    "power-assoc {tmp}/two_orbit.json",
    "power-assoc {tmp}/two_orbit.json --json",
    "power-assoc {tmp}/wide.json --domain F2",
    "power-assoc {tmp}/wide.json --domain F2 --json",
    "power-assoc {tmp}/r3.json --domain banana",
    "delta --dihedral 4",
    "delta --dihedral 5 --kmax 2 --variant left-normed --json",
    "delta",
    "iso {tmp}/r3.json {tmp}/r3.json",
    "iso {tmp}/pair4x.json {tmp}/pair4y.json --json",
    "iso {tmp}/pair4x.json {tmp}/pair4y.json --ring-domain F3 --matrix {tmp}/pair4m.json",
    "iso {tmp}/pair4x.json {tmp}/pair4y.json --ring-domain F2 --json",
    "iso {tmp}/t2.json {tmp}/t2.json --ring-domain F3 --budget 0",
    "iso {tmp}/r3.json {tmp}/r3.json --matrix {tmp}/pair4m.json",
    "iso {tmp}/r3.json {tmp}/r3.json --ring-domain F3 --matrix {tmp}/pair4m.json",
    "decompose {tmp}/r3.json",
    "decompose {tmp}/r3.json --domain F7 --json",
    "decompose --complex-dihedral 5",
    "decompose --complex-dihedral 5 --json",
    "decompose {tmp}/r3.json --complex-dihedral 5",
    "verify",
    "verify --json",
]


def _stream(tag, text):
    """One line per line of text; a last empty line when text ends in "\\n"."""
    return ["%s|%s" % (tag, line) for line in text.split("\n")]


def transcript(tmp):
    """The battery run in the directory tmp, one block per invocation."""
    tmp = str(tmp)
    for name, doc in INPUTS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    blocks = []
    for line in BATTERY:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(line.replace("{tmp}", tmp).split())
        block = ["$ quandlekit " + line, "exit %d" % code]
        block += _stream("out", out.getvalue().replace(tmp, "{tmp}"))
        block += _stream("err", err.getvalue().replace(tmp, "{tmp}"))
        blocks.append("\n".join(block))
    return blocks


def test_battery_matches_the_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CATALOG_ENV, raising=False)
    text = GOLDEN.read_text(encoding="utf-8")
    assert text.endswith("\n")
    expected = text[:-1].split("\n\n")
    got = transcript(tmp_path)
    assert [b.split("\n", 1)[0] for b in got] == [b.split("\n", 1)[0] for b in expected]
    for block, golden in zip(got, expected):
        assert block == golden


MINIMAL_ARGV = {
    "make": ["make", "trivial", "2"],
    "check": ["check", "x.json"],
    "enumerate": ["enumerate", "3"],
    "power-assoc": ["power-assoc", "x.json"],
    "delta": ["delta"],
    "iso": ["iso", "x.json", "y.json"],
    "decompose": ["decompose"],
    "verify": ["verify"],
}


def test_every_command_but_make_takes_json(capsys):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(MINIMAL_ARGV)
    for command, argv in MINIMAL_ARGV.items():
        if command == "make":
            continue
        assert parser.parse_args(argv + ["--json"]).json is True, command
        assert parser.parse_args(argv).json is False, command
    with pytest.raises(SystemExit) as exc:
        cli.main(MINIMAL_ARGV["make"] + ["--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


if __name__ == "__main__":
    os.environ.pop(cli.CATALOG_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("\n\n".join(transcript(tmp)) + "\n")
