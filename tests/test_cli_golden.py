"""Byte-identity of the CLI on a fixed command corpus.

tests/data/cli_golden.json holds each command with the sha256 of its
exit code, stdout and stderr, recorded from an earlier release.  Every
command must still produce exactly those bytes.  To record the corpus
from a checkout of the package:

    PYTHONPATH=<checkout>/src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mersexp.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# one instance of every kasami dispatch label
_KASAMI_LABELS = (
    (2, 4), (1, 5), (2, 5), (3, 5), (4, 5), (2, 6), (4, 6), (2, 7), (3, 7),
    (4, 7), (5, 7), (2, 8), (2, 9), (7, 9), (2, 10), (4, 10), (6, 10),
    (8, 10), (3, 13), (10, 13), (2, 14), (4, 14), (6, 14), (8, 14),
    (10, 14), (12, 14), (4, 22), (18, 22), (5, 23), (18, 23), (6, 26),
    (20, 26), (10, 46), (36, 46),
)


def corpus() -> list[list[str]]:
    """The recorded commands: every subcommand, both formats, --quiet,
    held, refuted and invalid inputs, catalog for every n <= 40, and the
    help of the program and of each subcommand."""
    j = ["--format", "json"]
    cmds: list[list[str]] = []
    for i, (r, n) in enumerate(_KASAMI_LABELS):
        fmt = j if i % 2 else []
        cmds.append([*fmt, "inverse", "kasami", "--r", str(r), "--n", str(n)])
    cmds += [
        ["inverse", "gold", "--r", "3", "--n", "7"],
        [*j, "inverse", "gold", "--r", "3", "--n", "7"],
        ["--quiet", "inverse", "gold", "--r", "2", "--n", "6"],
        [*j, "inverse", "gold", "--r", "12", "--n", "30"],
        ["inverse", "gold", "--r", "9", "--n", "7"],
        ["inverse", "gold", "--r", "7", "--n", "7"],
        ["inverse", "gold", "--r", "0", "--n", "7"],
        ["inverse", "gold", "--r", "1", "--n", "4"],
        ["inverse", "gold", "--r", "1", "--n", "1"],
        ["inverse", "gold", "--r", "3"],
        ["inverse", "gold", "--n", "7"],
        ["inverse", "gold", "--r", "0x3", "--n", "0b111"],
        ["inverse", "gold", "--r", "x", "--n", "7"],
        ["inverse", "kasami", "--r", "3", "--n", "7", "--format", "json"],
        ["inverse", "kasami", "--r", "3", "--n", "7", "--quiet"],
        [*j, "inverse", "kasami", "--r", "10", "--n", "7"],
        ["inverse", "kasami", "--r", "1", "--n", "4"],
        ["inverse", "kasami", "--r", "1", "--n", "3"],
        ["inverse", "kasami", "--r", "7"],
        ["inverse", "bl", "--r", "1"],
        [*j, "inverse", "bl", "--r", "3"],
        ["--quiet", "inverse", "bl", "--r", "5", "--n", "20"],
        ["inverse", "bl", "--r", "3", "--n", "13"],
        ["inverse", "bl", "--r", "2"],
        ["inverse", "bl"],
        ["inverse", "raw", "--l", "113", "--n", "7"],
        [*j, "inverse", "raw", "--l", "1", "--n", "5"],
        ["inverse", "raw", "--l", "3", "--n", "4"],
        ["inverse", "raw", "--l", "0", "--n", "5"],
        ["inverse", "raw", "--l", "3", "--n", "1"],
        ["inverse", "raw", "--n", "7"],
        ["inverse", "raw", "--l", "5"],
        ["inverse", "welch", "--r", "3", "--n", "7"],
        ["carry", "gold3", "--a", "113", "--s", "1", "--n", "7"],
        [*j, "carry", "gold3", "--a", "113", "--s", "1", "--n", "7"],
        ["--quiet", "carry", "gold3", "--a", "113", "--s", "1", "--n", "7"],
        ["carry", "gold3", "--a", "113", "--s", "2", "--n", "7"],
        ["carry", "kasami3", "--a", "78", "--s", "1", "--n", "7"],
        [*j, "carry", "kasami3", "--a", "78", "--s", "1", "--n", "7"],
        [*j, "carry", "kasami2", "--a", "12", "--s", "1", "--n", "5"],
        ["carry", "kasami2", "--a", "787", "--s", "1", "--n", "10"],
        ["carry", "KASAMI2", "--a", "100", "--s", "100", "--n", "8"],
        [*j, "carry", "bl1", "--a", "13", "--s", "1", "--n", "4"],
        ["carry", "bl3", "--a", "2917", "--s", "1", "--n", "12"],
        ["carry", "raw1", "--a", "5", "--s", "5", "--n", "4"],
        [*j, "carry", "raw5", "--a", "3", "--s", "15", "--n", "6"],
        ["carry", "raw3", "--a", "5", "--s", "2", "--n", "4"],
        [*j, "carry", "6:1,3:-1,0:1", "--a", "78", "--s", "1", "--n", "7"],
        ["carry", "6:1,3:-1,0:1", "--a", "78", "--s", "3", "--n", "7"],
        # l = 3*2^9 - 2*2^4 + 2 - 1 = 1505, s = l*a mod 2^12 - 1
        [*j, "carry", "9:3,4:-2,1:1,0:-1", "--a", "1234", "--s",
         str(1505 * 1234 % 4095), "--n", "12"],
        ["carry", "9:3,4:-2,1:1,0:-1", "--a", "1234", "--s", "7", "--n", "12"],
        # carries in [-150, 299]: l = 300*2^5 - 150
        [*j, "carry", "5:300,0:-150", "--a", "77", "--s",
         str(9450 * 77 % 1023), "--n", "10"],
        ["carry", "0:2", "--a", "3", "--s", "6", "--n", "5"],
        ["carry", "kasami0", "--a", "1", "--s", "1", "--n", "5"],
        ["carry", "welch3", "--a", "1", "--s", "1", "--n", "5"],
        ["carry", "3:1,x:2", "--a", "1", "--s", "1", "--n", "5"],
        ["carry", "0:0", "--a", "1", "--s", "1", "--n", "5"],
        ["carry", "0:-1", "--a", "1", "--s", "1", "--n", "5"],
        ["carry", "gold3", "--a", "200", "--s", "1", "--n", "7"],
        ["carry", "gold3", "--a", "1", "--s", "127", "--n", "7"],
        ["carry", "gold1", "--a", "1", "--s", "1", "--n", "1"],
        ["carry", "gold3", "--a", "1", "--n", "7"],
        ["audit", "--n-min", "2", "--n-max", "12"],
        [*j, "audit", "--n-min", "4", "--n-max", "8"],
        ["--quiet", "audit", "--n-min", "2", "--n-max", "16"],
        ["audit", "--n-min", "2", "--n-max", "2"],
        [*j, "audit", "--n-min", "13", "--n-max", "20"],
        ["audit", "--n-min", "1", "--n-max", "5"],
        ["audit", "--n-min", "8", "--n-max", "4"],
        ["analyze", "--l", "57", "--n", "7"],
        [*j, "analyze", "--l", "78", "--n", "7"],
        [*j, "analyze", "--l", "1", "--n", "4"],
        ["analyze", "--l", "13", "--n", "8"],
        ["analyze", "--l", "3", "--n", "30"],
        ["analyze", "--l", "0", "--n", "5"],
        ["analyze", "--l", "200", "--n", "5"],
        ["nonsense"],
        [],
        ["--format", "xml", "catalog", "--n", "7"],
    ]
    cmds += [[*j, "catalog", "--n", str(n)] for n in range(1, 41)]
    cmds += [["catalog", "--n", str(n)] for n in (3, 7, 12, 20, 33)]
    cmds += [["--help"]] + [
        [command, "--help"]
        for command in ("inverse", "carry", "audit", "analyze", "catalog")
    ]
    return cmds


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one `mersexp` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_cli_output_matches_golden_corpus(monkeypatch):
    # argparse wraps usage lines to COLUMNS, so it is pinned as it was
    # when recording
    monkeypatch.setenv("COLUMNS", "80")
    records = json.loads(GOLDEN.read_text())
    assert len(records) >= 100
    mismatched = [
        " ".join(rec["argv"])
        for rec in records
        if digest(rec["argv"]) != rec["sha256"]
    ]
    assert not mismatched, "output changed for:\n" + "\n".join(mismatched)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    lines = [
        json.dumps({"argv": argv, "sha256": digest(argv)}) for argv in corpus()
    ]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
