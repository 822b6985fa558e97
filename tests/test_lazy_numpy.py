"""numpy is loaded by the GF(2^n) scans above n = 16 only, never by the
package import.

Each check runs in a fresh interpreter, since this test process has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# run the CLI, then report on stderr whether numpy got imported
CLI = (
    "import sys\n"
    "from mersexp.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def python(code, *argv):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_package_import_leaves_numpy_unloaded():
    proc = python(
        "import sys\n"
        "import mersexp\n"
        "from mersexp import sbox, cli\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["inverse", "kasami", "--r", "3", "--n", "7"],
        ["carry", "gold3", "--a", "113", "--s", "1", "--n", "7"],
    ],
)
def test_certificate_commands_run_without_numpy(argv):
    proc = python(CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().endswith("numpy loaded: False")


def test_refused_analyze_leaves_numpy_unloaded():
    # an exponent outside [1, 2^n - 1] is refused before numpy is imported
    proc = python(CLI, "analyze", "--l", "0", "--n", "7")
    assert proc.returncode == 3
    assert proc.stderr.strip().endswith("numpy loaded: False")


def _analyze_57(n):
    argv = ["--format", "json", "analyze", "--l", "57", "--n", str(n)]
    proc = python(CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip(), json.loads(proc.stdout)["result"]


@pytest.mark.parametrize(
    "n, invertible, dec, bits",
    [(7, True, 23, "0b0010111"), (16, False, 57, "0b0000000000111001")],
)
def test_analyze_to_n16_runs_without_numpy(n, invertible, dec, bits):
    # fields up to sbox._LIST_MAX_N = 16 are scanned on plain lists
    stderr, result = _analyze_57(n)
    assert stderr.endswith("numpy loaded: False")
    assert result == {
        "uniformity": 2,
        "apn": True,
        "degree": 4,
        "invertible": invertible,
        "canonical": {"dec": dec, "bits": bits},
    }


def test_inverse_check_to_n16_runs_without_numpy():
    # the check reads the list tables of the field in exponent order
    proc = python(
        "import sys\n"
        "from mersexp.sbox import FieldContext, verify_compositional_inverse\n"
        "ctx = FieldContext(16)\n"
        "print(verify_compositional_inverse(7, pow(7, -1, ctx.order), ctx),\n"
        "      verify_compositional_inverse(7, 7, ctx), 'numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]


def test_analyze_loads_numpy_and_keeps_its_output():
    # above n = 16 the tables and the scan are numpy arrays
    stderr, result = _analyze_57(17)
    assert stderr.endswith("numpy loaded: True")
    assert result == {
        "uniformity": 2,
        "apn": True,
        "degree": 4,
        "invertible": True,
        "canonical": {"dec": 57, "bits": "0b00000000000111001"},
    }
