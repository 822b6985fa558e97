"""Importing the package or its CLI loads no heavy standard modules.

Every answer is a one-shot CLI call, so import time is part of each
answer.  Each check runs in a fresh interpreter and compares against
the modules that interpreter had loaded before the import, since site
hooks load some of them (typing, on some hosts) before any user code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses pulls in inspect, ast, dis and tokenize; numpy is loaded
# by the field scans only
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "numpy")

CODE = (
    "import importlib, json, sys\n"
    "before = set(sys.modules)\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


@pytest.mark.parametrize("module", ["mersexp", "mersexp.cli"])
def test_import_adds_no_heavy_module(module):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", CODE, module],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert module in added  # it was imported here, not by site
    assert [name for name in HEAVY if name in added] == []
