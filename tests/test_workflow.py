"""Every step of the CI workflow that runs a command is valid bash.

The workflow is read by indentation, without a YAML parser: a step's
`run:` is either the rest of its line or, after `run: |`, the lines
indented past the key, dedented by their least indent.
"""

import re
import subprocess
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tier1.yml"
_KEY = re.compile(r"( *)(- )?(\w[\w-]*): ?(.*)$")


def _run_steps(text):
    """(name, script) of every step with a run key, in order."""
    lines = text.splitlines()
    steps, name, i = [], None, 0
    while i < len(lines):
        key = _KEY.match(lines[i])
        i += 1
        if key is None:
            continue
        indent, item, field, value = key.groups()
        if item:  # a new step, unnamed until its name key
            name = None
        if field == "name":
            name = value
        if field != "run":
            continue
        if value != "|":
            steps.append((name, value))
            continue
        key_indent, block = len(indent) + len(item or ""), []
        while i < len(lines) and (
            not lines[i].strip()
            or len(lines[i]) - len(lines[i].lstrip()) > key_indent
        ):
            block.append(lines[i])
            i += 1
        width = min(len(b) - len(b.lstrip()) for b in block if b.strip())
        steps.append((name, "\n".join(b[width:] for b in block) + "\n"))
    return steps


def test_every_run_step_parses_as_bash():
    text = WORKFLOW.read_text()
    steps = _run_steps(text)
    assert len(steps) == len(re.findall(r"^ *run:", text, re.MULTILINE))
    failed = []
    for name, script in steps:
        check = subprocess.run(
            ["bash", "-n"], input=script, capture_output=True, text=True
        )
        if check.returncode != 0:
            failed.append(f"{name}: {check.stderr.strip()}")
    assert failed == []
