"""Per-(kind, n) fingerprints of every closed form's output.

fingerprint(kind, n) is one sha256 over each r with 1 <= r < n, in
order: the refusal as f"{r},{type}: {message};", or
f"{r},{label},{weight},{value},{warnings};" followed by the flat
r-matrix and the flat carry matrix of the result.  A refusal or a
certificate failure is hashed like a result, so any change to what
closed_form_inverse returns or raises moves the fingerprint of that n.
tests/data/fingerprints.json holds one per kind for 2 <= n < 700.

Regenerating the file is a deliberate act, to be named with its reason
wherever the change is recorded:

    PYTHONPATH=src python tests/fingerprints.py > tests/data/fingerprints.json

Checking every n < 700 against the file, exit 1 naming the first n
of each kind that moved:

    PYTHONPATH=src python tests/fingerprints.py --check
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from mersexp import closed_form_inverse

FINGERPRINTS = Path(__file__).parent / "data" / "fingerprints.json"
KINDS = ("gold", "kasami", "bracken_leander")
N_STOP = 700


def fingerprint(kind: str, n: int) -> str:
    h = hashlib.sha256()
    for r in range(1, n):
        try:
            res = closed_form_inverse(kind, r, n)
        except (ValueError, RuntimeError) as exc:
            h.update(f"{r},{type(exc).__name__}: {exc};".encode())
            continue
        h.update(
            f"{r},{res.case_label},{res.weight},{res.inverse.value},"
            f"{res.warnings};".encode()
        )
        h.update(res.r_matrix.flat + res.carry_matrix.flat)
    return h.hexdigest()


def record() -> dict[str, dict[str, str]]:
    """Every kind's fingerprint for 2 <= n < N_STOP, keyed by str(n)."""
    return {
        kind: {str(n): fingerprint(kind, n) for n in range(2, N_STOP)}
        for kind in KINDS
    }


def moved(n_stop: int) -> list[tuple[str, int]]:
    """(kind, the first n below n_stop whose fingerprint differs from
    the file's) for each kind that moved."""
    pinned = json.loads(FINGERPRINTS.read_text())
    first = []
    for kind in KINDS:
        for n in range(2, n_stop):
            if fingerprint(kind, n) != pinned[kind].get(str(n)):
                first.append((kind, n))
                break
    return first


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        found = moved(N_STOP)
        for kind, n in found:
            print(f"{kind}: the output first moved at n = {n}")
        print(f"fingerprints for n < {N_STOP}:", "MOVED" if found else "ok")
        sys.exit(1 if found else 0)
    print(json.dumps(record(), indent=1))
