"""The checker must accept genuine outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker as ck  # noqa: E402
import run  # noqa: E402
from workloads import CertifyLarge, CliCorpus, FieldScan  # noqa: E402

API = run.load_api(need_cli=True)
cf = API.closed_form


@pytest.fixture(scope="module")
def oracle():
    return ck.UniformityOracle(ck.sympy_irreducibles())


def inverse_fields(res):
    return res.inverse.value, res.weight, res.r_matrix.entries, res.carry_matrix.entries


@pytest.mark.parametrize("kind, r, n", [("gold", 3, 7), ("gold", 3, 9), ("kasami", 4, 12), ("bl", 3, 12)])
def test_genuine_inverse_accepted(kind, r, n):
    res = cf.bl_inverse(r) if kind == "bl" else getattr(cf, f"{kind}_inverse")(r, n)
    ck.check_inverse(kind, r, n, *inverse_fields(res))


def test_inverse_off_by_one_rejected():
    value, weight, rm, cm = inverse_fields(cf.gold_inverse(3, 7))
    assert value == 113
    with pytest.raises(ck.Mismatch, match="inverse 114"):
        ck.check_inverse("gold", 3, 7, value + 1, weight, rm, cm)


def test_flipped_carry_rejected():
    value, weight, rm, cm = inverse_fields(cf.kasami_inverse(2, 9))
    flipped = [list(row) for row in cm]
    flipped[0][1] = 1 - flipped[0][1]
    with pytest.raises(ck.Mismatch, match="carry"):
        ck.check_inverse("kasami", 2, 9, value, weight, rm, flipped)


def test_transposed_r_matrix_rejected():
    # n = 25, r = 5: a 5 x 5 r-matrix, so the transpose keeps the shape
    value, weight, rm, cm = inverse_fields(cf.gold_inverse(5, 25))
    transposed = [list(col) for col in zip(*rm)]
    assert transposed != [list(row) for row in rm]
    with pytest.raises(ck.Mismatch, match="r-matrix"):
        ck.check_inverse("gold", 5, 25, value, weight, transposed, cm)
    # n = 6, r = 2: the transpose of a 2 x 3 matrix has the wrong shape
    value, weight, rm, cm = inverse_fields(cf.gold_inverse(2, 6))
    with pytest.raises(ck.Mismatch, match="rows"):
        ck.check_inverse("gold", 2, 6, value, weight, [list(col) for col in zip(*rm)], cm)


def test_queries_held_refuted_and_corrupted():
    workload = CertifyLarge(7, API)
    queries = [op for op in workload.ops if op[0] == "query"]
    assert {workload.execute(op) is None for op in queries} == {True, False}
    for op in queries:
        out = workload.execute(op)
        workload.check(op, out, None)
        if out is None:
            # claiming a certificate for a false congruence is caught
            with pytest.raises(ck.Mismatch, match="accepted although"):
                workload.check(op, (0,) * op[4], None)
        else:
            bad = list(out)
            bad[len(bad) // 2] += 1
            with pytest.raises(ck.Mismatch, match="carry"):
                workload.check(op, tuple(bad), None)
            with pytest.raises(ck.Mismatch, match="refuted although"):
                workload.check(op, None, None)


def test_sympy_polynomials_differ_from_the_program(oracle):
    polys = ck.sympy_irreducibles()
    assert set(polys) == set(range(2, ck.BRUTE_FORCE_MAX_N + 1))
    assert all(API.sbox.is_irreducible(p, n) for n, p in polys.items())
    assert any(p != API.sbox.smallest_irreducible(n) for n, p in polys.items())


@pytest.mark.parametrize("l, n, delta", [(3, 5, 2), (5, 6, 4), (9, 6, 8), (254, 8, 4), (126, 7, 2)])
def test_brute_force_uniformity(oracle, l, n, delta):
    assert oracle.exact(l, n) == delta


def test_theorems_above_brute_force(oracle):
    assert oracle.exact((1 << 3) + 1, 12) == 8          # gold, gcd(3, 12) = 3
    assert oracle.exact(((1 << 5) + 1) << 4, 11) == 2   # a cyclotomic shift of gold
    assert oracle.exact((1 << 13) - 2, 13) == 2         # inverse exponent, odd n
    assert oracle.exact(57, 13) is None                 # no theorem applies


def test_wrong_uniformity_rejected(oracle):
    workload = FieldScan(3, API)
    rows = [op for op in workload.ops if op[0] == "row" and op[4] in ("inverse", "shift")]
    for op in (rows[0], rows[-1]):
        out = workload.execute(op)
        workload.check(op, out, oracle)
        wrong = list(out)
        wrong[7] += 2
        with pytest.raises(ck.Mismatch, match="uniformity"):
            workload.check(op, tuple(wrong), oracle)
    exp = next(op for op in workload.ops if op[0] == "exp")
    delta = workload.execute(exp)
    with pytest.raises(ck.Mismatch, match="uniformity"):
        workload.check(exp, delta + 2, oracle)


def test_welch_one_is_the_known_fault(oracle):
    workload = FieldScan(3, API)
    failures = []
    for op in workload.ops:
        try:
            workload.check(op, workload.execute(op), oracle)
        except ck.Mismatch as exc:
            failures.append((op, str(exc)))
    assert len(failures) == 1
    op, message = failures[0]
    assert workload.known_fault(op, message)


def test_cli_outputs_checked_in_process(oracle):
    workload = CliCorpus(5, API)
    for op in workload.ops:
        code, raw = workload.run_main(op)
        workload.check(op, (code, raw), oracle)
        if op[0] in ("inverse", "raw"):
            tampered = raw.replace(b'"weight": ', b'"weight": 1')
            with pytest.raises(ck.Mismatch):
                workload.check(op, (code, tampered), oracle)
