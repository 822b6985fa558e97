import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mersexp import Residue
from mersexp.cli import (
    EXIT_AUDIT_MISMATCH,
    EXIT_BAD_PARAMS,
    EXIT_BROKEN_PIPE,
    EXIT_CONGRUENCE,
    EXIT_NOT_INVERTIBLE,
    MAX_AUDIT_N,
    MAX_CARRY_RANGE,
    MAX_CATALOG_N,
    MAX_RING_N,
    main,
    run_audit,
)
from mersexp.sbox import MAX_FIELD_N


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inverse_gold_text(capsys):
    code, out, _ = run(capsys, "inverse", "gold", "--r", "3", "--n", "7")
    assert code == 0
    assert "inverse: 113" in out and "0b1110001" in out


def test_inverse_kasami_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "inverse", "kasami", "--r", "3", "--n", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["inverse"] == {"dec": 78, "bits": "0b1001110"}
    assert doc["case_label"] == "KASAMI_GCD1_E6K5"
    # byte-identical re-serialization
    assert json.dumps(doc, indent=2, sort_keys=False) + "\n" == out


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(
        capsys, "inverse", "kasami", "--r", "3", "--n", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["inverse"]["dec"] == 78


def test_inverse_raw_oracle(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "inverse", "raw", "--l", "1", "--n", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["inverse"]["dec"] == 1
    assert doc["case_label"] is None


def test_inverse_bl_infers_n(capsys):
    code, out, _ = run(capsys, "inverse", "bl", "--r", "1")
    assert code == 0
    assert "inverse: 13" in out


def test_numeric_bases_accepted(capsys):
    code_hex, out_hex, _ = run(
        capsys, "inverse", "gold", "--r", "0x3", "--n", "0b111"
    )
    assert code_hex == 0 and "inverse: 113" in out_hex


def test_determinism(capsys):
    first = run(capsys, "--format", "json", "catalog", "--n", "12")
    second = run(capsys, "--format", "json", "catalog", "--n", "12")
    assert first == second


def test_carry_family_and_terms_agree(capsys):
    code1, out1, _ = run(
        capsys, "--format", "json", "carry", "kasami3", "--a", "78",
        "--s", "1", "--n", "7",
    )
    code2, out2, _ = run(
        capsys, "--format", "json", "carry", "6:1,3:-1,0:1", "--a", "78",
        "--s", "1", "--n", "7",
    )
    assert code1 == code2 == 0
    c1, c2 = json.loads(out1), json.loads(out2)
    assert c1["result"]["carries"] == c2["result"]["carries"]
    assert c1["result"]["weight"] == 3
    assert c1["result"]["constraint_checks"] == {
        "pair_bound_ok": True,
        "half_weight_ok": True,
        "weight_identity": True,
    }
    # term-list spec has no family parameter, so no matrix view
    assert c2["result"]["carry_matrix"] is None


def test_carry_gold_worked_example(capsys):
    code, out, _ = run(
        capsys, "carry", "gold3", "--a", "113", "--s", "1", "--n", "7"
    )
    assert code == 0
    assert "1 1 1 1 1 1 1" in out


def test_carry_identity_all_zero(capsys):
    code, out, _ = run(
        capsys, "carry", "raw1", "--a", "5", "--s", "5", "--n", "4"
    )
    assert code == 0
    assert "0 0 0 0" in out


def test_exit_not_invertible(capsys):
    code, _, err = run(capsys, "inverse", "gold", "--r", "1", "--n", "4")
    assert code == EXIT_NOT_INVERTIBLE
    assert "not invertible" in err
    # n = 2 is a ring (2^1 + 1 = 3 is its 0), not a bad parameter
    code, _, err = run(capsys, "inverse", "gold", "--r", "1", "--n", "2")
    assert code == EXIT_NOT_INVERTIBLE
    assert "not invertible" in err
    code, _, _ = run(capsys, "inverse", "raw", "--l", "3", "--n", "4")
    assert code == EXIT_NOT_INVERTIBLE


def test_exit_bad_params(capsys):
    code, _, _ = run(capsys, "inverse", "kasami", "--r", "0", "--n", "7")
    assert code == EXIT_BAD_PARAMS
    code, _, _ = run(capsys, "inverse", "kasami", "--r", "7")  # missing --n
    assert code == EXIT_BAD_PARAMS
    code, _, _ = run(capsys, "analyze", "--l", "3", "--n", "30")
    assert code == EXIT_BAD_PARAMS
    code, _, _ = run(capsys, "inverse", "bl", "--r", "3", "--n", "13")
    assert code == EXIT_BAD_PARAMS
    # argparse usage errors are remapped from 2 to the parameter code
    code, _, _ = run(capsys, "inverse", "gold", "--r", "x", "--n", "7")
    assert code == EXIT_BAD_PARAMS
    code, _, _ = run(capsys, "nonsense")
    assert code == EXIT_BAD_PARAMS


def test_raw_inverse_rejects_small_ring(capsys):
    for n in ("1", "0", "-3"):
        code, out, err = run(capsys, "inverse", "raw", "--l", "3", "--n", n)
        assert code == EXIT_BAD_PARAMS and out == ""
        assert f"ring parameter must be >= 2, got {n}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--r", "0"], "parameter must be odd and positive, got 0"),
        (["--r", "-3"], "parameter must be odd and positive, got -3"),
        (
            ["--r", "4", "--n", "16"],
            "parameter must be odd and positive, got 4",
        ),
        (
            ["--r", "2", "--n", "9"],
            "bracken-leander fixes n = 4r = 8, got n=9",
        ),
        # the n = 4r refusal comes before the ring-size limit
        (
            ["--r", "3", "--n", "2000000"],
            "bracken-leander fixes n = 4r = 12, got n=2000000",
        ),
        # and the ring-size limit before the odd-r refusal
        (
            ["--r", "300000"],
            "n=1200000 exceeds the ring-size limit n <= 1048576",
        ),
    ],
)
def test_bl_refusals(capsys, argv, message):
    code, out, err = run(capsys, "inverse", "bl", *argv)
    assert code == EXIT_BAD_PARAMS and out == ""
    assert err == f"bad parameters: {message}\n"


def test_exit_congruence_failure(capsys):
    code, _, err = run(
        capsys, "carry", "raw3", "--a", "5", "--s", "2", "--n", "4"
    )
    assert code == EXIT_CONGRUENCE
    assert "congruence" in err


def test_carry_rejects_repeated_exponent(capsys):
    # 2 * 3 = 6 holds, but '0:1,0:1' must not be read as l = 1
    code, out, err = run(
        capsys, "carry", "0:1,0:1", "--a", "3", "--s", "6", "--n", "5"
    )
    assert code == EXIT_BAD_PARAMS and out == ""
    assert "exponent 0 appears twice" in err
    code, _, err = run(
        capsys, "carry", "3:1,0:1,3:-1", "--a", "1", "--s", "9", "--n", "5"
    )
    assert code == EXIT_BAD_PARAMS and "exponent 3 appears twice" in err
    code, _, _ = run(capsys, "carry", "0:2", "--a", "3", "--s", "6", "--n", "5")
    assert code == 0


TOO_BIG = str(MAX_RING_N + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["inverse", "gold", "--r", "1", "--n", TOO_BIG],
        ["inverse", "kasami", "--r", "1", "--n", TOO_BIG],
        ["inverse", "raw", "--l", "3", "--n", TOO_BIG],
        ["inverse", "bl", "--r", str(MAX_RING_N // 4 + 1)],  # n = 4r
        ["carry", "gold1", "--a", "1", "--s", "3", "--n", TOO_BIG],
    ],
)
def test_ring_size_limit(capsys, argv):
    assert MAX_RING_N == 1 << 20
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_PARAMS and out == ""
    assert f"ring-size limit n <= {MAX_RING_N}" in err
    assert peak < 1 << 20  # refused before any n-sized allocation


@pytest.mark.parametrize(
    "spec, message",
    [
        ("99999999999:1", "exceeds the term-exponent limit exponent <= "),
        ("kasami99999999999", "exceeds the family-parameter limit r <= "),
    ],
    ids=["term-exponent", "kasami-r"],
)
def test_carry_exponent_limit(capsys, spec, message):
    # refused before the form builds 2^exponent, which raised MemoryError
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "carry", spec, "--a", "1", "--s", "1", "--n", "8"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_PARAMS and out == ""
    assert f"=99999999999 {message}{MAX_RING_N}" in err
    assert peak < 1 << 20


def _decimal(value):
    """str(value) past the interpreter's 4,300-digit cap."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize(
    "spec",
    [
        "0:1,5:" + "7" * 4000,  # a 4,000-digit coefficient
        "0:0x" + "f" * 8000,  # hex escapes the 4,300-digit int() limit
        f"0:{MAX_CARRY_RANGE // 2 + 1},3:-{MAX_CARRY_RANGE // 2}",
        "0:70000",
        # raw's terms are l's bits: the carry range of '0:70000'
        "raw" + _decimal(2**70000 - 1),
    ],
    ids=[
        "decimal-4000-digits",
        "hex-8000-digits",
        "one-past-the-limit",
        "term-70000",
        "raw-70000-bits",
    ],
)
def test_carry_coefficient_limit(capsys, spec):
    # refused before any form is built: the solver's lanes grow with the
    # coefficients, and a 4,000-digit one took seconds and 200 MB at n = 20,000
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "carry", spec, "--a", "1", "--s", "1", "--n", "20000"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_PARAMS and out == ""
    assert f"exceeds the carry-range limit t+ - t- <= {MAX_CARRY_RANGE}" in err
    assert peak < 1 << 20


def test_carry_raw_terms_in_linear_time(capsys):
    # one set bit in 400,001: raw's terms come from one pass over the
    # bits, where a shift per bit took 5.4 s
    spec = "raw" + _decimal(2**400000)
    start = time.perf_counter()
    code, out, _ = run(capsys, "carry", spec, "--a", "1", "--s", "1", "--n", "8")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "weight: 0" in out


def test_carry_range_at_the_limit_is_accepted(capsys):
    assert MAX_CARRY_RANGE == 1 << 16
    half = MAX_CARRY_RANGE // 2
    l = half + (half << 1)  # terms 0:half and 1:half span the whole range
    code, out, _ = run(
        capsys, "--format", "json", "carry", f"0:{half},1:{half}",
        "--a", "1", "--s", str(l % 255), "--n", "8",
    )
    assert code == 0
    assert json.loads(out)["result"]["weight"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog", "--n", "4097"], "n=4097 exceeds the catalog limit n <= 4096"),
        (["catalog", "--n", "1000000000"], "catalog limit n <= 4096"),
        (
            ["audit", "--n-min", "2", "--n-max", "257"],
            "n-max=257 exceeds the audit limit n-max <= 256",
        ),
    ],
    ids=["catalog-4097", "catalog-10^9", "audit-257"],
)
def test_catalog_and_audit_limits(capsys, monkeypatch, argv, message):
    import mersexp.cli as cli_mod

    assert (MAX_CATALOG_N, MAX_AUDIT_N) == (4096, 256)

    def no_work(*args):
        raise AssertionError("work started past the limit")

    monkeypatch.setattr(cli_mod, "catalog_lookup", no_work)
    monkeypatch.setattr(cli_mod, "run_audit", no_work)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_PARAMS and out == ""
    assert message in err


def test_audit_at_its_limit(capsys):
    n = str(MAX_AUDIT_N)
    code, out, _ = run(capsys, "--quiet", "audit", "--n-min", n, "--n-max", n)
    assert code == 0
    assert "0 failed" in out


def test_audit_ok(capsys):
    code, out, _ = run(capsys, "--quiet", "audit", "--n-min", "2", "--n-max", "12")
    assert code == 0
    assert "0 failed" in out


def test_audit_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "audit", "--n-min", "4", "--n-max", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failed"] == 0
    assert doc["result"]["checked"] == doc["result"]["passed"] > 0


def test_audit_vacuous_small_range(capsys):
    code, out, _ = run(capsys, "audit", "--n-min", "2", "--n-max", "2")
    assert code == 0
    assert "0 failed" in out


def test_audit_mismatch_exit_code(capsys, monkeypatch):
    import mersexp.cli as cli_mod

    def broken_oracle(l, n):
        return Residue(n, 1)

    monkeypatch.setattr(cli_mod, "ext_euclid_inverse", broken_oracle)
    code, out, _ = run(capsys, "audit", "--n-min", "4", "--n-max", "5")
    assert code == EXIT_AUDIT_MISMATCH
    assert "MISMATCH" in out


def test_audit_reports_a_broken_certificate(capsys, monkeypatch):
    # a closed form that fails its own check is a failure the sweep
    # records and goes past, not a traceback
    import mersexp.closed_form as closed_form_mod

    checked = run_audit(4, 8)["checked"]
    ndeven_rows = closed_form_mod._ndeven_rows

    def broken_rows(m, e, d):
        flat = ndeven_rows(m, e, d)  # the head row is flat[:m]
        return flat[: m - 1] + bytes([1 - flat[m - 1]]) + flat[m:]

    monkeypatch.setattr(closed_form_mod, "_ndeven_rows", broken_rows)
    fault = (
        "internal consistency failure: KASAMI_NDEVEN_6K2 at r=2, n=4 "
        "does not invert its exponent"
    )
    code, out, _ = run(capsys, "audit", "--n-min", "4", "--n-max", "8")
    assert code == EXIT_AUDIT_MISMATCH
    assert f"MISMATCH kasami r=2 n=4 certificate: got {fault}" in out
    code, out, _ = run(
        capsys, "--format", "json", "audit", "--n-min", "4", "--n-max", "8"
    )
    assert code == EXIT_AUDIT_MISMATCH
    res = json.loads(out)["result"]
    assert res["checked"] == checked and res["failed"] == len(res["failures"])
    assert res["passed"] == checked - res["failed"] > 0
    assert {
        "family": "kasami",
        "r": 2,
        "n": 4,
        "got": fault,
        "expected": None,
        "kind": "certificate",
    } in res["failures"]
    assert all(f["kind"] == "certificate" for f in res["failures"])


def test_carry_solve_refuses_a_kasami_row_with_its_first_bit_cleared(
    capsys, monkeypatch
):
    # the t = 1 (mod 6) row of _gcd1_rows sets its first bit over the
    # blocks' 0 with no guard of its own: the certificate's carry solve
    # is what refuses the row when that bit is lost
    import mersexp.closed_form as closed_form_mod
    from mersexp import kasami_inverse

    gcd1_rows = closed_form_mod._gcd1_rows

    def cleared_rows(m, e, d):
        row = gcd1_rows(m, e, d)
        if e % 6 == 3 and m % e % 6 == 1:
            assert row[0] == 1
            row = b"\0" + row[1:]
        return row

    monkeypatch.setattr(closed_form_mod, "_gcd1_rows", cleared_rows)
    fault = (
        "internal consistency failure: KASAMI_GCD1_E6K3_T6U1_REFLECTED "
        "at r=2, n=7 does not invert its exponent"
    )
    with pytest.raises(RuntimeError) as caught:
        kasami_inverse(2, 7)
    assert str(caught.value) == fault
    code, out, _ = run(
        capsys, "--format", "json", "audit", "--n-min", "7", "--n-max", "7"
    )
    assert code == EXIT_AUDIT_MISMATCH
    failures = json.loads(out)["result"]["failures"]
    assert {
        "family": "kasami",
        "r": 2,
        "n": 7,
        "got": fault,
        "expected": None,
        "kind": "certificate",
    } in failures


def test_audit_reports_a_non_bit_row_as_a_certificate_fault(
    capsys, monkeypatch
):
    # a builder row with a byte other than 0 or 1 is the closed form's
    # failure, labelled, not a bad parameter of the command
    import mersexp.closed_form as closed_form_mod

    ndeven_rows = closed_form_mod._ndeven_rows

    def non_bit_rows(m, e, d):
        flat = ndeven_rows(m, e, d)
        return b"\x02" + flat[1:]

    monkeypatch.setattr(closed_form_mod, "_ndeven_rows", non_bit_rows)
    code, out, _ = run(
        capsys, "--format", "json", "audit", "--n-min", "4", "--n-max", "8"
    )
    assert code == EXIT_AUDIT_MISMATCH
    res = json.loads(out)["result"]
    assert {
        "family": "kasami",
        "r": 2,
        "n": 4,
        "got": "internal consistency failure: KASAMI_NDEVEN_6K2 at r=2, "
        "n=4 does not invert its exponent",
        "expected": None,
        "kind": "certificate",
    } in res["failures"]
    assert all(f["kind"] == "certificate" for f in res["failures"])


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", "--l", "57", "--n", "7")
    assert code == 0
    assert "uniformity: 2" in out
    assert "degree:     4" in out
    code, out, _ = run(
        capsys, "--format", "json", "analyze", "--l", "78", "--n", "7"
    )
    doc = json.loads(out)
    assert doc["result"]["uniformity"] == 2
    assert doc["result"]["degree"] == 4
    assert doc["result"]["apn"] is True


def test_analyze_linear(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "analyze", "--l", "1", "--n", "4"
    )
    doc = json.loads(out)
    assert doc["result"]["uniformity"] == 16
    assert doc["result"]["degree"] == 1


@pytest.mark.parametrize("l, n", [(31, 5), (7, 3)])
def test_analyze_all_ones_exponent_has_degree_n(capsys, l, n):
    # x^(2^n - 1) is 1 on every nonzero x and 0 at 0: degree n, not the
    # weight 0 of its residue
    code, out, _ = run(capsys, "analyze", "--l", str(l), "--n", str(n))
    assert code == 0
    assert f"degree:     {n}\n" in out
    assert "canonical:  0 " in out


def _digit_cap():
    """The interpreter's int/str digit cap; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _uncapped_str(value):
    """str(value) past the digit cap, which is left as it was."""
    cap = _digit_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def test_decimal_output_past_the_default_digit_cap(capsys):
    # a 15,001-bit residue has 4,516 decimal digits, over the default
    # cap of 4,300; main lifts the cap for its own call only
    n, cap = 15001, _digit_cap()
    code, out, err = run(
        capsys, "--format", "json", "inverse", "kasami", "--r", "1",
        "--n", str(n),
    )
    assert (code, err) == (0, "")
    assert _digit_cap() == cap
    inverse = json.loads(out, parse_int=str)["result"]["inverse"]
    expected = pow(3, -1, 2**n - 1)  # kasami(1) = 2^2 - 2^1 + 1
    assert int(inverse["bits"], 2) == expected
    assert inverse["dec"] == _uncapped_str(expected)
    code, out, _ = run(capsys, "inverse", "raw", "--l", "3", "--n", str(n))
    assert code == 0 and f"inverse: {_uncapped_str(expected)}  (" in out


def test_carry_json_past_the_default_digit_cap(capsys):
    n, cap = 15001, _digit_cap()
    a = (1 << (n - 1)) // 7
    s = 3 * a % (2**n - 1)
    code, out, err = run(
        capsys, "--format", "json", "carry", "gold1", "--a", hex(a),
        "--s", hex(s), "--n", str(n),
    )
    assert (code, err) == (0, "")
    assert _digit_cap() == cap
    inputs = json.loads(out, parse_int=str)["inputs"]
    assert inputs["a"] == _uncapped_str(a) and inputs["s"] == _uncapped_str(s)


def test_reader_closing_the_pipe_early_gets_no_traceback():
    # `mersexp ... | head -c 10`: the JSON document (about 470 KB) is far
    # larger than a pipe's buffer, so the print meets the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = ["--format", "json", "inverse", "gold", "--r", "5", "--n", "20001"]
    with subprocess.Popen(
        [sys.executable, "-m", "mersexp.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Error" not in err, err


def test_catalog_text(capsys):
    code, out, _ = run(capsys, "catalog", "--n", "7")
    assert code == 0
    for token in ("gold(1)", "kasami(3)", "exponent 11", "exponent 63"):
        assert token in out
    code, out, _ = run(capsys, "catalog", "--n", "12")
    assert "exponent 73" in out and "inverse 2917" in out


def test_quiet_omits_matrices(capsys):
    _, loud, _ = run(capsys, "inverse", "gold", "--r", "2", "--n", "6")
    _, quiet, _ = run(capsys, "--quiet", "inverse", "gold", "--r", "2", "--n", "6")
    assert "r-matrix" in loud and "r-matrix" not in quiet
    assert "inverse: 38" in quiet


def test_run_audit_counts():
    summary = run_audit(2, 10)
    assert summary["failed"] == 0
    assert summary["checked"] == summary["passed"]
    # gold r=1 n=3 and kasami r=2 n=5 are certainly inside the range
    assert summary["checked"] >= 20


def _number(limit):
    """Command-line text for a number that is small or refused: tiny,
    negative, one past the slot's limit or far past it, written in
    decimal, hex or binary; or text that is no number at all."""
    value = st.one_of(
        st.integers(-3, 8), st.sampled_from((limit + 1, 1 << 64, -(1 << 70)))
    )
    written = st.tuples(value, st.sampled_from((str, hex, bin))).map(
        lambda pair: pair[1](pair[0])
    )
    junk = st.sampled_from(
        ("", "x", "1.5", "0x", "0b2", "1e3", "--", " 7", "\u0663")
    )
    return st.integers(0, 3).flatmap(lambda i: written if i else junk)


def _options(**slots):
    """'--name value' words for the given slots, each one left out one
    time in four."""

    def option(name, number):
        pair = st.tuples(st.just(f"--{name}"), number).map(list)
        return st.integers(0, 3).flatmap(lambda i: pair if i else st.just([]))

    chosen = st.tuples(*(option(*slot) for slot in slots.items()))
    return chosen.map(lambda pairs: [word for pair in pairs for word in pair])


def _spec():
    """carry's exponent argument: a family shorthand or a term list."""
    shorthand = st.tuples(
        st.sampled_from(("gold", "kasami", "bl", "raw")), _number(MAX_RING_N)
    ).map("".join)
    terms = st.lists(
        st.tuples(_number(MAX_RING_N), _number(MAX_CARRY_RANGE)).map(":".join),
        min_size=1,
        max_size=3,
    ).map(",".join)
    return st.one_of(shorthand, terms, _number(MAX_RING_N))


# the argv grammar of each subcommand; every number slot is drawn against
# the limit it is checked against (a gold/kasami r is reduced mod n, and
# bracken-leander has n = 4r)
_ARGV = st.one_of(
    st.tuples(
        st.just(["inverse"]),
        st.sampled_from((["gold"], ["kasami"], ["raw"])),
        _options(
            r=_number(MAX_RING_N), l=_number(MAX_RING_N), n=_number(MAX_RING_N)
        ),
    ),
    st.tuples(
        st.just(["inverse", "bl"]),
        _options(r=_number(MAX_RING_N // 4), n=_number(MAX_RING_N)),
    ),
    st.tuples(
        st.just(["carry"]),
        _spec().map(lambda spec: [spec]),
        _options(
            a=_number(MAX_RING_N), s=_number(MAX_RING_N), n=_number(MAX_RING_N)
        ),
    ),
    st.tuples(
        st.just(["audit"]),
        _options(
            **{"n-min": _number(MAX_AUDIT_N), "n-max": _number(MAX_AUDIT_N)}
        ),
    ),
    st.tuples(
        st.just(["analyze"]),
        _options(l=_number(MAX_RING_N), n=_number(MAX_FIELD_N)),
    ),
    st.tuples(st.just(["catalog"]), _options(n=_number(MAX_CATALOG_N))),
).map(lambda parts: [word for part in parts for word in part])


@settings(max_examples=100, deadline=None)
@given(_ARGV, st.sampled_from(([], ["--format", "json"], ["--quiet"])))
def test_hostile_argv_fails_cleanly(argv, flags):
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*flags, *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (
        0, EXIT_NOT_INVERTIBLE, EXIT_BAD_PARAMS, EXIT_CONGRUENCE, EXIT_AUDIT_MISMATCH
    )
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_NOT_INVERTIBLE, EXIT_BAD_PARAMS):
        assert peak < 1 << 20, argv  # refused before any big allocation
