"""Command-line front end.

Subcommands: inverse, carry, audit, analyze, catalog.  Output is
deterministic text or JSON (--format json); JSON documents have a fixed
field order and render residues as decimal plus an MSB-first bit
string, so byte-identical round-trips hold.

Exit codes: 0 success, 2 not invertible, 3 bad parameters, 4 the
carry congruence fails, 5 an audit sweep found a discrepancy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import log10

from .carry import (
    CongruenceError,
    SignedPowerForm,
    canonical_form,
    carry_constraints_check,
    signed_form,
    solve_carries,
)
from .closed_form import (
    bl_inverse,
    gold_inverse,
    gold_invertible,
    kasami_inverse,
    kasami_invertible,
)
from .orderings import matrix_of_sequence
from .residues import (
    ExponentFamily,
    NotInvertibleError,
    Residue,
    binary_weight,
    cyclotomic_canonical,
    ext_euclid_inverse,
    family_exponent,
    is_invertible,
    to_bits,
)
from .sbox import FieldContext, catalog_lookup, differential_uniformity

__all__ = ["main", "entry", "run_audit"]

EXIT_OK = 0
EXIT_NOT_INVERTIBLE = 2
EXIT_BAD_PARAMS = 3
EXIT_CONGRUENCE = 4
EXIT_AUDIT_MISMATCH = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command cut off by `| head`

# inverse and carry refuse larger rings before allocating anything;
# catalog (a closed form per row, about n^2 work) and audit (every
# instance up to n-max, about n^3) refuse larger n before any work;
# carry refuses a term list or raw exponent whose carries span more
# values than MAX_CARRY_RANGE, which keeps the solver's lanes within
# three bytes
MAX_RING_N = 1 << 20
MAX_CARRY_RANGE = 1 << 16
MAX_CATALOG_N = 4096
MAX_AUDIT_N = 256
# decimal digits of a MAX_RING_N-bit value, which inverse and carry read
# and write; above the interpreter's default cap of 4,300 digits
_MAX_DIGITS = int(MAX_RING_N * log10(2)) + 1

# the command line's families in help order: kind, least n, the (r, n)
# its closed form covers and constructor (None for raw: extended Euclid);
# each constructor looks its function up in this module when called, so
# a wrapper bound to that name here is the one that runs
_FAMILIES = {
    "gold": ("gold", 2, gold_invertible, lambda r, n: gold_inverse(r, n)),
    "kasami": (
        "kasami", 4, kasami_invertible, lambda r, n: kasami_inverse(r, n)
    ),
    "bl": (
        "bracken_leander",
        4,
        lambda r, n: n == 4 * r and r % 2 == 1,
        lambda r, n: bl_inverse(r),
    ),
    "raw": ("raw", None, None, None),
}
_CONSTRUCTORS = {kind: make for kind, _, _, make in _FAMILIES.values() if make}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the bad-parameter code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_PARAMS)


def _int_arg(text: str) -> int:
    """Accept decimal, hex (0x...) and binary (0b...) integers."""
    try:
        return int(text, 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _residue_doc(value: int, n: int) -> dict[str, object]:
    return {"dec": value, "bits": f"0b{value:0{n}b}"}


def _rows_text(rows: tuple[tuple[int, ...], ...]) -> str:
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(
        "  " + " ".join(f"{v:>{width}}" for v in row) for row in rows
    )


def _check_limit(value: int, limit: int, what: str, name: str = "n") -> None:
    if value > limit:
        raise ValueError(
            f"{name}={value} exceeds the {what} limit {name} <= {limit}"
        )


def _check_carry_range(span: int) -> None:
    if span > MAX_CARRY_RANGE:  # span = t_+ - t_-
        raise ValueError(
            "the terms' carry range t+ - t- exceeds the carry-range "
            f"limit t+ - t- <= {MAX_CARRY_RANGE}"
        )


def _doc(
    command: str,
    inputs: dict[str, object],
    result: object,
    case_label: str | None = None,
    warnings: tuple[str, ...] = (),
) -> dict[str, object]:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "case_label": case_label,
        "warnings": list(warnings),
    }


def _parse_l_spec(
    spec: str,
) -> tuple[SignedPowerForm, ExponentFamily | None, str]:
    """Parse an exponent spec for the carry command.

    Accepts family shorthands gold<r>, kasami<r>, bl<r>, raw<l>, or an
    explicit signed term list like '6:1,3:-1,0:1' (exponent:coefficient
    pairs).  Returns (form, family-or-None, echo string).  A term exponent
    or a gold/kasami/bl r above MAX_RING_N is refused before 2^it is built,
    and a term list or raw l with t_+ - t_- above MAX_CARRY_RANGE before
    any form.
    """
    spec = spec.strip().lower()
    for prefix, (kind, *_) in _FAMILIES.items():
        if spec.startswith(prefix) and spec[len(prefix) :].isdigit():
            param = int(spec[len(prefix) :])
            if kind == "raw":  # raw's parameter is l itself, its terms l's bits
                _check_carry_range(param.bit_count())
            else:
                _check_limit(param, MAX_RING_N, "family-parameter", "r")
            fam = ExponentFamily(kind, param)
            return canonical_form(fam), fam, spec
    if ":" in spec:
        terms: dict[int, int] = {}
        for part in spec.split(","):
            j_text, _, t_text = part.partition(":")
            j, t = int(j_text, 0), int(t_text, 0)
            _check_limit(j, MAX_RING_N, "term-exponent", "exponent")
            if j in terms:
                raise ValueError(f"exponent {j} appears twice in {spec!r}")
            terms[j] = t
        _check_carry_range(sum(map(abs, terms.values())))
        return signed_form(terms), None, spec
    raise ValueError(
        f"cannot parse exponent spec {spec!r}; use e.g. kasami3, raw5 "
        "or '6:1,3:-1,0:1'"
    )


def run_audit(n_min: int, n_max: int) -> dict[str, object]:
    """Closed forms vs the extended-Euclid oracle over a range of n.

    Sweeps every invertible gold/kasami instance with 1 <= r < n (n >= 2
    for gold, n >= 4 for kasami) and every bracken-leander instance with
    4r in range, checking the value against the oracle.  A closed form
    that fails its own certificate (RuntimeError) is recorded as a
    "certificate" failure with its message, and the sweep goes on.
    """
    checked = 0
    failures: list[dict[str, object]] = []
    for family, (kind, n_least, has_closed_form, make) in _FAMILIES.items():
        if make is None:
            continue
        for n in range(max(n_least, n_min), n_max + 1):
            for r in range(1, n):
                if not has_closed_form(r, n):
                    continue
                checked += 1
                exponent = family_exponent(ExponentFamily(kind, r), n).value
                expected = ext_euclid_inverse(exponent, n).value
                try:
                    got, what = make(r, n).inverse.value, "value"
                except RuntimeError as exc:
                    got, expected, what = str(exc), None, "certificate"
                if got != expected:
                    failures.append(
                        {
                            "family": family,
                            "r": r,
                            "n": n,
                            "got": got,
                            "expected": expected,
                            "kind": what,
                        }
                    )
    return {
        "checked": checked,
        "passed": checked - len(failures),
        "failed": len(failures),
        "failures": failures,
    }


def _cmd_inverse(args: argparse.Namespace) -> dict[str, object]:
    family = args.family
    kind, _, _, make = _FAMILIES[family]
    if make is None:
        if args.l is None:
            raise ValueError("raw needs --l")
        if args.n is None:
            raise ValueError("raw needs --n")
        _check_limit(args.n, MAX_RING_N, "ring-size")
        inv = ext_euclid_inverse(args.l, args.n)
        result = {
            "inverse": _residue_doc(inv.value, args.n),
            "weight": binary_weight(inv),
            "r_matrix": None,
            "carry_matrix": None,
        }
        inputs = {"family": "raw", "l": args.l, "n": args.n}
        return _doc("inverse", inputs, result)
    if args.r is None:
        raise ValueError(f"{family} needs --r")
    n = args.n
    if kind == "bracken_leander":
        if n is not None and n != 4 * args.r:
            raise ValueError(
                f"bracken-leander fixes n = 4r = {4 * args.r}, got n={n}"
            )
        n = 4 * args.r
    elif n is None:
        raise ValueError(f"{family} needs --n")
    _check_limit(n, MAX_RING_N, "ring-size")
    res = make(args.r, n)
    result = {
        "inverse": _residue_doc(res.inverse.value, n),
        "weight": res.weight,
        "r_matrix": res.r_matrix.entries,  # JSON writes tuples as lists
        "carry_matrix": res.carry_matrix.entries,
    }
    inputs = {"family": family, "r": args.r, "n": n}
    return _doc("inverse", inputs, result, res.case_label, res.warnings)


def _cmd_carry(args: argparse.Namespace) -> dict[str, object]:
    n = args.n
    _check_limit(n, MAX_RING_N, "ring-size")
    form, fam, echo = _parse_l_spec(args.l_spec)
    a = to_bits(Residue(n, args.a))
    s = to_bits(Residue(n, args.s))
    carries = solve_carries(form, a, s)
    result: dict[str, object] = {
        "carries": list(reversed(carries.carries)),
        "weight": carries.weight(),
        "carry_matrix": None,
        "constraint_checks": None,
    }
    if fam is not None and fam.kind != "raw":
        r = fam.param
        result["carry_matrix"] = matrix_of_sequence(carries.word, n, r).entries
        if fam.kind == "kasami":
            report = carry_constraints_check(carries, form, r, a, s)
            result["constraint_checks"] = {
                "pair_bound_ok": report.pair_bound_ok,
                "half_weight_ok": report.half_weight_ok,
                "weight_identity": report.weight_identity,
            }
    inputs = {"l": echo, "a": args.a, "s": args.s, "n": n}
    return _doc("carry", inputs, result)


def _cmd_audit(args: argparse.Namespace) -> dict[str, object]:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError("need 2 <= n-min <= n-max")
    _check_limit(args.n_max, MAX_AUDIT_N, "audit", "n-max")
    summary = run_audit(args.n_min, args.n_max)
    return _doc("audit", {"n_min": args.n_min, "n_max": args.n_max}, summary)


def _cmd_analyze(args: argparse.Namespace) -> dict[str, object]:
    ctx = FieldContext(args.n)
    uniformity = differential_uniformity(args.l, ctx)
    x = Residue(args.n, args.l % ((1 << args.n) - 1))
    result = {
        "uniformity": uniformity,
        "apn": uniformity == 2,
        # the uniformity check keeps l in [1, 2^n - 1], where x^l has
        # degree weight(l); x's residue maps 2^n - 1 (degree n) to 0
        "degree": args.l.bit_count(),
        "invertible": is_invertible(args.l, args.n),
        "canonical": _residue_doc(cyclotomic_canonical(x).value, args.n),
    }
    return _doc("analyze", {"l": args.l, "n": args.n}, result)


def _cmd_catalog(args: argparse.Namespace) -> dict[str, object]:
    _check_limit(args.n, MAX_CATALOG_N, "catalog")
    entries = []
    for entry in catalog_lookup(args.n):
        fam = entry.family
        inverse_doc = None
        if entry.invertible and fam.kind in _CONSTRUCTORS:
            inverse = _CONSTRUCTORS[fam.kind](fam.param, args.n).inverse
            inverse_doc = _residue_doc(inverse.value, args.n)
        entries.append(
            {
                "family": fam.kind,
                "param": fam.param,
                "exponent": _residue_doc(entry.exponent.value, args.n),
                "claimed_degree": entry.claimed_degree,
                "claimed_uniformity": entry.claimed_uniformity,
                "source_table": entry.source_table,
                "invertible": entry.invertible,
                "inverse": inverse_doc,
            }
        )
    return _doc("catalog", {"n": args.n}, {"entries": entries})


def _render_text(doc: dict[str, object], quiet: bool) -> str:
    cmd = doc["command"]
    lines: list[str] = []
    res = doc["result"]
    if cmd == "inverse":
        inv = res["inverse"]
        lines.append(f"inverse: {inv['dec']}  ({inv['bits']})")
        lines.append(f"weight:  {res['weight']}")
        if doc["case_label"]:
            lines.append(f"case:    {doc['case_label']}")
        if not quiet and res["r_matrix"] is not None:
            lines.append("r-matrix of the inverse:")
            lines.append(_rows_text(res["r_matrix"]))
            lines.append("r-matrix of the carry word:")
            lines.append(_rows_text(res["carry_matrix"]))
    elif cmd == "carry":
        lines.append(
            "carries (c[n-1] .. c[0]): "
            + " ".join(str(c) for c in res["carries"])
        )
        lines.append(f"weight: {res['weight']}")
        if not quiet and res["carry_matrix"] is not None:
            lines.append("r-matrix view:")
            lines.append(_rows_text(res["carry_matrix"]))
        if res["constraint_checks"] is not None:
            checks = res["constraint_checks"]
            lines.append(
                "constraints: pair bound "
                + ("ok" if checks["pair_bound_ok"] else "VIOLATED")
                + ", half-weight "
                + ("ok" if checks["half_weight_ok"] else "VIOLATED")
                + ", weight identity "
                + ("ok" if checks["weight_identity"] else "VIOLATED")
            )
    elif cmd == "audit":
        if not quiet and res["failures"]:
            for f in res["failures"]:
                lines.append(
                    f"MISMATCH {f['family']} r={f['r']} n={f['n']} "
                    f"{f['kind']}: got {f['got']}, expected {f['expected']}"
                )
        lines.append(
            f"audit: {res['checked']} checked, {res['passed']} passed, "
            f"{res['failed']} failed"
        )
    elif cmd == "analyze":
        lines.append(f"uniformity: {res['uniformity']}")
        lines.append(f"apn:        {'yes' if res['apn'] else 'no'}")
        lines.append(f"degree:     {res['degree']}")
        lines.append(f"invertible: {'yes' if res['invertible'] else 'no'}")
        lines.append(
            f"canonical:  {res['canonical']['dec']}  "
            f"({res['canonical']['bits']})"
        )
    else:  # catalog
        for e in res["entries"]:
            inv = (
                str(e["inverse"]["dec"]) if e["inverse"] is not None else "-"
            )
            param = f"({e['param']})" if e["family"] != "inverse" else ""
            lines.append(
                f"table {e['source_table']}  {e['family']}{param}: "
                f"exponent {e['exponent']['dec']}, degree "
                f"{e['claimed_degree']}, uniformity "
                f"{e['claimed_uniformity']}, "
                + (
                    f"invertible, inverse {inv}"
                    if e["invertible"]
                    else "not invertible"
                )
            )
    return "\n".join(lines)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mersexp",
        description=(
            "Closed-form inverses modulo 2^n - 1 for gold, kasami and "
            "bracken-leander exponents, carry certificates, and monomial "
            "S-box analysis over GF(2^n)."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="omit matrices and per-case detail in text output",
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed at the top level
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p_inv = command(
        "inverse", _cmd_inverse, "closed-form inverse of a family exponent"
    )
    p_inv.add_argument(
        "family", choices=tuple(_FAMILIES),
        help="exponent family; raw uses the extended-Euclid oracle",
    )
    p_inv.add_argument("--r", type=_int_arg, help="family parameter r")
    p_inv.add_argument("--l", type=_int_arg, help="raw exponent (family raw)")
    p_inv.add_argument("--n", type=_int_arg, help="ring parameter n")

    p_carry = command(
        "carry", _cmd_carry, "solve the add-with-carry recurrence for s = l*a"
    )
    p_carry.add_argument(
        "l_spec",
        help="exponent: gold3, kasami2, bl1, raw5, or terms '6:1,3:-1,0:1'",
    )
    p_carry.add_argument("--a", type=_int_arg, required=True)
    p_carry.add_argument("--s", type=_int_arg, required=True)
    p_carry.add_argument("--n", type=_int_arg, required=True)

    p_audit = command(
        "audit", _cmd_audit, "sweep closed forms against the inversion oracle"
    )
    p_audit.add_argument("--n-min", type=_int_arg, required=True)
    p_audit.add_argument("--n-max", type=_int_arg, required=True)

    p_an = command(
        "analyze",
        _cmd_analyze,
        "differential uniformity and degree of x^l on GF(2^n)",
    )
    p_an.add_argument("--l", type=_int_arg, required=True)
    p_an.add_argument("--n", type=_int_arg, required=True)

    p_cat = command(
        "catalog", _cmd_catalog, "known-exponent table rows instantiated at n"
    )
    p_cat.add_argument("--n", type=_int_arg, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    # raise the int <-> str digit cap for this call only; tests and
    # benchmarks call main in-process
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < cap < _MAX_DIGITS:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        return _main(argv)
    finally:
        if 0 < cap < _MAX_DIGITS:
            sys.set_int_max_str_digits(cap)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse funnels --help through SystemExit(0) as well
        return int(exc.code or 0)
    try:
        doc = args.func(args)
    except NotInvertibleError as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except CongruenceError as exc:
        print(f"congruence fails: {exc}", file=sys.stderr)
        return EXIT_CONGRUENCE
    except (ValueError, OverflowError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=False)
    else:
        text = _render_text(doc, args.quiet)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so
        # that the interpreter's flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    if doc["command"] == "audit" and doc["result"]["failed"] > 0:
        return EXIT_AUDIT_MISMATCH
    return EXIT_OK


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
