"""The three closed-loop workloads, one client each, and the CLI corpus.

A workload turns a seed into one *round*: a fixed list of operations.
The harness runs whole rounds, each operation starting when the
previous one returns, so every run attempts the same operations in the
same proportions whatever its length.  ``execute`` is the only part
that is timed; ``check`` hands the output to the independent checker.
The CLI corpus is built the same way but is no workload of its own: the
traced run of every workload times it for the ``cli`` layer.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import checker as ck

# n targets of certify-large: geometric from 1,000 to 16,000 for every
# kind of operation, each jittered by at most 1 % so that the seed
# changes the instance but hardly its cost.
LARGE_N_MIN, LARGE_N_MAX, JITTER = 1000, 16000, 0.01


def ladder(slot: int, slots: int) -> int:
    return round(LARGE_N_MIN * (LARGE_N_MAX / LARGE_N_MIN) ** (slot / (slots - 1)))


def near(rng: random.Random, target: int) -> int:
    return rng.randint(round(target * (1 - JITTER)), round(target * (1 + JITTER)))


def random_word(rng: random.Random, n: int) -> int:
    """A uniformly random residue; never the all-ones word."""
    return rng.randrange((1 << n) - 1)


def wide_terms(rng: random.Random, n: int, coeffs: tuple[int, ...]) -> dict[int, int]:
    """coeffs on distinct random exponents below n, the top one positive."""
    while True:
        exps = sorted(rng.sample(range(n), len(coeffs)))
        cs = list(coeffs)
        rng.shuffle(cs)
        if cs[-1] < 0:
            top = next(k for k, c in enumerate(cs) if c > 0)
            cs[top], cs[-1] = cs[-1], cs[top]
        terms = dict(zip(exps, cs))
        if ck.terms_value(terms) > 0:
            return terms


def query(rng: random.Random, n: int, terms: dict[int, int], holds: bool) -> tuple:
    """(terms, a, s, n) with s = l*a, or s = l*a with one middle bit flipped.

    The flipped bit sits within 5 % of the middle of the word, so
    refuting the query walks about half the carry chain before it breaks.
    """
    m = (1 << n) - 1
    a = random_word(rng, n)
    s = ck.terms_value(terms) * a % m
    if not holds:
        while True:
            flipped = s ^ (1 << rng.randrange(n * 45 // 100, n * 55 // 100))
            if flipped != m:
                s = flipped
                break
    return ("query", terms, a, s, n)


class Workload:
    """One round of operations; subclasses say how to run and check one."""

    name = ""
    needs_field_oracle = False
    warm_ops = 4

    def __init__(self, seed: int, api) -> None:
        self.api = api
        self.ops: list[tuple] = []

    def warm_up(self) -> None:
        for op in self.ops[: self.warm_ops]:
            self.execute(op)

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out, oracle) -> None:
        raise NotImplementedError

    def known_fault(self, op, message: str) -> bool:
        return False


class _InverseOps(Workload):
    """Shared by the two workloads that call the closed-form constructors."""

    def execute(self, op):
        kind = op[0]
        cf = self.api.closed_form
        if kind == "gold":
            return cf.gold_inverse(op[1], op[2])
        if kind == "kasami":
            return cf.kasami_inverse(op[1], op[2])
        if kind == "bl":
            return cf.bl_inverse(op[1])
        _, terms, a, s, n = op
        rs, carry = self.api.residues, self.api.carry
        form = carry.signed_form(terms)
        try:
            word = carry.verify_congruence(
                form, rs.to_bits(rs.Residue(n, a)), rs.to_bits(rs.Residue(n, s))
            )
        except carry.CongruenceError:
            return None
        return word.carries

    def check(self, op, out, oracle) -> None:
        if op[0] == "query":
            _, terms, a, s, n = op
            ck.check_query(terms, a, s, n, out)
            return
        kind, r, n = op
        ck.require(out.inverse.n == n, f"inverse lives in the ring of n={out.inverse.n}")
        ck.check_inverse(kind, r, n, out.inverse.value, out.weight,
                         out.r_matrix.entries, out.carry_matrix.entries)


class CertifyLarge(_InverseOps):
    """Certified inverses and congruence queries at n = 1,000 .. 16,000."""

    name = "certify-large"
    # kasami slots by the dispatch branch their (r, n) reaches
    KASAMI_SLOTS = ("gcd1", "nd3", "ndodd", "ndeven") * 6
    GOLD_SLOTS = 12
    BL_SLOTS = 12
    # query shapes: a family form, or the coefficients of a wider form;
    # each shape takes every sixth of the QUERY_SLOTS rungs of the ladder
    QUERY_SHAPES = ("gold", "kasami", "bl", (2, 1, -1), (2, 1, -1, 1, -2), (1, 1, 1, -1))
    QUERY_SLOTS = 24

    def __init__(self, seed: int, api) -> None:
        super().__init__(seed, api)
        rng = random.Random(f"certify-large/{seed}")
        slots = len(self.KASAMI_SLOTS)
        for slot, branch in enumerate(self.KASAMI_SLOTS):
            self.ops.append(("kasami", *self._kasami_instance(rng, branch, ladder(slot, slots))))
        for slot in range(self.GOLD_SLOTS):
            while True:
                n = near(rng, ladder(slot, self.GOLD_SLOTS))
                r = rng.randrange(1, n)
                if ck.invertible(ck.family_value("gold", r, n), n):
                    break
            self.ops.append(("gold", r, n))
        for slot in range(self.BL_SLOTS):
            r = near(rng, ladder(slot, self.BL_SLOTS) // 4) | 1
            self.ops.append(("bl", r, 4 * r))
        for slot in range(self.QUERY_SLOTS):
            shape = self.QUERY_SHAPES[slot % len(self.QUERY_SHAPES)]
            n = near(rng, ladder(slot, self.QUERY_SLOTS))
            if isinstance(shape, str):
                terms = ck.family_terms(shape, rng.randrange(1, n // 2))
            else:
                terms = wide_terms(rng, n, shape)
            self.ops.append(query(rng, n, terms, True))
            self.ops.append(query(rng, n, terms, False))

    @staticmethod
    def _kasami_instance(rng: random.Random, branch: str, target: int) -> tuple[int, int]:
        """Random invertible (r, n) near target whose dispatch takes branch.

        gcd1: d = 1, 3 does not divide n; nd3: d = 1, n an odd multiple
        of 3; ndodd: d in {5, 7, 11}, m = n/d odd and prime to 3;
        ndeven: d in {2, 4}, m even and prime to 3.
        """
        while True:
            if branch in ("gcd1", "nd3"):
                d, m = 1, near(rng, target)
                if m % 2 == 0 or (m % 3 == 0) != (branch == "nd3"):
                    continue
            else:
                d = rng.choice((5, 7, 11) if branch == "ndodd" else (2, 4))
                m = near(rng, target) // d
                if m % 3 == 0 or (m % 2 == 0) != (branch == "ndeven"):
                    continue
            n = d * m
            r = d * rng.randrange(1, m)
            if gcd(r, n) == d and ck.invertible(ck.family_value("kasami", r, n), n):
                return r, n


class SweepSmall(_InverseOps):
    """Every closed-form instance with n <= 128, in a seeded order."""

    name = "sweep-small"
    N_MAX = 128
    warm_ops = 200

    def __init__(self, seed: int, api) -> None:
        super().__init__(seed, api)
        for n in range(2, self.N_MAX + 1):
            for r in range(1, n):
                if ck.invertible(ck.family_value("gold", r, n), n):
                    self.ops.append(("gold", r, n))
        for n in range(4, self.N_MAX + 1):
            for r in range(1, n):
                if ck.invertible(ck.family_value("kasami", r, n), n):
                    self.ops.append(("kasami", r, n))
        for r in range(1, self.N_MAX // 4 + 1, 2):
            self.ops.append(("bl", r, 4 * r))
        random.Random(f"sweep-small/{seed}").shuffle(self.ops)


class FieldScan(Workload):
    """Catalog rows for n = 2 .. 12 plus a few non-APN exponents.

    A row operation looks the row up, scans the uniformity of its
    exponent and, for gold and kasami rows, builds the closed-form
    inverse, verifies it over the field and scans it too.  Rows the
    checker cannot pin by brute force or theorem (n > 8, neither gold
    nor the inverse exponent nor a row with an inverse) also scan the
    cyclotomic shift 2^i l, since delta(2^i l) = delta(l).
    """

    name = "field-scan"
    needs_field_oracle = True
    N_MAX = 12

    def __init__(self, seed: int, api) -> None:
        super().__init__(seed, api)
        rng = random.Random(f"field-scan/{seed}")
        sbox = api.sbox
        self.fields = list(range(2, self.N_MAX + 1))
        for n in self.fields:
            for idx, row in enumerate(sbox.catalog_lookup(n)):
                kind = row.family.kind
                if kind in ("gold", "kasami") and row.invertible:
                    mode = "inverse"
                elif n > ck.BRUTE_FORCE_MAX_N and kind not in ("gold", "inverse"):
                    mode = "shift"
                else:
                    mode = "plain"
                self.ops.append(("row", n, idx, rng.randrange(1, n), mode))
        # brute-forced random exponents at small n ...
        for n in range(4, ck.BRUTE_FORCE_MAX_N + 1):
            self.ops.append(("exp", n, rng.randrange(1, (1 << n) - 1)))
        # ... and gold-type exponents with gcd(k, n) >= 2, so delta >= 4
        for n in (9, 10, 12):
            k = rng.choice([k for k in range(1, n) if gcd(k, n) > 1])
            shift = rng.randrange(n)
            self.ops.append(("exp", n, (((1 << k) + 1) << shift) % ((1 << n) - 1)))

    def warm_up(self) -> None:
        """Build the field tables once per n, as a long-lived client would."""
        sbox = self.api.sbox
        for n in self.fields:
            sbox.power_map(1, sbox.FieldContext(n))

    def execute(self, op):
        sbox = self.api.sbox
        if op[0] == "exp":
            _, n, l = op
            return sbox.differential_uniformity(l, sbox.FieldContext(n))
        _, n, idx, shift, mode = op
        row = sbox.catalog_lookup(n)[idx]
        ctx = sbox.FieldContext(n)
        l = row.exponent.value
        delta = sbox.differential_uniformity(l, ctx)
        extra = None
        if mode == "inverse":
            cf = self.api.closed_form
            build = cf.gold_inverse if row.family.kind == "gold" else cf.kasami_inverse
            inv = build(row.family.param, n).inverse.value
            extra = (inv, sbox.verify_compositional_inverse(l, inv, ctx),
                     sbox.differential_uniformity(inv, ctx))
        elif mode == "shift":
            extra = sbox.differential_uniformity((l << shift) % ctx.order, ctx)
        return (row.family.kind, row.family.param, l, row.claimed_degree,
                row.claimed_uniformity, row.source_table, row.invertible, delta, extra)

    def check(self, op, out, oracle) -> None:
        if op[0] == "exp":
            _, n, l = op
            truth = oracle.exact(l, n)
            ck.require(truth is not None, f"no independent uniformity for {l} at n={n}")
            ck.require(out == truth, f"uniformity of {l} at n={n}: {out}, expected {truth}")
            return
        _, n, idx, shift, mode = op
        kind, param, l, degree, claimed, table, is_inv, delta, extra = out
        ck.check_catalog_entry(kind, param, n, l, degree, claimed, table, is_inv)
        truth = oracle.exact(l, n)
        if truth is not None:
            ck.require(delta == truth, f"{kind}({param}) at n={n}: uniformity {delta}, expected {truth}")
        ck.require(delta == claimed, f"{kind}({param}) at n={n}: uniformity {delta}, claimed {claimed}")
        if mode == "inverse":
            inv, composes, inv_delta = extra
            ck.require(inv == pow(l, -1, (1 << n) - 1), f"{kind}({param}) at n={n}: wrong inverse {inv}")
            ck.require(composes is True, f"{kind}({param}) at n={n}: inverse does not compose to identity")
            ck.require(inv_delta == delta, f"{kind}({param}) at n={n}: delta(l^-1) = {inv_delta} != {delta}")
        elif mode == "shift":
            ck.require(extra == delta, f"{kind}({param}) at n={n}: delta(2^{shift} l) = {extra} != {delta}")

    def known_fault(self, op, message: str) -> bool:
        """catalog_lookup(3) claims degree 3 for welch(1); 5 = 0b101 has weight 2."""
        return op[0] == "row" and message.startswith("welch(1) at n=3: claimed degree")


# ---------------------------------------------------------------------------
# the CLI corpus
# ---------------------------------------------------------------------------

CLI_BOOT = "from mersexp.cli import entry; entry()"


def cli_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCorpus(Workload):
    """A seeded corpus of mersexp commands, run as processes or through main()."""

    name = "cli-corpus"
    needs_field_oracle = True

    def __init__(self, seed: int, api) -> None:
        super().__init__(seed, api)
        rng = random.Random(f"cli-corpus/{seed}")
        self.env = cli_env(api.src)
        j = ["--format", "json"]

        def family_instance(kind: str, lo: int, hi: int) -> tuple[int, int]:
            while True:
                n = rng.randint(lo, hi)
                r = rng.randrange(1, n)
                if ck.invertible(ck.family_value(kind, r, n), n):
                    return r, n

        r, n = family_instance("gold", 24, 64)
        self.ops.append(("inverse", "gold", r, n, [*j, "inverse", "gold", "--r", str(r), "--n", str(n)]))
        r, n = family_instance("kasami", 24, 64)
        self.ops.append(("inverse", "kasami", r, n, [*j, "inverse", "kasami", "--r", str(r), "--n", str(n)]))
        r = rng.randrange(1, 16, 2)
        self.ops.append(("inverse", "bl", r, 4 * r, [*j, "inverse", "bl", "--r", str(r)]))
        n = rng.randint(24, 64)
        while True:
            l = rng.randrange(3, (1 << n) - 1)
            if ck.invertible(l, n):
                break
        self.ops.append(("raw", l, n, [*j, "inverse", "raw", "--l", str(l), "--n", str(n)]))
        r, n = family_instance("kasami", 12, 40)
        self.ops.append(("inverse-text", "kasami", r, n, ["inverse", "kasami", "--r", str(r), "--n", str(n)]))
        n = rng.randint(16, 48)
        r = rng.randrange(1, n // 2)
        _, terms, a, s, _ = query(rng, n, ck.family_terms("kasami", r), True)
        self.ops.append(("carry", terms, a, s, n, r,
                         [*j, "carry", f"kasami{r}", "--a", str(a), "--s", str(s), "--n", str(n)]))
        for holds in (True, False):
            n = rng.randint(16, 48)
            _, terms, a, s, _ = query(rng, n, wide_terms(rng, n, (2, 1, -1, 1)), holds)
            spec = ",".join(f"{e}:{c}" for e, c in sorted(terms.items(), reverse=True))
            self.ops.append(("carry", terms, a, s, n, None,
                             [*j, "carry", spec, "--a", str(a), "--s", str(s), "--n", str(n)]))
        hi = rng.randint(16, 20)
        self.ops.append(("audit", 2, hi, [*j, "audit", "--n-min", "2", "--n-max", str(hi)]))
        n = rng.randint(6, ck.BRUTE_FORCE_MAX_N)
        l = rng.randrange(1, (1 << n) - 1)
        self.ops.append(("analyze", l, n, [*j, "analyze", "--l", str(l), "--n", str(n)]))
        n = rng.randint(5, 16)
        self.ops.append(("catalog", n, [*j, "catalog", "--n", str(n)]))

    def execute(self, op):
        """One mersexp process, started the way the console script starts it."""
        done = subprocess.run([sys.executable, "-c", CLI_BOOT, *op[-1]], env=self.env,
                              capture_output=True, timeout=60)
        return done.returncode, done.stdout

    def run_main(self, op):
        """The same command through mersexp.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.cli.main(list(op[-1]))
        return code, out.getvalue().encode()

    def check(self, op, out, oracle) -> None:
        code, raw = out
        kind = op[0]
        if kind == "carry" and not ck.congruence_holds(*op[1:5]):
            ck.require(code == 4, f"refuted carry call exited {code}, expected 4")
            ck.require(raw == b"", "refuted carry call printed a result")
            return
        ck.require(code == 0, f"{kind} call exited {code}")
        if kind == "inverse-text":
            check_inverse_text(op, raw.decode())
            return
        doc = json.loads(raw)
        res = doc["result"]
        if kind == "inverse":
            _, family, r, n, _ = op
            ck.check_inverse(family, r, n, res["inverse"]["dec"], res["weight"],
                             res["r_matrix"], res["carry_matrix"])
            ck.require(res["inverse"]["bits"] == f"0b{res['inverse']['dec']:0{n}b}", "bit string")
        elif kind == "raw":
            _, l, n, _ = op
            expected = pow(l, -1, (1 << n) - 1)
            ck.require(res["inverse"]["dec"] == expected, f"raw inverse {res['inverse']['dec']}, expected {expected}")
            ck.require(res["weight"] == expected.bit_count(), "raw inverse weight")
        elif kind == "carry":
            _, terms, a, s, n, r, _ = op
            carries = res["carries"][::-1]
            ck.check_query(terms, a, s, n, carries)
            ck.require(res["weight"] == sum(carries), "carry weight")
            if r is not None:
                ck.check_matrix_of(res["carry_matrix"], carries, n, r, "carry matrix")
                ck.require(res["constraint_checks"] == ck.kasami_constraints(carries, r, a, s, n),
                           "kasami carry constraint checks")
        elif kind == "audit":
            _, lo, hi, _ = op
            expected = audit_count(lo, hi)
            ck.require(res["checked"] == expected and res["passed"] == expected and res["failed"] == 0,
                       f"audit {lo}..{hi}: {res['checked']} checked, {res['failed']} failed; expected {expected}")
        elif kind == "analyze":
            _, l, n, _ = op
            m = (1 << n) - 1
            truth = oracle.exact(l, n)
            ck.require(res["uniformity"] == truth, f"analyze {l} at n={n}: uniformity {res['uniformity']}, expected {truth}")
            ck.require(res["apn"] == (truth == 2), "analyze apn flag")
            ck.require(res["degree"] == (l % m).bit_count(), "analyze degree")
            ck.require(res["invertible"] == ck.invertible(l, n), "analyze invertible flag")
            ck.require(res["canonical"]["dec"] == ck.min_rotation(l % m, n), "analyze canonical form")
        else:  # catalog
            n = op[1]
            for e in res["entries"]:
                ck.check_catalog_entry(e["family"], e["param"], n, e["exponent"]["dec"], e["claimed_degree"],
                                       e["claimed_uniformity"], e["source_table"], e["invertible"])
                truth = oracle.exact(e["exponent"]["dec"], n)
                if truth is not None:
                    ck.require(e["claimed_uniformity"] == truth, f"catalog {e['family']} at n={n}: uniformity")
                if e["invertible"] and e["family"] in ("gold", "kasami", "bracken_leander"):
                    ck.require(e["inverse"]["dec"] == pow(e["exponent"]["dec"], -1, (1 << n) - 1),
                               f"catalog {e['family']}({e['param']}) at n={n}: inverse")
                else:
                    ck.require(e["inverse"] is None, f"catalog {e['family']} at n={n}: unexpected inverse")


def audit_count(lo: int, hi: int) -> int:
    """Instances `mersexp audit` must sweep: every invertible one in range."""
    count = 0
    for n in range(max(2, lo), hi + 1):
        count += sum(ck.invertible(ck.family_value("gold", r, n), n) for r in range(1, n))
    for n in range(max(4, lo), hi + 1):
        count += sum(ck.invertible(ck.family_value("kasami", r, n), n) for r in range(1, n))
    return count + sum(1 for r in range(1, hi // 4 + 1, 2) if 4 * r >= lo)


def check_inverse_text(op, text: str) -> None:
    """Text rendering of `inverse`: value, weight and both matrices."""
    _, family, r, n, _ = op
    lines = text.splitlines()
    ck.require(lines[0].startswith("inverse: ") and lines[1].startswith("weight:"), "text layout")
    value = int(lines[0].split()[1])
    weight = int(lines[1].split()[1])
    start = lines.index("r-matrix of the inverse:")
    middle = lines.index("r-matrix of the carry word:")
    r_matrix = [[int(v) for v in line.split()] for line in lines[start + 1: middle]]
    carry_matrix = [[int(v) for v in line.split()] for line in lines[middle + 1:]]
    ck.check_inverse(family, r, n, value, weight, r_matrix, carry_matrix)


WORKLOADS = {w.name: w for w in (CertifyLarge, SweepSmall, FieldScan)}
