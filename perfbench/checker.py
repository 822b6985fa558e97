"""Independent checker for every output the benchmark collects.

Nothing here imports the mersexp package: inverses come from Python's
``pow(l, -1, m)``, weights from ``int.bit_count``, carry words are
re-checked against the recurrence with plain integers, and differential
uniformity is either brute-forced over a pure-Python GF(2^n) (n <= 8)
or pinned by a theorem the method must respect at larger n.

Every check raises ``Mismatch`` with a message naming the first
disagreement; a check that returns has accepted the output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from math import gcd

BRUTE_FORCE_MAX_N = 8


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def short(value: int) -> str:
    """Decimal for small values; huge ones would exceed int-to-str limits."""
    if value.bit_length() <= 64:
        return str(value)
    return f"<{value.bit_length()}-bit value ...{value & 0xFFFF:04x}>"


# ---------------------------------------------------------------------------
# ring side
# ---------------------------------------------------------------------------

def family_terms(kind: str, r: int) -> dict[int, int]:
    """Signed power form {exponent: coefficient} of a family exponent."""
    if kind == "gold":
        return {r: 1, 0: 1}
    if kind == "kasami":
        return {2 * r: 1, r: -1, 0: 1}
    if kind in ("bl", "bracken_leander"):
        return {2 * r: 1, r: 1, 0: 1}
    raise ValueError(f"no signed form for {kind!r}")


def terms_value(terms: dict[int, int]) -> int:
    return sum(t << j for j, t in terms.items())


def family_value(kind: str, param: int, n: int) -> int:
    """The family's defining integer reduced mod 2^n - 1."""
    m = (1 << n) - 1
    p = param
    if kind in ("gold", "kasami", "bl", "bracken_leander"):
        value = terms_value(family_terms(kind, p))
    elif kind == "inverse":
        value = (1 << (n - 1)) - 1 if n % 2 else (1 << n) - 2
    elif kind == "dobbertin":
        value = (1 << 4 * p) + (1 << 3 * p) + (1 << 2 * p) + (1 << p) - 1
    elif kind == "welch":
        value = (1 << p) + 3
    elif kind == "niho":
        half = p // 2 if p % 2 == 0 else (3 * p + 1) // 2
        value = (1 << p) + (1 << half) - 1
    elif kind == "raw":
        value = p
    else:
        raise ValueError(f"unknown family {kind!r}")
    return value % m


def invertible(l: int, n: int) -> bool:
    return gcd(l, (1 << n) - 1) == 1


def check_matrix_of(rows, word: list[int], n: int, r: int, what: str) -> None:
    """Entry (i, j) of a d x (n/d) r-matrix must be word[(i - j*r) mod n]."""
    d = gcd(n, r)
    require(len(rows) == d, f"{what}: {len(rows)} rows, expected {d}")
    cols = n // d
    for i, row in enumerate(rows):
        require(len(row) == cols, f"{what}: row {i} has {len(row)} entries, expected {cols}")
        for j, v in enumerate(row):
            if v != word[(i - j * r) % n]:
                raise Mismatch(f"{what}: entry ({i}, {j}) is {v}, expected {word[(i - j * r) % n]}")


def word_of_matrix(rows, n: int, r: int) -> list[int]:
    """Read a length-n word back out of an r-matrix (shape already checked)."""
    word = [0] * n
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            word[(i - j * r) % n] = v
    return word


def bits_of(value: int, n: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n)]


def check_carries(terms: dict[int, int], a: int, s: int, carries, n: int) -> None:
    """2c[i] - c[i-1] + s[i] = sum_j t_j a[i-j] (cyclic), c[i] in [t-, t+ - 1]."""
    require(len(carries) == n, f"carry word has {len(carries)} entries, expected {n}")
    lo = sum(t for t in terms.values() if t < 0)
    hi = sum(t for t in terms.values() if t > 0) - 1
    a_bits, s_bits = bits_of(a, n), bits_of(s, n)
    items = list(terms.items())
    for i in range(n):
        c = carries[i]
        if not lo <= c <= hi:
            raise Mismatch(f"carry c[{i}] = {c} outside [{lo}, {hi}]")
        rhs = 0
        for j, t in items:
            rhs += t * a_bits[(i - j) % n]
        if 2 * c - carries[i - 1] + s_bits[i] != rhs:
            raise Mismatch(f"carry recurrence fails at position {i}")


def congruence_holds(terms: dict[int, int], a: int, s: int, n: int) -> bool:
    return (terms_value(terms) * a - s) % ((1 << n) - 1) == 0


def check_inverse(kind: str, r: int, n: int, inverse: int, weight: int,
                  r_matrix, carry_matrix) -> None:
    """A certified closed-form inverse: value, weight, both r-matrices."""
    m = (1 << n) - 1
    l = family_value(kind, r, n)
    require(invertible(l, n), f"{kind}({r}) is not invertible at n={n}")
    expected = pow(l, -1, m)
    if inverse != expected:
        raise Mismatch(f"{kind}({r}) at n={n}: inverse {short(inverse)}, expected {short(expected)}")
    require(weight == expected.bit_count(),
            f"{kind}({r}) at n={n}: weight {weight}, expected {expected.bit_count()}")
    check_matrix_of(r_matrix, bits_of(inverse, n), n, r, "r-matrix of the inverse")
    d = gcd(n, r)
    require(len(carry_matrix) == d and all(len(row) == n // d for row in carry_matrix),
            "carry matrix has the wrong shape")
    carries = word_of_matrix(carry_matrix, n, r)
    check_carries(family_terms(kind, r), inverse, 1, carries, n)


def check_query(terms: dict[int, int], a: int, s: int, n: int, carries) -> None:
    """A congruence query: carries is the returned word, or None if refuted."""
    holds = congruence_holds(terms, a, s, n)
    if carries is None:
        require(not holds, "congruence refuted although s = l*a mod 2^n - 1")
        return
    require(holds, "congruence accepted although s != l*a mod 2^n - 1")
    check_carries(terms, a, s, carries, n)


def kasami_constraints(carries, r: int, a: int, s: int, n: int) -> dict[str, bool]:
    w = sum(carries)
    return {
        "pair_bound_ok": all(carries[i] + carries[(i - r) % n] in (-1, 0, 1) for i in range(n)),
        "half_weight_ok": 2 * abs(w) <= n,
        "weight_identity": w + s.bit_count() == a.bit_count(),
    }


def min_rotation(value: int, n: int) -> int:
    mask = (1 << n) - 1
    return min(((value << k) | (value >> (n - k))) & mask for k in range(n))


# ---------------------------------------------------------------------------
# field side
# ---------------------------------------------------------------------------

_SYMPY_SCRIPT = """
import json, sys
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p
out = {}
for n in range(2, int(sys.argv[1]) + 1):
    for p in range((1 << (n + 1)) - 1, 1 << n, -1):
        if gf_irreducible_p([(p >> k) & 1 for k in range(n, -1, -1)], 2, ZZ):
            out[n] = p
            break
print(json.dumps(out))
"""


def sympy_irreducibles(max_n: int = BRUTE_FORCE_MAX_N) -> dict[int, int]:
    """Largest degree-n polynomial that sympy's gf_irreducible_p accepts.

    Runs in a child interpreter so that sympy's import cost and memory
    stay out of the benchmark process.  The largest, not the smallest,
    irreducible keeps the checker's field different from the program's.
    """
    done = subprocess.run(
        [sys.executable, "-c", _SYMPY_SCRIPT, str(max_n)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {int(k): v for k, v in json.loads(done.stdout).items()}


class BruteField:
    """GF(2^n) by shift-and-xor over a given irreducible polynomial."""

    def __init__(self, n: int, poly: int) -> None:
        self.n, self.poly, self.size = n, poly, 1 << n

    def mul(self, a: int, b: int) -> int:
        res = 0
        top = self.size
        while b:
            if b & 1:
                res ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.poly
        return res

    def power(self, x: int, k: int) -> int:
        res = 1
        while k:
            if k & 1:
                res = self.mul(res, x)
            x = self.mul(x, x)
            k >>= 1
        return res

    def uniformity(self, l: int) -> int:
        table = [self.power(x, l) for x in range(self.size)]
        best = 0
        for a in range(1, self.size):
            counts = [0] * self.size
            for x in range(self.size):
                counts[table[x] ^ table[x ^ a]] += 1
            best = max(best, max(counts))
        return best


class UniformityOracle:
    """Differential uniformity where the checker can know it independently.

    Brute force at n <= 8 (memoised per exponent class), theorems above:
    gold-type exponents 2^i (2^k + 1) have 2^gcd(k, n), the inverse
    exponent has 2 for odd n and 4 for even n.  Returns None when
    neither applies; the caller then falls back on the invariance
    delta(l) = delta(l^-1) = delta(2^i l).
    """

    def __init__(self, polys: dict[int, int]) -> None:
        self.fields = {n: BruteField(n, p) for n, p in polys.items()}
        self.memo: dict[tuple[int, int], int] = {}

    def exact(self, l: int, n: int) -> int | None:
        m = (1 << n) - 1
        l %= m
        if l == 0:
            return None
        if n in self.fields:
            key = (n, min_rotation(l, n))
            if key not in self.memo:
                self.memo[key] = self.fields[n].uniformity(key[1])
            return self.memo[key]
        canon = min_rotation(l, n)
        for k in range(1, n):
            if min_rotation(((1 << k) + 1) % m, n) == canon:
                return 1 << gcd(k, n)
        if canon == min_rotation(family_value("inverse", 0, n), n):
            return 2 if n % 2 else 4
        return None


# ---------------------------------------------------------------------------
# catalog rows
# ---------------------------------------------------------------------------

def check_catalog_entry(kind: str, param: int, n: int, exponent: int,
                        claimed_degree: int, claimed_uniformity: int,
                        source_table: int, is_invertible: bool) -> None:
    """The ring-side claims of one catalog row: value, degree, table, gcd."""
    expected = family_value(kind, param, n)
    require(exponent == expected, f"{kind}({param}) at n={n}: exponent {exponent}, expected {expected}")
    require(claimed_degree == expected.bit_count(),
            f"{kind}({param}) at n={n}: claimed degree {claimed_degree}, "
            f"but exponent {expected} = 0b{expected:b} has weight {expected.bit_count()}")
    require(source_table == (1 if n % 2 else 2), f"{kind}({param}) at n={n}: table {source_table}")
    require(claimed_uniformity == (2 if n % 2 else 4),
            f"{kind}({param}) at n={n}: table {source_table} claims uniformity {claimed_uniformity}")
    require(is_invertible == invertible(expected, n),
            f"{kind}({param}) at n={n}: invertible flag {is_invertible}")
