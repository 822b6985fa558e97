"""Closed-form inverses of gold, kasami and bracken-leander exponents.

Every constructor assembles the inverse's r-matrix from fixed periodic
column blocks selected by a handful of derived parameters:

    d = gcd(r, n),  m = n/d,
    e = least positive residue of the inverse of r/d mod m,
    s, t from m = s*e + t (0 <= t < e),  k = e // 6,  u = t // 6.

_kasami_case decides the kasami case, its tag and its parameters from
this arithmetic alone; its row builder then makes the rows.  Every case
hands its rows to _certified, which assembles the value, re-verifies it
against the ring and ships it with the r-matrices of the inverse and of
its certifying carry word.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd

from .carry import canonical_form, solve_carries
from .orderings import (
    RMatrix,
    _regular_word,
    e_value,
    matrix_of_sequence,
    to_r_matrix,  # unused here; the traced benchmark wraps it by this name
)
from .residues import (
    ExponentFamily,
    NotInvertibleError,
    Residue,
    _known_bits,
    _Record,
    _word_value,
    binary_weight,
    cyclotomic_shift,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    mul_mod,
    to_bits,  # unused here; the traced benchmark wraps it by this name
)

__all__ = [
    "InverseResult",
    "gold_invertible",
    "gold_inverse",
    "kasami_invertible",
    "kasami_inverse",
    "bl_inverse",
    "kasami_degree_bounds",
    "kasami_inverse_equivalence",
]


class InverseResult(_Record):
    """A constructed inverse with its certificates.

    weight equals the binary weight of the inverse and its family's
    weight rule; carry_matrix re-solves the add-with-carry recurrence
    for s = 1, so the result is independently checkable.
    """

    _fields = "inverse weight case_label r_matrix carry_matrix warnings"
    _defaults = {"warnings": ()}


def _reduce_r(r: int, n: int, warnings: list[str]) -> int:
    if r < 1:
        raise ValueError(f"family parameter must be positive, got {r}")
    if r >= n:
        reduced = r % n
        warnings.append(f"parameter r={r} reduced to {reduced} mod n={n}")
        if reduced == 0:
            raise ValueError(f"r={r} is a multiple of n={n}")
        return reduced
    return r


def _certified(
    family: ExponentFamily,
    n: int,
    rows: list[bytes],
    label: str,
    weight: int,
    warnings: list[str],
) -> InverseResult:
    """Assemble an inverse from its r-matrix rows, check it, certify it.

    The rows must be d = gcd(r, n) rows of n/d bits; the value is the
    sum of 2^((i - j*r) mod n) over their ones, and the rows are the
    result's r-matrix.  A reflected kasami case passes its partner's
    rows with column j taken from column (2 - j) mod m.  A wrong
    layout, value or weight raises RuntimeError naming the label.
    """
    r = family.param
    try:
        r_matrix = RMatrix(n, r, rows)
    except ValueError:
        d = gcd(r, n)
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            f"has a block layout other than {d} rows of {n // d}"
        ) from None
    word = _regular_word(r_matrix.flat, n, r)
    inv = Residue(n, fold_mod(_word_value(word), n))
    form = canonical_form(family)
    if mul_mod(Residue(n, fold_mod(form.value(), n)), inv).value != 1:
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            "does not invert its exponent"
        )
    if binary_weight(inv) != weight:
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            f"has weight {binary_weight(inv)}, formula says {weight}"
        )
    bits = _known_bits(n, word, inv.value)
    one = _known_bits(n, b"\x01" + bytes(n - 1), 1)
    carries = solve_carries(form, bits, one)
    return InverseResult(
        inverse=inv,
        weight=weight,
        case_label=label,
        r_matrix=r_matrix,
        carry_matrix=matrix_of_sequence(carries.word, n, r),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# gold exponents 2^r + 1
# ---------------------------------------------------------------------------

def gold_invertible(r: int, n: int) -> bool:
    """2^r + 1 is invertible mod 2^n - 1 iff n / gcd(n, r) is odd."""
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    d = gcd(r % n, n)
    return (n // d) % 2 == 1


def gold_inverse(r: int, n: int) -> InverseResult:
    """Inverse of 2^r + 1 mod 2^n - 1, weight (n - d + 2) / 2.

    The r-matrix has d - 1 identical rows with ones at even columns
    >= 2 and a last row with ones at column 0 and the odd columns; for
    d = 1 the single row gives sum(2^(2*i*r), i = 0 .. (n-1)/2).
    """
    warnings: list[str] = []
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    r = _reduce_r(r, n, warnings)
    if not gold_invertible(r, n):
        raise NotInvertibleError(
            f"2^{r} + 1 is not invertible mod 2^{n} - 1 (n/gcd even)"
        )
    d = gcd(r, n)
    m = n // d
    top = b"\0" + b"\0\1" * (m // 2)  # m is odd
    bottom = b"\1" + b"\1\0" * (m // 2)
    rows = [top] * (d - 1) + [bottom]
    label = "GOLD_GCD1" if d == 1 else "GOLD_GCDS"
    return _certified(
        ExponentFamily("gold", r),
        n,
        rows,
        label,
        (n - d + 2) // 2,
        warnings,
    )


# ---------------------------------------------------------------------------
# kasami exponents 2^(2r) - 2^r + 1
# ---------------------------------------------------------------------------

def kasami_invertible(r: int, n: int) -> bool:
    """Invertibility of 2^(2r) - 2^r + 1 mod 2^n - 1.

    Holds iff n / gcd(r, n) is odd, or it is even while r is even and
    gcd(r, n) = gcd(3r, n).
    """
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    r = r % n
    d = gcd(r, n)
    if (n // d) % 2 == 1:
        return True
    return r % 2 == 0 and d == gcd(3 * r, n)


def _kasami_r(r: int, n: int, warnings: list[str]) -> int:
    """r mod n, once 2^(2r) - 2^r + 1 is checked invertible mod 2^n - 1.

    Raises ValueError for n < 2, r < 1 or r a multiple of n, and
    NotInvertibleError when the exponent has no inverse.
    """
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    r = _reduce_r(r, n, warnings)
    if not kasami_invertible(r, n):
        raise NotInvertibleError(
            f"2^{2 * r} - 2^{r} + 1 is not invertible mod 2^{n} - 1"
        )
    return r


# the six-periodic blocks of the kasami rows, one byte per bit
_X1 = b"\0\0\0\1\1\1"
_X2 = b"\0\1\1\1\0\0"


def _kasami_weight(n: int, d: int, m: int, e: int) -> int:
    """Weight (= algebraic degree) of the kasami inverse, m = n/d, e odd."""
    if m % 2 == 0:
        return (n + 2) // 2
    if m % 3 == 0:
        return (n - 3 * d + 4) // 2
    s = m // e
    c = s + 1 + s % 2 if e % 6 == 3 else 1
    return (n - c * d + 2) // 2


def _gcd1_rows(m: int, e: int, d: int) -> list[bytes]:
    """The one row for d = 1, m and e odd.

    The row is the decimated inverse word in r-ordering: the inverse
    is sum(row[i] * 2^(-i*r)).  The ND3 and NDODD rows reuse it at
    modulus m.
    """
    k, rem = divmod(e, 6)
    if rem == 1:
        seq = b"\1" + b"\1\0" * ((m - e) // 2) + b"\1\1\1\0\0\0" * k
    elif rem == 5:
        seq = b"\0" + b"\0\1" * ((m - e + 2) // 2) + b"\1\1" + _X1 * k
    else:  # rem == 3
        s, t = divmod(m, e)
        u = t // 6
        x1, x2 = _X1, _X2
        x = b"\0\1\1" + x1 * k + b"\0\0\0" + x2 * k
        y = b"\0\0\0" + x2 * k + b"\0\1\1" + x1 * k
        if t % 6 == 1:
            z = b"\0\1" * ((e - 3 - 6 * u) // 2)
            seq = bytearray(
                x1 * u
                + y * ((s - 2) // 2)
                + b"\0\0\0"
                + x2 * k
                + b"\0\1\1"
                + x1 * u
                + z
                + b"\0"
            )
            if seq[0] != 0:
                raise RuntimeError("block layout clash at position 0")
            seq[0] = 1
        elif t % 6 == 2:
            z = b"\1\0" * (3 * u)
            seq = (
                b"\0\1"
                + x1 * u
                + y * ((s - 1) // 2)
                + b"\0\0"
                + z
                + b"\1"
                + x2 * (k - u)
            )
        elif t % 6 == 4:
            z = b"\1\0" * (3 * u)
            seq = (
                b"\0\0\0"
                + x2 * u
                + x * ((s - 1) // 2)
                + b"\0\1\1\0"
                + z
                + b"\1\0\1\1\1"
                + x1 * ((e - 6 * u - 9) // 6)
                + b"\0"
            )
        else:  # t % 6 == 5
            z = x1 + b"\0\1" * ((e - 7 - 6 * u) // 2)
            seq = (
                b"\0\1\1\0\0"
                + x2 * u
                + x * ((s - 2) // 2)
                + b"\0\1\1"
                + x1 * k
                + b"\0"
                + x1 * u
                + z
            )
    return [seq]


def _nd3_rows(m: int, e: int, d: int) -> list[bytes]:
    """Rows for m = n/d divisible by 3 (m = 3 mod 6, e = 1 or 5 mod 6).

    The last row is the gcd = 1 row at modulus m; the other d - 1 rows
    share one six-periodic pattern.
    """
    last = _gcd1_rows(m, e, 1)
    if d == 1:
        return last
    k = e // 6
    if e % 6 == 1:
        a1 = b"\0\0" + b"\0\0\1\1\1\0" * ((m - e - 2) // 6) + _X1 * k + b"\0"
    else:  # e % 6 == 5
        head = b"\0\1\0\0\0" + b"\1\1\1\0\0\0" * ((m - e - 4) // 6)
        a1 = head + b"\1\1\0\0" + _X2 * k
    return [a1] * (d - 1) + last


def _ndodd_rows(m: int, e: int, d: int) -> list[bytes]:
    """Rows for m = n/d odd, not divisible by 3, d > 1.

    The first row is the gcd = 1 row at modulus m; the other d - 1
    rows share a pattern picked by (e mod 6, m mod 6) for e = 1, 5 and
    by (e mod 6, t mod 6) for e = 3 mod 6: cases A-D and E-H.
    """
    k = e // 6
    s, t = divmod(m, e)
    u = t // 6
    v = m // 6
    x1, x3 = _X1, _X2
    y = b"\0\0\0" + x3 * k + b"\0\1\1" + x1 * k
    z = b"\0\1\1" + x1 * k + b"\0\0\0" + x3 * k
    if e % 6 == 1 and m % 6 == 1:  # A
        a2 = x1 * v + b"\0"
    elif e % 6 == 1 and m % 6 == 5:  # B
        a2 = b"\1\1\0\0\0\1" * v + b"\1\1\0\0\0"
    elif e % 6 == 5 and m % 6 == 1:  # C
        a2 = b"\0" + x1 * v
    elif e % 6 == 5 and m % 6 == 5:  # D
        a2 = b"\0\1\1" + x1 * v + b"\0\0"
    elif t % 6 == 1:  # E
        a2 = x1 * u + y * (s // 2) + b"\0"
    elif t % 6 == 2:  # F
        a2 = b"\0\1" + x1 * u + y * ((s - 1) // 2) + b"\0\0\0" + x3 * k
    elif t % 6 == 4:  # G
        head = b"\0\0\0" + x3 * u + z * ((s - 1) // 2)
        a2 = head + b"\0\1\1" + x1 * k + b"\0"
    else:  # H, t % 6 == 5
        a2 = b"\0\1\1\0\0" + x3 * u + z * (s // 2)
    return _gcd1_rows(m, e, 1) + [a2] * (d - 1)


def _ndeven_rows(m: int, e: int, d: int) -> list[bytes]:
    """Rows for m = n/d even (then 3 does not divide m and e is odd).

    After the head row, rows alternate between the two phases of the
    period-2 word, ending on the head row's complement phase.
    """
    if m % 6 == 2:
        a1 = b"\1\1" + b"\1\1\0\0\0\1" * ((m - 2) // 6)
        odd_row, even_row = b"\1\0" * (m // 2), b"\0\1" * (m // 2)
    else:  # m % 6 == 4
        a1 = b"\1\0\1\1" + b"\1\0\0\0\1\1" * ((m - 4) // 6)
        odd_row, even_row = b"\0\1" * (m // 2), b"\1\0" * (m // 2)
    return [a1] + [odd_row if i % 2 else even_row for i in range(1, d)]


def _kasami_case(r: int, n: int) -> tuple[str, int, int, int, Callable]:
    """The kasami case at invertible (r, n): (tag, d, m, e, build).

    d = gcd(r, n) and m = n/d.  e is made odd: an even e (m is then
    odd) becomes m - e, the e of the partner parameter n - r, and the
    tag ends in _REFLECTED.  The branches are tried in order: m even,
    3 | m, d = 1, then the other odd m.  build(m, e, d) returns the
    case's rows; a reflected case's are the partner's, whose columns
    kasami_inverse maps.
    """
    d = gcd(r, n)
    m = n // d
    e = e_value(r, n)
    suffix = ""
    if e % 2 == 0:
        e, suffix = m - e, "_REFLECTED"
    t = m % e
    e6 = f"E6K{e % 6}_T6U{t % 6}" if e % 6 == 3 else f"E6K{e % 6}"
    if m % 2 == 0:
        tag, build = f"NDEVEN_6K{m % 6}", _ndeven_rows
    elif m % 3 == 0:
        tag, build = f"ND3_{e6}", _nd3_rows
    elif d == 1:
        tag, build = f"GCD1_{e6}", _gcd1_rows
    elif e % 6 == 3:  # E-H by t mod 6 = 1, 2, 4, 5
        tag, build = f"NDODD_CASE_{'EF GH'[t % 6 - 1]}", _ndodd_rows
    else:  # A-D by (e, m) mod 6 = (1, 1), (1, 5), (5, 1), (5, 5)
        case = "ABCD"[e % 6 // 2 + m % 6 // 4]
        tag, build = f"NDODD_CASE_{case}", _ndodd_rows
    return tag + suffix, d, m, e, build


def kasami_inverse(r: int, n: int) -> InverseResult:
    """Inverse of 2^(2r) - 2^r + 1 mod 2^n - 1 by case dispatch."""
    warnings: list[str] = []
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    r = _kasami_r(r, n, warnings)
    tag, d, m, e, build = _kasami_case(r, n)
    rows = build(m, e, d)
    if tag.endswith("_REFLECTED"):
        # the two inverses differ by the cyclotomic shift -2r, which in
        # the rows takes column j from the partner's column (2 - j) mod m
        rows = [row[2::-1] + row[:2:-1] for row in rows]
    return _certified(
        ExponentFamily("kasami", r),
        n,
        rows,
        f"KASAMI_{tag}",
        _kasami_weight(n, d, m, e),
        warnings,
    )


# ---------------------------------------------------------------------------
# bracken-leander exponents 2^(2r) + 2^r + 1, n = 4r
# ---------------------------------------------------------------------------

def bl_inverse(r: int) -> InverseResult:
    """Inverse of 2^(2r) + 2^r + 1 mod 2^(4r) - 1 for odd r.

    The r-matrix has head row (1, 1, 1, 0), then alternating all-zero
    and all-one rows of width 4; the weight is 2r + 1 = (n + 2) / 2.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"parameter must be odd and positive, got {r}")
    n = 4 * r
    rows = [b"\1\1\1\0"] + [b"\0\0\0\0", b"\1\1\1\1"] * (r // 2)
    return _certified(
        ExponentFamily("bracken_leander", r),
        n,
        rows,
        "BL",
        2 * r + 1,
        [],
    )


# ---------------------------------------------------------------------------
# weight bounds and inverses that are gold or kasami exponents
# ---------------------------------------------------------------------------

def kasami_degree_bounds(r: int, n: int) -> tuple[int, int, bool]:
    """Bounds on the weight (= algebraic degree) of the kasami inverse.

    Returns (lower, upper, attained).  lower and upper are the case's
    _kasami_weight at e = 3 and at e = 1; they coincide, pinning the
    weight, when m = n/d is even or divisible by 3, where the weight
    does not read e.  attained tells whether they differ and the case's
    odd e is 3.
    """
    _, d, m, e, _ = _kasami_case(_kasami_r(r, n, []), n)
    lower, upper = _kasami_weight(n, d, m, 3), _kasami_weight(n, d, m, 1)
    return lower, upper, lower < upper and e == 3


# (n, r) -> (family, shift) for the cases the rules below miss, (4, 2),
# or give as K_1, which at n = 5 is the gold exponent 3 = 2^1 + 1
_SPORADIC = {
    (4, 2): (ExponentFamily("kasami", 2), 2),
    (5, 2): (ExponentFamily("gold", 1), 2),
    (5, 3): (ExponentFamily("gold", 1), 1),
}

# n = 5d, r = b*d: b -> (shift, m) in units of d for the shifted K_m; the
# shift 2d - 2r of b = 3, 4 is reduced mod n
_FIVE_D = {1: (2, 2), 2: (2, 1), 3: (1, 1), 4: (4, 2)}

# 3 | n, r = c*n/3: c -> shift + 1 in units of n/3, with gold(n/3)
_THIRDS = {1: 3, 2: 2}


def kasami_inverse_equivalence(
    r: int, n: int
) -> tuple[ExponentFamily, int] | None:
    """The gold or kasami exponent whose cyclotomic class holds K_r^-1.

    Returns (family, shift) with inverse(2^(2r) - 2^r + 1) = 2^shift *
    exponent(family) mod 2^n - 1, or None when the inverse is in no
    gold or kasami class.  Besides the three sporadic cases, n = 5d with
    d | r gives K_m with m = d or 2d, and r = n/3 or 2n/3 gives the
    weight-2 inverse 2^shift * (2^(n/3) + 1).  The answer is
    re-verified against the extended-Euclid inverse before returning.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    r = _kasami_r(r, n, [])
    if (n, r) in _SPORADIC:
        family, shift = _SPORADIC[(n, r)]
    elif n % 5 == 0 and r % (n // 5) == 0:
        d = n // 5
        shift, m = _FIVE_D[r // d]
        family, shift = ExponentFamily("kasami", m * d), shift * d
    elif n % 3 == 0 and r % (n // 3) == 0:
        third = n // 3
        family = ExponentFamily("gold", third)
        shift = _THIRDS[r // third] * third - 1
    else:
        return None
    expected = ext_euclid_inverse(
        family_exponent(ExponentFamily("kasami", r), n).value, n
    )
    if cyclotomic_shift(family_exponent(family, n), shift) != expected:
        raise RuntimeError(
            f"internal consistency failure: 2^{shift} * {family.kind}"
            f"({family.param}) is not the kasami inverse at r={r}, n={n}"
        )
    return family, shift
