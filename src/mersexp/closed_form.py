"""Closed-form inverses of gold, kasami and bracken-leander exponents.

_CLOSED_FORMS is the one place that states which (r, n) each closed
form covers and how its r-matrix is made.  closed_form_inverse checks
the input once against the kind's row, asks the row's case for the
label, weight and flat (the r-matrix as RMatrix.flat, rows back to
back) and hands flat to _certified, which reads the word off it, proves
it the inverse by solving its carry word and ships it with the
r-matrices of the inverse and of that carry word.

The rows are fixed periodic column blocks selected by a handful of
derived parameters:

    d = gcd(r, n),  m = n/d,
    e = least positive residue of the inverse of r/d mod m,
    s, t from m = s*e + t (0 <= t < e),  k = e // 6,  u = t // 6.

_kasami_case decides the kasami case, its tag and its parameters from
this arithmetic alone; its row builder then makes flat.  The e = 3
mod 6 rows, GCD1's one row and NDODD's repeated row in cases E-H,
share one head, _e3_head, and differ only in their tails.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd

from .carry import canonical_form, solve_carries
from .orderings import (
    RMatrix,
    e_value,
    from_r_matrix,
    matrix_of_sequence,
    to_r_matrix,  # unused here; the traced benchmark wraps it by this name
)
from .residues import (
    BitSequence,
    ExponentFamily,
    NotInvertibleError,
    Residue,
    _integer,
    _Record,
    binary_weight,
    ext_euclid_inverse,
    family_exponent,
    mul_mod,  # unused here; the traced benchmark wraps it by this name
    to_bits,  # unused here; the traced benchmark wraps it by this name
)

__all__ = [
    "InverseResult",
    "closed_form_inverse",
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


def _certified(
    family: ExponentFamily,
    n: int,
    flat: bytes,
    label: str,
    weight: int,
    warnings: list[str],
) -> InverseResult:
    """Read an inverse off its flat r-matrix, check it, certify it.

    flat must be d = gcd(r, n) rows of n/d bits back to back; the value
    is the sum of 2^((i - j*r) mod n) over the ones of row i, and flat
    is the result's r-matrix.  Solving the carry word of l * inverse = 1
    is the one congruence check.  A wrong length, entry, value or weight
    raises RuntimeError naming the label.
    """
    r = family.param
    if len(flat) != n:
        d = gcd(r, n)
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            f"has a block layout other than {d} rows of {n // d}"
        )
    r_matrix = RMatrix._of(n=n, r=r, flat=flat)
    one = BitSequence._of(n=n, word=b"\x01" + bytes(n - 1), value=1)
    try:  # a non-bit entry, the all-ones word or l * word != 1
        bits = from_r_matrix(r_matrix)
        carries = solve_carries(canonical_form(family), bits, one)
    except ValueError:
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            "does not invert its exponent"
        ) from None
    inv = Residue(n, bits.value)
    if binary_weight(inv) != weight:
        raise RuntimeError(
            f"internal consistency failure: {label} at r={r}, n={n} "
            f"has weight {binary_weight(inv)}, formula says {weight}"
        )
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


def _gold_refusal(r: int, n: int) -> NotInvertibleError:
    return NotInvertibleError(
        f"2^{r} + 1 is not invertible mod 2^{n} - 1 (n/gcd even)"
    )


def _gold_form(r: int, n: int) -> tuple[str, int, bytes]:
    """(label, weight, flat) of the gold inverse, weight (n - d + 2) / 2.

    The r-matrix has d - 1 identical rows with ones at even columns
    >= 2 and a last row with ones at column 0 and the odd columns; for
    d = 1 the single row gives sum(2^(2*i*r), i = 0 .. (n-1)/2).
    """
    d = gcd(r, n)
    m = n // d
    top = b"\0" + b"\0\1" * (m // 2)  # m is odd
    bottom = b"\1" + b"\1\0" * (m // 2)
    label = "GOLD_GCD1" if d == 1 else "GOLD_GCDS"
    return label, (n - d + 2) // 2, top * (d - 1) + bottom


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


def _kasami_refusal(r: int, n: int) -> NotInvertibleError:
    return NotInvertibleError(
        f"2^{2 * r} - 2^{r} + 1 is not invertible mod 2^{n} - 1"
    )


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


def _e3_head(m: int, e: int) -> tuple[bytes, bytes]:
    """(head, S) shared by the e = 3 mod 6 rows of GCD1 and NDODD E-H.

    With k = e // 6, s, t = divmod(m, e) and u = t // 6, the super-block
    x = 011 X1^k 000 X2^k has 2e bytes and y = x[e:] + x[:e]; head is
    prefix + B^u + S^((s - 1) // 2) with (prefix, B, S) = ("", X1, y),
    (01, X1, y), (000, X2, x) or (01100, X2, x) for t = 1, 2, 4, 5 mod 6.
    """
    k = e // 6
    s, t = divmod(m, e)
    lo, hi = b"\0\1\1" + _X1 * k, b"\0\0\0" + _X2 * k  # x = lo + hi
    prefix = (None, b"", b"\0\1", None, b"\0\0\0", b"\0\1\1\0\0")[t % 6]
    block, sup = (_X1, hi + lo) if t % 6 < 3 else (_X2, lo + hi)
    return prefix + block * (t // 6) + sup * ((s - 1) // 2), sup


def _gcd1_rows(m: int, e: int, d: int) -> bytes:
    """The one row for d = 1, m and e odd.

    The row is the decimated inverse word in r-ordering: the inverse
    is sum(row[i] * 2^(-i*r)).  The ND3 and NDODD rows reuse it at
    modulus m.  For e = 3 mod 6 the row is _e3_head's head and a tail
    picked by t mod 6.
    """
    k, rem = divmod(e, 6)
    if rem == 1:
        return b"\1" + b"\1\0" * ((m - e) // 2) + b"\1\1\1\0\0\0" * k
    if rem == 5:
        return b"\0" + b"\0\1" * ((m - e + 2) // 2) + b"\1\1" + _X1 * k
    head, sup = _e3_head(m, e)
    t = m % e
    u = t // 6
    if t % 6 == 1:  # the first byte, a 0 of X1*u, y or 000, is a 1
        z = b"\0\1" * ((e - 3 - 6 * u) // 2)
        tail = sup[:e] + b"\0\1\1" + _X1 * u + z + b"\0"
        return b"\1" + (head + tail)[1:]
    if t % 6 == 2:
        return head + b"\0\0" + b"\1\0" * (3 * u) + b"\1" + _X2 * (k - u)
    if t % 6 == 4:
        z = b"\1\0" * (3 * u) + b"\1\0\1\1\1"
        return head + b"\0\1\1\0" + z + _X1 * ((e - 6 * u - 9) // 6) + b"\0"
    z = _X1 * (u + 1) + b"\0\1" * ((e - 7 - 6 * u) // 2)
    return head + sup[:e] + b"\0" + z  # t % 6 == 5


def _nd3_rows(m: int, e: int, d: int) -> bytes:
    """Rows for m = n/d divisible by 3 (m = 3 mod 6, e = 1 or 5 mod 6).

    The last row is the gcd = 1 row at modulus m; the other d - 1 rows
    share one six-periodic pattern.
    """
    k = e // 6
    if e % 6 == 1:
        a1 = b"\0\0" + b"\0\0\1\1\1\0" * ((m - e - 2) // 6) + _X1 * k + b"\0"
    else:  # e % 6 == 5
        head = b"\0\1\0\0\0" + b"\1\1\1\0\0\0" * ((m - e - 4) // 6)
        a1 = head + b"\1\1\0\0" + _X2 * k
    return a1 * (d - 1) + _gcd1_rows(m, e, 1)


def _ndodd_rows(m: int, e: int, d: int) -> bytes:
    """Rows for m = n/d odd, not divisible by 3, d > 1.

    The first row is the gcd = 1 row at modulus m; the other d - 1
    rows share a pattern picked by (e mod 6, m mod 6) for e = 1, 5 and
    by (e mod 6, t mod 6) for e = 3 mod 6: cases A-D, and E-H, which
    are _e3_head's head and the tail S0, S[:e], S[:e]0 or S (y0, x[e:],
    x[:e]0 or x) for its super-block S.
    """
    v = m // 6
    if e % 6 == 1 and m % 6 == 1:  # A
        a2 = _X1 * v + b"\0"
    elif e % 6 == 1 and m % 6 == 5:  # B
        a2 = b"\1\1\0\0\0\1" * v + b"\1\1\0\0\0"
    elif e % 6 == 5 and m % 6 == 1:  # C
        a2 = b"\0" + _X1 * v
    elif e % 6 == 5 and m % 6 == 5:  # D
        a2 = b"\0\1\1" + _X1 * v + b"\0\0"
    else:  # E-H by t mod 6 = 1, 2, 4, 5
        head, sup = _e3_head(m, e)
        t6 = m % e % 6
        tail = sup if t6 in (1, 5) else sup[:e]
        a2 = head + tail + b"\0" if t6 in (1, 4) else head + tail
    return _gcd1_rows(m, e, 1) + a2 * (d - 1)


def _ndeven_rows(m: int, e: int, d: int) -> bytes:
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
    return a1 + ((odd_row + even_row) * (d // 2))[: (d - 1) * m]


def _kasami_case(r: int, n: int) -> tuple[str, int, int, int, Callable]:
    """The kasami case at invertible (r, n): (tag, d, m, e, build).

    d = gcd(r, n) and m = n/d.  e is made odd: an even e (m is then
    odd) becomes m - e, the e of the partner parameter n - r, and the
    tag ends in _REFLECTED.  The branches are tried in order: m even,
    3 | m, d = 1, then the other odd m.  build(m, e, d) returns the
    case's flat, d rows of m; a reflected case's is the partner's, whose
    columns _kasami_form maps.
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


def _kasami_form(r: int, n: int) -> tuple[str, int, bytes]:
    """(label, weight, flat) of the kasami inverse by case dispatch."""
    tag, d, m, e, build = _kasami_case(r, n)
    flat = build(m, e, d)
    if tag.endswith("_REFLECTED"):
        # the two inverses differ by the cyclotomic shift -2r, which in
        # each row takes column j from the partner's column (2 - j) mod m;
        # slice d rows or m columns, whichever are fewer
        if m > d:
            rows = [flat[i : i + m] for i in range(0, n, m)]
            flat = b"".join([row[2::-1] + row[:2:-1] for row in rows])
        else:
            out = bytearray(n)
            for j in range(m):
                out[j::m] = flat[(2 - j) % m :: m]
            flat = bytes(out)
    return f"KASAMI_{tag}", _kasami_weight(n, d, m, e), flat


# ---------------------------------------------------------------------------
# bracken-leander exponents 2^(2r) + 2^r + 1, n = 4r
# ---------------------------------------------------------------------------

def _bl_n(r: int) -> int:
    """The one ring of the bracken-leander closed form: n = 4r."""
    return 4 * r


def _bl_covers(r: int, n: int) -> bool:
    return r > 0 and r % 2 == 1 and n == _bl_n(r)


def _bl_refusal(r: int, n: int) -> ValueError:
    if n != _bl_n(r):
        return ValueError(
            f"bracken-leander fixes n = 4r = {_bl_n(r)}, got n={n}"
        )
    return ValueError(f"parameter must be odd and positive, got {r}")


def _bl_form(r: int, n: int) -> tuple[str, int, bytes]:
    """(label, weight, flat) of the bracken-leander inverse, r odd.

    The r-matrix has head row (1, 1, 1, 0), then alternating all-zero
    and all-one rows of width 4; the weight is 2r + 1 = (n + 2) / 2.
    """
    return "BL", 2 * r + 1, b"\1\1\1\0" + b"\0\0\0\0\1\1\1\1" * (r // 2)


# ---------------------------------------------------------------------------
# the table of closed forms, its one entry point and the constructors
# ---------------------------------------------------------------------------

# kind -> (least n, the n that r fixes or None, covers(r, n), the refusal
# for any other (r, n), case(r, n) -> (label, weight, flat))
_CLOSED_FORMS = {
    "gold": (2, None, gold_invertible, _gold_refusal, _gold_form),
    "kasami": (4, None, kasami_invertible, _kasami_refusal, _kasami_form),
    "bracken_leander": (4, _bl_n, _bl_covers, _bl_refusal, _bl_form),
}


def _checked(
    kind: str, r: int, n: int, warnings: list[str], least: bool = True
) -> tuple[int, int]:
    """(r, n) as ints, once kind's closed form covers them, else the
    row's refusal.

    An unknown kind, or an r or n that is not an integer, is a
    ValueError.  A free n needs n >= the kind's least n (just n >= 2
    when least is false) and reads r >= 1 mod n, with a warning; a
    multiple of n is refused.  A fixed n takes r as it is.
    """
    if kind not in _CLOSED_FORMS:
        kinds = ", ".join(_CLOSED_FORMS)
        raise ValueError(f"unknown kind {kind!r}: closed forms are {kinds}")
    r, n = _integer("r", r), _integer("n", n)
    least_n, fixed_n, covers, refusal, _ = _CLOSED_FORMS[kind]
    if fixed_n is None:
        if least and n < least_n:
            raise ValueError(f"n must be >= {least_n}, got {n}")
        if n < 2:
            raise ValueError(f"ring parameter must be >= 2, got {n}")
        if r < 1:
            raise ValueError(f"family parameter must be positive, got {r}")
        if r >= n:
            warnings.append(f"parameter r={r} reduced to {r % n} mod n={n}")
            if r % n == 0:
                raise ValueError(f"r={r} is a multiple of n={n}")
            r %= n
    if not covers(r, n):
        raise refusal(r, n)
    return r, n


def closed_form_inverse(kind: str, r: int, n: int) -> InverseResult:
    """The certified inverse of kind's exponent at (r, n), kind gold,
    kasami or bracken_leander; a free n below the least n is refused."""
    warnings: list[str] = []
    r, n = _checked(kind, r, n, warnings)
    *_, case = _CLOSED_FORMS[kind]
    label, weight, flat = case(r, n)
    family = ExponentFamily(kind, r)
    return _certified(family, n, flat, label, weight, warnings)


def gold_inverse(r: int, n: int) -> InverseResult:
    """Inverse of 2^r + 1 mod 2^n - 1, weight (n - gcd(r, n) + 2) / 2."""
    return closed_form_inverse("gold", r, n)


def kasami_inverse(r: int, n: int) -> InverseResult:
    """Inverse of 2^(2r) - 2^r + 1 mod 2^n - 1 by case dispatch."""
    return closed_form_inverse("kasami", r, n)


def bl_inverse(r: int) -> InverseResult:
    """Inverse of 2^(2r) + 2^r + 1 mod 2^(4r) - 1 for odd r."""
    return closed_form_inverse("bracken_leander", r, _bl_n(r))


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
    r, n = _checked("kasami", r, n, [], least=False)
    _, d, m, e, _ = _kasami_case(r, n)
    lower, upper = _kasami_weight(n, d, m, 3), _kasami_weight(n, d, m, 1)
    return lower, upper, lower < upper and e == 3


def kasami_inverse_equivalence(
    r: int, n: int
) -> tuple[ExponentFamily, int] | None:
    """The gold or kasami exponent whose cyclotomic class holds K_r^-1.

    Returns (family, shift) with inverse(2^(2r) - 2^r + 1) = 2^shift *
    exponent(family) mod 2^n - 1, or None when the inverse is in no
    gold or kasami class.  The class is read off the extended-Euclid
    inverse's bits: weight 2 is gold(g), g the smaller cyclic gap
    between its ones, and a weight w <= n/2 + 1 can only be K_(w-1),
    bits 1 0^(w-2) 1^(w-1) from the lowest up.  The shift is where that
    pattern first starts in the bits read cyclically.
    """
    r, n = _checked("kasami", r, n, [])
    kr = family_exponent(ExponentFamily("kasami", r), n).value
    inverse = ext_euclid_inverse(kr, n)
    w = binary_weight(inverse)
    bits = f"{inverse.value:0{n}b}"[::-1]  # bit i at index i
    if w == 2:
        gap = bits.rindex("1") - bits.index("1")
        family = ExponentFamily("gold", min(gap, n - gap))
        pattern = "1" + "0" * (family.param - 1) + "1"
    elif 3 <= w and 2 * (w - 1) <= n:
        family = ExponentFamily("kasami", w - 1)
        pattern = "1" + "0" * (w - 2) + "1" * (w - 1)
    else:
        return None
    shift = (bits + bits).find(pattern)
    return None if shift < 0 else (family, shift)
