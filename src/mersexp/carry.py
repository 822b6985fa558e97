"""The modular add-with-carry engine.

Write an exponent as l = sum_j t_j * 2^j with small signed integer
coefficients, t_+ (t_-) the sum of the positive (negative) ones.  For
n-bit expansions a and s, s = l * a mod 2^n - 1 holds if and only if
there is a word c of "carries", each in [t_-, t_+ - 1], satisfying

    2*c[i] - c[i-1] + s[i] = T[i] = sum_j t_j * a[i-j]   (indices mod n).

Multiplying the i-th equation by 2^i and summing around the cycle gives
the seed identity

    sum_j t_j * rot_j(a) - s = (2^n - 1) * c[n-1]

with rot_j(a) the integer value of a cyclically shifted up by j.  One
division therefore decides the congruence and fixes the final carry,
and the recurrence the others, so the word is unique.  When the
division is exact the word exists: 2^(m+1) * c[m] = c[n-1] +
sum_{i <= m} 2^i * (T[i] - s[i]) is an exact multiple and keeps every
carry in [t_-, t_+ - 1].

The solver and the one certificate check, _certificate_fault, pack a
word into one integer, a lane of w = 1, 2, 4 or 8 bytes (base
B = 256^w) per position, so that struct converts it in one call (wider
lanes, for carries beyond 2^63, go lane by lane).  With A, S and C
holding a[i], s[i] and c[i] in lane i and rot_j moving lanes,
rot_1(C) = B*C - c[n-1] * (B^n - 1), so the recurrence packs into

    (2 - B) * C = D - c[n-1] * (B^n - 1),   D = sum_j t_j * rot_j(A) - S.

A lane holds c + bias, bias = B/2: c in two's complement with its sign
bit flipped.  Multiplied through by B - 1, so that the repunit
R = (B^n - 1)/(B - 1) is never built and B^n - 1 is a shift and a
subtraction, the recurrence gives the solver's division for the word
C + bias*R and, as rot_1(R) = R, the check's identity:

    (B - 1)(B - 2) * (C + bias*R) = K * (B^n - 1) - (B - 1) * D,
    K = c[n-1] * (B - 1) + bias * (B - 2);

    (B - 1) * (D - 2*(C + bias*R) + rot_1(C + bias*R)) = -bias * (B^n - 1).

The check's lanes keep each T[i] - 2*c[i] + c[i-1] - s[i], at most
2*(t_+ - t_-) - 1 in size, below B/2: the integers are equal only if
every lane is.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping, Sequence
from operator import index

from .residues import _FAMILIES, BitSequence, ExponentFamily, _Record

__all__ = [
    "CongruenceError",
    "SignedPowerForm",
    "CarrySequence",
    "signed_form",
    "canonical_form",
    "solve_carries",
    "verify_congruence",
]


class CongruenceError(ValueError):
    """No carry word closes the cycle: s is not l*a mod 2^n - 1."""


class SignedPowerForm(_Record):
    """An exponent written as sum_j t_j * 2^j with signed coefficients.

    terms maps exponent j >= 0 to a nonzero integer coefficient t_j,
    stored sorted by j.  The freedom in choosing a representation is the
    point: kasami exponents get the three-term form with carry range
    {-1, 0, 1} instead of their wide binary expansion.  t_plus and
    t_minus sit beside terms; equality, hash and repr read terms alone.
    """

    _fields = "terms"

    def __init__(self, terms: tuple[tuple[int, int], ...]) -> None:
        if not terms:
            raise ValueError("a signed power form needs at least one term")
        seen = set()
        t_plus = t_minus = 0
        for j, t in terms:
            if j < 0:
                raise ValueError(f"exponent {j} must be >= 0")
            if t == 0:
                raise ValueError(f"coefficient of 2^{j} must be nonzero")
            if j in seen:
                raise ValueError(f"duplicate exponent {j}")
            seen.add(j)
            t_plus += max(t, 0)
            t_minus += min(t, 0)
        if t_plus < 1:
            raise ValueError("at least one positive coefficient required")
        self.__dict__.update(terms=terms, t_plus=t_plus, t_minus=t_minus)
        if self.value() <= 0:
            raise ValueError("the represented integer must be positive")

    def value(self) -> int:
        return sum(t << j for j, t in self.terms)


def signed_form(terms: Mapping[int, int]) -> SignedPowerForm:
    """Build a SignedPowerForm from an {exponent: coefficient} mapping."""
    return SignedPowerForm(tuple(sorted(terms.items())))


def canonical_form(f: ExponentFamily) -> SignedPowerForm:
    """The low-coefficient signed form of a family, from its terms.

    Every family but inverse has signed terms (raw's are the plain
    binary expansion of l); inverse's exponent depends on n.
    """
    if f.kind == "inverse":
        raise ValueError(f"no canonical signed form for family {f.kind!r}")
    return signed_form(_FAMILIES[f.kind](f.param, None))


# flips a byte's sign bit: c + 128 <-> c mod 256 for a signed byte c
_FLIP_SIGN = bytes(v ^ 0x80 for v in range(256))
# struct's signed code for a lane of each width that has one
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _unpack(raw: bytes, width: int) -> tuple[int, ...]:
    """The two's-complement lanes of width bytes in raw, as ints."""
    if code := _CODES.get(width):
        return struct.unpack(f"<{len(raw) // width}{code}", raw)
    return tuple(  # lanes wider than any struct code
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(0, len(raw), width)
    )


def _pack(values: Sequence[int], width: int) -> bytes:
    """values as two's-complement lanes of width bytes: _unpack's inverse
    (a Struct's pack, unlike struct.pack, does not copy values first)."""
    if code := _CODES.get(width):
        return struct.Struct(f"<{len(values)}{code}").pack(*values)
    return b"".join(v.to_bytes(width, "little", signed=True) for v in values)


def _signed_bytes(word) -> bytes:
    """word as one signed byte (v mod 256) per entry: the one reader of
    that format.  A bytes-like word is taken as it is and an int
    sequence as one-byte lanes; any other entry raises ValueError."""
    try:  # a bytes-like word, as it is
        return b"".join((word,))
    except TypeError:  # an int sequence
        try:
            return _pack(word, 1)
        except (TypeError, struct.error):
            raise ValueError("need bits or carries in [-128, 127]") from None


class CarrySequence(_Record):
    """Length-n word of carries; weight is the plain sum of entries.

    word holds one signed byte (c mod 256) per carry when every carry
    lies in [-128, 127], and the tuple of carries otherwise; carries is
    its tuple view.  The constructor reads any int iterable once, and a
    bytes-like word as signed bytes, and stores it in that one form, so
    equal words compare and hash equal however they were given.
    """

    _fields = "n word"

    def __init__(self, n: int, word: bytes | tuple[int, ...]) -> None:
        try:
            memoryview(word)
        except TypeError:  # an int iterable, read once
            word = tuple(word)
        try:
            word = _signed_bytes(word)
        except ValueError:  # integers beyond a signed byte stay a tuple
            try:
                word = tuple(map(index, word))
            except TypeError:
                raise ValueError("carries must be integers") from None
        if len(word) != n:
            raise ValueError(f"expected {n} carries, got {len(word)}")
        self.__dict__.update(n=n, word=word)

    @property
    def carries(self) -> tuple[int, ...]:
        word = self.word
        return _unpack(word, 1) if isinstance(word, bytes) else word

    def weight(self) -> int:
        return sum(self.carries)


def _rotations(terms: Iterable, x: int, n: int, lane: int) -> int:
    """sum_j t_j * rot_j(x) for x holding n lanes of lane bits each.

    rot_j moves lane i to lane i + j mod n with one shift and one mask,
    so when lane i of x holds a[i], lane i of rot_j(x) holds a[i-j];
    rot_0 is x itself.  A coefficient of +-1, as every term of the gold,
    kasami and BL forms has, adds or subtracts without a multiply.
    """
    size = n * lane
    mask = (1 << size) - 1
    total = 0
    for j, t in terms:
        k = j % n * lane
        rotated = ((x << k) | (x >> (size - k))) & mask if k else x
        if t == -1:
            total -= rotated
        else:
            total += rotated if t == 1 else t * rotated
    return total


def _lanes(bits: bytes, width: int) -> int:
    """The integer holding bits[i] in its i-th lane of width bytes."""
    if width == 1:
        return int.from_bytes(bits, "little")
    lanes = bytearray(len(bits) * width)
    lanes[::width] = bits
    return int.from_bytes(lanes, "little")


def _lane_width(lo: int, hi: int) -> int:
    """The fewest bytes, 1, 2, 4, 8 or a larger power of two, of a
    two's-complement lane that holds every value in [lo, hi], lo <= 0 <= hi."""
    size = (max(-lo - 1, hi).bit_length() + 8) // 8  # bytes, with a sign bit
    return 1 << (size - 1).bit_length()


def _flip_tops(raw: bytes, width: int) -> bytes | bytearray:
    """raw with the sign bit of each width-byte lane flipped: a lane that
    holds v + 2^(8w-1) then holds v in two's complement, and back."""
    if width == 1:
        return raw.translate(_FLIP_SIGN)
    flipped = bytearray(raw)
    flipped[width - 1 :: width] = raw[width - 1 :: width].translate(_FLIP_SIGN)
    return flipped


def _in_range(word: bytes | tuple[int, ...], lo: int, hi: int) -> bool:
    """Whether every carry of a signed-byte or tuple word lies in [lo, hi]."""
    if isinstance(word, bytes):  # delete the bytes of [lo, hi] mod 256
        spanned = _FLIP_SIGN[max(lo + 128, 0) : hi + 129]
        return not word.translate(None, spanned)
    return lo <= min(word) <= max(word) <= hi


def _packed_difference(
    form: SignedPowerForm, a: BitSequence, s: BitSequence, width: int
) -> int:
    """D = sum_j t_j * rot_j(A) - S on lanes of width bytes, with A and
    S holding a[i] and s[i] in lane i."""
    total = _rotations(form.terms, _lanes(a.word, width), a.n, 8 * width)
    return total - _lanes(s.word, width)


def solve_carries(
    form: SignedPowerForm, a: BitSequence, s: BitSequence
) -> CarrySequence:
    """Find the unique carry word certifying s = l*a mod 2^n - 1.

    The seed division alone decides: it raises CongruenceError when it
    leaves a remainder, which is exactly the case s != l*a.  The word is
    then read off the packed division of the module docstring; the true
    word solves it, so a remainder or a stray carry there is a bug
    (RuntimeError).
    """
    if a.n != s.n:
        raise ValueError(f"length mismatch: a has {a.n} bits, s has {s.n}")
    lo, hi = form.t_minus, form.t_plus - 1
    n = a.n
    total = _rotations(form.terms, a.value, n, 1)
    seed, rem = divmod(total - s.value, (1 << n) - 1)
    if rem:
        raise CongruenceError(
            "no carry word closes the cycle: the congruence does not hold"
        )
    width = _lane_width(lo, hi)
    lane = 8 * width
    base, bias = 1 << lane, 1 << (lane - 1)
    packed = _packed_difference(form, a, s, width)
    size = lane * n  # B^n = 2^size
    k = seed * (base - 1) + bias * (base - 2)
    word, rem = divmod(
        (k << size) - k - (base - 1) * packed, (base - 1) * (base - 2)
    )
    if rem or not 0 <= word < 1 << size:
        raise RuntimeError("packed carry division is inexact; this is a bug")
    # lane i of raw holds c[i] in two's complement
    raw = _flip_tops(word.to_bytes(n * width, "little"), width)
    last = int.from_bytes(raw[-width:], "little", signed=True)
    carries = raw if width == 1 else _unpack(raw, width)
    if last != seed or not _in_range(carries, lo, hi):
        raise RuntimeError("carries leave their range or seed; this is a bug")
    try:  # the constructor's one form: signed bytes if every carry fits
        carries = _signed_bytes(carries)
    except ValueError:  # a carry beyond a signed byte: the tuple
        pass
    return CarrySequence._of(n=n, word=carries)


def _certificate_fault(
    form: SignedPowerForm, a: BitSequence, s: BitSequence, c: CarrySequence
) -> str | None:
    """What keeps c from certifying s = l*a mod 2^n - 1, or None if
    nothing: c must lie in [t_-, t_+ - 1] and pass the packed check of
    the module docstring, which recomputes every s[i] at once."""
    n = a.n
    if not n == s.n == c.n:
        return f"lengths differ: a has {n} bits, s {s.n}, c {c.n} carries"
    lo, hi = form.t_minus, form.t_plus - 1
    if not _in_range(c.word, lo, hi):
        return "carry word leaves its range"
    bound = 2 * (hi - lo) + 1  # the largest lane difference, kept below B/2
    width = _lane_width(-bound, bound)
    lane = 8 * width
    bias = 1 << (lane - 1)
    # at width 1, [lo, hi] fits a signed byte, so c.word is bytes
    raw = c.word if width == 1 else _pack(c.carries, width)
    carries = int.from_bytes(_flip_tops(raw, width), "little")
    # lane i: T[i] - 2*c[i] + c[i-1] - s[i] - bias
    excess = _packed_difference(form, a, s, width)
    excess += _rotations(((0, -2), (1, 1)), carries, n, lane)
    if excess * ((1 << lane) - 1) != bias - (bias << lane * n):
        return "carry word does not reproduce s"
    return None


def verify_congruence(
    form: SignedPowerForm, a: BitSequence, s: BitSequence
) -> CarrySequence:
    """Decide s = l*a mod 2^n - 1 and return the certifying carries.

    Solves, then checks the word by _certificate_fault: raises
    CongruenceError when the congruence fails, RuntimeError on a bug.
    """
    result = solve_carries(form, a, s)
    if fault := _certificate_fault(form, a, s, result):
        raise RuntimeError(f"{fault}; this is a bug")
    return result

