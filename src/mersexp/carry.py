"""The modular add-with-carry engine.

Write an exponent as l = sum_j t_j * 2^j with small signed integer
coefficients.  Then s = l * a mod 2^n - 1 holds if and only if there
is a word c of "carries", each in [t_-, t_+ - 1], satisfying

    2*c[i] - c[i-1] + s[i] = sum_j t_j * a[i-j]        (indices mod n)

where a, s are the n-bit expansions and t_+ (t_-) is the sum of the
positive (negative) coefficients.  Multiplying the i-th equation by 2^i
and summing around the cycle gives the seed identity

    sum_j t_j * rot_j(a) - s = (2^n - 1) * c[n-1]

with rot_j(a) the integer value of a cyclically shifted up by j.  One
division therefore decides the congruence and fixes the final carry.
Every solution has that final carry, and the recurrence determines
the other carries from it, so the carry word is unique when it exists;
solving the recurrence both decides the congruence and produces a
certificate for it.

The solver and verify_congruence's cross-check pack a word into one
integer, a lane of w bytes (base B = 256^w) per position.  The check
recomputes every s[i] = T[i] - 2*c[i] + c[i-1] at once, on lanes that
keep each per-lane difference, at most 2*(t_+ - t_-) - 1, below B/2:
then the integers are equal only if every lane is.  The solved word
is kept as one signed byte (c mod 256) per carry whenever every carry
fits one, and as a tuple otherwise; the check packs its lanes from
those bytes by flipping their sign bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .residues import _FAMILIES, BitSequence, ExponentFamily

__all__ = [
    "CongruenceError",
    "SignedPowerForm",
    "CarrySequence",
    "CarryReport",
    "signed_form",
    "canonical_form",
    "solve_carries",
    "verify_congruence",
    "carry_constraints_check",
]


class CongruenceError(ValueError):
    """No carry word closes the cycle: s is not l*a mod 2^n - 1."""


@dataclass(frozen=True)
class SignedPowerForm:
    """An exponent written as sum_j t_j * 2^j with signed coefficients.

    terms maps exponent j >= 0 to a nonzero integer coefficient t_j,
    stored sorted by j.  The freedom in choosing a representation is
    the point: kasami exponents get the three-term form with carry
    range {-1, 0, 1} instead of their wide binary expansion.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a signed power form needs at least one term")
        seen = set()
        for j, t in self.terms:
            if j < 0:
                raise ValueError(f"exponent {j} must be >= 0")
            if t == 0:
                raise ValueError(f"coefficient of 2^{j} must be nonzero")
            if j in seen:
                raise ValueError(f"duplicate exponent {j}")
            seen.add(j)
        if self.t_plus < 1:
            raise ValueError("at least one positive coefficient required")
        if self.value() <= 0:
            raise ValueError("the represented integer must be positive")

    @property
    def t_plus(self) -> int:
        return sum(t for _, t in self.terms if t > 0)

    @property
    def t_minus(self) -> int:
        return sum(t for _, t in self.terms if t < 0)

    def value(self) -> int:
        return sum(t << j for j, t in self.terms)


def signed_form(terms: Mapping[int, int]) -> SignedPowerForm:
    """Build a SignedPowerForm from an {exponent: coefficient} mapping."""
    return SignedPowerForm(tuple(sorted(terms.items())))


def canonical_form(f: ExponentFamily) -> SignedPowerForm:
    """The low-coefficient signed form of a family, from its terms.

    Defined for gold, kasami, bracken_leander and raw (the plain binary
    expansion of l); the other families have no signed terms.
    """
    terms = _FAMILIES[f.kind][0]
    if terms is None:
        raise ValueError(f"no canonical signed form for family {f.kind!r}")
    return signed_form(terms(f.param))


# flips a byte's sign bit: c + 128 <-> c mod 256 for a signed byte c
_FLIP_SIGN = bytes(v ^ 0x80 for v in range(256))


def _signed_bytes(*words) -> bytes:
    """The words joined, one signed byte (v mod 256) per entry: the one
    reader of that format.  Bytes-like words are taken as they are and
    int sequences converted; any other entry raises ValueError."""
    try:  # bytes-like words join as they are
        return b"".join(words)
    except TypeError:  # an int sequence among them
        if len(words) > 1:
            return b"".join([_signed_bytes(word) for word in words])
    try:  # flipping the sign bit of v + 128 gives v mod 256
        return bytes(v + 128 for v in words[0]).translate(_FLIP_SIGN)
    except (TypeError, ValueError):
        raise ValueError("need bits or carries in [-128, 127]") from None


@dataclass(frozen=True)
class CarrySequence:
    """Length-n word of carries; weight is the plain sum of entries.

    word holds one signed byte (c mod 256) per carry when every carry
    lies in [-128, 127], and the tuple of carries otherwise; carries is
    its tuple view.  The constructor reads any int iterable once, and a
    bytes-like word as signed bytes, and stores it in that one form, so
    equal words compare and hash equal however they were given.
    """

    n: int
    word: bytes | tuple[int, ...]

    def __post_init__(self) -> None:
        word = self.word
        try:
            memoryview(word)
        except TypeError:  # an int iterable, read once
            word = tuple(word)
        try:
            word = _signed_bytes(word)
        except ValueError:  # a carry beyond a signed byte: keep the tuple
            pass
        object.__setattr__(self, "word", word)
        if len(word) != self.n:
            raise ValueError(f"expected {self.n} carries, got {len(word)}")

    @property
    def carries(self) -> tuple[int, ...]:
        if isinstance(self.word, bytes):
            return tuple(memoryview(self.word).cast("b"))
        return self.word

    def weight(self) -> int:
        return sum(self.carries)


def _rotations(terms: Iterable, x: int, n: int, lane: int) -> int:
    """sum_j t_j * rot_j(x) for x holding n lanes of lane bits each.

    rot_j moves lane i to lane i + j mod n with one shift and one mask,
    so when lane i of x holds a[i], lane i of rot_j(x) holds a[i-j].
    """
    size = n * lane
    mask = (1 << size) - 1
    total = 0
    for j, t in terms:
        k = j % n * lane
        total += t * (((x << k) | (x >> (size - k))) & mask)
    return total


def _lanes(bits: bytes, width: int) -> int:
    """The integer holding bits[i] in its i-th lane of width bytes."""
    lanes = bytearray(len(bits) * width)
    lanes[::width] = bits
    return int.from_bytes(lanes, "little")


def solve_carries(
    form: SignedPowerForm, a: BitSequence, s: BitSequence
) -> CarrySequence:
    """Find the unique carry word certifying s = l*a mod 2^n - 1.

    The seed identity gives the only possible final carry c[n-1] by one
    division.  When it divides, the word exists: with T[i] = sum_j t_j
    a[i-j], 2^(m+1) * c[m] = c[n-1] + sum_{i <= m} 2^i * (T[i] - s[i])
    is an exact multiple and keeps every carry in [t_-, t_+ - 1].  The
    whole word is then read off one more division instead of n steps:
    with one lane of w bytes per position (base B = 256^w, wide enough
    for any carry), the recurrence packs into

        (2 - B) * C = D - c[n-1] * (B^n - 1)

    where C and D hold c[i] and T[i] - s[i] in lane i.  The words' bytes
    are used as they are: a lane of w bytes is a spread-out byte, the
    top B^n = 2^(8wn) a shift and the repunit (B^n - 1)/(B - 1) lanes
    of ones.  Raises CongruenceError when a division leaves a
    remainder, a carry falls outside [t_-, t_+ - 1] or the word does
    not close on its seed, which is exactly the case s != l*a.
    """
    if a.n != s.n:
        raise ValueError(f"length mismatch: a has {a.n} bits, s has {s.n}")
    lo, hi = form.t_minus, form.t_plus - 1
    n = a.n
    total = _rotations(form.terms, a.value, n, 1)
    seed, rem = divmod(total - s.value, (1 << n) - 1)
    if rem or not lo <= seed <= hi:
        raise CongruenceError(
            "no carry word closes the cycle: the congruence does not hold"
        )
    small = lo >= -128 and hi <= 127  # every carry fits a signed byte
    width = 1 if small else ((hi - lo).bit_length() + 7) // 8
    bias = 128 if small else -lo
    lane = 8 * width
    top = 1 << (lane * n)  # B^n
    packed = _rotations(form.terms, _lanes(a.word, width), n, lane)
    packed -= _lanes(s.word, width)
    word, rem = divmod(seed * (top - 1) - packed, (1 << lane) - 2)
    word += bias * _lanes(b"\x01" * n, width)  # lane i holds c[i] + bias
    if rem or not 0 <= word < top:
        raise CongruenceError(
            "no carry word solves the recurrence: "
            "the congruence does not hold"
        )
    raw = word.to_bytes(n * width, "little")
    last = int.from_bytes(raw[-width:], "little") - bias
    if small:
        stray = raw.translate(None, bytes(range(lo + bias, hi + bias + 1)))
        carries = raw.translate(_FLIP_SIGN)  # c[i] mod 256 in byte i
    else:
        carries = tuple(
            int.from_bytes(raw[i : i + width], "little") - bias
            for i in range(0, n * width, width)
        )
        stray = not lo <= min(carries) <= max(carries) <= hi
    if stray or last != seed:
        raise CongruenceError(
            "the carry word leaves its range or does not close the cycle: "
            "the congruence does not hold"
        )
    return CarrySequence(n, carries)


def verify_congruence(
    form: SignedPowerForm, a: BitSequence, s: BitSequence
) -> CarrySequence:
    """Decide s = l*a mod 2^n - 1 and return the certifying carries.

    Solves the recurrence, then recomputes s from (l, a, c) as a final
    cross-check on lanes of w bytes, B = 256^w: the integer
        sum_j t_j * rot_j(A) - 2*C + rot_1(C) + bias * (B^n - 1)/(B - 1)
    must equal S, where lane i of A, S and C holds a[i], s[i], c[i] + bias.
    Lane i of the difference, T[i] - 2*c[i] + c[i-1] - s[i], is at most
    2*(t_+ - t_-) - 1 in size for carries in [t_-, t_+ - 1]; w keeps that
    below B/2, so the integers are equal only if every lane is.  Raises
    CongruenceError when the congruence fails, RuntimeError when the
    solved word leaves its range or does not reproduce s.
    """
    result = solve_carries(form, a, s)
    lo, hi = form.t_minus, form.t_plus - 1
    width = (2 * (hi - lo) + 1).bit_length() // 8 + 1  # B > 2 * max |d[i]|
    carries, bias = _carry_lanes(result, lo, hi, width)
    n, lane = a.n, 8 * width
    recomputed = (
        _rotations(form.terms, _lanes(a.word, width), n, lane)
        + _rotations(((0, -2), (1, 1)), carries, n, lane)
        + bias * _lanes(b"\x01" * n, width)
    )
    if recomputed != _lanes(s.word, width):
        raise RuntimeError("carry word does not reproduce s; this is a bug")
    return result


def _carry_lanes(c, lo: int, hi: int, width: int) -> tuple[int, int]:
    """(C, bias) with c[i] + bias in lane i of C; c must lie in [lo, hi]."""
    stray = RuntimeError("carry word leaves its range; this is a bug")
    if width == 1:  # [lo, hi] fits a signed byte: a word in range is bytes
        if not isinstance(c.word, bytes):
            raise stray
        raw = c.word.translate(_FLIP_SIGN)  # c[i] + 128 in byte i
        if raw.translate(None, bytes(range(lo + 128, hi + 129))):
            raise stray
        return int.from_bytes(raw, "little"), 128
    carries = c.carries
    if not lo <= min(carries) <= max(carries) <= hi:
        raise stray
    raw = b"".join((ci - lo).to_bytes(width, "little") for ci in carries)
    return int.from_bytes(raw, "little"), -lo


@dataclass(frozen=True)
class CarryReport:
    """Constraint checks for a kasami-form carry word.

    pair_bound_ok:    every c[i] + c[i-r] lies in {-1, 0, 1}
    half_weight_ok:   |weight(c)| <= n/2
    weight_identity:  weight(c) + weight(s) = weight(a)
    """

    carry_weight: int
    pair_bound_ok: bool
    half_weight_ok: bool
    weight_identity: bool


def carry_constraints_check(
    c: CarrySequence,
    form: SignedPowerForm,
    r: int,
    a: BitSequence,
    s: BitSequence,
) -> CarryReport:
    """Check the extra constraints a kasami carry word must satisfy.

    Requires that c actually solves the recurrence for (form, a, s) and
    that form is the three-term kasami shape with parameter r.
    """
    if form != canonical_form(ExponentFamily("kasami", r)):
        raise ValueError(f"not a kasami form with parameter {r}")
    if solve_carries(form, a, s) != c:
        raise ValueError("carry word does not solve the recurrence for (a, s)")
    n, carries = c.n, c.carries
    w = sum(carries)
    pair_ok = all(
        carries[i] + carries[(i - r) % n] in (-1, 0, 1) for i in range(n)
    )
    return CarryReport(
        carry_weight=w,
        pair_bound_ok=pair_ok,
        half_weight_ok=2 * abs(w) <= n,
        weight_identity=w + s.weight() == a.weight(),
    )
