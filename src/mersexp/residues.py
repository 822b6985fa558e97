"""Arithmetic in the ring Z_{2^n - 1}.

Elements are kept as canonical least non-negative representatives in
[0, 2^n - 2].  Because 2^n is congruent to 1, reduction folds n-bit
chunks by ordinary addition; multiplication by powers of two is a
cyclic shift of the n-bit expansion.  This module also provides the
extended-Euclid inversion oracle that every closed-form construction
in the package is checked against.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import attrgetter, index

__all__ = [
    "NotInvertibleError",
    "Residue",
    "BitSequence",
    "ExponentFamily",
    "fold_mod",
    "to_bits",
    "mul_mod",
    "ext_euclid_inverse",
    "binary_weight",
    "cyclotomic_shift",
    "cyclotomic_canonical",
    "family_exponent",
    "is_invertible",
]


class NotInvertibleError(ValueError):
    """The element shares a factor with 2^n - 1 and has no inverse."""


def fold_mod(x: int, n: int) -> int:
    """Reduce a non-negative integer mod 2^n - 1 by chunk folding.

    2^n - 1 divides 2^(n*2^k) - 1, so x folds in chunks of n*2^k bits,
    coarse to fine, each width about halving x: linear in its length.
    The all-ones intermediate 2^n - 1 folds to 0, so the result is
    always a canonical representative in [0, 2^n - 2].
    """
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    if x < 0:
        raise ValueError("fold_mod expects a non-negative integer")
    width = n
    while 2 * width < x.bit_length():
        width *= 2
    while True:
        mask = (1 << width) - 1
        while x > mask:
            x = (x & mask) + (x >> width)
        if width == n:
            return 0 if x == mask else x
        width //= 2


def _integer(name: str, value) -> int:
    """value as a plain int; anything else raises ValueError naming it."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _Record:
    """Immutable fields, named in the string _fields, with a frozen
    dataclass's init, equality (same class only), hash and repr."""

    _defaults: dict = {}  # field values when not given

    def __init_subclass__(cls) -> None:
        cls._names = tuple(cls._fields.split())
        cls._name_set = frozenset(cls._names)
        cls._key = attrgetter(*cls._names)

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        values = dict(self._defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or values.keys() != self._name_set:
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        self.__dict__.update(values)

    @classmethod
    def _of(cls, **attrs):
        """An instance with the attributes attrs, as given and unchecked."""
        record = object.__new__(cls)
        record.__dict__.update(attrs)
        return record

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = (f"{k}={getattr(self, k)!r}" for k in self._names)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Residue(_Record):
    """A canonical element of Z_{2^n - 1}: 0 <= value <= 2^n - 2."""

    _fields = "n value"

    def __init__(self, n: int, value: int) -> None:
        n, value = _integer("n", n), _integer("value", value)
        if n < 2:
            raise ValueError(f"ring parameter must be >= 2, got {n}")
        if not 0 <= value <= (1 << n) - 2:
            raise ValueError(f"{value} is not canonical mod 2^{n} - 1")
        self.__dict__.update(n=n, value=value)


class BitSequence(_Record):
    """Length-n cyclic binary word; index 0 is the least significant bit.

    word holds one byte, 0 or 1, per position (the constructor takes any
    int sequence), bits is its tuple view and value, computed once, the
    integer it spells.  The all-ones word is rejected: it denotes
    2^n - 1, the class of 0, which only the all-zero word represents.
    """

    _fields = "n word"

    def __init__(self, n: int, word: bytes) -> None:
        if n < 2:
            raise ValueError(f"ring parameter must be >= 2, got {n}")
        if len(word) != n:
            raise ValueError(f"expected {n} bits, got {len(word)}")
        try:  # ints in [0, 255] only, or a buffer's raw bytes (wider items)
            word = bytes(word)
        except (TypeError, ValueError):
            raise ValueError("bits must be 0 or 1") from None
        if len(word) != n or word.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        if 0 not in word:
            raise ValueError(
                "all-ones word rejected: 2^n - 1 is the class of 0"
            )
        self.__dict__.update(n=n, word=word)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.word)

    @cached_property
    def value(self) -> int:
        return _word_value(self.word)

    def weight(self) -> int:
        return self.word.count(1)


# byte translations between the characters "0"/"1" and the bytes 0/1
_CHARS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def to_bits(x: Residue) -> BitSequence:
    """Binary expansion of a residue, least significant bit first."""
    word = format(x.value, f"0{x.n}b")[::-1].encode().translate(_CHARS_TO_BITS)
    return BitSequence._of(n=x.n, word=word, value=x.value)


def _word_value(word: bytes) -> int:
    """The integer whose binary digits, least significant first, are word."""
    return int(word[::-1].translate(_BITS_TO_CHARS), 2)


def mul_mod(a: Residue, b: Residue) -> Residue:
    """Product in Z_{2^n - 1}; both operands must share the modulus."""
    if a.n != b.n:
        raise ValueError(f"mismatched moduli: 2^{a.n}-1 vs 2^{b.n}-1")
    return Residue(a.n, fold_mod(a.value * b.value, a.n))


def ext_euclid_inverse(l: int, n: int) -> Residue:
    """Inverse of l mod 2^n - 1 by the extended Euclidean algorithm.

    This is the independent oracle: it never consults the closed-form
    constructions.  Raises NotInvertibleError when gcd(l, 2^n - 1) > 1.
    """
    if l < 1:
        raise ValueError(f"need a positive integer, got {l}")
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    m = (1 << n) - 1
    old_r, r = l % m, m
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise NotInvertibleError(
            f"gcd({l}, 2^{n}-1) = {old_r}, no inverse exists"
        )
    return Residue(n, old_s % m)


def binary_weight(x: Residue) -> int:
    """Number of ones in the binary expansion.

    Equals the algebraic degree of the monomial map t -> t^value over
    GF(2^n).
    """
    return x.value.bit_count()


def cyclotomic_shift(l: Residue, i: int) -> Residue:
    """Multiply by 2^i mod 2^n - 1 (a cyclic shift of the bit word).

    Negative i shifts the other way; i is reduced mod n.
    """
    return Residue(l.n, fold_mod(l.value << (i % l.n), l.n))


def cyclotomic_canonical(l: Residue) -> Residue:
    """Smallest member of {2^i * l mod 2^n - 1 : 0 <= i < n}."""
    best = l.value
    v = l.value
    mask = (1 << l.n) - 1
    for _ in range(l.n - 1):
        v = ((v << 1) | (v >> (l.n - 1))) & mask
        if v < best:
            best = v
    return Residue(l.n, best)


# Every exponent family, keyed by kind: its signed terms {j: t_j},
# meaning l = sum_j t_j * 2^j, from the parameter and n.  Every family
# but inverse, whose exponent depends on n, has signed terms from the
# parameter alone: those are canonical_form's.
_FAMILIES = {
    "gold": lambda r, _: {r: 1, 0: 1},
    "kasami": lambda r, _: {2 * r: 1, r: -1, 0: 1},
    "bracken_leander": lambda r, _: {2 * r: 1, r: 1, 0: 1},
    # 2^(n-1) - 1 for odd n, its shift 2^n - 2 for even n
    "inverse": lambda _, n: {n - 1: 1, 0: -1} if n % 2 else {n: 1, 1: -1},
    "dobbertin": lambda r, _: {4 * r: 1, 3 * r: 1, 2 * r: 1, r: 1, 0: -1},
    # 2^t + 3; at t = 1 the terms 2 + 2 + 1 would collide
    "welch": lambda t, _: {t: 1, 1: 1, 0: 1} if t > 1 else {2: 1, 0: 1},
    # 2^t + 2^s - 1 with s = t/2 (t even) or (3t + 1)/2 (t odd)
    "niho": lambda t, _: {
        t: 1, ((3 * t + 1) // 2 if t % 2 else t // 2): 1, 0: -1
    },
    "raw": lambda l, _: {
        j: 1 for j, bit in enumerate(bin(l)[:1:-1]) if bit == "1"
    },
}


class ExponentFamily(_Record):
    """A named exponent family with its integer parameter.

    The parameter means: r for gold/kasami/bracken_leander/dobbertin,
    t for welch/niho, the exponent itself for raw.  The inverse family
    takes no parameter.
    """

    _fields = "kind param"

    def __init__(self, kind: str, param: int = 0) -> None:
        param = _integer("param", param)
        if kind not in _FAMILIES:
            raise ValueError(f"unknown family kind {kind!r}")
        if kind != "inverse" and param < 1:
            raise ValueError(f"{kind} needs a positive parameter, got {param}")
        self.__dict__.update(kind=kind, param=param)


def family_exponent(f: ExponentFamily, n: int) -> Residue:
    """Evaluate the family's defining integer and reduce mod 2^n - 1.

    Pure evaluation: table side conditions (parity, gcd constraints)
    are not enforced here.  2^j = 2^(j mod n), so each term is reduced
    before the sum, which stays within a few bits of 2^n.
    """
    if n < 2:
        raise ValueError(f"ring parameter must be >= 2, got {n}")
    terms = _FAMILIES[f.kind](f.param, n).items()
    total = sum(t << (j % n) for j, t in terms)
    return Residue(n, total % ((1 << n) - 1))


def is_invertible(l: int, n: int) -> bool:
    """True iff gcd(l, 2^n - 1) = 1."""
    return gcd(l, (1 << n) - 1) == 1
