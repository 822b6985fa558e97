"""Decimated reorderings of length-n cyclic words.

The closed-form inverse constructions work in one coordinate system:
the d x (n/d) r-matrix with entry (i, j) = a[(i - j*r) mod n],
d = gcd(n, r).  With d = 1 its single row is the r-ordering, the
decimation of the word by -r.  Rows and columns are indexed from 0;
the reindexing is a weight preserving permutation of the word, done on
signed bytes throughout (the comment at _SHORT_ROW has the cut-offs).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt

from .carry import _signed_bytes
from .residues import BitSequence, _Record

__all__ = [
    "RMatrix",
    "e_value",
    "to_r_matrix",
    "matrix_of_sequence",
    "from_r_matrix",
]


def e_value(r: int, n: int) -> int:
    """Least positive residue of the inverse of r/d mod n/d, d = gcd(n, r).

    Drives the case dispatch of the closed forms.  By convention the
    degenerate case n/d = 1 returns 0; callers reject it upstream.
    """
    if r < 1 or n < 1:
        raise ValueError("r and n must be positive")
    d = gcd(r, n)
    return pow(r // d, -1, n // d)  # 0 when n/d = 1


class RMatrix(_Record):
    """d x (n/d) reindexing of a length-n word, d = gcd(n, r).

    entries[i][j] is the word's value at position (i - j*r) mod n; this
    correspondence is the single source of truth for indexing.  flat
    keeps the entries row by row, one signed byte (v mod 256) each, and
    entries is its tuple view.  The constructor takes the d rows as int
    or byte sequences; entries are bits or carries, in [-128, 127].
    """

    _fields = "n r flat"

    def __init__(self, n: int, r: int, rows: Sequence[Sequence[int]]) -> None:
        d = gcd(n, r)
        if len(rows) != d:
            raise ValueError(f"expected {d} rows, got {len(rows)}")
        if set(map(len, rows)) != {n // d}:
            raise ValueError(f"every row must have {n // d} entries")
        self.__dict__.update(n=n, r=r, flat=_signed_bytes(*rows))

    @property
    def d(self) -> int:
        return gcd(self.n, self.r)

    @property
    def cols(self) -> int:
        return self.n // self.d

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        flat, m = memoryview(self.flat).cast("b"), self.cols
        return tuple(tuple(flat[i : i + m]) for i in range(0, self.n, m))


def _walk(seq: bytes, start: int, stride: int, count: int) -> bytearray:
    """seq[(start + t*stride) % m] for t < count, read as runs of slices."""
    m, out = len(seq), bytearray()
    while len(out) < count:
        run = seq[start::stride][: count - len(out)]
        out += run
        start += len(run) * stride - m
    return out


def _decimate(seq: bytes, step: int) -> bytearray:
    """[seq[(-j*step) % m] for j < m], m = len(seq), step prime to m.

    Up to _SHORT_ROW entries it is every g-th entry of g copies of seq,
    g = -step mod m.  Longer words are walked: for the k <= sqrt(m) with
    k*g mod m nearest 0 or m, entries c, c + k, ... step through seq (or
    the reversed seq) by that short stride, about 2*sqrt(m) slices in all.
    """
    m = len(seq)
    g, top = m - step % m, 0
    if m <= _SHORT_ROW:  # g copies of seq, at most m*m bytes
        return bytearray((seq * g)[::g])
    k = min(
        range(1, isqrt(m) + 1),
        key=lambda k: k + min(k * g % m, -k * g % m),
    )
    if 2 * (k * g % m) > m:  # seq[x] is the reversed word's m - 1 - x
        seq, g, top = seq[::-1], m - g, m - 1
    out = bytearray(m)
    for c in range(k):
        x = (top + c * g) % m
        out[c::k] = _walk(seq, x, k * g % m, len(range(c, m, k)))
    return out


# With d = gcd(n, r) and n = d*m, position (i - j*r) mod n is
# i + d*((-j*r/d) mod m): row i is the strand word[i::d] decimated by
# r/d, and column j, flat[j::m], is the block of d consecutive entries
# starting at d*((-j*r/d) mod m).  Rows longer than d go strand by
# strand, the other words column by column, one slice copy each: the
# two cost the same near m = 1.5*d for d <= 32, beyond m = 3*d at
# d = 128.  Up to _SHORT_ROW, g copies of a row (at most 256 KB) beat
# the walk threefold; at m = 1024 some steps already lose.
_SHORT_ROW = 512


def _regular_word(flat: bytes, n: int, r: int) -> bytearray:
    """The bytes of the word whose r-matrix has these flat entries."""
    d = gcd(n, r)
    m, step = n // d, r // d
    word = bytearray(n)
    if m > d:
        inverse = pow(step, -1, m)
        for i in range(d):
            word[i::d] = _decimate(flat[i * m : (i + 1) * m], inverse)
    else:
        for j in range(m):
            b = -j * step % m * d
            word[b : b + d] = flat[j::m]
    return word


def matrix_of_sequence(values: Sequence[int], n: int, r: int) -> RMatrix:
    """r-matrix of a length-n word of ints in [-128, 127] or signed bytes."""
    word = _signed_bytes(values)
    if len(word) != n:
        raise ValueError(f"expected {n} values, got {len(word)}")
    d = gcd(n, r)
    m, step = n // d, r // d
    if m > d:
        flat = b"".join(_decimate(word[i::d], step) for i in range(d))
    else:
        flat = bytearray(n)
        for j in range(m):
            b = -j * step % m * d
            flat[j::m] = word[b : b + d]
    matrix = object.__new__(RMatrix)  # flat, not split into rows again
    matrix.__dict__.update(n=n, r=r, flat=bytes(flat))
    return matrix


def to_r_matrix(a: BitSequence, r: int) -> RMatrix:
    """r-matrix of a bit word."""
    return matrix_of_sequence(a.word, a.n, r)


def from_r_matrix(m: RMatrix) -> BitSequence:
    """The bit word of a binary r-matrix, the left inverse of to_r_matrix.

    BitSequence rejects non-bits and, for canonicality, the all-ones word.
    """
    return BitSequence(m.n, _regular_word(m.flat, m.n, m.r))
