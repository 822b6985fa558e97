"""Decimated reorderings of length-n cyclic words.

The closed-form inverse constructions work in one coordinate system:
the d x (n/d) r-matrix with entry (i, j) = a[(i - j*r) mod n],
d = gcd(n, r).  With d = 1 its single row is the r-ordering, the
decimation of the word by -r.  Rows and columns are indexed from 0;
the reindexing is a weight preserving permutation of the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt
from typing import Sequence

from .residues import BitSequence

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
    m = n // d
    if m == 1:
        return 0
    return pow(r // d, -1, m)


@dataclass(frozen=True)
class RMatrix:
    """d x (n/d) reindexing of a length-n word, d = gcd(n, r).

    entries[i][j] is the word's value at position (i - j*r) mod n; this
    correspondence is the single source of truth for indexing.  Entries
    are small integers: bit words use {0, 1}, carry words may also hold
    -1 and 2.
    """

    n: int
    r: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = gcd(self.n, self.r)
        if len(self.entries) != d:
            raise ValueError(f"expected {d} rows, got {len(self.entries)}")
        cols = self.n // d
        if set(map(len, self.entries)) != {cols}:
            raise ValueError(f"every row must have {cols} entries")

    @property
    def d(self) -> int:
        return gcd(self.n, self.r)

    @property
    def cols(self) -> int:
        return self.n // self.d


def _walk(
    seq: Sequence[int], start: int, stride: int, count: int
) -> Sequence[int]:
    """seq[(start + t*stride) % m] for t < count, read as runs of slices."""
    m = len(seq)
    out = bytearray() if isinstance(seq, (bytes, bytearray)) else []
    x = start
    if 2 * stride <= m:
        while len(out) < count:
            run = seq[x::stride][: count - len(out)]
            out += run
            x += len(run) * stride - m
    else:
        back = m - stride
        while len(out) < count:
            run = seq[x::-back][: count - len(out)]
            out += run
            x += m - len(run) * back
    return out


def _decimate(seq: Sequence[int], step: int) -> Sequence[int]:
    """[seq[(-j*step) % m] for j < m], m = len(seq), step prime to m.

    Keeps its input's kind: bytes (or a bytearray) give a bytearray,
    any other sequence a list.  Words up to 256 entries are read one
    index per entry; longer ones are built from slices instead: for the
    k <= sqrt(m) with k*step mod m nearest 0 or m, the entries j = c,
    c + k, c + 2k, ... walk seq with that short stride and wrap around
    only a few times, so about 2*sqrt(m) slices cover the word.
    """
    m = len(seq)
    packed = isinstance(seq, (bytes, bytearray))
    if m <= 256:  # short words: one index per entry is cheaper
        out = [seq[(-j * step) % m] for j in range(m)]
        return bytearray(out) if packed else out
    g = -step % m
    k = min(
        range(1, isqrt(m) + 1),
        key=lambda k: k + min(k * g % m, -k * g % m),
    )
    out = bytearray(m) if packed else [0] * m
    for c in range(k):
        out[c::k] = _walk(seq, c * g % m, k * g % m, len(range(c, m, k)))
    return out


# With d = gcd(n, r) and n = d*m, position (i - j*r) mod n is
# i + d*((-j*r/d) mod m): row i is the strand word[i::d] decimated by
# r/d, and column j is the block of d consecutive entries starting at
# d*((-j*r/d) mod m), so the columns are the word's blocks decimated.
# Bytes with rows longer than _LONG_ROW (near where the two cost the
# same) go strand by strand, in cheap byte slices; other words move
# whole columns, one step per entry but about 2*sqrt(m) slices in all.
_LONG_ROW = 1024


def _regular_word(rows: Sequence[Sequence[int]], n: int, r: int) -> bytearray:
    """The bytes of the word whose r-matrix has these rows."""
    d = gcd(n, r)
    m = n // d
    inverse = pow(r // d, -1, m)
    if d == 1 or m > _LONG_ROW:
        word = bytearray(n)
        for i, row in enumerate(rows):
            word[i::d] = _decimate(bytes(row), inverse)
        return word
    return bytearray(chain.from_iterable(_decimate(list(zip(*rows)), inverse)))


def matrix_of_sequence(values: Sequence[int], n: int, r: int) -> RMatrix:
    """r-matrix of an arbitrary length-n integer word."""
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    d = gcd(n, r)
    m, step = n // d, r // d
    if d == 1 or isinstance(values, (bytes, bytearray)) and m > _LONG_ROW:
        rows = [_decimate(values[i::d], step) for i in range(d)]
        return RMatrix(n, r, tuple(map(tuple, rows)))
    blocks = list(zip(*[iter(values)] * d))
    return RMatrix(n, r, tuple(zip(*_decimate(blocks, step))))


def to_r_matrix(a: BitSequence, r: int) -> RMatrix:
    """r-matrix of a bit word."""
    return matrix_of_sequence(a.word, a.n, r)


def from_r_matrix(m: RMatrix) -> BitSequence:
    """Reassemble the bit word of a binary r-matrix.

    Left inverse of to_r_matrix.  Rejects non-binary entries, and the
    all-ones reassembly is rejected by BitSequence for canonicality.
    """
    try:
        word = _regular_word(m.entries, m.n, m.r)
    except (TypeError, ValueError):  # an entry that is no byte at all
        raise ValueError("matrix entries must be bits") from None
    return BitSequence(m.n, word)
