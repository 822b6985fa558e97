"""Decimated reorderings of length-n cyclic words.

The closed-form inverse constructions work in one coordinate system:
the d x (n/d) r-matrix with entry (i, j) = a[(i - j*r) mod n],
d = gcd(n, r).  With d = 1 its single row is the r-ordering, the
decimation of the word by -r.  Rows and columns are indexed from 0;
the reindexing is a weight preserving permutation of the word, done on
signed bytes throughout.

A strand longer than _SHORT_ROW is decimated in strided slices of a
few back-to-back copies of itself.  _plan takes the slice stride from
the convergents of the continued fraction of the step over the strand
length, so a strand of m entries takes at most 2*sqrt(m) slices (a
median 0.2*sqrt(m) over random steps at m = 16,001) and at most 256 KB
of copies, or the strand itself when it is longer; the comment at
_SHORT_ROW has the cut-offs and the costs.  The same plan decimates a
list of ints within a budget of copies its caller sets: sbox._powers
reads the powers of a field generator this way.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .carry import _signed_bytes
from .residues import BitSequence, _Record

__all__ = [
    "RMatrix",
    "to_r_matrix",
    "matrix_of_sequence",
    "from_r_matrix",
]


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
        self.__dict__.update(n=n, r=r, flat=b"".join(map(_signed_bytes, rows)))

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


# With d = gcd(n, r) and n = d*m, position (i - j*r) mod n is
# i + d*((-j*r/d) mod m): row i is the strand word[i::d] decimated by
# r/d, and column j, flat[j::m], is the block of d consecutive entries
# starting at d*((-j*r/d) mod m).  Rows longer than d go strand by
# strand, one plan for all d strands, the other words column by column,
# one slice copy each: the two cost the same near m = 1.5*d for d <= 32,
# beyond m = 3*d at d = 128.  Up to _SHORT_ROW a strand is every g-th
# entry of g copies of itself, one slice of at most 256 KB with no plan
# to work out (a list takes this path while m*m is within its budget).
# On a Xeon core with Python 3.11 that takes a median
# 1.0 us at m = 64 and 6.6 us at m = 512, and _plan with _decimate's
# walk 6.3 and 10.1 us; they break even near m = 768 (13.5 us, but g
# copies reach 590 KB there), and the walk wins from m = 1024 (17
# against 22 us).
_SHORT_ROW = 512


def _plan(
    m: int, step: int, budget: int = _SHORT_ROW**2
) -> tuple[int, int, int, int]:
    """How _decimate reads a length-m strand decimated by step, making
    at most budget entries of copies, or one copy of a longer strand:
    _SHORT_ROW**2 bytes (256 KB, the bound of the short rows) for bytes.

    step must be a unit mod m, gcd(step, m) = 1, as every caller's is:
    with a common factor the convergent walk may divide by a zero
    remainder of g/m (ZeroDivisionError).

    Returns (g, q, h, copies), g = -step mod m.  Output entry j is
    seq[j*g % m], so the entries j, j + q, j + 2q, ... lie h = q*g mod m
    apart in seq (h taken in (-m/2, m/2]), and one strided slice of
    copies back-to-back copies of seq reads a run of them.  The best q
    are the convergent denominators of g/m: each gives the least |h| of
    any q below the next one (best approximations), so the plan looks at
    their O(log m) values only and keeps the q of fewest slices.  Each q
    takes the copies that read every run in one slice, q slices, within
    the budget; past it a run breaks where the copies end, q +
    |h|/copies slices.  A strand with m*m <= budget is one slice of g
    copies, with no plan to work out.
    """
    g = -step % m
    if m * m <= budget:  # one slice of g copies
        return g, 1, g, g
    cap = max(1, budget // m)
    best, plan = m, (g, 1, g, 1)
    q0, q, num, den = 0, 1, m, g
    while q < best:  # no later candidate costs less than its q
        h = q * g % m
        if 2 * h > m:
            h -= m
        # the copies that read each run in one slice, capped
        fit = 1 + ((m - 1) // q * abs(h) + m - 1) // m
        copies = min(fit, cap)
        cost = q if fit <= cap else q + abs(h) // copies
        if cost < best:
            best, plan = cost, (g, q, h, copies)
        t = num // den  # the next partial quotient of g/m
        num, den = den, num - t * den
        q0, q = q, t * q + q0
    return plan


def _decimate(
    seq: bytes | list[int], plan: tuple[int, int, int, int]
) -> bytes | bytearray | list[int]:
    """[seq[(-j*step) % m] for j < m], m = len(seq) >= 2, plan =
    _plan(m, step, budget): bytes or a bytearray for a byte strand, a
    list for a list.

    Each run j, j + q, ... of the output reads copies of seq upwards by
    |h|: from its first j up when h > 0, from its last j (in [m - q, m))
    down when h < 0.  A slice ends where the copies do, and the run goes
    on from the same residue in the first copy.
    """
    g, q, h, copies = plan
    if q == 1 and copies == g:  # one slice of g copies
        return (seq * g)[::g]
    m = len(seq)
    span = copies * m
    src = seq if copies == 1 else seq * copies  # seq * 1 copies a list
    out = [0] * m if isinstance(seq, list) else bytearray(m)
    if h > 0:
        starts, end, stride = range(q), m, q
    else:
        starts, end, stride, h = range(m - q, m), -1, -q, -h
    for j in starts:
        x, left = j * g % m, len(range(j, end, stride))
        while left:
            take = min(left, (span - 1 - x) // h + 1)
            stop = j + take * stride
            out[j : stop if stop >= 0 else None : stride] = src[x : x + take * h : h]
            j, x, left = stop, (x + take * h) % m, left - take
    return out


def matrix_of_sequence(values: Sequence[int], n: int, r: int) -> RMatrix:
    """r-matrix of a length-n word of ints in [-128, 127] or signed bytes."""
    word = _signed_bytes(values)
    if len(word) != n:
        raise ValueError(f"expected {n} values, got {len(word)}")
    d = gcd(n, r)
    m, step = n // d, r // d
    if m > d:
        plan = _plan(m, step)
        flat = b"".join(_decimate(word[i::d], plan) for i in range(d))
    else:
        flat = bytearray(n)
        for j in range(m):
            b = -j * step % m * d
            flat[j::m] = word[b : b + d]
    return RMatrix._of(n=n, r=r, flat=bytes(flat))


def to_r_matrix(a: BitSequence, r: int) -> RMatrix:
    """r-matrix of a bit word."""
    return matrix_of_sequence(a.word, a.n, r)


def from_r_matrix(m: RMatrix) -> BitSequence:
    """The bit word of a binary r-matrix, the left inverse of to_r_matrix:
    the closed forms read their inverse off its r-matrix this way.

    BitSequence rejects non-bits and, for canonicality, the all-ones word.
    """
    n, d = m.n, m.d
    cols, step = n // d, m.r // d
    word = bytearray(n)
    if cols > d:
        plan = _plan(cols, pow(step, -1, cols))
        for i in range(d):
            word[i::d] = _decimate(m.flat[i * cols : (i + 1) * cols], plan)
    else:
        for j in range(cols):
            b = -j * step % cols * d
            word[b : b + d] = m.flat[j::cols]
    return BitSequence(n, word)
