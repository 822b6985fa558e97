"""Monomial S-box analysis over small binary fields.

GF(2^n) elements are n-bit integers in a polynomial basis.  Evaluation
of x -> x^l over the whole field goes through discrete-log tables built
once per field context.  The exp table is built by doubling: each step
is one product by a field constant, a linear map.  The uniformity scan
counts the values of D_1 F only, which fixes every D_a F of a power map.
Up to n = _LIST_MAX_N it counts them over the Frobenius orbits x -> x^2,
one leader per orbit: D_1 F(x^2) = D_1 F(x)^2, so an orbit's images
fill one orbit, each equally often.  That is O(2^n/n) per exponent,
after an O(2^n) orbit table built on a field's first scan; above
_LIST_MAX_N the scan counts over every x, in O(2^n).

Field analysis is capped at n <= MAX_FIELD_N = 24: memory and time are
O(2^n).  The default reduction polynomial of each degree is found by
search, not stored.

Up to n = _LIST_MAX_N = 16 the tables and scans are plain Python lists;
above it they are numpy uint32 arrays, and numpy is imported on the
first such call, so importing this module (and the package) does not
load it.  power_map returns an array('I') at every n.

The inverse check runs in exponent order: over x = g^i, x^l is exp at
i*l mod 2^n - 1, so the powers of all x are the exp table decimated by
l, read in strided slices (orderings._plan) on the list path and in
chunks of indices on the numpy path.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cache
from itertools import chain
from math import gcd
from operator import floordiv, xor

from .orderings import _decimate, _plan
from .residues import (
    ExponentFamily,
    _integer,
    _Record,
    family_exponent,
    is_invertible,
)

__all__ = [
    "FieldContext",
    "CatalogEntry",
    "is_irreducible",
    "smallest_irreducible",
    "power_map",
    "differential_uniformity",
    "verify_compositional_inverse",
    "catalog_lookup",
]

TYPE_CHECKING = False  # type checkers read it as True; numpy stays unloaded
if TYPE_CHECKING:
    import numpy as np

MAX_FIELD_N = 24
# Tables and scans on plain lists up to here, numpy above.  One
# `analyze` call at n = 16 takes less time and memory on lists than on
# numpy, its import included; at n = 17 they are even, above numpy wins.
_LIST_MAX_N = 16
# power_map's numpy gather works on this many entries at a time, so its
# uint64 index stays at 512 KB whatever n is; larger chunks leave their
# freed index on the heap, which then stays in RSS.
_CHUNK = 1 << 16
# The list path decimates the exp table within this many list slots of
# copies (32 KB of pointers): a slot costs about a hundred times a byte
# to copy.  At 32,768 slots the inverse check was 1.2-1.8 times as slow
# at n = 8 to 10; 1,024 to 4,096 time the same within the noise (2-core
# host, Python 3.11), and 4,096 reads strands up to m = 64 in one slice.
_LIST_COPIES = 4096


def _gf2_mulmod(a: int, b: int, poly: int, n: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= poly
    return res


def _gf2_powmod(a: int, k: int, poly: int, n: int) -> int:
    """a^k mod poly for k >= 1, from the top bit of k down: one squaring
    per lower bit and one product per lower set bit, so x^(2^k) takes
    k multiplications."""
    res = a
    for bit in bin(k)[3:]:
        res = _gf2_mulmod(res, res, poly, n)
        if bit == "1":
            res = _gf2_mulmod(res, a, poly, n)
    return res


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def is_irreducible(poly: int, n: int) -> bool:
    """Irreducibility of a monic degree-n polynomial over GF(2).

    Checks x^(2^n) = x mod poly and, for every prime p dividing n,
    gcd(x^(2^(n/p)) - x, poly) = 1.
    """
    if n < 1 or poly >> n != 1:
        return False
    x = 2 if n > 1 else poly & 1  # the basis element x, reduced mod poly
    if _gf2_powmod(x, 1 << n, poly, n) != x:
        return False
    return all(
        _gf2_poly_gcd(_gf2_powmod(x, 1 << (n // p), poly, n) ^ x, poly) == 1
        for p in _prime_factors(n)
    )


@cache
def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree n.

    Encoded as an (n+1)-bit integer.  Degrees below 2 are refused: the
    search would never end on them.
    """
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    cand = (1 << n) + 1
    while not is_irreducible(cand, n):
        cand += 2
    return cand


class FieldContext(_Record):
    """GF(2^n) in a polynomial basis with an explicit reduction polynomial.

    The default polynomial is the lexicographically smallest
    irreducible of degree n, which makes results deterministic; any
    other irreducible may be supplied and yields the same differential
    uniformities (the fields are isomorphic).
    """

    _fields = "n reduction_polynomial"

    def __init__(self, n: int, reduction_polynomial: int = 0) -> None:
        n = _integer("n", n)
        poly = _integer("reduction_polynomial", reduction_polynomial)
        if not 2 <= n <= MAX_FIELD_N:
            raise ValueError(
                f"field analysis supports 2 <= n <= {MAX_FIELD_N}, got {n}"
            )
        if poly and not is_irreducible(poly, n):
            raise ValueError(
                f"0b{poly:b} is not a monic irreducible of degree {n}"
            )
        poly = poly or smallest_irreducible(n)
        self.__dict__.update(n=n, reduction_polynomial=poly)

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def order(self) -> int:
        return (1 << self.n) - 1


def _find_generator(ctx: FieldContext) -> int:
    maximal = [ctx.order // p for p in _prime_factors(ctx.order)]
    for g in range(2, ctx.size):
        if all(
            _gf2_powmod(g, m, ctx.reduction_polynomial, ctx.n) != 1
            for m in maximal
        ):
            return g
    raise RuntimeError("no generator found; the field tables are broken")


def _mul_const(v: list[int] | np.ndarray, c: int, poly: int, n: int):
    """Elementwise GF(2^n) product c*v of field elements, in v's own type.

    v -> c*v is GF(2)-linear: c*v = lo[v & mask] ^ hi[v >> n//2], where lo
    and hi (at most 4,096 entries) xor the images c*2^b of each bit subset.
    v is a list, or a numpy uint32 array for fields above _LIST_MAX_N.
    """
    h = n // 2
    lo, hi = [0], [0]
    for b in range(n):
        image = _gf2_mulmod(c, 1 << b, poly, n)
        if b < h:
            lo += [x ^ image for x in lo]
        else:
            hi += [x ^ image for x in hi]
    mask = (1 << h) - 1
    if isinstance(v, list):
        return [lo[x & mask] ^ hi[x >> h] for x in v]
    import numpy as np

    lo, hi = np.array(lo, dtype=np.uint32), np.array(hi, dtype=np.uint32)
    out = lo[v & mask]
    out ^= hi[v >> h]  # in place: the log scatter stays the build's peak
    return out


@cache
def _tables(
    ctx: FieldContext,
) -> tuple[list[int], list[int]] | tuple[np.ndarray, np.ndarray]:
    """exp/log tables of the field; shared by every caller, never written.

    exp[i] = g^i for a generator g, by doubling from exp[0] = 1:
    exp[k : 2k] = g^k * exp[:k], then g^k is squared; log inverts exp
    (log[0] is never consulted).  Lists up to _LIST_MAX_N, numpy uint32
    arrays above it.
    """
    poly, n, order = ctx.reduction_polynomial, ctx.n, ctx.order
    if n <= _LIST_MAX_N:
        exp = [1] * order
    else:
        import numpy as np

        exp = np.ones(order, dtype=np.uint32)
    size, step = 1, _find_generator(ctx)  # step = g^size
    while size < order:
        cnt = min(size, order - size)
        exp[size : size + cnt] = _mul_const(exp[:cnt], step, poly, n)
        size += cnt
        step = _gf2_mulmod(step, step, poly, n)
    if n <= _LIST_MAX_N:
        log = [0] * ctx.size
        for i, x in enumerate(exp):
            log[x] = i
    else:
        log = np.zeros(ctx.size, dtype=np.uint32)
        log[exp] = np.arange(order, dtype=np.uint32)
    return exp, log


def _powers(exp: list[int], l: int) -> list[int]:
    """[exp[i*l % o] for i < o], o = len(exp): the powers (g^i)^l in the
    order of exp, which is exp decimated by l.

    With d = gcd(l, o) the sequence has period m = o/d: exp[::d]
    decimated by l/d (prime to m), repeated d times.  The decimation
    reads strided slices of a few copies of the strand (orderings._plan).
    """
    o = len(exp)
    d = gcd(l, o)
    if d == 1:
        return _decimate(exp, _plan(o, -l, _LIST_COPIES))
    strand = exp[::d]
    if d < o:
        strand = _decimate(strand, _plan(o // d, -(l // d), _LIST_COPIES))
    return strand * d


def power_map(l: int, ctx: FieldContext) -> array:
    """Full-domain table of x -> x^l over GF(2^n); entry 0 is 0.

    An array('I') at every n; np.frombuffer(t, dtype=np.uint32) reads
    it without a copy.
    """
    if l < 1:
        raise ValueError(f"exponent must be positive, got {l}")
    exp, log = _tables(ctx)
    lmod, order = l % ctx.order, ctx.order
    if ctx.n <= _LIST_MAX_N:
        return array("I", [0, *[exp[i * lmod % order] for i in log[1:]]])
    import numpy as np

    out = array("I", [0]) * ctx.size
    view = np.frombuffer(out, dtype=np.uint32)
    for lo in range(1, ctx.size, _CHUNK):
        hi = min(lo + _CHUNK, ctx.size)
        index = np.multiply(log[lo:hi], lmod, dtype=np.uint64)
        index %= order
        # every index is below order; "clip" lets take write straight
        # into out, where the default "raise" first buffers the chunk
        np.take(exp, index, out=view[lo:hi], mode="clip")
    return out


@cache
def _orbits(
    ctx: FieldContext,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Frobenius orbits of GF(2^n) for the list-path uniformity scan;
    cached like _tables, shared by every caller and never written.

    x -> x^2 is g^i -> g^(2i mod 2^n - 1), so the orbit of g^i is the
    cyclotomic class of i.  Returns (lead, zech, key, size):
    - lead[k] is i for the leader g^i of orbit k, over the orbits of the
      nonzero elements but {1};
    - zech[k] = log(g^lead[k] + 1);
    - key[y] numbers the orbit of each field element y: 0 for y = 0, 1
      for y = 1, k + 2 for orbit k;
    - size[c] is the size of orbit key c for the short keys, those below
      len(size).  Orbits of fewer than n elements lie in the proper
      subfields, which are walked first, so they take the low keys; the
      keys from len(size) on are orbits of exactly n elements.
    """
    exp, log = _tables(ctx)
    n, order = ctx.n, ctx.order
    key = [0] * ctx.size
    key[1] = 1
    lead, size = [], [1, 1]
    subfields = [
        range(step, order, step)
        for step in (order // ((1 << n // p) - 1) for p in _prime_factors(n))
    ]
    for i in chain(*subfields, range(1, order)):
        if key[exp[i]]:
            continue
        c, j, s = len(lead) + 2, i, 0
        while key[exp[j]] != c:
            key[exp[j]] = c
            j = (j << 1) % order
            s += 1
        lead.append(i)
        if s < n:
            size.append(s)
    return lead, [log[exp[i] ^ 1] for i in lead], key, size


def differential_uniformity(l: int, ctx: FieldContext) -> int:
    """max over a != 0, b of #{x : x^l + (x+a)^l = b} over GF(2^n).

    Only a = 1 is scanned: for F(x) = x^l, D_a F(x) = a^l * D_1 F(x/a)
    (Blondeau, Canteaut and Charpin, 2010), so every a != 0 has the
    same counts.  Always even and at least 2.

    Up to n = _LIST_MAX_N the scan visits one leader x per Frobenius
    orbit O (see _orbits).  D(x) = x^l + (x+1)^l has D(x^2) = D(x)^2,
    so O maps onto the orbit of D(x), of size k dividing |O|, hitting
    each element |O|/k times: the count of b is W/k, with W the sum of
    |O| over the leaders whose D lies in b's orbit.  x = 0 and x = 1
    both give D = 1.  That is O(2^n/n) per exponent, after the O(2^n)
    orbit table of the field's first call.  Above _LIST_MAX_N numpy
    counts D over the pairs {2i, 2i + 1} of the power-map table, in
    O(2^n), and doubles the largest count.
    """
    if not 1 <= l <= ctx.order:
        raise ValueError(f"exponent must be in [1, 2^n - 1], got {l}")
    if ctx.n <= _LIST_MAX_N:
        exp, _ = _tables(ctx)
        lead, zech, key, size = _orbits(ctx)
        n, order = ctx.n, ctx.order
        m = l % order
        d = map(xor, [exp[i * m % order] for i in lead],
                [exp[z * m % order] for z in zech])
        keys = list(map(key.__getitem__, d))
        count = Counter(keys)
        # An orbit of n elements is hit only by orbits of n elements, so
        # its count is the leaders' count.  The short orbits weigh each
        # leader by its orbit's size; short leaders come first in keys.
        weight = [n * count[c] for c in range(len(size))]
        weight[1] += 2  # x = 0 and x = 1
        for c, s in zip(keys, size[2:]):
            weight[c] -= n - s
        return max(max(count.values()), *map(floordiv, weight, size))
    import numpy as np

    table = np.frombuffer(power_map(l, ctx), dtype=np.uint32)
    return 2 * int(np.bincount(table[::2] ^ table[1::2]).max())


def verify_compositional_inverse(l: int, l_inv: int, ctx: FieldContext) -> bool:
    """Whether x -> x^l_inv undoes x -> x^l on every element of GF(2^n).

    Checked both functionally over the field and as l * l_inv = 1 mod
    2^n - 1; the two views must agree.  The field check runs in
    exponent order: for each x = g^i (0 maps to 0 at every l), exp at
    log[x^l] * l_inv must give back exp[i], so every nonzero element goes
    through both tables.  The list path decimates the exp table
    (_powers); above _LIST_MAX_N numpy checks _CHUNK exponents at a time.
    """
    if l < 1 or l_inv < 1:
        raise ValueError("exponents must be positive")
    order = ctx.order
    modular = (l * l_inv) % order == 1
    exp, log = _tables(ctx)
    if ctx.n <= _LIST_MAX_N:
        fwd, inv = _powers(exp, l), _powers(exp, l_inv)
        functional = list(map(inv.__getitem__, map(log.__getitem__, fwd))) == exp
    else:
        import numpy as np

        l, l_inv = l % order, l_inv % order
        functional = True
        for lo in range(0, order, _CHUNK):
            hi = min(lo + _CHUNK, order)
            index = np.arange(lo, hi, dtype=np.uint64)
            index *= l
            index %= order
            index = np.multiply(log[exp[index]], l_inv, dtype=np.uint64)
            index %= order
            if not np.array_equal(exp[index], exp[lo:hi]):
                functional = False
                break
    if modular != functional:
        raise RuntimeError(
            "field evaluation disagrees with modular arithmetic; "
            "the tables are broken"
        )
    return functional


class CatalogEntry(_Record):
    """One instantiated row of the known-exponent tables.

    source_table 1 lists the known APN exponents on odd-degree fields
    (claimed uniformity 2); source_table 2 the known exponents of
    4-uniform permutations on even-degree fields.
    """

    _fields = ("family exponent claimed_degree claimed_uniformity "
               "source_table invertible")


def _entry(
    kind: str, param: int, n: int, degree: int, table: int
) -> CatalogEntry:
    fam = ExponentFamily(kind, param)
    exponent = family_exponent(fam, n)
    return CatalogEntry(
        family=fam,
        exponent=exponent,
        claimed_degree=degree,
        claimed_uniformity=2 if table == 1 else 4,
        source_table=table,
        invertible=is_invertible(exponent.value, n),
    )


def catalog_lookup(n: int) -> list[CatalogEntry]:
    """Instantiate every known-exponent table row applicable at this n.

    Odd n = 2t + 1 draws from the APN table (table 1), even n = 2t from
    the 4-uniform table (table 2, gold and kasami only when t is odd).
    Gold and kasami (r >= 2) rows take r < n/2 with gcd(r, n) = table;
    welch, niho and dobbertin (5 | n) are APN, bracken-leander (n = 4r,
    r odd) is 4-uniform, and both tables hold the inverse exponent.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    t = n // 2
    table = 2 - n % 2
    entries: list[CatalogEntry] = []
    if table == 1 or t % 2 == 1:
        rs = [r for r in range(1, (n + 1) // 2) if gcd(r, n) == table]
        entries += [_entry("gold", r, n, 2, table) for r in rs]
        entries += [_entry("kasami", r, n, r + 1, table) for r in rs if r >= 2]
    if table == 1:
        # 2^t + 3 has weight 3, except 5 = 0b101 at t = 1
        entries.append(_entry("welch", t, n, 3 if t >= 2 else 2, 1))
        niho_degree = (t + 2) // 2 if t % 2 == 0 else t + 1
        entries.append(_entry("niho", t, n, niho_degree, 1))
    entries.append(_entry("inverse", 0, n, n - 1, table))
    if table == 1 and n % 5 == 0:
        entries.append(_entry("dobbertin", n // 5, n, n // 5 + 3, 1))
    if n % 4 == 0 and (n // 4) % 2 == 1:
        entries.append(_entry("bracken_leander", n // 4, n, 3, 2))
    return entries
