"""Two scans for differential uniformity, kept apart from the library.

differential_uniformity scans a = 1 only, by the power-map identity
D_a F(x) = a^l * D_1 F(x/a), and up to n = 16 over one leader per
Frobenius orbit.  full_scan scans every input difference a != 0, the
O(4^n) definition, so it relies on neither.  pair_scan relies on the
identity but not on the orbits: it counts D_1 over every pair {x, x + 1}
of a power-map table, in O(2^n).
"""

from __future__ import annotations

from collections import Counter
from operator import xor

import numpy as np


def full_scan(table) -> int:
    """max over a != 0, b of #{x : t[x] ^ t[x ^ a] = b} for a table t of
    a map on GF(2^n), one entry per field element."""
    t = np.asarray(table, dtype=np.int64)
    xs = np.arange(len(t))
    return max(int(np.bincount(t ^ t[xs ^ a]).max()) for a in range(1, len(t)))


def pair_scan(table) -> int:
    """Twice the largest count of t[2i] ^ t[2i + 1]: the uniformity of a
    power map with table t, one entry per field element."""
    return 2 * max(Counter(map(xor, table[::2], table[1::2])).values())
