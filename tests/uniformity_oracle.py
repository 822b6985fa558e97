"""The full a-scan for differential uniformity, kept apart from the library.

differential_uniformity scans a = 1 only, by the power-map identity
D_a F(x) = a^l * D_1 F(x/a); this module scans every input difference
a != 0, the O(4^n) definition, so it does not rely on that identity.
"""

from __future__ import annotations

import numpy as np


def full_scan(table) -> int:
    """max over a != 0, b of #{x : t[x] ^ t[x ^ a] = b} for a table t of
    a map on GF(2^n), one entry per field element."""
    t = np.asarray(table, dtype=np.int64)
    xs = np.arange(len(t))
    return max(int(np.bincount(t ^ t[xs ^ a]).max()) for a in range(1, len(t)))
