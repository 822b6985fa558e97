"""The cyclotomic shift, kept apart from the library as a test oracle.

Multiplying by 2^i mod 2^n - 1 rotates the bit word by i places.  The
library has no use for it: a reflected kasami case maps the columns of
its partner's r-matrix instead.  The tests state the reflection
identity and the shift's own algebra with it.
"""

from mersexp import Residue, fold_mod


def cyclotomic_shift(l: Residue, i: int) -> Residue:
    """Multiply by 2^i mod 2^n - 1 (a cyclic shift of the bit word).

    Negative i shifts the other way; i is reduced mod n.
    """
    return Residue(l.n, fold_mod(l.value << (i % l.n), l.n))
