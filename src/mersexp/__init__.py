"""Explicit inverses in Z_{2^n - 1} and small-field monomial checks.

The package computes closed-form binary representations of the
inverses of gold (2^r + 1), kasami (2^(2r) - 2^r + 1) and
bracken-leander (2^(2r) + 2^r + 1) exponents modulo 2^n - 1,
certifies them through the modular add-with-carry recurrence, and
validates them empirically via differential uniformity of the
corresponding monomial maps over GF(2^n).

The package's public names are each module's ``__all__``.
"""

from . import carry, closed_form, orderings, residues, sbox
from .residues import *
from .carry import *
from .orderings import *
from .closed_form import *
from .sbox import *

__version__ = "1.0.0"

__all__ = []
__all__ += residues.__all__
__all__ += carry.__all__
__all__ += orderings.__all__
__all__ += closed_form.__all__
__all__ += sbox.__all__
