"""The seed-enumeration oracle for carry words, kept apart from the solver.

solve_carries finds the carry word by two divisions; this module runs
the recurrence one position at a time from a given final carry, so
trying every seed in [t_-, t_+ - 1] lists every carry word that exists
without consulting the solver.
"""

from __future__ import annotations

from mersexp import BitSequence, SignedPowerForm


def propagate(
    form: SignedPowerForm, a: BitSequence, s: BitSequence, seed: int
) -> tuple[int, ...] | None:
    """Run c[i] = (c[i-1] - s[i] + sum_j t_j a[i-j]) / 2 around the cycle.

    Returns the carry word when every division is exact, every value
    stays in [t_-, t_+ - 1] and the cycle closes on the seed; None
    otherwise.
    """
    lo, hi = form.t_minus, form.t_plus - 1
    n = a.n
    c_prev = seed
    out = []
    for i in range(n):
        terms = sum(t * a.word[(i - j) % n] for j, t in form.terms)
        num = c_prev - s.word[i] + terms
        if num % 2 != 0:
            return None
        c = num // 2
        if not lo <= c <= hi:
            return None
        out.append(c)
        c_prev = c
    if out[-1] != seed:
        return None
    return tuple(out)
