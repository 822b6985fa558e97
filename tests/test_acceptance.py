"""Acceptance suite: one test per release criterion, all exact.

Every expected value is either pinned from a worked example or
recomputed by an independent oracle inside the test (extended Euclid
for inverses, seed re-enumeration for carries, exhaustive evaluation
for classifications).  Each test prints a PASS line with its elapsed
time; a failed assertion means the criterion is red.
"""

import random
import time
from math import gcd

import numpy as np

from mersexp import (
    ExponentFamily,
    Residue,
    binary_weight,
    bl_inverse,
    canonical_form,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    from_r_matrix,
    gold_inverse,
    gold_invertible,
    kasami_inverse,
    kasami_inverse_equivalence,
    kasami_invertible,
    solve_carries,
    to_bits,
    to_r_matrix,
)
from mersexp.sbox import (
    FieldContext,
    differential_uniformity,
    is_irreducible,
    smallest_irreducible,
)

from carry_oracle import propagate


def _report(criterion: int, description: str, started: float) -> None:
    print(
        f"ACCEPTANCE {criterion}: PASS ({time.perf_counter() - started:.2f}s)"
        f" - {description}"
    )


def _gold_instances(n_max):
    for n in range(2, n_max + 1):
        for r in range(1, n):
            if gold_invertible(r, n):
                yield r, n


def _kasami_instances(n_max):
    for n in range(4, n_max + 1):
        for r in range(1, n):
            if kasami_invertible(r, n):
                yield r, n


def _odd_e(r, n):
    d = gcd(r, n)
    m = n // d
    e = pow(r // d, -1, m)
    return e if e % 2 == 1 else m - e


def test_criterion_1_gold_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for r, n in _gold_instances(32):
        assert gold_inverse(r, n).inverse == ext_euclid_inverse((1 << r) + 1, n)
        count += 1
    assert count > 0
    _report(1, f"gold closed form == oracle on {count} instances, n <= 32", t0)


def test_criterion_2_kasami_oracle_and_weight_formulas():
    t0 = time.perf_counter()
    count = 0
    for r, n in _kasami_instances(32):
        res = kasami_inverse(r, n)
        value = (1 << (2 * r)) - (1 << r) + 1
        assert res.inverse == ext_euclid_inverse(value, n)

        # weight formula of the dispatched case, re-derived independently
        d = gcd(r, n)
        m = n // d
        label = res.case_label.removeprefix("KASAMI_").removesuffix(
            "_REFLECTED"
        )
        if m % 2 == 0:
            expected = (n + 2) // 2
            assert label.startswith("NDEVEN")
        else:
            e = _odd_e(r, n)
            s = m // e
            if label.startswith("GCD1_E6K3"):
                expected = (
                    (n - s + 1) // 2
                    if label.endswith(("T6U1", "T6U5"))
                    else (n - s) // 2
                )
            elif label.startswith("GCD1"):
                expected = (n + 1) // 2
            elif label.startswith("ND3"):
                expected = (n - 3 * d + 4) // 2
            elif label[-1] in "ABCD":
                expected = (n - d + 2) // 2
            elif label[-1] in "EH":
                expected = (n - d * (s + 1) + 2) // 2
            else:
                expected = (n - d * (s + 2) + 2) // 2
        assert res.weight == binary_weight(res.inverse) == expected
        count += 1
    assert count > 0
    _report(
        2, f"kasami closed form == oracle + weight formulas, {count} instances", t0
    )


def test_criterion_3_bracken_leander():
    t0 = time.perf_counter()
    for r in (1, 3, 5, 7):
        res = bl_inverse(r)
        value = (1 << (2 * r)) + (1 << r) + 1
        assert res.inverse == ext_euclid_inverse(value, 4 * r)
        assert res.weight == 2 * r + 1
    _report(3, "bracken-leander closed form == oracle for r in {1,3,5,7}", t0)


def test_criterion_4_carry_certification():
    t0 = time.perf_counter()
    jobs = []
    for r, n in _gold_instances(24):
        jobs.append((ExponentFamily("gold", r), gold_inverse(r, n).inverse, r))
    for r, n in _kasami_instances(24):
        jobs.append((ExponentFamily("kasami", r), kasami_inverse(r, n).inverse, r))
    for r in (1, 3, 5):
        jobs.append(
            (ExponentFamily("bracken_leander", r), bl_inverse(r).inverse, r)
        )
    for family, inverse, r in jobs:
        n = inverse.n
        form = canonical_form(family)
        a = to_bits(inverse)
        s = to_bits(Residue(n, 1))
        carries = solve_carries(form, a, s)
        closing = [
            seed
            for seed in range(form.t_minus, form.t_plus)
            if propagate(form, a, s, seed) is not None
        ]
        assert len(closing) == 1
        if family.kind == "kasami":
            assert carries.weight() == binary_weight(inverse) - 1
            c = carries.carries
            assert all(
                c[i] + c[(i - r) % n] in (-1, 0, 1) for i in range(n)
            )
    _report(
        4, f"carry certificates unique and constrained on {len(jobs)} inverses", t0
    )


def test_criterion_5_worked_example():
    t0 = time.perf_counter()
    res = gold_inverse(3, 7)
    assert res.inverse.value == 113
    carries = solve_carries(
        canonical_form(ExponentFamily("gold", 3)),
        to_bits(res.inverse),
        to_bits(Residue(7, 1)),
    )
    assert carries.carries == (1,) * 7
    _report(5, "gold r=3 n=7 gives 113 with the all-ones carry word", t0)


def test_criterion_6_apn_invariance():
    t0 = time.perf_counter()
    for n in (5, 7, 9, 11):
        ctx = FieldContext(n)
        for r in range(1, n):
            if gcd(r, n) != 1:
                continue
            kr = family_exponent(ExponentFamily("kasami", r), n).value
            assert differential_uniformity(kr, ctx) == 2
            inv = kasami_inverse(r, n).inverse.value
            assert differential_uniformity(inv, ctx) == 2
    ctx12 = FieldContext(12)
    assert differential_uniformity(73, ctx12) == 4
    assert differential_uniformity(bl_inverse(3).inverse.value, ctx12) == 4
    _report(6, "uniformity 2 for kasami pairs (n=5,7,9,11); 4 for BL at n=12", t0)


def test_criterion_7_five_d_structure():
    t0 = time.perf_counter()
    count = 0
    for d in (1, 2, 3, 4, 6):
        n = 5 * d
        assert n <= 30
        for b in (1, 2, 3, 4, 6, 7, 8, 9, 11):
            family, shift = kasami_inverse_equivalence(b * d, n)
            # at n = 5 the kasami exponent K_1 = 3 is gold(1)
            assert family.kind == "kasami" or (n, family.param) == (5, 1)
            kr = family_exponent(ExponentFamily("kasami", b * d), n)
            claimed = fold_mod(family_exponent(family, n).value << shift, n)
            assert claimed == ext_euclid_inverse(kr.value, n).value
            count += 1
    _report(7, f"n=5d shifted-kasami identity exact on {count} (d, b) pairs", t0)


def test_criterion_8_weight_two_completeness():
    t0 = time.perf_counter()
    for n in range(6, 33):
        exhaustive = {
            r: kasami_inverse(r, n).inverse
            for r, _ in ((r, n) for r in range(1, n))
            if kasami_invertible(r, n) and kasami_inverse(r, n).weight == 2
        }
        classified = {}
        for r in range(1, n):
            if kasami_invertible(r, n):
                answer = kasami_inverse_equivalence(r, n)
                if answer is not None and answer[0].kind == "gold":
                    family, shift = answer
                    classified[r] = Residue(
                        n, fold_mod(family_exponent(family, n).value << shift, n)
                    )
        assert set(classified) == set(exhaustive)
        for r, inverse in classified.items():
            assert inverse == exhaustive[r]
            b = 3 * r // n
            if b % 3 == 1:
                assert inverse.value == (1 << (n - 1)) + (1 << (n // 3 - 1))
            else:
                assert inverse.value == (1 << (n - 1)) + (1 << (2 * n // 3 - 1))
    # the sporadic weight-2 inverses, below the thirds rule's domain
    for r in (2, 3):
        assert kasami_inverse(r, 5).weight == 2
        assert kasami_inverse_equivalence(r, 5)[0] == ExponentFamily("gold", 1)
    _report(8, "weight-2 inverses classified completely for 6 <= n <= 32", t0)


def test_criterion_9_degree_corollaries():
    t0 = time.perf_counter()
    for n in range(5, 33, 2):
        for r in range(1, n):
            if gcd(r, n) != 1 or not kasami_invertible(r, n):
                continue
            w = kasami_inverse(r, n).weight
            if n % 3 == 0:
                assert w == (n + 1) // 2
            else:
                bound = (n + 2) // 3 if n % 3 == 1 else (n + 1) // 3
                assert w >= bound
                assert (w == bound) == (_odd_e(r, n) == 3)
    _report(9, "degree bounds exact/attained as stated for gcd(r,n)=1, n <= 32", t0)


def test_criterion_10_round_trips_and_isomorphism(monkeypatch):
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    for _ in range(1000):
        n = rng.randrange(2, 65)
        r = rng.randrange(1, n) if n > 2 else 1
        word = to_bits(Residue(n, rng.randrange(0, (1 << n) - 1)))
        matrix = to_r_matrix(word, r)
        assert from_r_matrix(matrix) == word
        assert sum(sum(row) for row in matrix.entries) == word.weight()

    from mersexp import sbox
    from mersexp.sbox import catalog_lookup, verify_compositional_inverse

    closed_forms = {"gold": gold_inverse, "kasami": kasami_inverse}

    def two_polynomials_agree(n):
        """Uniformity of every catalog row and the field check of every
        invertible gold/kasami row against its inverse, under the
        smallest and the next irreducible polynomial; returns how many
        inverses were checked."""
        poly2 = smallest_irreducible(n) + 2
        while not is_irreducible(poly2, n):
            poly2 += 2
        ctx1, ctx2 = FieldContext(n), FieldContext(n, poly2)
        inverses = 0
        for entry in catalog_lookup(n):
            l = entry.exponent.value
            assert differential_uniformity(l, ctx1) == differential_uniformity(
                l, ctx2
            )
            fam = entry.family
            if fam.kind in closed_forms and entry.invertible:
                inv = closed_forms[fam.kind](fam.param, n).inverse.value
                assert verify_compositional_inverse(l, inv, ctx1) is True
                assert verify_compositional_inverse(l, inv, ctx2) is True
                inverses += 1
        return inverses

    # odd n draws gold and kasami rows from the APN table, even n = 6
    # from the 4-uniform one; n = 8 has none
    assert sum(two_polynomials_agree(n) for n in (6, 7, 8, 9)) == 12
    # the numpy tables, forced below sbox._LIST_MAX_N
    sbox._tables.cache_clear()
    sbox._orbits.cache_clear()
    monkeypatch.setattr(sbox, "_LIST_MAX_N", 1)
    try:
        assert isinstance(sbox._tables(FieldContext(9))[0], np.ndarray)
        assert two_polynomials_agree(9) == 5
    finally:
        sbox._tables.cache_clear()
        sbox._orbits.cache_clear()
    _report(10, "1000 reindexing round-trips + two-polynomial agreement", t0)
