import random
from collections import Counter
from math import gcd

import numpy as np
import pytest

from mersexp import (
    FieldContext,
    bl_inverse,
    catalog_lookup,
    differential_uniformity,
    kasami_inverse,
    verify_compositional_inverse,
)
from mersexp import sbox
from mersexp.sbox import (
    MAX_FIELD_N,
    is_irreducible,
    power_map,
    smallest_irreducible,
)
from uniformity_oracle import full_scan, pair_scan


def test_uniformity_examples():
    assert differential_uniformity(3, FieldContext(5)) == 2
    assert differential_uniformity(1, FieldContext(3)) == 8
    assert differential_uniformity(57, FieldContext(7)) == 2
    assert differential_uniformity(73, FieldContext(12)) == 4
    assert differential_uniformity(1, FieldContext(4)) == 16


def test_apn_examples():
    assert differential_uniformity(9, FieldContext(7)) == 2
    assert differential_uniformity(1, FieldContext(5)) != 2
    assert differential_uniformity(78, FieldContext(7)) == 2


def test_compositional_inverse_examples():
    assert verify_compositional_inverse(57, 78, FieldContext(7))
    assert verify_compositional_inverse(1, 1, FieldContext(6))
    assert not verify_compositional_inverse(3, 3, FieldContext(5))


def test_power_map_basics():
    ctx = FieldContext(4)
    squares = power_map(2, ctx)
    assert squares[0] == 0 and squares[1] == 1
    # squaring is a field automorphism: bijective
    assert sorted(squares.tolist()) == list(range(16))
    # x^(2^n - 1) is 1 on every nonzero element
    allones = power_map(ctx.order, ctx)
    assert allones[0] == 0 and set(allones[1:].tolist()) == {1}


def test_counting_symmetry_and_evenness():
    ctx = FieldContext(5)
    for l in (3, 7, 13, 15, 29):
        table = np.frombuffer(power_map(l, ctx), dtype=np.uint32)
        xs = np.arange(ctx.size)
        for a in range(1, ctx.size):
            counts = np.bincount(table ^ table[xs ^ a], minlength=ctx.size)
            assert counts.sum() == ctx.size
            assert (counts % 2 == 0).all()


def test_a1_scan_matches_the_full_a_scan_to_n8():
    for n in range(2, 9):
        ctx = FieldContext(n)
        for l in range(1, ctx.size):
            assert differential_uniformity(l, ctx) == full_scan(
                np.frombuffer(power_map(l, ctx), dtype=np.uint32)
            ), (n, l)


def test_orbit_scan_matches_the_pair_scan_9_to_16():
    # every catalog row, three random exponents and three sharing a factor
    # with 2^n - 1, so that D(x) = 0 occurs (2^13 - 1 is prime: only
    # l = 2^13 - 1 shares one)
    rng = random.Random(916)
    for n in range(9, 17):
        ctx = FieldContext(n)
        shared = [l for l in range(1, ctx.size) if gcd(l, ctx.order) > 1]
        ls = {e.exponent.value for e in catalog_lookup(n)}
        ls |= {rng.randrange(1, ctx.size) for _ in range(3)}
        ls |= set(rng.sample(shared, min(3, len(shared))))
        for l in sorted(ls):
            table = power_map(l, ctx)
            assert differential_uniformity(l, ctx) == pair_scan(table), (n, l)


def _mobius(m):
    out = 1
    for p in range(2, m + 1):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
    return out


def test_frobenius_orbits_2_to_16():
    for n in range(2, 17):
        ctx = FieldContext(n)
        exp, _ = sbox._tables(ctx)
        lead, zech, key, size = sbox._orbits(ctx)
        squares = power_map(2, ctx)
        assert all(key[y] == key[squares[y]] for y in range(ctx.size)), n
        # the orbit sizes the scan assumes: 1 for {1}, size[2:] for the
        # short orbits, which come first, and n for every other orbit
        sizes = [1, *size[2:], *[n] * (len(lead) + 2 - len(size))]
        assert all(n % s == 0 for s in sizes), n
        assert sum(sizes) == ctx.order, n
        # the elements of degree exactly n fill the orbits of size n
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        degree_n = sum(_mobius(d) << n // d for d in divisors)
        assert sizes.count(n) * n == degree_n, n
        # ... and the keys: 0 for y = 0 alone, then one key per orbit
        elements = Counter(key)
        assert elements[0] == 1 and elements[1] == 1, n
        assert [elements[c] for c in range(1, len(lead) + 2)] == sizes, n
        for k, (i, z) in enumerate(zip(lead, zech)):
            assert key[exp[i]] == k + 2 and exp[z] == exp[i] ^ 1, (n, k)


def _field_results(n, rng):
    """power_map, uniformity and both inverse checks of a spread of
    exponents at n: all of them up to n = 8, 40 at random above."""
    ctx = FieldContext(n)
    ls = range(1, ctx.size)
    if n > 8:
        rows = [e.exponent.value for e in catalog_lookup(n)]
        ls = sorted(rng.sample(ls, 40) + rows)
    out = []
    for l in ls:
        l_inv = pow(l, -1, ctx.order) if gcd(l, ctx.order) == 1 else l
        out.append((
            power_map(l, ctx),
            differential_uniformity(l, ctx),
            verify_compositional_inverse(l, l_inv, ctx),
            verify_compositional_inverse(l, l, ctx),
        ))
    return out


def test_numpy_path_agrees_with_the_list_path(monkeypatch):
    # fields above sbox._LIST_MAX_N use numpy tables and scans; force
    # that path at n <= 12 and compare it with the list path there
    fields = range(2, 13)
    lists = {n: _field_results(n, random.Random(n)) for n in fields}
    sbox._tables.cache_clear()
    sbox._orbits.cache_clear()
    monkeypatch.setattr(sbox, "_LIST_MAX_N", 1)
    try:
        for n in fields:
            assert isinstance(sbox._tables(FieldContext(n))[0], np.ndarray)
            assert _field_results(n, random.Random(n)) == lists[n], n
    finally:
        sbox._tables.cache_clear()
        sbox._orbits.cache_clear()


def test_numpy_power_map_across_gather_chunks():
    # above _LIST_MAX_N, power_map gathers _CHUNK entries at a time from
    # x = 1 on: check either side of the first chunk boundary, of the
    # boundary at 2^20, and the last entry
    ctx = FieldContext(21)
    assert ctx.n > sbox._LIST_MAX_N and (1 << 20) % sbox._CHUNK == 0
    l = 0x15A3C7
    table = power_map(l, ctx)
    edges = (sbox._CHUNK + 1, (1 << 20) + 1, ctx.size + 1)
    for x in sorted({x for e in edges for x in range(e - 3, e + 1)}):
        if x < ctx.size:
            expected = sbox._gf2_powmod(x, l, ctx.reduction_polynomial, ctx.n)
            assert table[x] == expected, x


def test_irreducible_table_entries_are_minimal():
    assert smallest_irreducible(8) == 0b100011011  # x^8 + x^4 + x^3 + x + 1
    for n in range(2, MAX_FIELD_N + 1):
        poly = smallest_irreducible(n)
        assert poly >> n == 1 and is_irreducible(poly, n)
        for cand in range((1 << n) + 1, poly, 2):
            assert not is_irreducible(cand, n)


def test_smallest_irreducible_rejects_degree_below_2():
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match=f"degree must be >= 2, got {n}"):
            smallest_irreducible(n)


def _sympy_poly(value):
    """GF(2)[x] element in sympy's dense form, highest degree first."""
    return [int(bit) for bit in f"{value:b}"] if value else []


def test_irreducible_table_against_sympy():
    # an oracle outside the package: sympy's GF(p)[x] arithmetic
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for n in range(2, MAX_FIELD_N + 1):
        poly = smallest_irreducible(n)
        assert gf_irreducible_p(_sympy_poly(poly), 2, ZZ)
        for smaller in range(1 << n, poly):  # every smaller monic degree n
            assert not gf_irreducible_p(_sympy_poly(smaller), 2, ZZ)


def test_is_irreducible_against_sympy_degrees_1_to_8():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for n in range(1, 9):
        for poly in range(1 << n, 2 << n):  # every monic of degree n
            expected = gf_irreducible_p(_sympy_poly(poly), 2, ZZ)
            assert is_irreducible(poly, n) == expected, f"0b{poly:b}"
    assert is_irreducible(0b10, 1) and is_irreducible(0b11, 1)


def test_power_map_against_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    # n <= 20 keeps this near 2 s; CI checks a kasami inverse at n = 24
    rng = random.Random(12)
    for n in range(2, 21):
        ctx = FieldContext(n)
        modulus = _sympy_poly(ctx.reduction_polynomial)
        exponents = {1, 2, 3, ctx.order, ctx.order + 2}
        exponents |= {rng.randrange(1, ctx.order + 1) for _ in range(4)}
        xs = {0, 1, ctx.size - 1} | {rng.randrange(ctx.size) for _ in range(16)}
        for l in sorted(exponents):
            table = power_map(l, ctx)
            for x in sorted(xs):
                coeffs = gf_pow_mod(_sympy_poly(x), l, modulus, 2, ZZ)
                expected = int("".join(str(int(c)) for c in coeffs) or "0", 2)
                assert table[x] == expected, (n, l, x)


def test_field_context_validation():
    assert MAX_FIELD_N == 24
    with pytest.raises(ValueError):
        FieldContext(1)
    with pytest.raises(ValueError, match="supports 2 <= n <= 24, got 25"):
        FieldContext(25)
    with pytest.raises(ValueError):
        FieldContext(4, 0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_catalog_n7():
    entries = catalog_lookup(7)
    by_kind = {}
    for e in entries:
        by_kind.setdefault(e.family.kind, []).append(e)
    assert [e.family.param for e in by_kind["gold"]] == [1, 2, 3]
    assert [e.family.param for e in by_kind["kasami"]] == [2, 3]
    assert by_kind["welch"][0].exponent.value == 11
    assert by_kind["niho"][0].exponent.value == 39
    assert by_kind["inverse"][0].exponent.value == 63
    assert "dobbertin" not in by_kind
    assert all(e.source_table == 1 for e in entries)
    assert all(e.invertible for e in entries)  # n odd


def test_catalog_n4():
    entries = catalog_lookup(4)
    kinds = [e.family.kind for e in entries]
    assert kinds == ["inverse", "bracken_leander"]
    assert entries[0].exponent.value == 14
    assert entries[1].exponent.value == 7
    assert all(e.source_table == 2 for e in entries)


def test_catalog_n12():
    entries = catalog_lookup(12)
    kinds = [e.family.kind for e in entries]
    assert kinds == ["inverse", "bracken_leander"]
    assert entries[1].exponent.value == 73


def test_catalog_n6():
    entries = catalog_lookup(6)
    assert [(e.family.kind, e.exponent.value) for e in entries] == [
        ("gold", 5),
        ("kasami", 13),
        ("inverse", 62),
    ]


def test_catalog_n2_trivial():
    entries = catalog_lookup(2)
    assert [e.family.kind for e in entries] == ["inverse"]


def test_catalog_claims_hold_empirically_small_n():
    # n = 2 .. 20 crosses from the list scans (n <= 16) to numpy's
    for n in range(2, 21):
        ctx = FieldContext(n)
        for e in catalog_lookup(n):
            assert (
                differential_uniformity(e.exponent.value, ctx)
                == e.claimed_uniformity
            )
            assert e.exponent.value.bit_count() == e.claimed_degree


def test_catalog_claimed_degree_is_exponent_weight():
    for n in range(2, 65):
        for e in catalog_lookup(n):
            assert e.claimed_degree == e.exponent.value.bit_count(), (
                n,
                e.family,
            )
    # welch(1) at n = 3 is 2 + 3 = 5 = 0b101: degree 2, not 3
    (welch,) = [e for e in catalog_lookup(3) if e.family.kind == "welch"]
    assert (welch.exponent.value, welch.claimed_degree) == (5, 2)


def _table_rows(n):
    """(kind, param, claimed degree, table) of every row at n, in order,
    written out from the two tables: the APN exponents for odd n = 2t + 1
    and the exponents of 4-uniform permutations for even n = 2t."""
    t = n // 2
    if n % 2 == 1:
        coprime = [r for r in range(1, t + 1) if gcd(r, n) == 1]
        rows = [("gold", r, 2, 1) for r in coprime]
        rows += [("kasami", r, r + 1, 1) for r in coprime if r >= 2]
        rows.append(("welch", t, 3 if t >= 2 else 2, 1))
        rows.append(("niho", t, t // 2 + 1 if t % 2 == 0 else t + 1, 1))
        rows.append(("inverse", 0, n - 1, 1))
        if n % 5 == 0:
            rows.append(("dobbertin", n // 5, n // 5 + 3, 1))
        return rows
    rows = []
    if t % 2 == 1:
        pairs = [r for r in range(1, t) if gcd(r, n) == 2]
        rows += [("gold", r, 2, 2) for r in pairs]
        rows += [("kasami", r, r + 1, 2) for r in pairs if r >= 2]
    rows.append(("inverse", 0, n - 1, 2))
    if n % 4 == 0 and (n // 4) % 2 == 1:
        rows.append(("bracken_leander", n // 4, 3, 2))
    return rows


def test_catalog_rows_match_the_tables_to_256():
    for n in range(2, 257):
        entries = catalog_lookup(n)
        got = [
            (e.family.kind, e.family.param, e.claimed_degree, e.source_table)
            for e in entries
        ]
        assert got == _table_rows(n), n
        for e in entries:
            assert e.claimed_uniformity == 2 * e.source_table
            assert e.invertible == (gcd(e.exponent.value, (1 << n) - 1) == 1)


def test_apn_invariance_of_closed_form_inverses():
    ctx = FieldContext(7)
    for r in (2, 3):
        inv = kasami_inverse(r, 7).inverse.value
        assert differential_uniformity(inv, ctx) == 2
    ctx12 = FieldContext(12)
    assert differential_uniformity(bl_inverse(3).inverse.value, ctx12) == 4
