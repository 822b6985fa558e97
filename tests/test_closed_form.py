from math import gcd
from time import perf_counter

import pytest

from mersexp import (
    BitSequence,
    ExponentFamily,
    NotInvertibleError,
    Residue,
    binary_weight,
    bl_inverse,
    closed_form_inverse,
    cyclotomic_shift,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    from_r_matrix,
    gold_inverse,
    gold_invertible,
    kasami_degree_bounds,
    kasami_inverse,
    kasami_inverse_equivalence,
    kasami_invertible,
    matrix_of_sequence,
    solve_carries,
    to_bits,
    to_r_matrix,
    verify_congruence,
)
from mersexp.carry import canonical_form
from mersexp.closed_form import _certified, _kasami_case


def oracle(l, n):
    return ext_euclid_inverse(fold_mod(l, n), n)


def test_gold_invertible():
    assert gold_invertible(3, 7)
    assert not gold_invertible(1, 2)
    assert gold_invertible(2, 6)
    assert not gold_invertible(1, 8)


def test_gold_inverse_examples():
    res = gold_inverse(3, 7)
    assert res.inverse.value == 113 and res.weight == 4
    assert res.case_label == "GOLD_GCD1"

    res = gold_inverse(1, 3)
    assert res.inverse.value == 5 and res.weight == 2

    res = gold_inverse(2, 6)
    assert res.inverse.value == 38 and res.weight == 3
    assert res.case_label == "GOLD_GCDS"
    assert res.r_matrix.entries == ((0, 0, 1), (1, 1, 0))
    assert res.carry_matrix.entries == ((0, 1, 1), (1, 1, 1))


def test_certified_faults_name_the_label():
    # gold(3) at n = 7: d = 1, one row of 7 bits giving 113, weight 4;
    # every fault in the flat r-matrix or weight is an internal failure,
    # not bad input
    gold = ExponentFamily("gold", 3)
    row = b"\1\1\0\1\0\1\0"
    assert _certified(gold, 7, row, "GOLD_GCD1", 4, []).inverse.value == 113
    flipped = b"\0" + row[1:]
    faults = [
        (row[:-1], 4, "block layout"),
        (row + row, 4, "block layout"),
        (flipped, 4, "does not invert"),
        (b"\1" * 7, 4, "does not invert"),
        (b"\2\1\0\1\0\1\0", 4, "does not invert"),  # not a bit
        (row, 5, "has weight 4"),
    ]
    for flat, weight, fault in faults:
        with pytest.raises(RuntimeError, match=f"GOLD_GCD1 .*{fault}"):
            _certified(gold, 7, flat, "GOLD_GCD1", weight, [])
    # gold(2) at n = 6: d = 2 rows of 3; with the length the only layout
    # check, rows in the wrong order are a word that does not invert
    gold = ExponentFamily("gold", 2)
    top, bottom = b"\0\0\1", b"\1\1\0"
    res = _certified(gold, 6, top + bottom, "GOLD_GCDS", 3, [])
    assert res.inverse.value == 38
    with pytest.raises(RuntimeError, match="GOLD_GCDS .*does not invert"):
        _certified(gold, 6, bottom + top, "GOLD_GCDS", 3, [])


def test_gold_not_invertible_raises():
    with pytest.raises(NotInvertibleError):
        gold_inverse(1, 4)


def test_gold_parameter_reduction_warns():
    res = gold_inverse(9, 7)
    assert res.inverse == gold_inverse(2, 7).inverse
    assert res.warnings
    with pytest.raises(ValueError):
        gold_inverse(14, 7)
    with pytest.raises(ValueError):
        gold_inverse(0, 7)


def test_kasami_invertible():
    assert kasami_invertible(2, 8)
    assert not kasami_invertible(1, 2)
    assert kasami_invertible(3, 7)
    assert not kasami_invertible(1, 6)  # n/d even, r odd
    assert not kasami_invertible(2, 12)  # gcd(2,12)=2 != gcd(6,12)=6


def test_kasami_inverse_examples():
    res = kasami_inverse(3, 7)
    assert res.inverse.value == 78 and res.weight == 4
    assert res.case_label == "KASAMI_GCD1_E6K5"

    res = kasami_inverse(2, 5)
    assert res.inverse.value == 12 and res.weight == 2

    res = kasami_inverse(2, 8)
    assert res.inverse.value == 157 and res.weight == 5
    assert res.case_label == "KASAMI_NDEVEN_6K4"
    assert res.r_matrix.entries == ((1, 0, 1, 1), (0, 1, 0, 1))

    res = kasami_inverse(2, 10)
    assert res.inverse.value == 787 and res.weight == 5
    assert res.case_label == "KASAMI_NDODD_CASE_B"


def test_kasami_r_ordered_sequence_of_78():
    # decimated word of the inverse at (r=3, n=7) is (0,0,1,0,1,1,1)
    assert kasami_inverse(3, 7).r_matrix.entries == ((0, 0, 1, 0, 1, 1, 1),)


def test_kasami_reflection_label_and_identity():
    # e even at (r, n) dispatches through the partner n - r
    res = kasami_inverse(2, 7)  # e = 4
    assert res.case_label.endswith("_REFLECTED")
    partner = kasami_inverse(5, 7)
    assert res.inverse == cyclotomic_shift(partner.inverse, -4)


def test_kasami_reflection_identity_everywhere():
    for n in range(4, 22):
        for r in range(1, n):
            if not (kasami_invertible(r, n) and kasami_invertible(n - r, n)):
                continue
            if gcd(r, n) != gcd(n - r, n):
                continue
            lhs = kasami_inverse(r, n).inverse
            rhs = cyclotomic_shift(kasami_inverse(n - r, n).inverse, -2 * r)
            assert lhs == rhs


def test_kasami_not_invertible_raises():
    with pytest.raises(NotInvertibleError):
        kasami_inverse(1, 6)
    with pytest.raises(ValueError):
        kasami_inverse(1, 3)


def test_kasami_identical_rows_structure():
    # for n/d odd the r-matrix has d-1 identical rows, so the inverse
    # has n/d runs of d-1 consecutive equal bits
    seen = 0
    for n in range(4, 25):
        for r in range(1, n):
            if not kasami_invertible(r, n):
                continue
            d = gcd(r, n)
            if d == 1 or (n // d) % 2 == 0:
                continue
            res = kasami_inverse(r, n)
            rows = res.r_matrix.entries
            # reflection shifts by a power of two, which only rotates the
            # matrix columns, so the repeated-row structure is preserved
            base = res.case_label.removesuffix("_REFLECTED")
            repeated = rows[:-1] if "ND3" in base else rows[1:]
            assert len(set(repeated)) == 1
            seen += 1
    assert seen > 20


# every case label the constructors can return
ALL_CASE_LABELS = [
    "GOLD_GCD1",
    "GOLD_GCDS",
    "BL",
    "KASAMI_GCD1_E6K1",
    "KASAMI_GCD1_E6K1_REFLECTED",
    "KASAMI_GCD1_E6K5",
    "KASAMI_GCD1_E6K5_REFLECTED",
    "KASAMI_GCD1_E6K3_T6U1",
    "KASAMI_GCD1_E6K3_T6U1_REFLECTED",
    "KASAMI_GCD1_E6K3_T6U2",
    "KASAMI_GCD1_E6K3_T6U2_REFLECTED",
    "KASAMI_GCD1_E6K3_T6U4",
    "KASAMI_GCD1_E6K3_T6U4_REFLECTED",
    "KASAMI_GCD1_E6K3_T6U5",
    "KASAMI_GCD1_E6K3_T6U5_REFLECTED",
    "KASAMI_ND3_E6K1",
    "KASAMI_ND3_E6K1_REFLECTED",
    "KASAMI_ND3_E6K5",
    "KASAMI_ND3_E6K5_REFLECTED",
    "KASAMI_NDODD_CASE_A",
    "KASAMI_NDODD_CASE_A_REFLECTED",
    "KASAMI_NDODD_CASE_B",
    "KASAMI_NDODD_CASE_B_REFLECTED",
    "KASAMI_NDODD_CASE_C",
    "KASAMI_NDODD_CASE_C_REFLECTED",
    "KASAMI_NDODD_CASE_D",
    "KASAMI_NDODD_CASE_D_REFLECTED",
    "KASAMI_NDODD_CASE_E",
    "KASAMI_NDODD_CASE_E_REFLECTED",
    "KASAMI_NDODD_CASE_F",
    "KASAMI_NDODD_CASE_F_REFLECTED",
    "KASAMI_NDODD_CASE_G",
    "KASAMI_NDODD_CASE_G_REFLECTED",
    "KASAMI_NDODD_CASE_H",
    "KASAMI_NDODD_CASE_H_REFLECTED",
    "KASAMI_NDEVEN_6K2",
    "KASAMI_NDEVEN_6K4",
]


def test_every_closed_form_case_to_n128():
    # every invertible gold and kasami instance with n <= 128 and every
    # bracken-leander one with r <= 31, against Python's modular inverse;
    # the r-matrix, taken from the assembled rows, against the bit word
    labels = set()

    def check(res, l, n, family):
        expected = pow(l, -1, (1 << n) - 1)
        assert res.inverse.value == expected
        assert res.weight == expected.bit_count()
        labels.add(res.case_label)
        bits = to_bits(res.inverse)
        assert res.r_matrix == to_r_matrix(bits, family.param)
        one = BitSequence(n, (1,) + (0,) * (n - 1))
        carries = solve_carries(canonical_form(family), bits, one).carries
        assert res.carry_matrix == matrix_of_sequence(carries, n, family.param)

    for n in range(2, 129):
        m = (1 << n) - 1
        for r in range(1, n):
            gold = (1 << r) + 1
            assert gold_invertible(r, n) == (gcd(gold, m) == 1)
            if gcd(gold, m) == 1:
                check(gold_inverse(r, n), gold, n, ExponentFamily("gold", r))
            kasami = (1 << (2 * r)) - (1 << r) + 1
            if n >= 4:
                assert kasami_invertible(r, n) == (gcd(kasami, m) == 1)
            if n >= 4 and gcd(kasami, m) == 1:
                check(
                    kasami_inverse(r, n),
                    kasami,
                    n,
                    ExponentFamily("kasami", r),
                )
    for r in range(1, 32, 2):
        bl = (1 << (2 * r)) + (1 << r) + 1
        check(bl_inverse(r), bl, 4 * r, ExponentFamily("bracken_leander", r))
    assert len(ALL_CASE_LABELS) == 37
    assert labels == set(ALL_CASE_LABELS)


def test_every_dispatch_regime_to_n400():
    # a regime is a case tag with the builders' repeat counts
    # k = e // 6, u = t // 6 and s = m // e at 0, 1 or more (s up to 4)
    # and d = 1 or not; its smallest instance is pinned against the
    # modular inverse.  No regime first appears in 400 <= n < 800.
    first = {}
    for n in range(4, 400):
        for r in range(1, n):
            if kasami_invertible(r, n):
                tag, d, m, e, _ = _kasami_case(r, n)
                s, t = divmod(m, e)
                regime = (tag, min(e // 6, 2), t >= 6, min(s, 4), d == 1)
                first.setdefault(regime, (n, r))
    assert len(first) == 509
    assert sum(n <= 128 for n, _ in first.values()) == 479
    assert max(n for n, _ in first.values()) == 230
    for (tag, *_), (n, r) in first.items():
        res = kasami_inverse(r, n)
        kasami = (1 << (2 * r)) - (1 << r) + 1
        assert res.inverse.value == pow(kasami, -1, (1 << n) - 1)
        assert res.case_label == f"KASAMI_{tag}"


def test_kasami_case_is_arithmetic_at_any_n():
    # the case and the degree bounds at n = 2^61 - 1, where no row is
    # ever built; e = 3 attains the paper's n/3 lower bound
    n = (1 << 61) - 1
    for r in (2, 3, 1 << 40, pow(3, -1, n)):
        best = 1.0
        for _ in range(3):
            start = perf_counter()
            tag, d, m, e, _ = _kasami_case(r, n)
            best = min(best, perf_counter() - start)
        assert best < 1e-3
        assert (d, m, e % 2) == (1, n, 1)
        reflected = tag.endswith("_REFLECTED")
        assert e * r % n == (n - 1 if reflected else 1)
    # e = 2^60 reflects to 2^60 - 1 = 3 mod 6, and t = n mod e = 1
    assert _kasami_case(2, n)[0] == "GCD1_E6K3_T6U1_REFLECTED"
    lower, upper, attained = kasami_degree_bounds(pow(3, -1, n), n)
    assert (lower, upper, attained) == (-(-n // 3), n // 2 + 1, True)


def test_bl_examples():
    res = bl_inverse(1)
    assert res.inverse.value == 13 and res.weight == 3
    assert res.case_label == "BL"

    res = bl_inverse(3)
    assert res.inverse.value == 2917 and res.weight == 7
    assert res.r_matrix.entries == (
        (1, 1, 1, 0),
        (0, 0, 0, 0),
        (1, 1, 1, 1),
    )
    # carry word alternates twos and ones by row
    assert res.carry_matrix.entries == (
        (2, 2, 2, 2),
        (1, 1, 1, 1),
        (2, 2, 2, 2),
    )

    res = bl_inverse(5)
    assert res.weight == 11
    assert res.inverse == oracle((1 << 10) + (1 << 5) + 1, 20)


def test_bl_rejects_even_parameter():
    with pytest.raises(ValueError):
        bl_inverse(2)
    with pytest.raises(ValueError):
        bl_inverse(0)


def test_closed_forms_refuse_bad_input_with_a_value_error():
    # an unknown kind, or an r or n that is not an integer, is refused
    # before any comparison, naming what is wrong
    for kind in ("raw", "bl"):
        with pytest.raises(
            ValueError, match="gold, kasami, bracken_leander"
        ) as caught:
            closed_form_inverse(kind, 3, 12 if kind == "bl" else 7)
        assert type(caught.value) is ValueError
    for call, name in (
        (lambda: bl_inverse(3.0), "r"),
        (lambda: gold_inverse(3, 7.0), "n"),
        (lambda: kasami_inverse("3", 7), "r"),
        (lambda: kasami_degree_bounds(2.5, 7), "r"),
        (lambda: kasami_inverse_equivalence(2.5, 7), "r"),
        (lambda: kasami_inverse_equivalence(1, 7.0), "n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


def test_degree_bounds_examples():
    assert kasami_degree_bounds(1, 9) == (5, 5, False)
    assert kasami_degree_bounds(2, 5) == (2, 3, True)
    assert kasami_degree_bounds(3, 7) == (3, 4, False)
    # n/d even: weight pinned at (n+2)/2
    assert kasami_degree_bounds(2, 8) == (5, 5, False)


def test_n_third_bound_is_sharp_against_extended_euclid():
    # odd n, gcd(r, n) = 1, every K_r^-1 by extended Euclid: weight
    # (n + 1)/2 when 3 | n; otherwise the least weight is ceil(n/3),
    # reached exactly at r = 3^-1 and n - 3^-1 mod n, and it is the
    # lower bound kasami_degree_bounds gives at r = 3^-1
    instances = 0
    for n in range(5, 200, 2):
        weights = {
            r: binary_weight(oracle((1 << 2 * r) - (1 << r) + 1, n))
            for r in range(1, n)
            if gcd(r, n) == 1
        }
        instances += len(weights)
        if n % 3 == 0:
            assert set(weights.values()) == {(n + 1) // 2}, n
            continue
        least, third = -(-n // 3), pow(3, -1, n)
        assert min(weights.values()) == least, n
        attained = {r for r, w in weights.items() if w == least}
        assert attained == {third, n - third}, n
        assert kasami_degree_bounds(third, n)[0] == least, n
    assert instances == 8148


def test_degree_bounds_not_invertible():
    with pytest.raises(NotInvertibleError):
        kasami_degree_bounds(1, 6)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_degree_bounds_refuse_small_rings(n):
    for check in (kasami_degree_bounds, gold_invertible, kasami_invertible):
        with pytest.raises(
            ValueError, match=f"ring parameter must be >= 2, got {n}"
        ):
            check(1, n)


def test_degree_bounds_bracket_actual_weight():
    for n in range(2, 129):
        for r in range(1, n):
            if not kasami_invertible(r, n):
                continue
            lower, upper, attained = kasami_degree_bounds(r, n)
            kr = fold_mod((1 << (2 * r)) - (1 << r) + 1, n)
            w = pow(kr, -1, (1 << n) - 1).bit_count()
            assert lower <= w <= upper
            m = n // gcd(r, n)
            if m % 2 == 1 and m % 3 != 0:
                assert (w == lower) == attained
            else:  # the weight is pinned exactly
                assert lower == w == upper and not attained


def _shifted(family, shift, n):
    return fold_mod(family_exponent(family, n).value << shift, n)


def test_five_d_structure_examples():
    assert kasami_inverse_equivalence(2, 10) == (ExponentFamily("kasami", 4), 4)
    assert kasami_inverse_equivalence(1, 5) == (ExponentFamily("kasami", 2), 2)
    # K_1 = 3 is gold(1) at n = 5
    assert kasami_inverse_equivalence(2, 5) == (ExponentFamily("gold", 1), 2)


def test_five_d_structure_all_classes():
    for d in (1, 2, 3, 4, 6):
        n = 5 * d
        for b in (1, 2, 3, 4, 6, 7, 8, 9):
            family, shift = kasami_inverse_equivalence(b * d, n)
            claimed = _shifted(family, shift, n)
            kr = family_exponent(ExponentFamily("kasami", b * d), n)
            assert fold_mod(kr.value * claimed, n) == 1


def test_inverse_equivalence_validation():
    with pytest.raises(ValueError, match="n must be >= 4, got 3"):
        kasami_inverse_equivalence(1, 3)
    with pytest.raises(ValueError):
        kasami_inverse_equivalence(0, 5)
    with pytest.raises(ValueError):
        kasami_inverse_equivalence(10, 5)  # a multiple of n
    with pytest.raises(NotInvertibleError):
        kasami_inverse_equivalence(1, 6)


def _weight_two(n):
    """(r, inverse) for each r < n whose kasami inverse is gold-class."""
    out = []
    for r in range(1, n):
        if kasami_invertible(r, n):
            answer = kasami_inverse_equivalence(r, n)
            if answer is not None and answer[0].kind == "gold":
                out.append((r, _shifted(*answer, n)))
    return out


def test_weight_two_examples():
    assert _weight_two(9) == [(3, 260), (6, 288)]
    assert _weight_two(6) == [(2, 34), (4, 40)]
    assert _weight_two(7) == []


def test_weight_two_sporadic_n5():
    # (n, r) = (5, 2) and (5, 3) both have weight-2 inverses, 12 and 6
    assert kasami_inverse(2, 5).weight == 2
    assert kasami_inverse(3, 5).weight == 2
    assert _weight_two(5) == [(2, 12), (3, 6)]


def _class_kinds(value, n, exponents):
    """Kinds of the gold or kasami exponents in the cyclotomic class of value."""
    mask = (1 << n) - 1
    kinds = set()
    for _ in range(n):
        kinds |= exponents.get(value, set())
        value = ((value << 1) | (value >> (n - 1))) & mask
    return kinds


def test_inverse_equivalence_two_way():
    # every invertible (r, n) with 4 <= n <= 128 against a search of the
    # classes of all gold and kasami exponents
    hits = {"gold": 0, "kasami": 0}
    for n in range(4, 129):
        exponents = {}
        for j in range(1, n):
            for kind in ("gold", "kasami"):
                v = family_exponent(ExponentFamily(kind, j), n).value
                exponents.setdefault(v, set()).add(kind)
        for r in range(1, n):
            if not kasami_invertible(r, n):
                continue
            kr = family_exponent(ExponentFamily("kasami", r), n).value
            inverse = ext_euclid_inverse(kr, n)
            found = _class_kinds(inverse.value, n, exponents)
            answer = kasami_inverse_equivalence(r, n)
            assert (answer is not None) == bool(found), (r, n)
            if answer is None:
                continue
            family, shift = answer
            assert family.kind in found
            assert (family.kind == "gold") == (binary_weight(inverse) == 2)
            assert _shifted(family, shift, n) == inverse.value
            for kind in found:
                hits[kind] += 1
    assert hits == {"gold": 84, "kasami": 101}
    # the sporadic cases, named
    assert kasami_inverse_equivalence(2, 4) == (ExponentFamily("kasami", 2), 2)
    assert kasami_inverse_equivalence(2, 5) == (ExponentFamily("gold", 1), 2)
    assert kasami_inverse_equivalence(3, 5) == (ExponentFamily("gold", 1), 1)


# the paper's theorem on kasami inverses that are gold or kasami
# exponents, as (family, shift) tables: (n, r) -> answer for the cases
# the rules below miss, (4, 2), or give as K_1, which at n = 5 is the
# gold exponent 3 = 2^1 + 1
_SPORADIC = {
    (4, 2): (ExponentFamily("kasami", 2), 2),
    (5, 2): (ExponentFamily("gold", 1), 2),
    (5, 3): (ExponentFamily("gold", 1), 1),
}

# n = 5d, r = b*d: b -> (shift, m) in units of d for the shifted K_m; the
# shift 2d - 2r of b = 3, 4 is reduced mod n
_FIVE_D = {1: (2, 2), 2: (2, 1), 3: (1, 1), 4: (4, 2)}

# 3 | n, r = c*n/3: c -> shift + 1 in units of n/3, with gold(n/3)
_THIRDS = {1: 3, 2: 2}


def _theorem(r, n):
    """The paper's answer at 1 <= r < n, or None outside its cases."""
    if (n, r) in _SPORADIC:
        return _SPORADIC[(n, r)]
    if n % 5 == 0 and r % (n // 5) == 0:
        d = n // 5
        shift, m = _FIVE_D[r // d]
        return ExponentFamily("kasami", m * d), shift * d
    if n % 3 == 0 and r % (n // 3) == 0:
        third = n // 3
        return ExponentFamily("gold", third), _THIRDS[r // third] * third - 1
    return None


def test_inverse_equivalence_is_the_papers_theorem():
    # the class read off the inverse's bits is the theorem's answer on
    # every invertible (r, n) with 4 <= n < 200, and None outside it
    hits = 0
    for n in range(4, 200):
        for r in range(1, n):
            if kasami_invertible(r, n):
                answer = kasami_inverse_equivalence(r, n)
                assert answer == _theorem(r, n), (r, n)
                hits += answer is not None
    assert hits == 287


def test_carry_certificates_verify():
    # the attached carry matrix is the r-matrix of the word that solves
    # the recurrence with s = 1
    results = [bl_inverse(r) for r in (1, 3, 5)]
    for n in range(2, 21):
        for r in range(1, n):
            if gold_invertible(r, n):
                results.append(gold_inverse(r, n))
            if n >= 4 and kasami_invertible(r, n):
                results.append(kasami_inverse(r, n))
    for res in results:
        n = res.inverse.n
        kind = {"G": "gold", "K": "kasami", "B": "bracken_leander"}[
            res.case_label[0]
        ]
        form = canonical_form(ExponentFamily(kind, res.r_matrix.r))
        solved = verify_congruence(
            form, to_bits(res.inverse), to_bits(Residue(n, 1))
        )
        assert res.carry_matrix == matrix_of_sequence(
            solved.carries, n, res.r_matrix.r
        )


def test_large_n_closed_form_paths():
    # constructors self-verify (exponent * inverse = 1 in the ring), so
    # returning at all proves the instance; weights pin the case formulas
    n = (1 << 16) + 1
    assert gold_inverse(3, n).weight == (n + 1) // 2
    res = kasami_inverse(2, 1 << 16)
    assert res.case_label == "KASAMI_NDEVEN_6K2"
    assert res.weight == ((1 << 16) + 2) // 2


@pytest.mark.parametrize(
    "kind, r, n",
    [
        ("gold", 100, 301),  # GOLD_GCD1
        ("gold", 3, 801),  # GOLD_GCDS, d = 3, m = 267
        ("kasami", 113, 1001),  # GCD1_E6K3_T6U2
        ("kasami", 200, 1001),  # GCD1_E6K5_REFLECTED
        ("kasami", 35, 1001),  # NDODD_CASE_H_REFLECTED, d = 7
        ("kasami", 9, 3075),  # NDODD_CASE_D_REFLECTED, d = 3, m = 1025
        ("kasami", 250, 1000),  # NDEVEN_6K4, d = 250, m = 4
        ("kasami", 4, 1000),  # NDEVEN_6K4, d = 4, m = 250
        ("kasami", 17, 867),  # ND3_E6K1, d = 17, m = 51
        ("bracken_leander", 75, 300),
        ("kasami", 303, 505),  # NDODD_CASE_F_REFLECTED, d = 101, m = 5
        ("kasami", 2000, 4000),  # NDEVEN_6K2, d = 2000, m = 2
        ("kasami", 3003, 9009),  # ND3_E6K1, d = 3003, m = 3
        ("gold", 3003, 9009),  # GOLD_GCDS, d = 3003, m = 3
        ("bracken_leander", 4007, 16028),  # BL, d = 4007, m = 4
    ],
)
def test_large_certificates_match_oracle_and_recurrence(kind, r, n):
    if kind == "gold":
        res = gold_inverse(r, n)
    elif kind == "kasami":
        res = kasami_inverse(r, n)
    else:
        res = bl_inverse(r)
    fam = ExponentFamily(kind, r)
    assert res.inverse == oracle(family_exponent(fam, n).value, n)
    solved = verify_congruence(
        canonical_form(fam), to_bits(res.inverse), to_bits(Residue(n, 1))
    )
    assert res.carry_matrix == matrix_of_sequence(solved.carries, n, r)
    assert from_r_matrix(res.r_matrix) == to_bits(res.inverse)
    # both matrices against the definition, entry (i, j) = word[(i - j*r) % n]
    d = gcd(r, n)
    for matrix, word in (
        (res.r_matrix, to_bits(res.inverse).bits),
        (res.carry_matrix, solved.carries),
    ):
        assert matrix.entries == tuple(
            tuple(word[(i - j * r) % n] for j in range(n // d))
            for i in range(d)
        )
