import pytest
from hypothesis import given, strategies as st
from math import gcd

from mersexp import (
    BitSequence,
    ExponentFamily,
    NotInvertibleError,
    Residue,
    binary_weight,
    canonical_form,
    cyclotomic_canonical,
    cyclotomic_shift,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    mul_mod,
    to_bits,
)


def test_to_bits_matches_expansion():
    # 113 = 2^6 + 2^5 + 2^4 + 2^0, displayed msb-first as 1110001
    assert to_bits(Residue(7, 113)).bits == (1, 0, 0, 0, 1, 1, 1)
    assert to_bits(Residue(4, 0)).bits == (0, 0, 0, 0)
    assert to_bits(Residue(5, 21)).bits == (1, 0, 1, 0, 1)


def test_bits_round_trip():
    for n in range(2, 10):
        for v in range((1 << n) - 1):
            # to_bits fills in value; a word built from its bytes computes it
            assert BitSequence(n, to_bits(Residue(n, v)).word).value == v


def test_all_ones_word_rejected():
    with pytest.raises(ValueError):
        BitSequence(4, (1, 1, 1, 1))


def test_residue_canonicality_enforced():
    with pytest.raises(ValueError):
        Residue(4, 15)
    with pytest.raises(ValueError):
        Residue(4, -1)
    with pytest.raises(ValueError):
        Residue(1, 0)


def test_mul_mod_examples():
    assert mul_mod(Residue(7, 9), Residue(7, 113)).value == 1
    assert mul_mod(Residue(6, 17), Residue(6, 1)).value == 17
    assert mul_mod(Residue(5, 13), Residue(5, 12)).value == 1


def test_mul_mod_modulus_mismatch():
    with pytest.raises(ValueError):
        mul_mod(Residue(5, 3), Residue(6, 3))


def test_fold_mod_all_ones_intermediate():
    # 2^n - 1 itself folds to the zero class
    assert fold_mod(15, 4) == 0
    assert fold_mod(31 * 7, 5) == 0


@given(st.integers(2, 24), st.integers(0, 1 << 48))
def test_fold_mod_agrees_with_mod(n, x):
    assert fold_mod(x, n) == x % ((1 << n) - 1)


def test_ext_euclid_examples():
    assert ext_euclid_inverse(13, 5).value == 12
    assert ext_euclid_inverse(1, 9).value == 1
    assert ext_euclid_inverse(2, 4).value == 8


def test_ext_euclid_not_invertible():
    # gcd(3, 15) = 3
    with pytest.raises(NotInvertibleError):
        ext_euclid_inverse(3, 4)


def test_ext_euclid_exhaustive_small():
    for n in range(2, 14):
        m = (1 << n) - 1
        for l in range(1, m):
            if gcd(l, m) == 1:
                assert mul_mod(Residue(n, l), ext_euclid_inverse(l, n)).value == 1
            else:
                with pytest.raises(NotInvertibleError):
                    ext_euclid_inverse(l, n)


@given(st.integers(14, 24), st.data())
def test_ext_euclid_larger_n(n, data):
    l = data.draw(st.integers(1, (1 << n) - 2))
    m = (1 << n) - 1
    if gcd(l, m) == 1:
        assert (l * ext_euclid_inverse(l, n).value) % m == 1
    else:
        with pytest.raises(NotInvertibleError):
            ext_euclid_inverse(l, n)


def test_binary_weight_examples():
    assert binary_weight(Residue(7, 113)) == 4
    assert binary_weight(Residue(9, 0)) == 0
    assert binary_weight(Residue(5, 12)) == 2


def test_cyclotomic_shift_examples():
    assert cyclotomic_shift(Residue(7, 9), 2).value == 36
    assert cyclotomic_shift(Residue(8, 77), 0).value == 77
    assert cyclotomic_shift(Residue(5, 16), 1).value == 1


def test_cyclotomic_shift_negative_index():
    # shifting down by 1 then up by 1 is the identity
    x = Residue(6, 41)
    assert cyclotomic_shift(cyclotomic_shift(x, -1), 1) == x
    assert cyclotomic_shift(x, -1) == cyclotomic_shift(x, 5)


@given(st.integers(2, 20), st.data())
def test_shift_properties(n, data):
    v = data.draw(st.integers(0, (1 << n) - 2))
    i = data.draw(st.integers(-2 * n, 2 * n))
    x = Residue(n, v)
    shifted = cyclotomic_shift(x, i)
    # n-fold composition is the identity; weight is preserved
    assert cyclotomic_shift(shifted, n - (i % n)) == x
    assert binary_weight(shifted) == binary_weight(x)


def test_shift_of_inverse_is_inverse_of_shift():
    for n in (5, 7, 9):
        m = (1 << n) - 1
        for l in range(1, m):
            if gcd(l, m) != 1:
                continue
            inv = ext_euclid_inverse(l, n)
            for i in range(n):
                lhs = ext_euclid_inverse(cyclotomic_shift(Residue(n, l), i).value, n)
                assert lhs == cyclotomic_shift(inv, -i)


def test_cyclotomic_canonical_examples():
    assert cyclotomic_canonical(Residue(7, 36)).value == 9
    assert cyclotomic_canonical(Residue(6, 1)).value == 1
    assert cyclotomic_canonical(Residue(5, 12)).value == 3


def test_family_exponent_examples():
    assert family_exponent(ExponentFamily("kasami", 3), 7).value == 57
    assert family_exponent(ExponentFamily("gold", 1), 3).value == 3
    assert family_exponent(ExponentFamily("bracken_leander", 1), 4).value == 7


def test_family_exponent_more():
    assert family_exponent(ExponentFamily("welch", 3), 7).value == 11
    assert family_exponent(ExponentFamily("inverse"), 7).value == 63
    assert family_exponent(ExponentFamily("inverse"), 6).value == 62
    assert family_exponent(ExponentFamily("dobbertin", 1), 5).value == 29
    assert family_exponent(ExponentFamily("raw", 100), 5).value == 100 % 31


def test_family_terms_match_the_defining_integers():
    def niho_s(t):
        return t // 2 if t % 2 == 0 else (3 * t + 1) // 2

    defining = {
        "welch": lambda t, n: 2**t + 3,
        "niho": lambda t, n: 2**t + 2 ** niho_s(t) - 1,
        "dobbertin": lambda r, n: sum(2 ** (k * r) for k in (4, 3, 2, 1)) - 1,
        "inverse": lambda _, n: 2 ** (n - 1) - 1 if n % 2 else 2**n - 2,
    }
    for kind, value in defining.items():
        for param in [0] if kind == "inverse" else range(1, 40):
            family = ExponentFamily(kind, param)
            for n in range(2, 131):
                expected = value(param, n) % (2**n - 1)
                assert family_exponent(family, n).value == expected
            if kind != "inverse":
                assert canonical_form(family).value() == value(param, None)


def test_family_validation():
    with pytest.raises(ValueError):
        ExponentFamily("gold", 0)
    with pytest.raises(ValueError):
        ExponentFamily("nonsense", 1)


def test_fields_must_be_integers():
    # a float is refused by the constructor, naming the field, instead of
    # failing later in to_bits or family_exponent
    for make, field in (
        (lambda: Residue(7, 3.0), "value"),
        (lambda: Residue(7.0, 3), "n"),
        (lambda: Residue(7, "3"), "value"),
        (lambda: ExponentFamily("gold", 2.5), "param"),
        (lambda: ExponentFamily("inverse", 0.0), "param"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            make()

    class Index:  # an integer type of its own, as numpy's are
        def __index__(self):
            return 3

    residue = Residue(7, Index())
    assert type(residue.value) is int and residue == Residue(7, 3)
    assert to_bits(residue).bits == (1, 1, 0, 0, 0, 0, 0)
    family = ExponentFamily("gold", Index())
    assert type(family.param) is int and family == ExponentFamily("gold", 3)
    assert family_exponent(family, 7).value == 9


def test_bit_sequence_contract():
    # every int sequence gives the same word: bytes in .word, tuple in .bits
    bits = (1, 0, 1, 1, 0)
    words = [
        BitSequence(5, kind(bits)) for kind in (tuple, list, bytes, bytearray)
    ]
    for word in words:
        assert word == words[0] and hash(word) == hash(words[0])
        assert type(word.word) is bytes and word.word == b"\x01\x00\x01\x01\x00"
        assert type(word.bits) is tuple and word.bits == bits
        assert word.weight() == 3
    zero = BitSequence(3, (0, 0, 0))  # the class of 0
    assert zero.word == bytes(3) and zero.weight() == 0
    rejected = [
        (3, (0, 1), "expected 3 bits, got 2"),
        (2, (2, 0), "bits must be 0 or 1"),
        (2, (-1, 0), "bits must be 0 or 1"),
        (2, (256, 0), "bits must be 0 or 1"),
        (2, (1.0, 0), "bits must be 0 or 1"),
        (2, ("1", 0), "bits must be 0 or 1"),
        (2, "01", "bits must be 0 or 1"),
        (2, bytearray(b"\x00\x02"), "bits must be 0 or 1"),
        (3, (1, 1, 1), "all-ones word rejected: 2^n - 1 is the class of 0"),
        (3, b"\x01" * 3, "all-ones word rejected: 2^n - 1 is the class of 0"),
        (1, (0,), "ring parameter must be >= 2, got 1"),
    ]
    for n, value, message in rejected:
        with pytest.raises(ValueError) as info:
            BitSequence(n, value)
        assert str(info.value) == message


@given(st.integers(2, 300), st.data())
def test_bit_sequence_value(n, data):
    # the cached integer: filled in by to_bits, computed by a direct build
    v = data.draw(st.integers(0, (1 << n) - 2))
    filled = to_bits(Residue(n, v))
    built = BitSequence(n, filled.word)
    expected = sum(bit << i for i, bit in enumerate(filled.bits))
    assert expected == v
    for word in (filled, built):
        assert word.value == v
    assert built == filled and hash(built) == hash(filled)
