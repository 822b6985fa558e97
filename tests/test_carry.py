import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from mersexp import (
    CarrySequence,
    CongruenceError,
    ExponentFamily,
    Residue,
    canonical_form,
    fold_mod,
    signed_form,
    solve_carries,
    to_bits,
    verify_congruence,
)

from mersexp.carry import _certificate_fault
from mersexp.cli import MAX_CARRY_RANGE

from carry_oracle import propagate


def bits_of(value, n):
    return to_bits(Residue(n, value))


def enumerated_carries(form, a, s):
    """Every carry word that closes the cycle, one propagation per seed."""
    return [
        c
        for seed in range(form.t_minus, form.t_plus)
        if (c := propagate(form, a, s, seed)) is not None
    ]


@st.composite
def signed_congruences(draw):
    """(form, n, a, s): up to six terms with |t_j| <= 3, exponents up to
    3n, and s either l*a or an arbitrary word."""
    n = draw(st.integers(2, 200))
    exponents = draw(
        st.lists(st.integers(0, 3 * n), min_size=1, max_size=6, unique=True)
    )
    coefficients = st.sampled_from((-3, -2, -1, 1, 2, 3))
    terms = {j: draw(coefficients) for j in exponents}
    assume(sum(t << j for j, t in terms.items()) > 0)
    form = signed_form(terms)
    mask = (1 << n) - 1
    a = draw(st.integers(0, mask - 1))
    if draw(st.booleans()):
        s = form.value() * a % mask
    else:
        s = draw(st.integers(0, mask - 1))
    return form, n, a, s


@settings(max_examples=200, deadline=None)
@given(signed_congruences())
def test_solve_matches_seed_enumeration(case):
    form, n, a, s = case
    bits_a, bits_s = bits_of(a, n), bits_of(s, n)
    holds = (form.value() * a - s) % ((1 << n) - 1) == 0
    closing = enumerated_carries(form, bits_a, bits_s)
    assert len(closing) == int(holds)
    if holds:
        c = solve_carries(form, bits_a, bits_s)
        assert c.carries == closing[0]
        assert verify_congruence(form, bits_a, bits_s).carries == closing[0]
        rebuilt = CarrySequence(n, c.carries)
        assert rebuilt == c and hash(rebuilt) == hash(c)
    else:
        with pytest.raises(CongruenceError):
            solve_carries(form, bits_a, bits_s)
        with pytest.raises(CongruenceError):
            verify_congruence(form, bits_a, bits_s)


@pytest.mark.parametrize(
    "terms",
    [
        {0: 200, 5: 100, 3: -150},  # carries up to 299: two-byte lanes
        {7: 90, 2: 60, 0: -1},  # carries in [-1, 149]
        {12: 1, 4: -130, 0: 131},  # carries in [-130, 131]
        {12: 1, 8: 100, 4: -200, 0: 1},  # carries in [-200, 101]
        {3: 128, 0: -128},  # carries in [-128, 127]: the widest byte lanes
        {3: 129, 0: -128},  # carries in [-128, 128]: one past them
        {3: 32, 0: -32},  # span 64: the cross-check's widest byte lanes
        {3: 33, 0: -32},  # span 65: one past them
    ],
)
def test_wide_carry_ranges_match_seed_enumeration(terms):
    form = signed_form(terms)
    rng = random.Random(7)
    for n in (2, 5, 11, 16):
        mask = (1 << n) - 1
        for _ in range(6):
            a = rng.randrange(mask)
            for s in (form.value() * a % mask, rng.randrange(mask)):
                bits_a, bits_s = bits_of(a, n), bits_of(s, n)
                closing = enumerated_carries(form, bits_a, bits_s)
                if (form.value() * a - s) % mask == 0:
                    c = verify_congruence(form, bits_a, bits_s)
                    assert [c.carries] == closing
                    rebuilt = CarrySequence(n, c.carries)
                    assert rebuilt == c and hash(rebuilt) == hash(c)
                else:
                    assert closing == []
                    with pytest.raises(CongruenceError):
                        solve_carries(form, bits_a, bits_s)


def test_cross_check_catches_a_corrupted_word(monkeypatch):
    # a solver bug is caught: a middle carry moved by +-1 (still in range),
    # out of range, or beyond a signed byte
    import mersexp.carry as carry_mod

    form = canonical_form(ExponentFamily("kasami", 3))
    n = 101
    a = bits_of(random.Random(5).randrange((1 << n) - 1), n)
    s = bits_of(form.value() * a.value % ((1 << n) - 1), n)
    solve = carry_mod.solve_carries
    lo, hi = form.t_minus, form.t_plus - 1
    for step, message in (
        (1, "does not reproduce s"),
        (-1, "does not reproduce s"),
        (hi - lo + 1, "leaves its range"),
        (300, "leaves its range"),  # beyond a signed byte
    ):

        def corrupted(form, a, s):
            c = list(solve(form, a, s).carries)
            c[n // 2] += step if lo <= c[n // 2] + step <= hi else -step
            return CarrySequence(n, tuple(c))

        monkeypatch.setattr(carry_mod, "solve_carries", corrupted)
        with pytest.raises(RuntimeError, match=message):
            verify_congruence(form, a, s)


@pytest.mark.parametrize(
    "terms",
    [
        {3: 33, 0: -32},  # span 65: two-byte check lanes
        {3: 20000, 0: -20000},  # span 40,000: four-byte check lanes
        # carries of either sign near 2^69: lanes wider than any struct code
        {1: 2**70 + 1, 0: -(2**70)},
    ],
    ids=["two-byte", "four-byte", "sixteen-byte"],
)
def test_cross_check_catches_a_corrupted_word_at_every_lane_width(
    monkeypatch, terms
):
    # as the kasami case above, for forms whose lanes are wider than a
    # byte: the solved word follows the recurrence from its final carry,
    # and a middle carry moved by +-1 or out of range is caught
    import mersexp.carry as carry_mod

    form = signed_form(terms)
    n = 101
    mask = (1 << n) - 1
    a = bits_of(random.Random(5).randrange(mask), n)
    s = bits_of(form.value() * a.value % mask, n)
    good = verify_congruence(form, a, s)
    assert propagate(form, a, s, good.carries[-1]) == good.carries
    lo, hi = form.t_minus, form.t_plus - 1
    for step, message in (
        (1, "does not reproduce s"),
        (-1, "does not reproduce s"),
        (hi - lo + 1, "leaves its range"),
        (1 << 200, "leaves its range"),  # beyond every lane here
    ):

        def corrupted(form, a, s):
            c = list(good.carries)
            c[n // 2] += step if lo <= c[n // 2] + step <= hi else -step
            return CarrySequence(n, tuple(c))

        monkeypatch.setattr(carry_mod, "solve_carries", corrupted)
        with pytest.raises(RuntimeError, match=message):
            verify_congruence(form, a, s)


@pytest.mark.parametrize(
    "terms",
    [
        {3: MAX_CARRY_RANGE // 2, 0: -MAX_CARRY_RANGE // 2},  # two-byte lanes
        {1: MAX_CARRY_RANGE // 2, 0: MAX_CARRY_RANGE // 2},  # four-byte lanes
    ],
    ids=["signed", "nonnegative"],
)
def test_solve_matches_seed_enumeration_at_the_cli_carry_range(terms):
    # t_+ - t_- = MAX_CARRY_RANGE, the widest the carry command takes:
    # every one of the 65,536 seeds is propagated
    form = signed_form(terms)
    assert form.t_plus - form.t_minus == MAX_CARRY_RANGE
    n = 5
    mask = (1 << n) - 1
    for a, s in ((11, form.value() * 11 % mask), (11, 7), (30, 0)):
        bits_a, bits_s = bits_of(a, n), bits_of(s, n)
        closing = enumerated_carries(form, bits_a, bits_s)
        if (form.value() * a - s) % mask == 0:
            assert [solve_carries(form, bits_a, bits_s).carries] == closing
        else:
            assert closing == []
            with pytest.raises(CongruenceError):
                solve_carries(form, bits_a, bits_s)


def test_form_bounds_are_cached_outside_the_fields():
    # t_+ and t_- are computed once, and equality, hash and repr still
    # read the terms alone
    form = signed_form({6: 1, 3: -1, 0: 1})
    fresh = signed_form({6: 1, 3: -1, 0: 1})
    assert (form.t_plus, form.t_minus) == (2, -1)
    assert form == fresh and hash(form) == hash(fresh)
    assert repr(form) == repr(fresh) == (
        "SignedPowerForm(terms=((0, 1), (3, -1), (6, 1)))"
    )
    with pytest.raises(AttributeError):
        form.t_plus = 3


def test_constraints_check_names_the_fault_of_a_corrupted_word():
    # _certificate_fault, the check verify_congruence makes, judges the
    # word as given: a carry moved by +-1 (still in range), out of range,
    # or beyond a signed byte, or a word of the wrong length, is named
    form = canonical_form(ExponentFamily("kasami", 3))
    n = 101
    a = bits_of(random.Random(5).randrange((1 << n) - 1), n)
    s = bits_of(form.value() * a.value % ((1 << n) - 1), n)
    good = solve_carries(form, a, s)
    assert _certificate_fault(form, a, s, good) is None
    lo, hi = form.t_minus, form.t_plus - 1
    for step, message in (
        (1, "does not reproduce s"),
        (-1, "does not reproduce s"),
        (hi - lo + 1, "leaves its range"),
        (300, "leaves its range"),  # beyond a signed byte
    ):
        c = list(good.carries)
        c[n // 2] += step if lo <= c[n // 2] + step <= hi else -step
        assert message in _certificate_fault(form, a, s, CarrySequence(n, c))
    short = CarrySequence(n - 1, good.carries[:-1])
    assert "lengths differ" in _certificate_fault(form, a, s, short)


def test_constraints_check_accepts_the_enumerated_word():
    # seeded kasami (r, n, a): the one word seed enumeration finds passes
    # the check unsolved, and it is the word the solver finds
    rng = random.Random(48)
    for _ in range(60):
        n = rng.randrange(4, 49)
        r = rng.randrange(1, n)
        form = canonical_form(ExponentFamily("kasami", r))
        a = bits_of(rng.randrange((1 << n) - 1), n)
        s = bits_of(form.value() * a.value % ((1 << n) - 1), n)
        (word,) = enumerated_carries(form, a, s)
        assert _certificate_fault(form, a, s, CarrySequence(n, word)) is None
        assert solve_carries(form, a, s).carries == word


def test_a_fault_in_the_packed_solver_is_a_bug_not_a_failed_congruence(
    monkeypatch,
):
    # flip one lane of S in the solver's packed division: the congruence
    # holds, so this is reported as a bug (RuntimeError), never as
    # CongruenceError, which the CLI would turn into exit 4
    import mersexp.carry as carry_mod
    from mersexp.cli import main

    form = canonical_form(ExponentFamily("kasami", 3))
    a, s = bits_of(78, 7), bits_of(1, 7)
    lanes = carry_mod._lanes

    def planted(bits, width):
        value = lanes(bits, width)
        return value ^ (1 << 8 * width * 3) if bits == s.word else value

    monkeypatch.setattr(carry_mod, "_lanes", planted)
    for call in (
        lambda: solve_carries(form, a, s),
        lambda: verify_congruence(form, a, s),
        lambda: main(["carry", "kasami3", "--a", "78", "--s", "1", "--n", "7"]),
    ):
        with pytest.raises(RuntimeError, match="this is a bug"):
            call()


def test_carry_sequence_contract():
    # signed bytes in .word while every carry fits one, a tuple otherwise;
    # .carries is the tuple view, however the word was given
    carries = (1, -1, 0, 127, -128)
    signed = b"\x01\xff\x00\x7f\x80"
    words = [CarrySequence(5, kind(carries)) for kind in (tuple, list)]
    words.append(CarrySequence(5, signed))
    for word in words:
        assert word == words[0] and hash(word) == hash(words[0])
        assert type(word.word) is bytes and word.word == signed
        assert type(word.carries) is tuple and word.carries == carries
        assert word.weight() == -1
    for wide in ((0, 128, -1), (-129, 0, 1), (0, 300, -300)):
        word = CarrySequence(3, list(wide))
        assert word.word == word.carries == wide
        assert word == CarrySequence(3, wide)
        assert word.weight() == sum(wide)
    assert CarrySequence(3, (0, 200, 0)) != CarrySequence(3, (0, -56, 0))
    with pytest.raises(ValueError, match="expected 4 carries, got 3"):
        CarrySequence(4, (0, 1, 0))
    with pytest.raises(ValueError, match="expected 4 carries, got 3"):
        CarrySequence(4, (0, 300, 0))


def test_carry_sequence_reads_every_buffer_as_signed_bytes():
    # bytes, bytearray and memoryview words hold the same signed bytes,
    # equal and hash-equal to the int tuple they spell
    carries = (1, -1, 0, 127, -128)
    signed = b"\x01\xff\x00\x7f\x80"
    buffers = (signed, bytearray(signed), memoryview(signed))
    words = [CarrySequence(5, word) for word in (*buffers, carries)]
    for word in words:
        assert word == words[-1] and hash(word) == hash(words[-1])
        assert type(word.word) is bytes and word.carries == carries
    assert CarrySequence(2, bytearray(b"\x01\xff")).carries == (1, -1)


def test_carry_sequence_reads_a_one_shot_word_once():
    # iterators and generators, narrow and wide, give the tuple's sequence
    for carries in ((0, 1, 1), (0, -1, 1), (0, 300, 1), (-129, 0, 127)):
        expected = CarrySequence(3, carries)
        for word in (iter(carries), (c for c in carries)):
            got = CarrySequence(3, word)
            assert got == expected and hash(got) == hash(expected)
            assert got.carries == carries


def test_carry_sequence_rejects_non_integer_carries():
    # only integer carries beyond a signed byte are kept as a tuple, and
    # those as plain ints; a float or any other object is refused
    for word in (("a", None), (0.5, 1), (0.5, 300), (300, 1.0), [None, 0]):
        with pytest.raises(ValueError, match="carries must be integers"):
            CarrySequence(2, word)

    class Carry:  # an integer type of its own, as numpy's are
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    wide = CarrySequence(3, (Carry(0), Carry(300), Carry(-1)))
    assert wide.word == (0, 300, -1) and wide.weight() == 299
    assert all(type(c) is int for c in wide.word)
    assert wide == CarrySequence(3, (0, 300, -1))


def test_all_ones_sum_with_zero_s():
    # sum_j t_j rot_j(a) = q (2^n - 1) with q != 0: s = 0 holds, and the
    # seed identity must give c[n-1] = q rather than 0
    nonzero_seeds = 0
    shapes = ({3: 1, 0: 1}, {4: 1, 2: -1, 0: 1}, {5: 2, 3: -1, 1: 1, 0: -1})
    for terms in shapes:
        form = signed_form(terms)
        for n in range(2, 9):
            zero = bits_of(0, n)
            for a in range(1, (1 << n) - 1):
                if fold_mod(form.value() * a, n) != 0:
                    continue
                bits_a = bits_of(a, n)
                (expected,) = enumerated_carries(form, bits_a, zero)
                c = verify_congruence(form, bits_a, zero)
                assert c.carries == expected
                nonzero_seeds += c.carries[-1] != 0
    assert nonzero_seeds > 0


def test_canonical_forms():
    kasami = canonical_form(ExponentFamily("kasami", 3))
    assert dict(kasami.terms) == {6: 1, 3: -1, 0: 1}
    assert (kasami.t_plus, kasami.t_minus) == (2, -1)

    gold = canonical_form(ExponentFamily("gold", 1))
    assert dict(gold.terms) == {1: 1, 0: 1}
    assert (gold.t_plus, gold.t_minus) == (2, 0)

    bl = canonical_form(ExponentFamily("bracken_leander", 2))
    assert dict(bl.terms) == {4: 1, 2: 1, 0: 1}
    assert (bl.t_plus, bl.t_minus) == (3, 0)

    raw = canonical_form(ExponentFamily("raw", 5))
    assert dict(raw.terms) == {2: 1, 0: 1}

    welch = canonical_form(ExponentFamily("welch", 3))
    assert dict(welch.terms) == {3: 1, 1: 1, 0: 1}
    # 2^1 + 3 = 5: the three terms would collide at t = 1
    welch = canonical_form(ExponentFamily("welch", 1))
    assert dict(welch.terms) == {2: 1, 0: 1}

    niho = canonical_form(ExponentFamily("niho", 3))  # s = (3t + 1)/2 = 5
    assert dict(niho.terms) == {5: 1, 3: 1, 0: -1}
    assert (niho.t_plus, niho.t_minus) == (2, -1)
    niho = canonical_form(ExponentFamily("niho", 4))  # s = t/2 = 2
    assert dict(niho.terms) == {4: 1, 2: 1, 0: -1}

    dobbertin = canonical_form(ExponentFamily("dobbertin", 2))
    assert dict(dobbertin.terms) == {8: 1, 6: 1, 4: 1, 2: 1, 0: -1}
    assert (dobbertin.t_plus, dobbertin.t_minus) == (4, -1)

    # the inverse family's exponent depends on n, so it has no form
    with pytest.raises(ValueError):
        canonical_form(ExponentFamily("inverse"))


@pytest.mark.parametrize("kind", ["welch", "niho", "dobbertin"])
def test_apn_family_forms_match_seed_enumeration(kind):
    rng = random.Random(11)
    for param in range(1, 7):
        form = canonical_form(ExponentFamily(kind, param))
        for n in range(2, 25):
            mask = (1 << n) - 1
            a = rng.randrange(mask)
            for s in (form.value() * a % mask, rng.randrange(mask)):
                bits_a, bits_s = bits_of(a, n), bits_of(s, n)
                closing = enumerated_carries(form, bits_a, bits_s)
                if (form.value() * a - s) % mask == 0:
                    c = verify_congruence(form, bits_a, bits_s)
                    assert [c.carries] == closing
                else:
                    assert closing == []
                    with pytest.raises(CongruenceError):
                        verify_congruence(form, bits_a, bits_s)


def test_signed_form_validation():
    with pytest.raises(ValueError):
        signed_form({})
    with pytest.raises(ValueError):
        signed_form({0: 0})
    with pytest.raises(ValueError):
        signed_form({0: -1})  # negative value
    with pytest.raises(ValueError):
        signed_form({-1: 1})


def test_worked_gold_example_all_ones():
    form = canonical_form(ExponentFamily("gold", 3))
    c = verify_congruence(form, bits_of(113, 7), bits_of(1, 7))
    assert c.carries == (1,) * 7


def test_identity_multiplication_no_carries():
    form = canonical_form(ExponentFamily("raw", 1))
    c = verify_congruence(form, bits_of(23, 6), bits_of(23, 6))
    assert c.carries == (0,) * 6


def test_single_power_shift_no_carries():
    # multiplying by 2^j is a cyclic shift: zero carries
    form = signed_form({2: 1})
    c = solve_carries(form, bits_of(11, 5), bits_of(fold_mod(11 << 2, 5), 5))
    assert c.carries == (0,) * 5


def test_kasami_small_weight_example():
    form = canonical_form(ExponentFamily("kasami", 2))
    c = verify_congruence(form, bits_of(12, 5), bits_of(1, 5))
    assert c.weight() == 1  # wt(a) - wt(s) = 2 - 1


def test_kasami_weight_identity_example():
    form = canonical_form(ExponentFamily("kasami", 3))
    c = solve_carries(form, bits_of(78, 7), bits_of(1, 7))
    assert c.weight() == 3  # wt(78) - 1


def test_congruence_failure():
    form = canonical_form(ExponentFamily("gold", 3))
    with pytest.raises(CongruenceError):
        solve_carries(form, bits_of(113, 7), bits_of(2, 7))


def test_all_zero_word():
    form = canonical_form(ExponentFamily("kasami", 2))
    c = solve_carries(form, bits_of(0, 5), bits_of(0, 5))
    assert c.carries == (0,) * 5
    with pytest.raises(CongruenceError):
        solve_carries(form, bits_of(0, 5), bits_of(1, 5))


def test_soundness_random_sweep():
    # verify succeeds exactly when s = l*a, for every family form of
    # parameter < n, with 200 seeded-random a per form
    rng = random.Random(0xC0FFEE)
    for n in range(2, 17):
        mask = (1 << n) - 1
        for kind in ("gold", "kasami", "bracken_leander"):
            for r in range(1, n):
                form = canonical_form(ExponentFamily(kind, r))
                l = fold_mod(form.value(), n)
                for _ in range(200):
                    a = rng.randrange(0, mask)
                    s = fold_mod(l * a, n)
                    c = verify_congruence(form, bits_of(a, n), bits_of(s, n))
                    lo, hi = form.t_minus, form.t_plus - 1
                    assert all(lo <= ci <= hi for ci in c.carries)
                    wrong = s ^ (1 << rng.randrange(n))
                    if wrong != mask and wrong != s:
                        with pytest.raises(CongruenceError):
                            solve_carries(form, bits_of(a, n), bits_of(wrong, n))


def test_uniqueness_of_seed():
    # when a solve succeeds, every other seed must fail to close
    cases = [
        (canonical_form(ExponentFamily("gold", 3)), 113, 1, 7),
        (canonical_form(ExponentFamily("kasami", 3)), 78, 1, 7),
        (canonical_form(ExponentFamily("kasami", 2)), 12, 1, 5),
        (canonical_form(ExponentFamily("bracken_leander", 1)), 13, 1, 4),
    ]
    for form, a, s, n in cases:
        ok = [
            seed
            for seed in range(form.t_minus, form.t_plus)
            if propagate(form, bits_of(a, n), bits_of(s, n), seed) is not None
        ]
        assert len(ok) == 1


def test_kasami_carry_range():
    form = canonical_form(ExponentFamily("kasami", 4))
    assert (form.t_minus, form.t_plus - 1) == (-1, 1)


def test_constraints_check_rejects_wrong_carries():
    form = canonical_form(ExponentFamily("kasami", 3))
    a, s = bits_of(78, 7), bits_of(1, 7)
    zeros = CarrySequence(7, (0,) * 7)  # in range, but not the word of s
    fault = _certificate_fault(form, a, s, zeros)
    assert fault == "carry word does not reproduce s"


def assert_kasami_lemmas(c, r, a, s):
    """README's three lemmas on a kasami carry word c of s = K_r * a, as
    perfbench/checker.py's kasami_constraints states them."""
    n, carries = c.n, c.carries
    w = sum(carries)
    pairs = {carries[i] + carries[(i - r) % n] for i in range(n)}
    assert pairs <= {-1, 0, 1}, "pair bound"
    assert 2 * abs(w) <= n, "half-weight bound"
    assert w + s.weight() == a.weight(), "weight identity"


def test_kasami_carry_lemmas_hold_on_every_small_congruence():
    # every held kasami congruence s = K_r * a with 2 <= n <= 11, every
    # r in [1, 2n] (r >= n and multiples of n included) and every a;
    # K_3^-1 = 78 at n = 7 has the carry word of weight wt(78) - 1 = 3
    solved = 0
    for n in range(2, 12):
        mask = (1 << n) - 1
        words = [bits_of(v, n) for v in range(mask)]
        for r in range(1, 2 * n + 1):
            form = canonical_form(ExponentFamily("kasami", r))
            l = form.value() % mask
            for a in range(mask):
                bits_a, bits_s = words[a], words[l * a % mask]
                c = solve_carries(form, bits_a, bits_s)
                assert_kasami_lemmas(c, r, bits_a, bits_s)
                solved += 1
    assert solved == 81_790
    form = canonical_form(ExponentFamily("kasami", 3))
    assert solve_carries(form, bits_of(78, 7), bits_of(1, 7)).weight() == 3


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kasami_carry_lemmas_hold_at_larger_n(data):
    n = data.draw(st.integers(2, 399))
    r = data.draw(st.integers(1, 2 * n))
    mask = (1 << n) - 1
    a = data.draw(st.integers(0, mask - 1))
    form = canonical_form(ExponentFamily("kasami", r))
    bits_a, bits_s = bits_of(a, n), bits_of(form.value() * a % mask, n)
    c = solve_carries(form, bits_a, bits_s)
    assert_kasami_lemmas(c, r, bits_a, bits_s)
