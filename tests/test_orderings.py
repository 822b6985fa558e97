import random
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from mersexp import (
    BitSequence,
    CarrySequence,
    RMatrix,
    Residue,
    e_value,
    from_r_matrix,
    matrix_of_sequence,
    to_bits,
    to_r_matrix,
)
from mersexp.orderings import _SHORT_ROW, _decimate, _plan
from mersexp.sbox import _LIST_COPIES


def bits_of(value, n):
    return to_bits(Residue(n, value))


def test_e_value_examples():
    assert e_value(3, 7) == 5
    assert e_value(1, 12) == 1
    assert e_value(2, 10) == 1  # d=2, r/d=1 inverted mod 5


def test_e_value_degenerate_convention():
    assert e_value(6, 6) == 0
    assert e_value(14, 7) == 0


def test_r_ordering_worked_example():
    # with gcd(r, n) = 1 the r-ordering is the one row of the r-matrix:
    # 113 at n=7, r=3 decimates to (1,1,0,1,0,1,0)
    m = to_r_matrix(bits_of(113, 7), 3)
    assert m.entries == ((1, 1, 0, 1, 0, 1, 0),)
    assert from_r_matrix(m) == bits_of(113, 7)


def test_to_r_matrix_single_row_equals_r_ordering():
    m = to_r_matrix(bits_of(113, 7), 3)
    assert m.d == 1 and m.cols == 7
    # the r-ordering by definition: a_i = b_(-r*i mod n)
    rng = random.Random(7)
    for n, r in ((7, 3), (5, 2), (9, 4), (12, 5), (31, 30), (64, 9)):
        bits = bits_of(rng.randrange(2**n - 1), n)
        decimated = tuple(bits.bits[(-r * i) % n] for i in range(n))
        assert to_r_matrix(bits, r).entries == (decimated,)


def test_single_row_requires_coprime():
    # one row holds the whole word only when gcd(r, n) = 1
    with pytest.raises(ValueError):
        RMatrix(6, 2, ((0,) * 6,))


def test_from_r_matrix_single_row_examples():
    got = from_r_matrix(RMatrix(7, 3, ((1, 1, 0, 1, 0, 1, 0),)))
    assert got.value == 113
    # a constant word is fixed by any permutation
    zeros = RMatrix(5, 2, ((0,) * 5,))
    assert from_r_matrix(zeros).bits == (0,) * 5
    # the decimation of 12 at r=2 (e = 3): sum a_i 2^(-2i) = 2^3 + 2^2
    got = from_r_matrix(RMatrix(5, 2, ((0, 1, 0, 0, 1),)))
    assert got.value == 12


def test_to_r_matrix_zero_word():
    m = to_r_matrix(bits_of(0, 6), 2)
    assert m.entries == ((0, 0, 0), (0, 0, 0))


def test_to_r_matrix_kasami_example():
    # the inverse of 2^4 - 2^2 + 1 mod 2^10 - 1 in 2-matrix form
    m = to_r_matrix(bits_of(787, 10), 2)
    assert m.entries == ((1, 1, 0, 1, 0), (1, 1, 0, 0, 0))


def test_from_r_matrix_examples():
    assert from_r_matrix(RMatrix(4, 1, ((1, 1, 1, 0),))).value == 13
    assert from_r_matrix(RMatrix(6, 2, ((0,) * 3, (0,) * 3))).bits == (0,) * 6
    assert from_r_matrix(RMatrix(6, 2, ((0, 0, 1), (1, 1, 0)))).value == 38


def test_from_r_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        from_r_matrix(RMatrix(4, 2, ((2, 0), (0, 0))))
    for bad in (1.5, 1.0, -1, 256):  # one row, then two rows
        with pytest.raises(ValueError, match="bits"):
            from_r_matrix(RMatrix(3, 1, ((bad, 0, 0),)))
        with pytest.raises(ValueError, match="bits"):
            from_r_matrix(RMatrix(4, 2, ((bad, 0), (0, 0))))
    with pytest.raises(ValueError):
        # reassembles to the all-ones word
        from_r_matrix(RMatrix(4, 2, ((1, 1), (1, 1))))


def test_r_matrix_contract():
    # flat keeps one signed byte per entry, row by row, and entries is
    # its view: byte rows and int rows give the same matrix
    ints = RMatrix(6, 2, ((1, 1, 0), (-1, 0, 2)))
    raw = RMatrix(6, 2, (b"\x01\x01\x00", bytearray(b"\xff\x00\x02")))
    assert ints == raw and hash(ints) == hash(raw)
    assert ints.flat == raw.flat == b"\x01\x01\x00\xff\x00\x02"
    assert ints.entries == raw.entries == ((1, 1, 0), (-1, 0, 2))
    assert RMatrix(3, 1, (b"\xff\x00\x01",)).entries == ((-1, 0, 1),)
    assert RMatrix(3, 1, ((127, -128, 0),)).entries == ((127, -128, 0),)
    for bad in (128, -129, 1.5):
        with pytest.raises(ValueError):
            RMatrix(3, 1, ((bad, 0, 0),))
        with pytest.raises(ValueError):
            RMatrix(4, 2, ((0, 0), (0, bad)))
    with pytest.raises(ValueError, match="expected 3 rows, got 1"):
        RMatrix(6, 3, ((0,) * 6,))
    with pytest.raises(ValueError, match="every row must have 3 entries"):
        RMatrix(6, 2, ((0, 0, 0), (0, 0)))
    # matrix_of_sequence reads the same format and keeps the same range
    built = RMatrix(3, 1, ((-1, 1, 0),))
    for word in (
        (-1, 0, 1),
        b"\xff\x00\x01",
        bytearray(b"\xff\x00\x01"),
        memoryview(b"\xff\x00\x01"),
    ):
        m = matrix_of_sequence(word, 3, 1)
        assert m == built and hash(m) == hash(built)
        assert m.entries == ((-1, 1, 0),)
    for bad in (128, -129, 300):
        with pytest.raises(ValueError):
            matrix_of_sequence((bad, 0, 0), 3, 1)
        with pytest.raises(ValueError):
            matrix_of_sequence((0, 0, 0, bad), 4, 2)

def test_round_trip_and_weight_random():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randrange(2, 65)
        r = rng.randrange(1, n) if n > 2 else 1
        value = rng.randrange(0, (1 << n) - 1)
        word = bits_of(value, n)
        m = to_r_matrix(word, r)
        assert from_r_matrix(m) == word
        assert sum(sum(row) for row in m.entries) == word.weight()


def test_matrix_of_sequence_general_entries():
    m = matrix_of_sequence((1, -1, 0, 2, 1, 0), 6, 2)
    assert m.entries == (
        (1, 1, 0),
        (-1, 0, 2),
    )


@pytest.mark.parametrize(
    "n, r",
    [
        (257, 1),
        (257, 128),
        (257, 129),
        (300, 7),
        (1001, 500),
        (1001, 1000),
        (1024, 4),  # d = 4, m = 256
        (1030, 2),  # d = 2, m = 515
        (1030, 515),  # d = 515, m = 2
        (777, 777),  # d = n, one column
    ],
)
def test_matrix_matches_definition_on_long_words(n, r):
    # entry (i, j) is the word at (i - j*r) mod n, on both sides of the
    # length where rows switch from one index per entry to slice runs
    rng = random.Random(n * r)
    values = tuple(rng.randrange(-1, 3) for _ in range(n))
    m = matrix_of_sequence(values, n, r)
    cols = m.cols
    assert m.entries == tuple(
        tuple(values[(i - j * r) % n] for j in range(cols))
        for i in range(m.d)
    )


@pytest.mark.parametrize(
    "n, r",
    [(1031, 400), (1028, 257), (8005, 15)],
    ids=["d1", "d-ge-m-bracken-leander", "d5-m1601"],
)
def test_byte_decimation_long_words(n, r):
    # words past the 512-entry short path, decimated in byte slices:
    # d = 1; d > 1 with m <= d (n = 4r); d > 1 with m > d
    rng = random.Random(n)
    word = bits_of(rng.randrange(2**n - 1), n)
    m = to_r_matrix(word, r)
    d = m.d
    expected = tuple(
        tuple(word.bits[(i - j * r) % n] for j in range(n // d))
        for i in range(d)
    )
    assert m.entries == expected
    assert from_r_matrix(m) == word
    assert matrix_of_sequence(word.bits, n, r) == m


@st.composite
def carry_words(draw):
    """(CarrySequence, r) with signed-byte carries, negative ones included,
    for d = 1, d > 1 with m <= 1024 and d > 1 with m > 1024 (d = gcd(n, r),
    m = n/d): the column path (m <= d) and the strand path, whose rows
    are decimated from copies up to 512 entries and walked beyond."""
    shape = draw(st.sampled_from(("d1", "short rows", "long rows")))
    if shape == "d1":
        d, m = 1, draw(st.integers(2, 1500))
    elif shape == "short rows":
        d, m = draw(st.integers(2, 9)), draw(st.integers(1, 1024))
    else:
        d, m = draw(st.integers(2, 4)), draw(st.integers(1025, 1300))
    k = draw(st.integers(1, m))
    assume(gcd(k, m) == 1)
    # the kasami range, a wider form's, a whole signed byte
    lo, hi = draw(st.sampled_from(((-1, 1), (-2, 2), (-128, 127))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = d * m
    c = CarrySequence(n, [rng.randint(lo, hi) for _ in range(n)])
    return c, d * k


@settings(max_examples=60, deadline=None)
@given(carry_words())
def test_carry_matrix_bytes_match_tuple(case):
    c, r = case
    n, carries = c.n, c.carries
    assert type(c.word) is bytes
    m = matrix_of_sequence(c.word, n, r)
    assert m == matrix_of_sequence(carries, n, r)
    assert m.entries == tuple(
        tuple(carries[(i - j * r) % n] for j in range(m.cols))
        for i in range(m.d)
    )


def _decimated(seq, step):
    """The decimation by its definition: entry j is seq[(-j*step) mod m]."""
    m = len(seq)
    return bytes([seq[x % m] for x in range(0, -step * m, -step)])


def _reads(seq, plan):
    """_decimate's output, the copies of seq (bytes or a list) it made,
    0 when it read seq itself, and the slices it read from either."""
    kind, made, slices = type(seq), [], []

    class Copies(kind):
        def __getitem__(self, key):
            slices.append(key)
            return kind.__getitem__(self, key)

    class Strand(Copies):
        def __mul__(self, copies):
            made.append(copies)
            return Copies(kind(self) * copies)

    out = _decimate(Strand(seq), plan)
    assert len(made) <= 1
    return out, made[0] if made else 0, len(slices)


def _check_plan(seq, step):
    m = len(seq)
    plan = _plan(m, step)
    out, copies, slices = _reads(seq, plan)
    assert out == _decimated(seq, step), step
    assert copies == (plan[3] if plan[3] > 1 else 0), step
    # a strand of m entries takes O(sqrt(m)) slices and one budget of
    # _SHORT_ROW**2 bytes (256 KB) of copies, or one copy past it
    assert copies <= max(1, _SHORT_ROW**2 // m), step
    assert slices <= 2 * isqrt(m), step


@pytest.mark.parametrize("m", [513, 1031])
def test_decimation_of_every_step_past_the_short_rows(m):
    # every step prime to m, just past the rows decimated in one slice
    assert m > _SHORT_ROW
    seq = random.Random(m).randbytes(m)
    for step in range(1, m):
        if gcd(step, m) == 1:
            _check_plan(seq, step)


@pytest.mark.parametrize("m", [16001, 65003, 131071])
def test_decimation_at_edge_strides(m):
    # g = -step mod m: the smallest strides, g near m/q for small q,
    # near sqrt(m), and at m/phi, whose continued fraction has only 1s
    # (convergents that approach g/m the slowest).  Past m = 65,536
    # fewer than four copies fit the 256 KB budget, two at m = 131,071
    root, phi = isqrt(m), (1 + 5**0.5) / 2
    gs = {1, 2, 46, (m - 1) // 2, (m + 1) // 2, root, root + 1, int(m / phi)}
    for q in (3, 7, 100):
        gs |= {m // q - 1, m // q, m // q + 1}
    seq = random.Random(m).randbytes(m)
    for g in sorted(gs):
        for step in (m - g, g):  # g and -g
            if gcd(step, m) == 1:
                _check_plan(seq, step)


def test_list_decimation_matches_the_bytes():
    # the field layer decimates lists of ints within its own copy budget;
    # a byte strand keeps its plan, and both read the same entries
    rng = random.Random(3000)
    for m in range(2, 3001):
        seq = rng.randbytes(m)
        steps = {rng.randrange(1, m) for _ in range(40)} if m > 2 else {1}
        for step in [s for s in sorted(steps) if gcd(s, m) == 1][:20]:
            want = list(_decimate(seq, _plan(m, step)))
            got = _decimate(list(seq), _plan(m, step, _LIST_COPIES))
            assert got == want, (m, step)


def test_one_copy_plan_reads_a_list_strand_itself():
    # from n = 12 up the field layer's list strands pass its copy budget,
    # and a plan of one copy must read the list as it is, not copy it
    rng = random.Random(4095)
    for m in (4095, 65535):
        assert _LIST_COPIES // m < 2 and m * m > _LIST_COPIES
        seq = [rng.randrange(256) for _ in range(m)]
        steps = [2, 4, m - 2, rng.randrange(2, m), rng.randrange(2, m)]
        for step in [s for s in steps if gcd(s, m) == 1]:
            plan = _plan(m, step, _LIST_COPIES)
            out, copies, slices = _reads(seq, plan)
            assert plan[3] == 1 and copies == 0 and slices >= 1, (m, step)
            assert out == list(_decimated(bytes(seq), step)), (m, step)


def test_plan_reads_large_strides_at_2_20_from_one_copy():
    # a second copy would pass the 256 KB budget: at m = 2^20 - 3,
    # four copies made g = 1000 about twice as slow
    m = 1048573
    for g in (2, 46, 1000, 1023, 1024):
        for step in (m - g, g):
            _, q, h, copies = _plan(m, step)
            assert (q, abs(h), copies) == (1, g, 1), step
