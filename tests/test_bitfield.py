import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trevext.bitfield import (
    IRREDUCIBLE_POLY,
    MAX_BINARY_FIELD_DEGREE,
    BinaryField,
    BitString,
)
from trevext.errors import ParameterError


# -- BitString ---------------------------------------------------------------


def test_bit_indexing_msb_first():
    b = BitString.from_str("10110")
    assert len(b) == 5
    assert [b[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert b.value == 0b10110


def test_bytes_round_trip():
    b = BitString.from_str("101100111")
    # bit 0 is the high bit of byte 0; final byte zero-padded
    assert b.to_bytes() == bytes([0b10110011, 0b10000000])
    assert BitString.from_bytes(b.to_bytes(), 9) == b
    assert BitString.from_bytes(bytes([0xA5])) == BitString.from_str("10100101")


def test_value_range_checked():
    with pytest.raises(ParameterError):
        BitString(3, 8)
    with pytest.raises(ParameterError):
        BitString(-1, 0)
    BitString(0, 0)  # empty string is fine


def test_concat_xor_prefix():
    a = BitString.from_str("101")
    b = BitString.from_str("01")
    assert a.concat(b) == BitString.from_str("10101")
    assert a ^ BitString.from_str("110") == BitString.from_str("011")
    assert a.prefix(2) == BitString.from_str("10")
    with pytest.raises(ParameterError):
        a ^ b


def test_substring_ascending_order():
    b = BitString.from_str("10110")
    assert b.substring([4, 0, 2]) == BitString.from_str("110")
    assert b.substring([]) == BitString(0, 0)
    with pytest.raises(ParameterError):
        b.substring([5])


def test_substring_numpy_indices_past_63_bits():
    # a design row is an int64 array: a numpy shift count would push the
    # seed's value into int64 and overflow once the seed is over 63 bits
    y = BitString(100, (1 << 99) | (1 << 2))  # bits 0 and 97 set
    rows = np.array([[97, 0, 99], [98, 50, 1]], dtype=np.int64)
    assert y.substring(rows[0]) == y.substring([0, 97, 99]) == BitString(3, 0b110)
    assert y.substring(rows[1]) == BitString(3, 0)
    with pytest.raises(ParameterError):
        y.substring(np.array([100]))


def test_substring_composition_exhaustive():
    # (x_S)_T = x_{S o T}, exhaustive over small strings and random index sets
    rng = random.Random(7)
    for n in range(1, 11):
        x = BitString(n, rng.randrange(1 << n))
        for _ in range(20):
            s = sorted(rng.sample(range(n), rng.randint(1, n)))
            t = sorted(rng.sample(range(len(s)), rng.randint(1, len(s))))
            composed = [s[i] for i in t]
            assert x.substring(s).substring(t) == x.substring(composed)


def test_chunk_big_endian_and_padding():
    b = BitString.from_str("10110")
    assert b.chunk(0, 3) == 0b101
    assert b.chunk(3, 2) == 0b10
    # positions past the end read as zero
    assert b.chunk(3, 4) == 0b1000
    assert b.chunk(5, 4) == 0


def test_chunk_edge_cases():
    b = BitString.from_str("10110")
    # a negative start is an index error, as for b[-1]
    for start, width in ((-1, 1), (-1, 3), (-4, 9)):
        with pytest.raises(IndexError):
            b.chunk(start, width)
    with pytest.raises(IndexError):
        BitString(0, 0).chunk(-1, 1)
    # no bits read: 0 wherever it starts
    assert [b.chunk(start, 0) for start in (-1, 0, 4, 5, 99)] == [0] * 5
    # straddling the end, or wholly past it, reads zeros there
    assert b.chunk(4, 3) == 0b000
    assert b.chunk(2, 6) == 0b110000
    assert b.chunk(99, 7) == 0
    assert BitString(0, 0).chunk(0, 5) == 0


# -- BitString against a per-bit model ---------------------------------------
#
# The model is the string of '0'/'1' characters, bit 0 first; every operation
# below is written per bit on it, independently of BitString's integer value.

_props = settings(max_examples=300, deadline=None, database=None)
_bit_strings = st.text(alphabet="01", max_size=150)


def _from_model(s: str) -> BitString:
    return BitString(len(s), int(s, 2) if s else 0)


@_props
@given(_bit_strings, st.integers(0, 160), st.integers(0, 80))
def test_chunk_matches_model(s, start, width):
    bits = s[start : start + width].ljust(width, "0")
    assert _from_model(s).chunk(start, width) == (int(bits, 2) if bits else 0)


@_props
@given(_bit_strings, st.data())
def test_substring_matches_model(s, data):
    b = _from_model(s)
    if s:
        # repeated positions are read once per occurrence
        idx = data.draw(st.lists(st.integers(0, len(s) - 1), max_size=2 * len(s)))
        assert b.substring(idx) == _from_model("".join(s[i] for i in sorted(idx)))
        assert b.substring(tuple(idx)) == b.substring(idx)
    bad = data.draw(st.one_of(st.integers(len(s), len(s) + 9), st.integers(-9, -1)))
    with pytest.raises(ParameterError):
        b.substring([bad] + list(range(len(s))))


@_props
@given(_bit_strings, st.integers(-5, 160))
def test_prefix_matches_model(s, n):
    if 0 <= n <= len(s):
        assert _from_model(s).prefix(n) == _from_model(s[:n])
    else:
        with pytest.raises(ParameterError):
            _from_model(s).prefix(n)


@_props
@given(st.lists(st.integers(0, 1), max_size=150))
def test_from_bits_matches_model(bits):
    s = "".join(map(str, bits))
    b = BitString.from_bits(bits)
    assert b == _from_model(s) and list(b) == bits and str(b) == s
    assert BitString.from_bits(iter(bits)) == b and BitString.from_str(s) == b


@_props
@given(st.lists(st.integers(0, 1), max_size=20), st.sampled_from([2, -1, 3, "1", None]))
def test_from_bits_rejects_non_bits(bits, bad):
    with pytest.raises(ParameterError):
        BitString.from_bits(bits + [bad] + bits)


@_props
@given(_bit_strings)
def test_to_bytes_matches_model(s):
    padded = s.ljust(-(-len(s) // 8) * 8, "0")
    expected = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
    assert _from_model(s).to_bytes() == expected


@_props
@given(st.binary(max_size=20), st.data())
def test_from_bytes_matches_model(raw, data):
    s = "".join(format(byte, "08b") for byte in raw)
    assert BitString.from_bytes(raw) == _from_model(s)
    length = data.draw(st.integers(0, len(s) + 9))
    if length <= len(s):
        assert BitString.from_bytes(raw, length) == _from_model(s[:length])
    else:
        with pytest.raises(ParameterError):
            BitString.from_bytes(raw, length)


# -- fields ------------------------------------------------------------------


def _gf4_mul_table():
    # independent oracle: GF(4) as polynomials over x^2 + x + 1
    tab = {}
    for a in range(4):
        for b in range(4):
            prod = 0
            for i in range(2):
                if (b >> i) & 1:
                    prod ^= a << i
            for deg in (3, 2):
                if prod >> deg:
                    prod ^= 0b111 << (deg - 2)
            tab[(a, b)] = prod
    return tab


def test_gf4_against_table():
    f = BinaryField(2)
    tab = _gf4_mul_table()
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == tab[(a, b)]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_binary_field_axioms_exhaustive(s):
    f = BinaryField(s)
    q = 1 << s
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in range(q):
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):  # every nonzero element has an inverse
        assert sum(f.mul(a, b) == 1 for b in range(1, q)) == 1
    assert all(f.mul(a, 1) == a for a in range(q))


@pytest.mark.parametrize("s", [8, 16, 32, 48, 62, 63, 64])
def test_binary_field_sampled_axioms(s):
    f = BinaryField(s)
    rng = random.Random(s)
    for _ in range(50):
        a, b, c = (rng.randrange(1, 1 << s) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        # a^(2^s − 1) = 1, so a^(2^s − 2) is the inverse of a
        power, base, e = 1, a, (1 << s) - 2
        while e:
            if e & 1:
                power = f.mul(power, base)
            base, e = f.mul(base, base), e >> 1
        assert f.mul(a, power) == 1


def _poly_is_irreducible(p, s):
    """Independent oracle: x^(2^s) == x mod p and gcd(x^(2^(s/q)) - x, p) = 1."""

    def pmod(a):
        while a.bit_length() > s:
            a ^= p << (a.bit_length() - s - 1)
        return a

    def pmul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return pmod(r)

    def frob(a, times):
        for _ in range(times):
            a = pmul(a, a)
        return a

    def pgcd(a, b):
        while b:
            a, b = b, _polymod(a, b)
        return a

    def _polymod(a, b):
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        return a

    x0 = pmod(0b10)  # x itself reduces for s = 1
    if frob(x0, s) != x0:
        return False
    primes = set()
    x = s
    d = 2
    while d * d <= x:
        if x % d == 0:
            primes.add(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        primes.add(x)
    for qp in primes:
        if pgcd(p, frob(x0, s // qp) ^ x0) != 1:
            return False
    return True


def test_moduli_irreducible():
    for s, p in IRREDUCIBLE_POLY.items():
        assert p.bit_length() == s + 1
        assert _poly_is_irreducible(p, s), f"s={s}"


def test_moduli_lexicographically_minimal():
    # brute-force minimality for the small degrees; candidates restricted to
    # nonzero constant term (x | p otherwise, and a modulus of x would
    # identify x with 0 in the quotient)
    for s in range(1, 17):
        p = IRREDUCIBLE_POLY[s]
        for cand in range((1 << s) | 1, p, 2):
            assert not _poly_is_irreducible(cand, s), (s, cand)


def test_unsupported_degree():
    with pytest.raises(ParameterError):
        BinaryField(MAX_BINARY_FIELD_DEGREE + 1)

