import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from trevext import code_extractor
from trevext.bitfield import BinaryField, BitString
from trevext.code_extractor import (
    CodeSpec,
    code_columns,
    code_params,
    codeword_table,
    extract_bit,
    list_size_at,
    message_symbols,
    min_distance_exhaustive,
    min_symbol_size,
)
from trevext.errors import ParameterError, SizeGuardError, UnsupportedParametersError


def test_spec_invariants():
    spec = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    assert spec.q == 4 and spec.ell == 2 and spec.t == 4 and spec.n_bar == 16
    assert spec.list_size_bound == Fraction(64, 9)
    with pytest.raises(ParameterError):
        CodeSpec(n=4, s=2, delta=Fraction(1, 8))  # distance budget violated
    with pytest.raises(ParameterError):
        CodeSpec(n=9, s=1, delta=Fraction(1, 4))  # ell > q
    with pytest.raises(ParameterError):
        CodeSpec(n=4, s=2, delta=Fraction(1, 2))


def test_min_symbol_size():
    assert min_symbol_size(4, Fraction(3, 8)) <= 2
    # ell = 1 satisfies the budget trivially once s >= n
    s = min_symbol_size(16, Fraction(1, 1000))
    assert s == 16
    spec = code_params(16, Fraction(1, 1000))
    assert spec.s == 16 and spec.ell == 1
    with pytest.raises(UnsupportedParametersError):
        code_params(1 << 12, Fraction(1, 1 << 40))


def test_message_symbols_padding():
    spec = CodeSpec(n=5, s=3, delta=Fraction(1, 4))
    # 5 bits -> two 3-bit symbols, the second zero-padded at the low end
    x = BitString.from_str("10111")
    syms = message_symbols(spec, x)
    assert syms == [0b101, 0b110]


def test_extract_bit_matches_inner_product_oracle():
    spec = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    f = BinaryField(2)
    for xv in range(16):
        x = BitString(4, xv)
        c0, c1 = x.chunk(0, 2), x.chunk(2, 2)
        for a in range(4):
            pa = c0 ^ f.mul(c1, a)  # p_x(a), degree-1 message polynomial
            for z in range(4):
                y = BitString(2, a).concat(BitString(2, z))
                assert extract_bit(spec, x, y) == (pa & z).bit_count() & 1


DELTAS = [Fraction(1, 4), Fraction(3, 8), Fraction(7, 16), Fraction(15, 32)]


def valid_spec(n, s):
    """CodeSpec(n, s) with the first delta of DELTAS that admits it, or None."""
    ell, q = -(-n // s), 1 << s
    delta = next((d for d in DELTAS if Fraction(ell - 1, q) <= 2 * d * d), None)
    if ell > q or delta is None:
        return None
    return CodeSpec(n=n, s=s, delta=delta)


def oracle_codewords(spec):
    """Every codeword as a list of bits, one extract_bit call per bit."""
    seeds = [BitString(spec.t, yv) for yv in range(spec.n_bar)]
    return [[extract_bit(spec, BitString(spec.n, xv), y) for y in seeds]
            for xv in range(1 << spec.n)]


def test_codeword_table_consistency():
    # (4, 2) has n % s == 0; the others have ell >= 2 and a zero-padded
    # symbol; n = 9 and 10 take a second, partial byte of columns
    for n, s in [(4, 2), (5, 3), (7, 3), (6, 4), (9, 3), (10, 3)]:
        spec = valid_spec(n, s)
        table = codeword_table(spec)
        assert table.shape == (1 << n, spec.n_bar) and table.dtype == np.uint8
        assert table.tolist() == oracle_codewords(spec), (n, s)


def test_min_distance_matches_codeword_oracle():
    # n = 7, s = 3 is the smallest spec where counting nonzero popcounts
    # instead of nonzero parities gives a wrong distance (7/16, not 3/8);
    # n = 9 and 10 take a second, partial byte of columns
    specs = [sp for n in range(1, 8) for s in range(1, 5)
             if (sp := valid_spec(n, s)) is not None]
    specs += [valid_spec(9, 3), valid_spec(10, 3)]
    assert len(specs) >= 20
    for spec in specs:
        weight = min(sum(row) for row in oracle_codewords(spec)[1:])
        assert min_distance_exhaustive(spec) == Fraction(weight, spec.n_bar), spec


def _column_bits(columns, x, k):
    """Outputs of code_columns' byte columns on input x: the XOR of the
    columns of x's set bits, pair r at byte r // 8, bit 7 - r % 8 of the
    little-endian words."""
    i = np.array([b for b in range(x.length) if x.value >> (x.length - 1 - b) & 1], dtype=np.intp)
    acc = np.bitwise_xor.reduce(columns[7 - (i & 7), i >> 3], axis=0)
    return np.unpackbits(acc.astype("<u8").view(np.uint8))[:k].tolist()


def _check_code_columns(spec, k, rng):
    """code_columns at k random pairs against extract_bit on 3 random inputs."""
    n, s = spec.n, spec.s
    a = [rng.randrange(spec.q) for _ in range(k)]
    u = [rng.randrange(spec.q) for _ in range(k)]
    columns = code_columns(spec, np.array(a, dtype=np.uint64), np.array(u, dtype=np.uint64))
    assert columns.shape == (8, -(-n // 8), -(-k // 64)) and columns.dtype == np.uint64
    for _ in range(3):
        x = BitString(n, rng.getrandbits(n))
        want = [
            extract_bit(spec, x, BitString(s, ai).concat(BitString(s, ui))) for ai, ui in zip(a, u)
        ]
        assert k == 0 or _column_bits(columns, x, k) == want


@pytest.mark.parametrize("n,s,delta", [(20, 5, Fraction(1, 4)), (150, 8, Fraction(1, 4))])
def test_code_columns_match_extract_bit(n, s, delta):
    # 1500 pairs: 23 whole 64-pair groups and a partial one; n = 150 has 19
    # column bytes, the last one partial
    _check_code_columns(CodeSpec(n=n, s=s, delta=delta), 1500, random.Random(n))


@pytest.mark.parametrize(
    "n,s,k",
    [
        (1, 1, 4),  # one-bit symbols
        (64, 8, 300),  # a symbol fills one whole byte
        (130, 63, 200),  # one bit short of a whole step word
        (200, 64, 200),  # a symbol fills all 8 bytes of the step word
        (20, 5, 0),  # no pairs
        (200, 64, 0),
    ],
)
def test_code_columns_symbol_size_edges(n, s, k):
    _check_code_columns(CodeSpec(n=n, s=s, delta=Fraction(1, 4)), k, random.Random(n + s))


@pytest.mark.parametrize("lanes", [1, 7, 70])
@pytest.mark.parametrize("n,s", [(1, 1), (203, 8), (130, 63), (197, 64)])
def test_lane_chunks_match_extract_bit(n, s, lanes, monkeypatch):
    # a step-state budget of `lanes` 64-pair groups per chunk of
    # code_columns: 500 pairs (7 whole groups and a partial one) run one
    # group at a time, in chunks of 7 groups and 1, or all in one chunk
    spec = CodeSpec(n=n, s=s, delta=Fraction(1, 4))
    words = code_extractor._lane_words(s, 0)
    monkeypatch.setattr(code_extractor, "_LANE_BYTES", 8 * 64 * words * lanes)
    _check_code_columns(spec, 500, random.Random(n * lanes + s))


def test_exhaustive_helpers_memory_bound():
    # the helpers' scratch stays within ~1 Mi unpacked outputs, their
    # tables and the step state of one compile (1.25 MiB), whatever the
    # number of pairs (2.4 and 2.7 MiB traced under numpy 2.4).  At
    # (n, s) = (14, 8) min_distance_exhaustive tabulates all 2^11 pairs
    # (a, e_b) in 32 chunks of 2^9 inputs; the codeword table at (14, 7)
    # (256 MiB, not counted) is filled in 256 chunks of 2^6 inputs
    big = CodeSpec(n=14, s=8, delta=Fraction(1, 4))
    spec = CodeSpec(n=14, s=7, delta=Fraction(1, 4))
    tracemalloc.start()
    try:
        dist = min_distance_exhaustive(big)
        scratch = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = codeword_table(spec)
        table_scratch = tracemalloc.get_traced_memory()[1] - table.nbytes
    finally:
        tracemalloc.stop()
    assert scratch <= 4 << 20 and table_scratch <= 4 << 20, (scratch, table_scratch)
    # ell = 2: a nonzero message polynomial has at most one root
    assert dist == Fraction(big.q - 1, 2 * big.q)
    assert table.shape == (1 << 14, 1 << 14)
    rng = random.Random(14)
    for _ in range(300):
        xv, yv = rng.randrange(1 << 14), rng.randrange(1 << 14)
        assert table[xv, yv] == extract_bit(spec, BitString(14, xv), BitString(14, yv))


def test_min_distance_example():
    spec = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    dist = min_distance_exhaustive(spec)
    assert dist == Fraction(3, 8)
    assert dist >= (1 - Fraction(spec.ell - 1, spec.q)) / 2


def test_hadamard_only_distance_half():
    # ell = 1: pure Hadamard block, relative distance exactly 1/2
    spec = CodeSpec(n=3, s=3, delta=Fraction(1, 4))
    assert spec.ell == 1
    assert min_distance_exhaustive(spec) == Fraction(1, 2)


@pytest.mark.parametrize("n,s", [(4, 2), (6, 3), (6, 4)])
def test_distance_bound_various(n, s):
    spec = CodeSpec(n=n, s=s, delta=Fraction(2, 5))
    assert min_distance_exhaustive(spec) >= (1 - Fraction(spec.ell - 1, spec.q)) / 2


def test_list_size_within_johnson_budget():
    spec = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    # around any received word, codewords within radius 1/2 - delta
    rng = random.Random(1)
    radius = Fraction(1, 2) - spec.delta
    worst = 0
    for _ in range(20):
        center = BitString(spec.n_bar, rng.randrange(1 << spec.n_bar))
        worst = max(worst, list_size_at(spec, center, radius))
    # the Johnson regime promises a list of size at most 1/delta^2
    assert worst <= spec.list_size_bound


def test_exhaustive_guards():
    big = CodeSpec(n=20, s=10, delta=Fraction(1, 4))
    with pytest.raises(SizeGuardError):
        codeword_table(big)
    with pytest.raises(SizeGuardError):
        min_distance_exhaustive(big)
    # short input, huge field: 2^40 evaluation points
    with pytest.raises(SizeGuardError):
        min_distance_exhaustive(CodeSpec(n=3, s=40, delta=Fraction(1, 4)))


def test_extract_bit_length_checks():
    spec = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    with pytest.raises(ParameterError):
        extract_bit(spec, BitString(4, 0), BitString(3, 0))
    with pytest.raises(ParameterError):
        message_symbols(spec, BitString(5, 0))
