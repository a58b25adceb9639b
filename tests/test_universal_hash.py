import itertools
from fractions import Fraction

import pytest

from trevext.bitfield import BitString
from trevext.entropy import flat_source
from trevext.errors import ParameterError
from trevext.params import PINNED_CONSTANTS
from trevext.universal_hash import (
    AdvertisedExtractor,
    ToeplitzSpec,
    compose,
    compose_params,
    required_min_entropy,
    toeplitz_extractor,
    toeplitz_hash,
    toeplitz_row,
)


def matrix_oracle(spec, x, seed):
    """Independent brute-force matrix build: T[i][j] = seed[m_out-1+j-i]."""
    rows = [
        [seed[spec.m_out - 1 + j - i] for j in range(spec.n_in)]
        for i in range(spec.m_out)
    ]
    return BitString.from_bits(
        sum(r[j] * x[j] for j in range(spec.n_in)) % 2 for r in rows
    )


def test_zero_input_maps_to_zero():
    spec = ToeplitzSpec(3, 2)
    assert toeplitz_hash(spec, BitString(3, 0), BitString.from_str("1011")).value == 0


def test_identity_seed():
    # single 1 at seed position m_out-1 with m_out = n_in gives T = I
    spec = ToeplitzSpec(4, 4)
    seed = BitString.from_bits(1 if i == 3 else 0 for i in range(7))
    for xv in range(16):
        x = BitString(4, xv)
        assert toeplitz_hash(spec, x, seed) == x


def test_explicit_matrix_example():
    spec = ToeplitzSpec(3, 2)
    seed = BitString.from_str("1011")
    x = BitString.from_str("110")
    assert toeplitz_hash(spec, x, seed) == matrix_oracle(spec, x, seed)
    # frozen value under the documented convention (rows 011 and 101)
    assert toeplitz_hash(spec, x, seed) == BitString.from_str("11")


@pytest.mark.parametrize("n_in,m_out", [(3, 2), (4, 3), (5, 1), (4, 4), (2, 2)])
def test_matches_matrix_oracle_exhaustive(n_in, m_out):
    spec = ToeplitzSpec(n_in, m_out)
    for sv in range(1 << spec.seed_length):
        seed = BitString(spec.seed_length, sv)
        for xv in range(1 << n_in):
            x = BitString(n_in, xv)
            assert toeplitz_hash(spec, x, seed) == matrix_oracle(spec, x, seed)


def test_rows_are_seed_windows():
    spec = ToeplitzSpec(5, 3)
    seed = BitString.from_str("1011010")
    for i in range(3):
        expected = [seed[spec.m_out - 1 + j - i] for j in range(5)]
        row = toeplitz_row(spec, seed, i)
        assert [(row >> (4 - j)) & 1 for j in range(5)] == expected


def test_two_universality_small():
    spec = ToeplitzSpec(4, 2)
    nseeds = 1 << spec.seed_length
    for xa, xb in itertools.combinations(range(16), 2):
        coll = sum(
            1
            for sv in range(nseeds)
            if toeplitz_hash(spec, BitString(4, xa), BitString(5, sv))
            == toeplitz_hash(spec, BitString(4, xb), BitString(5, sv))
        )
        assert Fraction(coll, nseeds) <= Fraction(1, 4)


def test_leftover_hash_micro():
    # flat source with Hmin >= m + 2 log2(1/eps) extracts within eps
    from trevext.harness import extractor_error

    eps = Fraction(1, 4)
    m_out = 1
    k = int(required_min_entropy(m_out, eps))  # 1 + 4 = 5... needs n >= k
    n = 5
    ext = toeplitz_extractor(n, m_out, eps)
    src = flat_source([BitString(n, v) for v in range(1 << k)])
    assert extractor_error(ext, src) <= eps


def test_length_checks():
    spec = ToeplitzSpec(3, 2)
    with pytest.raises(ParameterError):
        toeplitz_hash(spec, BitString(2, 0), BitString(4, 0))
    with pytest.raises(ParameterError):
        toeplitz_hash(spec, BitString(3, 0), BitString(5, 0))
    with pytest.raises(ParameterError):
        ToeplitzSpec(2, 3)  # m_out > n_in


def test_compose_concatenates():
    e1 = toeplitz_extractor(6, 2, Fraction(1, 8))
    t2 = toeplitz_extractor(6, 1, Fraction(1, 16))
    e2 = AdvertisedExtractor(t2.fn, t2.n, t2.d, t2.m, e1.k - e1.m, t2.eps)
    k, eps, m = compose_params(e1, e2)
    assert eps == Fraction(1, 8) + Fraction(1, 16)
    assert m == 3 and k == e1.k
    x = BitString(6, 0b101011)
    y1, y2 = BitString(7, 0b1010101), BitString(6, 0b110011)
    out = compose(e1, e2, x, y1, y2)
    assert out == e1(x, y1).concat(e2(x, y2))


def test_compose_zero_length_second_stage():
    e1 = toeplitz_extractor(4, 2, Fraction(1, 8))
    t2 = toeplitz_extractor(4, 0, Fraction(1, 16))
    e2 = AdvertisedExtractor(t2.fn, t2.n, t2.d, t2.m, e1.k - e1.m, t2.eps)
    out = compose(e1, e2, BitString(4, 0b1010), BitString(5, 0b10110), BitString(0, 0))
    assert out == e1(BitString(4, 0b1010), BitString(5, 0b10110))


def test_compose_threshold_bookkeeping():
    e1 = toeplitz_extractor(6, 2, Fraction(1, 8))
    greedy = toeplitz_extractor(6, 3, Fraction(1, 8))  # demands more than k - m1
    too_demanding = AdvertisedExtractor(
        greedy.fn, greedy.n, greedy.d, greedy.m, e1.k + 1, greedy.eps
    )
    with pytest.raises(ParameterError):
        compose_params(e1, too_demanding)


def test_required_min_entropy_reads_pinned_additive(monkeypatch):
    base = required_min_entropy(3, Fraction(1, 4))
    assert base == 3 + 2 * 2 + PINNED_CONSTANTS["leftover_hash_additive"]
    monkeypatch.setitem(PINNED_CONSTANTS, "leftover_hash_additive", 1.0)
    assert required_min_entropy(3, Fraction(1, 4)) == base + 1
