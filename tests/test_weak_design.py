from fractions import Fraction

import pytest

from trevext.errors import ParameterError, VerificationError
from trevext.weak_design import (
    WeakDesign,
    block_design,
    block_layout,
    ceil_div_ln,
    deserialize_design,
    expected_overlap_weight,
    greedy_basic_design,
    block_design_length_bound,
    overlap_sums,
    serialize_design,
    verify_design,
)


def test_overlap_sums_definition():
    sets = [(0, 1), (1, 2), (2, 3)]
    # sums of 2^{|S_j cap S_i|} over j < i
    assert overlap_sums(sets) == (0, 2, 1 + 2)


def test_verify_design_certificate():
    d = WeakDesign.from_sets(4, [(0, 1), (1, 2), (2, 3)])
    cert = verify_design(d, 2)
    assert cert.ok and cert.violating_index is None
    assert cert.r_certified == Fraction(1)
    bad = verify_design(d, Fraction(1, 2))
    assert not bad.ok and bad.violating_index == 1  # first set over budget


def test_greedy_t2_m3():
    d = greedy_basic_design(2, 3, 2)
    assert d.d == 6
    assert overlap_sums(d.sets) == (0, 1, 2)
    assert verify_design(d, 2).ok


def test_greedy_t3_m8():
    d = greedy_basic_design(3, 8, 2)
    assert d.d == 15
    cert = verify_design(d, 2)
    assert cert.ok
    assert d.r_certified == Fraction(5, 4)


def test_greedy_deterministic():
    a = greedy_basic_design(4, 16, 2)
    b = greedy_basic_design(4, 16, 2)
    assert a.sets == b.sets


def test_expected_overlap_weight_example():
    # one fixed set {1,2} in universe of size 4, new set picks 2 elements:
    # E[2^{overlap}] over uniform 2-subsets = 13/6
    val = expected_overlap_weight(partial=(), fixed=(1, 2), d=4, t=2)
    assert val == Fraction(13, 6)


def test_ceil_div_ln_values():
    import math

    assert ceil_div_ln(2, 2) == math.ceil(2 / math.log(2))
    assert ceil_div_ln(16, 2) == math.ceil(16 / math.log(2))
    assert ceil_div_ln(3, Fraction(3, 2)) == math.ceil(3 / math.log(1.5))


def test_ceil_div_ln_keeps_global_precision():
    from mpmath import mp

    with mp.workdps(15):
        ceil_div_ln(124, 2)
        assert mp.dps == 15


def test_block_layout():
    assert block_layout(7) == (4, 2, 1)
    assert block_layout(1) == (1,)
    assert sum(block_layout(256)) == 256
    assert sum(block_layout(512)) == 512


def test_block_t4_m2():
    d = block_design(4, 2)
    assert d.d == 48  # two size-1 blocks of width t*ceil(t/ln 2)
    assert d.d <= block_design_length_bound(4, 2) == 72
    assert verify_design(d, 1).ok


def test_block_t3_m7():
    d = block_design(3, 7)
    assert d.block_layout == (4, 2, 1)
    assert d.r_certified == Fraction(6, 7)
    assert verify_design(d, 1).ok


@pytest.mark.parametrize("t,m", [(2, 1), (3, 8), (4, 16), (8, 8)])
def test_block_within_length_bound(t, m):
    d = block_design(t, m)
    assert d.d <= block_design_length_bound(t, m)
    assert verify_design(d, 1).ok


def test_sets_disjoint_across_blocks():
    d = block_design(3, 7)
    seen = {}
    for i, s in enumerate(d.sets):
        assert len(set(s)) == d.t
        assert all(0 <= p < d.d for p in s)


def test_serialize_round_trip():
    d = greedy_basic_design(3, 8, 2)
    data = serialize_design(d)
    back = deserialize_design(data)
    assert back.sets == d.sets
    assert back.t == d.t and back.m == d.m and back.d == d.d
    assert back.r_certified == d.r_certified


def test_serialize_detects_corruption():
    d = greedy_basic_design(3, 8, 2)
    data = bytearray(serialize_design(d))
    data[-1] ^= 1  # flip a bit in the last stored index
    with pytest.raises((VerificationError, ParameterError)):
        deserialize_design(bytes(data))


def test_from_sets_validation():
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(3, [(0, 1), (1, 3)])  # index out of range
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(4, [(0, 0, 1)])  # repeated element
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(4, [(0, 1), (2,)])  # inconsistent set size
