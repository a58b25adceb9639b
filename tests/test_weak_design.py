import hashlib
import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from trevext.errors import ConstructionError, ParameterError, VerificationError
from trevext.weak_design import (
    SERIAL_MAGIC,
    SERIAL_VERSION,
    WeakDesign,
    _grid_sets,
    block_design,
    block_layout,
    deserialize_design,
    design_seed_length,
    greedy_basic_design,
    block_design_length_bound,
    grid_rows,
    overlap_sums,
    serialize_design,
    verify_design,
)


def overlap_sums_oracle(sets):
    """The definition, set by set: sum over j < i of 2^{|S_j ∩ S_i|}."""
    fsets = [frozenset(s) for s in sets]
    sums = []
    for i, si in enumerate(fsets):
        sums.append(sum(1 << len(sj & si) for sj in fsets[:i]))
    return tuple(sums)


def test_overlap_sums_definition():
    sets = np.array([(0, 1), (1, 2), (2, 3)])
    # sums of 2^{|S_j cap S_i|} over j < i
    assert overlap_sums(sets) == (0, 2, 1 + 2)


def _random_families(rng):
    """(m, t) arrays of t-subsets of [d]: t = 1, t = d, m in {0, 1},
    repeated sets, and random shapes in between."""
    for _ in range(300):
        d = int(rng.integers(1, 24))
        t = int(rng.choice([1, d, int(rng.integers(1, d + 1))]))
        m = int(rng.choice([0, 1, int(rng.integers(2, 40))]))
        sets = [tuple(sorted(rng.choice(d, t, replace=False).tolist())) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # repeat some sets
            picks = rng.integers(0, m, m)
            sets = [sets[min(int(p), i)] for i, p in enumerate(picks)]
        yield np.array(sets, dtype=np.int64).reshape(m, t)


def test_overlap_sums_match_oracle_on_random_families():
    for sets in _random_families(np.random.default_rng(13)):
        assert overlap_sums(sets) == overlap_sums_oracle(sets), sets


def test_overlap_sums_match_oracle_in_small_chunks(monkeypatch):
    # a few pair keys per chunk: every pair (j, i) must still be counted in
    # one chunk, whole later sets at a time
    import trevext.weak_design as wd

    for chunk in (1, 5, 64):
        monkeypatch.setattr(wd, "_PAIR_CHUNK", chunk)
        for sets in list(_random_families(np.random.default_rng(chunk)))[:80]:
            assert overlap_sums(sets) == overlap_sums_oracle(sets), (chunk, sets)
        eq = np.array([(0, 1, 2)] * 9)
        assert overlap_sums(eq) == tuple(i << 3 for i in range(9))


def test_overlap_sums_match_oracle_on_dense_greedy_families():
    for t, m, r in [(2, 40, 2), (3, 30, Fraction(3, 2)), (4, 64, 2), (6, 100, 3)]:
        sets = greedy_basic_design(t, m, r).sets
        assert overlap_sums(sets) == overlap_sums_oracle(sets)


def test_overlap_sums_equal_sets_closed_form():
    # m equal t-sets: each earlier set overlaps in t, so sums[i] = i·2^t;
    # t·m(m−1)/2 pair keys, counted in bounded chunks
    sets = np.array([tuple(range(1000, 1064))] * 512)
    assert overlap_sums(sets) == tuple(i << 64 for i in range(512))


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
    assert d.d == 12  # 4 rows: (5/4)^3 <= 2
    cert = verify_design(d, 2)
    assert cert.ok
    assert d.r_certified == Fraction(5, 4)


def test_greedy_deterministic():
    a = greedy_basic_design(4, 16, 2)
    b = greedy_basic_design(4, 16, 2)
    assert np.array_equal(a.sets, b.sets)


# serialize_design digests of the grid-greedy designs with grid_rows rows
# (construction revision 3); designs of earlier constructions, cached under
# other names, are never read again
PINNED = {
    ("block", 124, 256): "da37e991a6ae60793413a4971efedadbcde237a5c8b9e1c87021d86f8dab9738",
    ("block", 3, 7): "7d378ae2463e1c4d1b670cfaff4360b684173052a011ff0ba027484074b18f32",
    ("block", 4, 16): "8adbd063efdd76398ff6681fd78a005c8915d1d54b7b5907aa4e9fa6db9ff67b",
    ("block", 8, 64): "34d78439dc5af2abbd52382545c31dbc559037b89e7bf2aecb3801a393c2b05f",
    ("block", 94, 32): "90fb5de3d9c54caffc274ac35da0cac2f0ceeb7c07bff1e1fe8674354737d5c6",
    ("greedy", 3, 8, 2): "8291898519c02d4f2b73a9d47b6f20db427af3de80b4f3b1a98daf636220572c",
    ("greedy", 4, 16, 2): "fc89fbe0e4bfe45e3d5a080b8af8ae45ec056355a28a54d4abd68fa26b3b6518",
    ("greedy", 8, 64, Fraction(3, 2)):
        "5998ea06ad15b54ea286e4f6d262e8428f0e9eb49938e640089b5ce121d53780",
}


@pytest.mark.parametrize("shape", list(PINNED), ids=str)
def test_design_bytes_pinned(shape):
    build = block_design if shape[0] == "block" else greedy_basic_design
    design = build(*shape[1:])
    data = serialize_design(design)
    assert hashlib.sha256(data).hexdigest() == PINNED[shape]
    sums = overlap_sums_oracle(design.sets)
    assert overlap_sums(design.sets) == sums
    assert design.r_certified == Fraction(max(sums), design.m)


def test_grid_rows_is_least_fitting():
    def fits(t, r, rows):
        return (1 + Fraction(1, rows)) ** t <= r

    for r in (Fraction(1001, 1000), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(16)):
        for t in (*range(1, 60), 124, 300):
            rows = grid_rows(t, r)
            assert fits(t, r, rows), (t, r)
            assert rows == 1 or not fits(t, r, rows - 1), (t, r)
    assert grid_rows(124, 2) == 179 and grid_rows(3, 2) == 4 and grid_rows(1, 2) == 1
    for r in (1, Fraction(1, 2), Fraction(0), Fraction(-3)):
        with pytest.raises(ParameterError, match="r must be > 1"):
            grid_rows(3, r)


def test_grid_rows_stops_at_most():
    # the search capped at the rows a layout can use gives min(L, most)
    for r in (Fraction(1001, 1000), Fraction(3, 2), Fraction(2), Fraction(16)):
        for t in (1, 2, 3, 16, 124, 300):
            rows = grid_rows(t, r)
            for most in {1, 2, 3, rows - 1, rows, rows + 1, 2 * rows} - {0}:
                assert grid_rows(t, r, most) == min(rows, most), (t, r, most)


def test_large_t_few_sets_builds_fast():
    # the row search stops at the largest block's 2 sets, so no power of
    # the ~144 000 rows grid_rows(10^5, 2) would take is computed, and the
    # certification's weights are taken only at the overlaps that occur
    start = time.perf_counter()
    design = block_design(100_000, 2)
    assert time.perf_counter() - start < 1.0
    assert (design.d, design.r_certified) == (200_000, Fraction(1, 2))
    assert design_seed_length(100_000, 2, "greedy", Fraction(2)) == 200_000


def test_grid_rows_at_most_ceil_t_over_ln_r():
    # (1 + 1/L)^t < e^{t/L} <= r at L = ceil(t/ln r), so no seed grows
    for r in (Fraction(1001, 1000), Fraction(3, 2), 2, 3, 16, 2**60):
        for t in range(1, 501):
            q = t / math.log(r)
            if abs(q - round(q)) < 1e-6:  # the float ceiling is unsure
                continue
            assert grid_rows(t, r) <= math.ceil(q), (t, r)


def test_design_seed_length_guards():
    with pytest.raises(ParameterError, match="greedy design needs r > 1"):
        design_seed_length(4, 2, "greedy", Fraction(1))
    with pytest.raises(ParameterError, match="unknown design kind 'grid'"):
        design_seed_length(4, 2, "grid", Fraction(2))


@pytest.mark.parametrize("kind", ["block", "greedy"])
def test_design_seed_length_is_built_d(kind):
    build = {"block": lambda t, m, r: block_design(t, m), "greedy": greedy_basic_design}[kind]
    for t in (1, 2, 3, 5, 8, 13):
        for m in (1, 2, 3, 7, 40, 129):
            for r in (Fraction(3, 2), Fraction(2), Fraction(5)):
                assert design_seed_length(t, m, kind, r) == build(t, m, r).d, (t, m, r)


def test_block_layout():
    assert block_layout(7) == (4, 2, 1)
    assert block_layout(1) == (1,)
    assert block_layout(2) == (2,)
    assert block_layout(256) == (129, 64, 32, 16, 8, 4, 2, 1)
    for m in range(1, 600):
        placed = 0
        for size in block_layout(m):
            assert size == (m - placed) // 2 + 1
            # the last set of the block sums to at most placed + 2(size − 1)
            assert placed + 2 * (size - 1) <= m
            placed += size
        assert placed == m


def test_block_t4_m2():
    d = block_design(4, 2)
    assert d.d == 8  # one block of two disjoint rows
    assert d.d <= block_design_length_bound(4, 2) == 72
    assert verify_design(d, 1).ok


def test_block_t3_m7():
    d = block_design(3, 7)
    assert d.r_certified == Fraction(6, 7)
    assert verify_design(d, 1).ok


@pytest.mark.parametrize("t,m", [(2, 1), (3, 8), (4, 16), (8, 8)])
def test_block_within_length_bound(t, m):
    d = block_design(t, m)
    assert d.d <= block_design_length_bound(t, m)
    assert verify_design(d, 1).ok


@pytest.mark.parametrize("m", [17, 25, 33, 100])
def test_block_certifies_m_off_the_powers_of_two(m):
    d = block_design(32, m)
    assert d.m == m and d.r_certified <= 1
    assert verify_design(d, 1).ok


def test_sets_disjoint_across_blocks():
    # block b owns the t·min(size_b, ceil(t/ln 2)) elements after those of
    # the earlier blocks: its sets lie there, and sets of different blocks
    # share no element
    for t, m in [(3, 7), (4, 16), (8, 64)]:
        d = block_design(t, m)
        rows = grid_rows(t, 2)
        owner = {}  # element -> the block whose set holds it
        first = low = 0
        for b, size in enumerate(block_layout(m)):
            high = low + t * min(size, rows)
            for s in d.sets[first:first + size]:
                assert len(set(s)) == d.t
                assert all(low <= p < high for p in s)
                for p in s:
                    assert owner.setdefault(p, b) == b
            first, low = first + size, high
        assert first == d.m and d.d == low


def _grid_oracle(t, count, rows):
    """The conditional-expectation greedy by its definition: column by
    column, the lowest row minimising the exact expected overlap sum of a
    uniformly random completion."""
    funcs = []
    for _ in range(count):
        f = []
        for a in range(t):
            def expected(v):
                g = f + [v]
                rest = (1 + Fraction(1, rows)) ** (t - a - 1)
                return sum((1 << sum(x == y for x, y in zip(h, g))) * rest for h in funcs)

            f.append(min(range(rows), key=expected))
        funcs.append(f)
    return [[v * t + a for a, v in enumerate(f)] for f in funcs]


def test_grid_sets_match_definition():
    for t, count, rows in [(1, 5, 2), (2, 9, 2), (3, 12, 3), (4, 20, 3), (5, 14, 4), (3, 4, 6)]:
        assert _grid_sets(t, count, rows).tolist() == _grid_oracle(t, count, rows)


def test_grid_first_sets_are_constant_rows():
    assert _grid_sets(5, 9, 4)[:4].tolist() == [list(range(5 * v, 5 * v + 5)) for v in range(4)]
    assert _grid_sets(3, 4, 6).tolist() == [list(range(3 * v, 3 * v + 3)) for v in range(4)]


@pytest.mark.parametrize("r", [Fraction(3, 2), Fraction(2), Fraction(3)], ids=str)
def test_grid_sums_within_conditional_expectation(r):
    # set k of a grid of L = grid_rows(t, r) rows sums to at most
    # k·(1 + 1/L)^t <= k·r, in exact rationals, for the bare grid and for
    # the greedy kind built on it (L rows, or m when m < L)
    for t in range(1, 9):
        rows = grid_rows(t, r)
        growth = (1 + Fraction(1, rows)) ** t
        assert growth <= r
        for m in (1, rows, rows + 1, 3 * rows + 2, 100):
            for sets in (_grid_sets(t, m, rows), greedy_basic_design(t, m, r).sets):
                sums = overlap_sums(sets)
                assert all(s <= k * growth for k, s in enumerate(sums)), (t, m)


def test_block_sums_within_budget():
    # set k of a block after E earlier sets: E from the earlier blocks, and
    # at most k·(1 + 1/L)^t <= 2k within its own grid of L = grid_rows(t, 2)
    for t in range(1, 9):
        growth = (1 + Fraction(1, grid_rows(t, 2))) ** t
        assert growth <= 2
        for m in (1, 2, 7, 49, 130, 300):
            sums = overlap_sums(block_design(t, m).sets)
            placed = 0
            for size in block_layout(m):
                for k in range(size):
                    assert sums[placed + k] <= placed + k * growth <= m, (t, m)
                placed += size


def test_block_certifies_small_t():
    # shapes where blocks of ceil(m/2), ceil(m/4), ... went over r = 1
    for t, m in [(1, 129), (1, 258), (2, 49), (2, 98), (2, 99), (3, 161), (4, 193)]:
        assert block_design(t, m).r_certified <= 1, (t, m)
    for t in range(1, 5):
        for m in range(1, 301):
            d = block_design(t, m)
            assert d.r_certified <= 1 and d.d <= block_design_length_bound(t, m), (t, m)


def test_greedy_refuses_inexact_bin_sums():
    # L = 5 rows at t = 200, r = 2^60: 16·(6/5)^200 is over 2^53, so the
    # float64 bin sums could round; 4 sets fit in 4 rows and need no sums
    with pytest.raises(ParameterError, match="2\\^53"):
        greedy_basic_design(200, 16, 2**60)
    assert greedy_basic_design(200, 4, 2**60).r_certified == Fraction(3, 4)


def test_builders_refuse_an_uncertified_family(monkeypatch):
    import trevext.weak_design as wd

    # every set the grid's first row: each earlier set overlaps in all t
    monkeypatch.setattr(wd, "_grid_sets", lambda t, count, rows: np.tile(np.arange(t), (count, 1)))
    with pytest.raises(ConstructionError, match="block design certification failed"):
        block_design(4, 8)
    with pytest.raises(ConstructionError, match="greedy design certification failed"):
        greedy_basic_design(4, 8, 2)


def test_serialize_round_trip():
    d = greedy_basic_design(3, 8, 2)
    data = serialize_design(d)
    back = deserialize_design(data)
    assert np.array_equal(back.sets, d.sets)
    assert back.t == d.t and back.m == d.m and back.d == d.d
    assert back.r_certified == d.r_certified


def test_serialize_detects_corruption():
    d = greedy_basic_design(3, 8, 2)
    data = bytearray(serialize_design(d))
    data[-1] ^= 1  # flip a bit in the last stored index
    with pytest.raises((VerificationError, ParameterError)):
        deserialize_design(bytes(data))
    for cut in (0, 5, 20):  # shorter than the 36-byte header
        with pytest.raises(ParameterError, match="length mismatch"):
            deserialize_design(bytes(data[:cut]))


def _with_index(data, k, value):
    """A serialized design with its k-th stored index replaced."""
    out = bytearray(data)
    out[36 + 4 * k: 40 + 4 * k] = value.to_bytes(4, "little")
    return bytes(out)


def test_deserialize_rejects_corrupt_indices():
    d = block_design(4, 16)
    data = serialize_design(d)
    repeated = _with_index(data, 1, int(d.sets[0, 0]))  # set 0 holds its first index twice
    with pytest.raises(VerificationError, match="t distinct indices"):
        deserialize_design(repeated)
    for value in (d.d, 2**32 - 1):  # an index outside [0, d)
        with pytest.raises(VerificationError, match="outside universe"):
            deserialize_design(_with_index(data, 4 * d.t - 1, value))


def test_deserialize_equal_sets_certified_exactly():
    # a payload of m equal sets is consistent, so it loads, with the r its
    # overlaps give: max sum (m - 1)·2^t over m
    t, m = 16, 300
    head = serialize_design(WeakDesign.from_sets(t, [tuple(range(t))]))[:36]
    head = head[:8] + (t).to_bytes(4, "little") + (m).to_bytes(4, "little") + head[16:]
    body = b"".join(i.to_bytes(4, "little") for i in range(t)) * m
    with pytest.raises(VerificationError, match="does not match recomputation"):
        deserialize_design(head + body)
    r = Fraction((m - 1) << t, m)
    head = head[:20] + r.numerator.to_bytes(8, "little") + r.denominator.to_bytes(8, "little")
    assert deserialize_design(head + body).r_certified == r


MALFORMED = [
    (3, [(0, 1), (1, 3)], "set index outside universe"),
    (4, [(0, 1), (-1, 2)], "set index outside universe"),
    (4, [(0, 0, 1)], "each set must hold t distinct indices"),
    (4, [(0, 1), (2,)], "each set must hold t distinct indices"),
    (4, [(), ()], "t must be >= 1"),
]


def test_from_sets_validation():
    for d, sets, message in MALFORMED:
        with pytest.raises(ParameterError, match=message):
            WeakDesign.from_sets(d, sets)


def test_constructor_refuses_d_times_m_past_int64():
    # overlap_sums keys each (element, set) pair below d·m in int64
    with pytest.raises(ParameterError, match="2\\^63"):
        WeakDesign(2**62, [[0], [1]])
    assert WeakDesign(2**62 - 1, [[0], [1]]).r_certified == Fraction(1, 2)


def test_deserialize_refuses_d_times_m_past_int64(monkeypatch):
    import trevext.weak_design as wd

    def never(sets):
        raise AssertionError("a family past 2^63 reached overlap_sums")

    # the only payload that small: t = 0, m = 2^31 + 1 and d = 2^32 − 1
    monkeypatch.setattr(wd, "overlap_sums", never)
    head = SERIAL_MAGIC + struct.pack("<IIIIQQ", SERIAL_VERSION, 0, 2**31 + 1, 2**32 - 1, 0, 1)
    with pytest.raises(VerificationError, match="stored sets are inconsistent: .*2\\^63"):
        deserialize_design(head)


def test_constructor_validates_arrays():
    with pytest.raises(ParameterError, match="t distinct indices"):
        WeakDesign(4, np.array([0, 1, 2]))  # one row, not an (m, t) array
    with pytest.raises(ParameterError, match="t distinct indices"):
        WeakDesign(4, np.array([[0, 1], [3, 3]]))
    with pytest.raises(ParameterError, match="outside universe"):
        WeakDesign(4, np.array([[0, 1], [2, 4]]))


def test_design_rows_sorted_read_only_and_owned():
    rows = np.array([[3, 0], [1, 2], [2, 0]])
    d = WeakDesign(4, rows)
    assert d.sets.dtype == np.int64 and d.sets.shape == (d.m, d.t) == (3, 2)
    assert d.sets.tolist() == [[0, 3], [1, 2], [0, 2]]
    assert d.r_certified == Fraction(max(overlap_sums_oracle(rows.tolist())), 3)
    with pytest.raises(ValueError):
        d.sets[0, 0] = 1
    rows[0, 0] = 1  # the caller's array is not the design's
    assert d.sets[0, 1] == 3
    # the same sets make a second design, equal only to itself
    assert d == d and d != WeakDesign(4, rows)


def test_r_certified_is_derived_not_taken():
    sets = np.array([[0, 1], [1, 2], [0, 1]])
    with pytest.raises(TypeError):
        WeakDesign(4, sets, Fraction(0))
    with pytest.raises(TypeError):
        WeakDesign(d=4, sets=sets, r_certified=Fraction(0))
    assert WeakDesign(4, sets).r_certified == Fraction(2 + 4, 3)


def test_deserialize_refuses_empty_sets():
    # a 36-byte payload of 2^20 sets of t = 0 indices over d = 1, with the
    # r = (m - 1)/m that m empty sets would certify, is corrupt
    m = 1 << 20
    head = SERIAL_MAGIC + struct.pack("<IIIIQQ", SERIAL_VERSION, 0, m, 1, m - 1, m)
    assert len(head) == 36
    with pytest.raises(VerificationError, match="stored sets are inconsistent: t must be >= 1"):
        deserialize_design(head)


@pytest.mark.parametrize("d, sets, message", [MALFORMED[0], MALFORMED[2]], ids=str)
def test_deserialize_malformed_sets_raise_verification(d, sets, message):
    # a payload is fixed-width (m, t) u32 rows: a family that fits it but
    # breaks the design's rules loads as corrupt, not as a parameter error
    t, m = len(sets[0]), len(sets)
    head = SERIAL_MAGIC + struct.pack("<IIIIQQ", SERIAL_VERSION, t, m, d, 0, 1)
    body = np.array(sets, dtype="<u4").tobytes()
    with pytest.raises(VerificationError, match=f"stored sets are inconsistent: {message}"):
        deserialize_design(head + body)


def test_from_sets_validates_before_certifying(monkeypatch):
    import trevext.weak_design as wd

    def never(sets):
        raise AssertionError("a malformed family reached overlap_sums")

    monkeypatch.setattr(wd, "overlap_sums", never)
    for d, sets in ((3, [(0, 1), (1, 3)]), (4, [(0, 0, 1)]), (4, [(0, 1), (2,)])):
        with pytest.raises(ParameterError):
            WeakDesign.from_sets(d, sets)
