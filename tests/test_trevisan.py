import io
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from trevext import trevisan
from trevext.bitfield import BitString
from trevext.code_extractor import CodeSpec, extract_bit
from trevext.errors import ParameterError
from trevext.trevisan import (
    CompiledMasks,
    TrevisanInstance,
    extract,
    extract_bytes,
    extract_stream,
    _BlockReader,
    seed_masks,
)
from trevext.weak_design import WeakDesign

T = trevisan._TABLE_MIN_BLOCKS


def _rows(xs, n):
    """n-bit integers as block rows: MSB-first, zero-padded (apply's input)."""
    nb = (n + 7) // 8
    raw = b"".join((x << (8 * nb - n)).to_bytes(nb, "big") for x in xs)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(xs), nb)


def _values(rows, m):
    """apply's (B, ceil(m/8)) output rows as m-bit integers."""
    return [int.from_bytes(r.tobytes(), "big") >> (8 * len(r) - m) for r in rows]


def micro_instance():
    design = WeakDesign.from_sets(6, [(0, 1, 2, 3), (2, 3, 4, 5)])
    code = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    return TrevisanInstance(design, code)


def test_extract_matches_per_bit_oracle():
    inst = micro_instance()
    for xv in range(16):
        for yv in range(64):
            x, y = BitString(4, xv), BitString(6, yv)
            out = extract(inst, x, y)
            expected = [
                extract_bit(inst.code, x, y.substring(s).prefix(4))
                for s in inst.design.sets
            ]
            assert list(out) == expected


def test_set_size_may_exceed_code_seed():
    # design sets wider than t: only the first t bits (ascending) are used
    design = WeakDesign.from_sets(6, [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)])
    code = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    inst = TrevisanInstance(design, code)
    x, y = BitString(4, 0b1011), BitString(6, 0b110101)
    out = extract(inst, x, y)
    assert out[0] == extract_bit(code, x, y.substring((0, 1, 2, 3)))
    assert out[1] == extract_bit(code, x, y.substring((1, 2, 3, 4)))


def test_design_narrower_than_code_rejected():
    design = WeakDesign.from_sets(4, [(0, 1, 2)])
    code = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    with pytest.raises(ParameterError):
        TrevisanInstance(design, code)


def test_seed_masks_equivalence():
    inst = micro_instance()
    rng = random.Random(3)
    for _ in range(30):
        y = BitString(6, rng.randrange(64))
        masks = seed_masks(inst, y)
        assert (masks.m, masks.n) == (inst.m, inst.n)
        direct = [extract(inst, BitString(4, xv), y).value for xv in range(16)]
        assert _values(masks.apply(_rows(range(16), 4)), inst.m) == direct
        # T or more blocks switch the same masks to byte tables
        many = _rows(list(range(16)) * (T // 16 + 1), 4)
        assert _values(masks.apply(many), inst.m) == direct * (T // 16 + 1)


def test_length_checks():
    inst = micro_instance()
    with pytest.raises(ParameterError):
        extract(inst, BitString(3, 0), BitString(6, 0))
    with pytest.raises(ParameterError):
        extract(inst, BitString(4, 0), BitString(5, 0))


def test_stream_matches_repeated_extract():
    inst = micro_instance()
    rng = random.Random(9)
    blocks = 6
    data_bits = BitString.from_bits(rng.randrange(2) for _ in range(4 * blocks))
    seed_bits = BitString.from_bits(rng.randrange(2) for _ in range(6 * blocks))
    out, report = extract_bytes(inst, data_bits.to_bytes(), seed_bits.to_bytes())
    assert report.blocks == blocks and not report.seed_reused
    expected = BitString(0, 0)
    for b in range(blocks):
        x = data_bits.substring(range(4 * b, 4 * (b + 1)))
        y = seed_bits.substring(range(6 * b, 6 * (b + 1)))
        expected = expected.concat(extract(inst, x, y))
    assert out == expected.to_bytes()


def test_stream_reuse_seed_joint_factor():
    inst = micro_instance()
    rng = random.Random(10)
    data_bits = BitString.from_bits(rng.randrange(2) for _ in range(4 * 8))
    seed = BitString(6, 0b101101)
    out, report = extract_bytes(
        inst, data_bits.to_bytes(), seed.to_bytes(), reuse_seed=True
    )
    assert report.seed_reused and report.joint_error_factor == 8
    expected = BitString(0, 0)
    for b in range(8):
        x = data_bits.substring(range(4 * b, 4 * (b + 1)))
        expected = expected.concat(extract(inst, x, seed))
    assert out == expected.to_bytes()


def test_empty_input_zero_blocks():
    inst = micro_instance()
    out, report = extract_bytes(inst, b"", BitString(6, 0).to_bytes())
    assert out == b"" and report.blocks == 0


def test_short_final_block_rejected():
    # 12-bit instance: a single byte cannot carry a whole block
    design = WeakDesign.from_sets(10, [tuple(range(8)), tuple(range(2, 10))])
    code = CodeSpec(n=12, s=4, delta=Fraction(1, 3))
    inst = TrevisanInstance(design, code)
    with pytest.raises(ParameterError):
        extract_bytes(inst, b"\xff", BitString(6, 0).to_bytes())


def test_seed_exhaustion():
    inst = micro_instance()
    with pytest.raises(ParameterError):
        extract_stream(
            inst, io.BytesIO(b"\xaa"), io.BytesIO(b""), io.BytesIO(), reuse_seed=True
        )


def _random_instance(rng, n, s, delta, m, extra):
    """Random design whose sets are `extra` bits wider than the code seed."""
    code = CodeSpec(n=n, s=s, delta=delta)
    t = code.t + extra
    d = t + rng.randrange(1, 12)
    sets = [rng.sample(range(d), t) for _ in range(m)]
    return TrevisanInstance(WeakDesign.from_sets(d, sets), code)


def _join(bits):
    return reduce(BitString.concat, bits, BitString(0, 0))


def _small_batches(monkeypatch, blocks=8, table_min=4):
    """Batches of `blocks` blocks and byte tables from `table_min` blocks,
    so that a few blocks flip the kernel choice and fill several batches."""
    monkeypatch.setattr(trevisan, "_batch_blocks", lambda n, m, d: blocks)
    monkeypatch.setattr(trevisan, "_TABLE_MIN_BLOCKS", table_min)


# block counts T-1, T, T+1 and 2B+3 at B = 8, T = 4
COUNTS = (3, 4, 5, 19)


@pytest.mark.parametrize(
    "n, s, delta, m, extra",
    [
        (10, 4, Fraction(1, 3), 3, 0),  # n not a multiple of s
        (13, 5, Fraction(1, 3), 11, 2),  # ... and sets wider than code.t
        (16, 4, Fraction(3, 8), 9, 1),  # multi-byte output with a 1-bit tail
        (70, 7, Fraction(2, 5), 21, 3),  # several symbols, 64-bit word boundary
        (128, 64, Fraction(1, 3), 5, 1),  # largest field: symbols fill a word
    ]
    + [
        (n, s, Fraction(1, 3), m, 1)
        for n, s in ((13, 4), (64, 6), (200, 7))
        for m in (1, 7, 64, 65, 130)
    ],
)
def test_stream_matches_blockwise_extract(n, s, delta, m, extra, monkeypatch):
    _small_batches(monkeypatch)
    rng = random.Random(n * 1000 + m)
    inst = _random_instance(rng, n, s, delta, m, extra)
    most = max(COUNTS)
    # block boundaries fall inside bytes unless 8 | n
    data = BitString(n * most, rng.getrandbits(n * most))
    seeds = BitString(inst.d * most, rng.getrandbits(inst.d * most))
    xs = [data.substring(range(n * b, n * (b + 1))) for b in range(most)]
    ys = [seeds.substring(range(inst.d * b, inst.d * (b + 1))) for b in range(most)]
    fresh_want = [extract(inst, x, y) for x, y in zip(xs, ys)]
    reused_want = [extract(inst, x, ys[0]) for x in xs]

    for blocks in COUNTS:
        part = data.prefix(n * blocks).to_bytes()
        fresh, report = extract_bytes(inst, part, seeds.prefix(inst.d * blocks).to_bytes())
        assert report.blocks == blocks
        assert fresh == _join(fresh_want[:blocks]).to_bytes()
        reused, report = extract_bytes(inst, part, ys[0].to_bytes(), reuse_seed=True)
        assert report.joint_error_factor == blocks
        assert reused == _join(reused_want[:blocks]).to_bytes()


def test_kernel_choice_at_threshold(monkeypatch):
    # the real threshold T; B = T + 8 blocks, so 2B+3 ends in a partial batch
    batch = 8 * (T // 8 + 1)
    monkeypatch.setattr(trevisan, "_batch_blocks", lambda n, m, d: batch)
    tabled = []
    lookup = CompiledMasks._lookup

    def spy(self, blocks):
        tabled.append(len(blocks))
        return lookup(self, blocks)

    monkeypatch.setattr(CompiledMasks, "_lookup", spy)
    inst = _odd_instance()
    rng = random.Random(23)
    most = 2 * batch + 3
    data = BitString(13 * most, rng.getrandbits(13 * most))
    y = BitString(15, rng.getrandbits(15))
    want = [extract(inst, data.substring(range(13 * b, 13 * (b + 1))), y) for b in range(most)]
    for blocks, batches in ((T - 1, []), (T, [T]), (T + 1, [T + 1]), (most, [batch, batch, 3])):
        tabled.clear()
        out, _ = extract_bytes(inst, data.prefix(13 * blocks).to_bytes(), y.to_bytes(), True)
        assert out == _join(want[:blocks]).to_bytes() and tabled == batches


def test_fresh_stream_needs_no_seed_past_last_block():
    inst = micro_instance()
    seed = BitString(12, 0xABC).to_bytes()  # exactly two 6-bit seeds
    out, report = extract_bytes(inst, b"\xa5", seed)
    assert report.blocks == 2 and len(out) == 1
    with pytest.raises(ParameterError):
        extract_bytes(inst, b"\xa5\x50", seed)  # a third block


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


def test_unread_seed_bits_reported():
    inst = micro_instance()  # d = 6: a one-byte seed ends in 2 padding bits
    seed = BitString(6, 0b101101).to_bytes()
    out, report = extract_bytes(inst, b"\xa5", seed, reuse_seed=True)
    assert report.seed_bits_unread == 0
    longer, report = extract_bytes(inst, b"\xa5", seed + b"\x00", reuse_seed=True)
    assert longer == out and report.seed_bits_unread == 10
    _, report = extract_bytes(inst, b"\xa5", b"\xab\xcd\xef")  # two fresh seeds
    assert report.seed_bits_unread == 12
    _, report = extract_bytes(inst, b"", b"\xab\xcd\xef")
    assert report.seed_bits_unread == 24
    report = extract_stream(
        inst, io.BytesIO(b"\xa5"), _Unseekable(seed), io.BytesIO(), reuse_seed=True
    )
    assert report.blocks == 2 and report.seed_bits_unread is None


@pytest.mark.parametrize("words", [1, 3, 1024])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 129, 256])
def test_apply_matches_popcount_parity(words, m):
    # at 1024 words a slice holds 64 rows: m = 65, 129, 256 run several
    # slices, 65 and 129 with a partial last one; 3 blocks run the row
    # fold, T blocks the byte tables
    rng = random.Random(words * 1000 + m)
    n = 64 * words - 5
    matrix = np.random.default_rng(rng.getrandbits(32)).integers(
        0, 1 << 64, size=(m, words), dtype=np.uint64
    )
    for blocks in (3, T):
        xs = [rng.getrandbits(n) for _ in range(blocks)]
        want = []
        for x in xs:
            xw = np.frombuffer((x << (64 * words - n)).to_bytes(8 * words, "big"), dtype=np.uint64)
            par = np.bitwise_count(matrix & xw).sum(axis=1) & 1
            want.append(int("".join(str(b) for b in par), 2))
        assert _values(CompiledMasks(matrix, n).apply(_rows(xs, n)), m) == want


@pytest.mark.parametrize(
    "n, m",
    [
        (13, 7),  # one table, shorter than a chunk
        (797, 130),  # 3 words: 85 bytes per table, 100 = 85 + 15
        (1600, 65),  # 2 words: 128 bytes per table, 200 = 128 + 72
        (2397, 1),  # 1 word: 256 bytes per table, 300 = 256 + 44
    ],
)
def test_table_kernel_matches_row_fold(n, m):
    # more blocks than one gather step (128 at these shapes), and byte
    # positions that end in a partial chunk
    rng = random.Random(n + m)
    matrix = np.random.default_rng(rng.getrandbits(32)).integers(
        0, 1 << 64, size=(m, (n + 63) // 64), dtype=np.uint64
    )
    blocks = _rows([rng.getrandbits(n) for _ in range(4 * T + 3)], n)
    fold = np.concatenate([CompiledMasks(matrix, n).apply(b[None]) for b in blocks])
    masks = CompiledMasks(matrix, n)
    assert (masks.apply(blocks) == fold).all()
    # the row matrix is dropped; short batches now run on the tables too
    assert masks._matrix is None
    assert (masks.apply(blocks[:3]) == fold[:3]).all()


def test_batch_size_bounds():
    # reused seed (d = 0): 1 MiB of input rows
    assert trevisan._batch_blocks(1 << 16, 256, 0) == 128
    assert trevisan._batch_blocks(13, 7, 0) % 8 == 0  # batches start on a byte
    assert trevisan._batch_blocks(16, 7, 15) % 8 == 0  # ... for seeds too
    assert trevisan._batch_blocks(1 << 24, 256, 0) == 1  # one block over 1 MiB
    assert trevisan._batch_blocks((1 << 24) + 1, 256, 0) == 8
    assert trevisan._batch_blocks(16, 60000, 0) == (1 << 20) // 60000
    # fresh seeds at the production shape: 41 seed rows of 24 971 bytes fit
    # in 1 MiB, and 8 does not divide d
    assert trevisan._batch_blocks(1 << 16, 256, 199764) == 40


def test_fresh_seeds_span_batches(monkeypatch):
    # 8 | n but not d: 100 bytes give 12 blocks, cut to 8 so that every seed
    # batch but the last ends on a byte; 19 blocks are batches 8, 8, 3
    monkeypatch.setattr(trevisan, "_BATCH_BYTES", 100)
    rng = random.Random(24)
    code = CodeSpec(n=16, s=4, delta=Fraction(1, 3))
    sets = [rng.sample(range(13), code.t) for _ in range(5)]
    inst = TrevisanInstance(WeakDesign.from_sets(13, sets), code)
    assert trevisan._batch_blocks(16, 5, 13) == 8
    data = BitString(16 * 19, rng.getrandbits(16 * 19))
    seeds = BitString(13 * 19, rng.getrandbits(13 * 19))
    want = [
        extract(inst, data.substring(range(16 * b, 16 * (b + 1))),
                seeds.substring(range(13 * b, 13 * (b + 1))))
        for b in range(19)
    ]
    out, report = extract_bytes(inst, data.to_bytes(), seeds.to_bytes())
    assert out == _join(want).to_bytes() and report.blocks == 19


class _Trickle(io.RawIOBase):
    """Seekable raw stream whose reads return at most 3 bytes."""

    def __init__(self, data: bytes):
        self._inner = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        chunk = self._inner.read(min(3, len(b)))
        b[: len(chunk)] = chunk
        return len(chunk)

    def seekable(self):
        return True

    def seek(self, pos, whence=io.SEEK_SET):
        return self._inner.seek(pos, whence)

    def tell(self):
        return self._inner.tell()


def _odd_instance():
    # n = 13 and d = 15: blocks and seeds end inside bytes
    rng = random.Random(13)
    code = CodeSpec(n=13, s=5, delta=Fraction(1, 3))
    sets = [rng.sample(range(15), code.t) for _ in range(11)]
    return TrevisanInstance(WeakDesign.from_sets(15, sets), code)


@pytest.mark.parametrize("reuse_seed", [False, True])
def test_short_reads_match_buffered_stream(reuse_seed, monkeypatch):
    _small_batches(monkeypatch)
    inst = _odd_instance()
    rng = random.Random(21)
    most = max(COUNTS)
    data = BitString(13 * most, rng.getrandbits(13 * most))
    seeds = BitString(15 * most, rng.getrandbits(15 * most))
    xs = [data.substring(range(13 * b, 13 * (b + 1))) for b in range(most)]
    ys = [seeds.substring(range(15 * b, 15 * (b + 1))) for b in range(most)]
    want = [extract(inst, x, ys[0] if reuse_seed else y) for x, y in zip(xs, ys)]
    for blocks in COUNTS:
        used = 15 if reuse_seed else 15 * blocks
        seed = seeds.prefix(used).to_bytes() + b"\x5a\x00"
        runs = []
        for wrap in (io.BytesIO, _Trickle):
            out = io.BytesIO()
            report = extract_stream(
                inst, wrap(data.prefix(13 * blocks).to_bytes()), wrap(seed), out,
                reuse_seed=reuse_seed,
            )
            runs.append((out.getvalue(), report.blocks, report.seed_bits_unread))
        # the padding bits after the last seed, then the two extra bytes
        unread = 8 * len(seed) - used
        assert runs == [(_join(want[:blocks]).to_bytes(), blocks, unread)] * 2


@pytest.mark.parametrize("wrap", [io.BytesIO, _Trickle])
def test_sub_byte_tails(wrap, monkeypatch):
    inst = _odd_instance()
    rng = random.Random(22)
    data = BitString(39, rng.getrandbits(39)).to_bytes()  # 3 blocks, 1 pad bit
    seeds = BitString(45, rng.getrandbits(45)).to_bytes()  # 3 seeds, 3 pad bits
    bad = data[:-1] + bytes([data[-1] | 1])

    def run(data, seed, reuse_seed=False):
        sink = io.BytesIO()
        return extract_stream(inst, wrap(data), wrap(seed), sink, reuse_seed).blocks

    assert run(data, seeds) == 3
    with pytest.raises(ParameterError, match="short final block in input stream"):
        run(bad, seeds)
    two = BitString(30, rng.getrandbits(30)).to_bytes()  # 2 seeds, 2 pad bits
    with pytest.raises(ParameterError, match="seed source exhausted"):
        run(data, two)
    # the blocks before a bad input tail run first
    with pytest.raises(ParameterError, match="seed source exhausted"):
        run(bad, two)
    with pytest.raises(ParameterError, match="short final block in seed stream"):
        run(data, two[:-1] + bytes([two[-1] | 1]))
    # a bad tail after two whole batches, on the byte tables
    _small_batches(monkeypatch)
    data = BitString(13 * 19, rng.getrandbits(13 * 19)).to_bytes()  # 1 pad bit
    assert run(data, seeds, True) == 19
    with pytest.raises(ParameterError, match="short final block in input stream"):
        run(data[:-1] + bytes([data[-1] | 1]), seeds, True)
    with pytest.raises(ParameterError, match="short final block in input stream"):
        run(data + b"\x00", seeds, True)  # a 9-bit tail


def test_reader_reads_only_needed_bytes():
    stream = io.BytesIO(b"\xff" * 100)
    reader = _BlockReader(stream, 13, 8, "input")
    rows = reader.read(8)  # 8 records of 13 bits: 13 bytes
    assert stream.tell() == 13 and (rows == [0xFF, 0xF8]).all() and len(rows) == 8
    assert len(reader.read(2)) == 2  # 26 bits: 4 bytes, 6 of their bits spare
    assert stream.tell() == 17 and reader.unread_bits() == 6 + 8 * (100 - 17)
    # records shorter than a byte: 3 records of 6 bits take 3 bytes, 6 bits spare
    reader = _BlockReader(io.BytesIO(b"\xff" * 4), 6, 8, "seed")
    assert len(reader.read(3)) == 3 and reader.unread_bits() == 6 + 8
