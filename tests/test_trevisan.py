import io
import random
from fractions import Fraction

import numpy as np
import pytest

from trevext.bitfield import BitString
from trevext.code_extractor import CodeSpec, extract_bit
from trevext.errors import ParameterError
from trevext.trevisan import (
    CompiledMasks,
    TrevisanInstance,
    extract,
    extract_bytes,
    extract_stream,
    _BitReader,
    seed_masks,
)
from trevext.weak_design import WeakDesign


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
        for xv in range(16):
            direct = extract(inst, BitString(4, xv), y)
            assert masks.apply(xv) == direct.value


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


@pytest.mark.parametrize(
    "n, s, delta, m, extra",
    [
        (10, 4, Fraction(1, 3), 3, 0),  # n not a multiple of s
        (13, 5, Fraction(1, 3), 11, 2),  # ... and sets wider than code.t
        (16, 4, Fraction(3, 8), 9, 1),  # multi-byte output with a 1-bit tail
        (70, 7, Fraction(2, 5), 21, 3),  # several symbols, 64-bit word boundary
        (128, 64, Fraction(1, 3), 5, 1),  # largest field: symbols fill a word
    ],
)
def test_stream_matches_blockwise_extract(n, s, delta, m, extra):
    rng = random.Random(n * 1000 + m)
    inst = _random_instance(rng, n, s, delta, m, extra)
    blocks = 7
    # block boundaries fall inside bytes unless 8 | n
    data = BitString(n * blocks, rng.getrandbits(n * blocks))
    seeds = BitString(inst.d * blocks, rng.getrandbits(inst.d * blocks))
    xs = [data.substring(range(n * b, n * (b + 1))) for b in range(blocks)]
    ys = [seeds.substring(range(inst.d * b, inst.d * (b + 1))) for b in range(blocks)]

    fresh, report = extract_bytes(inst, data.to_bytes(), seeds.to_bytes())
    want = BitString(0, 0)
    for x, y in zip(xs, ys):
        want = want.concat(extract(inst, x, y))
    assert report.blocks == blocks and fresh == want.to_bytes()

    reused, report = extract_bytes(
        inst, data.to_bytes(), ys[0].to_bytes(), reuse_seed=True
    )
    want = BitString(0, 0)
    for x in xs:
        want = want.concat(extract(inst, x, ys[0]))
    assert report.joint_error_factor == blocks and reused == want.to_bytes()


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
    # slices, 65 and 129 with a partial last one
    rng = random.Random(words * 1000 + m)
    n = 64 * words - 5
    matrix = np.random.default_rng(rng.getrandbits(32)).integers(
        0, 1 << 64, size=(m, words), dtype=np.uint64
    )
    masks = CompiledMasks(matrix, n)
    for _ in range(3):
        x = rng.getrandbits(n)
        xw = np.frombuffer(x.to_bytes(8 * words, "little"), dtype=np.uint64)
        par = np.bitwise_count(matrix & xw).sum(axis=1) & 1
        want = int("".join(str(b) for b in par), 2)
        assert masks.apply(x) == want


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
def test_short_reads_match_buffered_stream(reuse_seed):
    inst = _odd_instance()
    rng = random.Random(21)
    blocks = 9
    data = BitString(13 * blocks, rng.getrandbits(13 * blocks))
    seeds = BitString(15 * blocks, rng.getrandbits(15 * blocks))
    seed = (seeds.prefix(15) if reuse_seed else seeds).to_bytes() + b"\x5a\x00"
    runs = []
    for wrap in (io.BytesIO, _Trickle):
        out = io.BytesIO()
        report = extract_stream(
            inst, wrap(data.to_bytes()), wrap(seed), out, reuse_seed=reuse_seed
        )
        runs.append((out.getvalue(), report.blocks, report.seed_bits_unread))
    want = BitString(0, 0)
    for b in range(blocks):
        x = data.substring(range(13 * b, 13 * (b + 1)))
        y = seeds.substring(range(0, 15) if reuse_seed else range(15 * b, 15 * (b + 1)))
        want = want.concat(extract(inst, x, y))
    # one padding bit after the last seed, then the two extra bytes
    assert runs == [(want.to_bytes(), blocks, 17)] * 2


@pytest.mark.parametrize("wrap", [io.BytesIO, _Trickle])
def test_sub_byte_tails(wrap):
    inst = _odd_instance()
    rng = random.Random(22)
    data = BitString(39, rng.getrandbits(39)).to_bytes()  # 3 blocks, 1 pad bit
    seeds = BitString(45, rng.getrandbits(45)).to_bytes()  # 3 seeds, 3 pad bits

    def run(data, seed):
        return extract_stream(inst, wrap(data), wrap(seed), io.BytesIO()).blocks

    assert run(data, seeds) == 3
    with pytest.raises(ParameterError, match="short final block in input stream"):
        run(data[:-1] + bytes([data[-1] | 1]), seeds)
    two = BitString(30, rng.getrandbits(30)).to_bytes()  # 2 seeds, 2 pad bits
    with pytest.raises(ParameterError, match="seed source exhausted"):
        run(data, two)
    with pytest.raises(ParameterError, match="short final block in seed stream"):
        run(data, two[:-1] + bytes([two[-1] | 1]))


def test_reader_reads_only_needed_bytes():
    stream = io.BytesIO(b"\xff" * 100)
    reader = _BitReader(stream, "input")
    assert reader.read_bits(13).value == (1 << 13) - 1 and stream.tell() == 2
    reader.read_bits(13)  # 3 bits buffered, 10 more needed
    assert stream.tell() == 4 and reader.unread_bits() == 800 - 26
