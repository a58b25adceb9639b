import io
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from trevext import code_extractor, trevisan
from trevext.bitfield import BitString
from trevext.code_extractor import (
    CodeSpec,
    code_columns,
    codeword_bit,
    extract_bit,
    message_symbols,
)
from trevext.errors import ParameterError
from trevext.params import preset
from trevext.trevisan import (
    CompiledMasks,
    TrevisanInstance,
    extract,
    extract_bytes,
    extract_stream,
    _BlockReader,
    seed_masks,
)
from trevext.weak_design import WeakDesign, block_design


def _rows(xs, n):
    """n-bit integers as block rows: MSB-first, zero-padded (apply's input)."""
    nb = (n + 7) // 8
    raw = b"".join((x << (8 * nb - n)).to_bytes(nb, "big") for x in xs)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(xs), nb)


def _values(rows, m):
    """apply's (B, ceil(m/8)) output rows as m-bit integers."""
    return [int.from_bytes(r.tobytes(), "big") >> (8 * len(r) - m) for r in rows]


def _columns_of(matrix, n):
    """Byte columns of a (k, ceil(n/64)) row matrix by plain bit transpose:
    entry [j, p] holds bit 8p + 7 - j of every row, row r at byte r // 8,
    bit 7 - r % 8 (the packing of code_columns)."""
    k, words = matrix.shape
    bits = np.unpackbits(matrix.view(np.uint8), axis=1)  # [r, input bit]
    packed = np.zeros((64 * words, 8 * ((k + 63) // 64)), dtype=np.uint8)
    packed[:, : (k + 7) // 8] = np.packbits(bits.T, axis=1)
    cols = packed.view(np.uint64).reshape(-1, 8, (k + 63) // 64)[:, ::-1].transpose(1, 0, 2)
    return np.ascontiguousarray(cols[:, : (n + 7) // 8])


def _tables(matrix, n):
    """The byte-table kernel on the masks of a row matrix."""
    return CompiledMasks(n, len(matrix), columns=_columns_of(matrix, n))


def _row_fold(matrix, blocks):
    """Reference outputs of a (m, words) row matrix on block rows: bit i of
    a block is parity(x & row i), each row ANDed with the zero-padded block
    and popcounted, packed like apply's output."""
    m, words = matrix.shape
    padded = np.zeros((len(blocks), 8 * words), dtype=np.uint8)
    padded[:, : blocks.shape[1]] = blocks
    xw = padded.view(np.uint64)
    par = np.bitwise_count(xw[:, None, :] & matrix[None]).sum(axis=2) & 1
    return np.packbits(par.astype(np.uint8), axis=1)


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


def test_oracle_runs_without_numpy_or_mask_compiler(monkeypatch):
    # the bit-serial oracle stays independent of the kernel it checks
    p = preset("cor1", 40, Fraction(1, 2), 5)
    inst = TrevisanInstance(block_design(p.t, p.m), CodeSpec(n=40, s=p.s_bits, delta=p.delta))
    rng = random.Random(11)
    xs = [BitString(inst.n, rng.getrandbits(inst.n)) for _ in range(4)]
    y = BitString(inst.d, rng.getrandbits(inst.d))
    rows = _rows([x.value for x in xs], inst.n)
    want = _values(seed_masks(inst, y).apply(rows), inst.m)

    class Forbidden:
        def __getattr__(self, name):
            raise AssertionError(f"the oracle touched numpy.{name}")

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle ran the mask compiler")

    for module in (trevisan, code_extractor):
        monkeypatch.setattr(module, "np", Forbidden())
    for name in ("_step_slices", "code_columns", "seed_masks", "CompiledMasks"):
        monkeypatch.setattr(trevisan, name, forbidden)
    for name in ("code_columns", "_step_slices"):
        monkeypatch.setattr(code_extractor, name, forbidden)
    assert [extract(inst, x, y).value for x in xs] == want
    v = y.substring(inst.design.sets[0]).prefix(inst.code.t)
    assert extract_bit(inst.code, xs[0], v) == want[0] >> (inst.m - 1)


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
        # the seed as one row per block runs the step loop to the same outputs
        row = np.frombuffer(y.to_bytes(), dtype=np.uint8)[None]
        rows = np.repeat(row, 16, axis=0)
        assert _values(seed_masks(inst, rows).apply(_rows(range(16), 4)), inst.m) == direct


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
    # the joint error budget is blocks * eps
    assert report.seed_reused and report.blocks == 8
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


def test_reused_seed_compiled_only_for_blocks(monkeypatch):
    inst = micro_instance()
    calls = []

    def spy(*args):
        calls.append(args)
        return seed_masks(*args)

    monkeypatch.setattr(trevisan, "seed_masks", spy)
    seed = BitString(6, 0b101101).to_bytes()
    out, report = extract_bytes(inst, b"", seed, reuse_seed=True)
    assert (out, report.blocks, len(calls)) == (b"", 0, 0)
    out, report = extract_bytes(inst, b"\xa5\x3c", seed, reuse_seed=True)
    assert report.blocks == 4 and len(calls) == 1
    # the seed is still read before any input: a missing one raises
    with pytest.raises(ParameterError):
        extract_bytes(inst, b"", b"", reuse_seed=True)


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


def _small_batches(monkeypatch, blocks=8):
    """Batches of `blocks` blocks, so that a few blocks fill several."""
    monkeypatch.setattr(trevisan, "_batch_blocks", lambda n, m, d: blocks)


# block counts 1, B - 1, B, B + 1 and 2B + 3 at B = 8
COUNTS = (1, 7, 8, 9, 19)


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
        assert report.blocks == blocks
        assert reused == _join(reused_want[:blocks]).to_bytes()


def test_one_kernel_per_seed_mode(monkeypatch):
    # a reused seed always runs the byte tables and never steps blocks
    # through the fresh-seed loop; fresh seeds always run the step loop and
    # never build mask rows or byte columns
    kernels = []
    for name in ("_evaluate", "_lookup"):
        def spy(self, blocks, _name=name, _kernel=getattr(CompiledMasks, name)):
            kernels.append((_name, len(blocks)))
            return _kernel(self, blocks)

        monkeypatch.setattr(CompiledMasks, name, spy)

    def forbidden(*args):
        raise AssertionError("the other seed mode's compiler ran")

    inst = _odd_instance()
    rng = random.Random(23)
    data = BitString(13 * 9, rng.getrandbits(13 * 9))
    seeds = BitString(15 * 9, rng.getrandbits(15 * 9))
    y = seeds.prefix(15)
    with monkeypatch.context() as patch:
        patch.setattr(trevisan, "_step_slices", forbidden)
        for blocks in (1, 9):
            kernels.clear()
            out, _ = extract_bytes(inst, data.prefix(13 * blocks).to_bytes(), y.to_bytes(), True)
            want = [extract(inst, data.substring(range(13 * b, 13 * (b + 1))), y)
                    for b in range(blocks)]
            assert out == _join(want).to_bytes() and kernels == [("_lookup", blocks)]
    kernels.clear()
    with monkeypatch.context() as patch:
        for module in (trevisan, code_extractor):
            patch.setattr(module, "code_columns", forbidden)
        out, _ = extract_bytes(inst, data.to_bytes(), seeds.to_bytes())
    want = [extract(inst, data.substring(range(13 * b, 13 * (b + 1))),
                    seeds.substring(range(15 * b, 15 * (b + 1)))) for b in range(9)]
    assert out == _join(want).to_bytes() and kernels == [("_evaluate", 9)]


def test_reused_stream_across_real_batch_edges(monkeypatch):
    # _batch_blocks' own rule on a 100-byte reused budget: n = 13, m = 11
    # gives 100 // 11 = 9 blocks, cut to 8 so that batches start on a byte;
    # 2B + 3 blocks end in a partial batch, read 3 bytes at a time
    monkeypatch.setattr(trevisan, "_REUSED_BATCH_BYTES", 100)
    inst = _odd_instance()
    assert trevisan._batch_blocks(13, 11, 0) == 8
    rng = random.Random(29)
    data = BitString(13 * 19, rng.getrandbits(13 * 19))
    y = BitString(15, rng.getrandbits(15))
    want = [extract(inst, data.substring(range(13 * b, 13 * (b + 1))), y) for b in range(19)]
    for blocks in (7, 8, 9, 16, 19):
        part = data.prefix(13 * blocks).to_bytes()
        for wrap in (io.BytesIO, _Trickle):
            out = io.BytesIO()
            report = extract_stream(inst, wrap(part), wrap(y.to_bytes()), out, reuse_seed=True)
            assert out.getvalue() == _join(want[:blocks]).to_bytes()
            assert report.blocks == blocks


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


def _pin_workers(patch, workers):
    # the byte-table kernel splits among `workers` threads, past the
    # production cap, whatever the host's CPUs
    patch.setattr(trevisan, "_cpus", lambda: workers)
    patch.setattr(trevisan, "_MAX_WORKERS", workers)


@pytest.mark.parametrize("words", [1, 3, 1024])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 129, 256])
def test_apply_matches_popcount_parity(words, m, monkeypatch):
    # the byte tables on 1 and 33 blocks: m = 65, 129 end in a partial
    # column word, 1024 words span several table chunks, split among 1 to
    # 3 workers, the last range ending in a partial chunk; 1 and 3 words
    # are one chunk, fewer than the workers
    rng = random.Random(words * 1000 + m)
    n = 64 * words - 5
    matrix = np.random.default_rng(rng.getrandbits(32)).integers(
        0, 1 << 64, size=(m, words), dtype=np.uint64
    )
    for blocks in (1, 33):
        xs = [rng.getrandbits(n) for _ in range(blocks)]
        want = []
        for x in xs:
            xw = np.frombuffer((x << (64 * words - n)).to_bytes(8 * words, "big"), dtype=np.uint64)
            par = np.bitwise_count(matrix & xw).sum(axis=1) & 1
            want.append(int("".join(str(b) for b in par), 2))
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            assert _values(_tables(matrix, n).apply(_rows(xs, n)), m) == want, workers


@pytest.mark.parametrize(
    "n, m",
    [
        (13, 7),  # one table, shorter than a chunk
        (797, 130),  # 3 words: 42 bytes per table, 100 = 2 * 42 + 16
        (1600, 65),  # 2 words: 64 bytes per table, 200 = 3 * 64 + 8
        (2397, 1),  # 1 word: 128 bytes per table, 300 = 2 * 128 + 44
    ],
)
def test_table_kernel_matches_row_fold(n, m, monkeypatch):
    # byte positions that end in a partial chunk, the chunks claimed by 1
    # to 3 workers (more than the one to four chunks of the default tables).
    # Shrinking the tables, or the gather of a chunk's 131 blocks, to 1792
    # words cuts them into chunks of 1 to 13 byte positions, most shapes
    # ending in a partial chunk; with the gather shrunk, the 3-block batch
    # runs on whole-size chunks again
    rng = random.Random(n + m)
    matrix = np.random.default_rng(rng.getrandbits(32)).integers(
        0, 1 << 64, size=(m, (n + 63) // 64), dtype=np.uint64
    )
    blocks = _rows([rng.getrandbits(n) for _ in range(131)], n)
    fold = _row_fold(matrix, blocks)
    masks = _tables(matrix, n)
    for shrink in (None, "_TABLE_WORDS", "_TAKE_WORDS"):
        for workers in (1, 2, 3):
            with monkeypatch.context() as patch:
                _pin_workers(patch, workers)
                if shrink:
                    patch.setattr(trevisan, shrink, 1792)
                assert (masks.apply(blocks) == fold).all(), (shrink, workers)
                # the same tables serve every later batch, short ones too
                assert (masks.apply(blocks[:3]) == fold[:3]).all(), (shrink, workers)


def test_lookup_worker_error_raised_and_threads_joined(monkeypatch):
    # a worker's error reaches the caller of apply, and every thread the
    # kernel started has ended when apply returns; the worker threads fail
    # late, after a pause in which the calling thread claims the chunks
    class Boom(Exception):
        pass

    lookup_range = CompiledMasks._lookup_range
    caller = threading.get_ident()

    def failing(self, scratch, blocks, starts, g):
        if threading.get_ident() != caller:
            time.sleep(0.05)
            raise Boom()
        return lookup_range(self, scratch, blocks, starts, g)

    _pin_workers(monkeypatch, 3)
    monkeypatch.setattr(CompiledMasks, "_lookup_range", failing)
    rng = np.random.default_rng(31)
    matrix = rng.integers(0, 1 << 64, size=(9, 64), dtype=np.uint64)
    masks = _tables(matrix, 64 * 64)  # 512 byte positions, 4 chunks
    before = threading.active_count()
    with pytest.raises(Boom):
        masks.apply(rng.integers(0, 256, (5, 512), dtype=np.uint8))
    assert threading.active_count() == before


@pytest.mark.parametrize("late", [False, True], ids=["together", "late"])
def test_lookup_chunks_claimed_once(late, monkeypatch):
    # three workers, more than this kernel's cap and a 2-vCPU host's CPUs,
    # share one source of chunk starts under a short switch interval: every
    # start is taken exactly once, and the output is the one-worker output.
    # Workers that wait before their first claim until the calling thread
    # has run out of chunks leave them all to it, and their sums stay zero
    rng = np.random.default_rng(34)
    matrix = rng.integers(0, 1 << 64, size=(130, 64), dtype=np.uint64)
    masks = _tables(matrix, 64 * 64)  # 3 words: 512 byte positions, 13 chunks of 42
    batch = rng.integers(0, 256, (40, 512), dtype=np.uint8)
    _pin_workers(monkeypatch, 1)
    want = masks.apply(batch).copy()
    caller = threading.get_ident()
    done = threading.Event()
    claims = []
    lookup_range = CompiledMasks._lookup_range

    def logged(starts):
        for p in starts:
            claims.append((threading.get_ident() == caller, p))
            yield p

    def claiming(self, scratch, blocks, starts, g):
        if threading.get_ident() != caller:
            assert not late or done.wait(timeout=30)
            return lookup_range(self, scratch, blocks, logged(starts), g)
        try:
            return lookup_range(self, scratch, blocks, logged(starts), g)
        finally:
            done.set()

    _pin_workers(monkeypatch, 3)
    monkeypatch.setattr(CompiledMasks, "_lookup_range", claiming)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = masks.apply(batch)
    finally:
        sys.setswitchinterval(interval)
    assert (got == want).all()
    assert sorted(p for _, p in claims) == list(range(0, 512, 42))
    if late:
        assert all(mine for mine, _ in claims)


@pytest.mark.parametrize("width", [1, 3, None])
@pytest.mark.parametrize("k", [1, 7, 64, 65, 130])
@pytest.mark.parametrize(
    "n, s",
    [
        (1, 1),  # one-bit symbols, one bit of input
        (203, 8),  # a symbol is a byte; n % 8 = 3
        (130, 63),  # neither n nor a slice of symbols on a byte or word edge
        (197, 64),  # symbols fill a word; n % 64 = 5
    ],
)
def test_column_compile_matches_row_transpose(n, s, k, width, monkeypatch):
    # at the default width (None: one slice) the column of input bit i is
    # the oracle's outputs on the unit input e_i, zero past k and past n;
    # slices of `width` symbols break inside bytes and words, and must give
    # the same columns, while k pairs fill 64-pair groups partly
    spec = CodeSpec(n=n, s=s, delta=Fraction(1, 4))
    rng = random.Random(n * 1000 + s * 10 + k)
    a = np.array([rng.randrange(spec.q) for _ in range(k)], dtype=np.uint64)
    u = np.array([rng.randrange(spec.q) for _ in range(k)], dtype=np.uint64)
    cols = code_columns(spec, a, u)
    words = (k + 63) // 64
    assert cols.shape == (8, (n + 7) // 8, words) and cols.dtype == np.uint64
    if width:
        monkeypatch.setattr(code_extractor, "_COLUMN_SLICE_WORDS", 64 * words * width)
        assert (code_columns(spec, a, u) == cols).all()
    else:
        seeds = [BitString(s, int(ai)).concat(BitString(s, int(ui))) for ai, ui in zip(a, u)]
        for i in range(8 * cols.shape[1]):
            bits = np.unpackbits(cols[7 - i % 8, i // 8].astype("<u8").view(np.uint8)).tolist()
            want = []  # past n the column is zero
            if i < n:
                unit = message_symbols(spec, BitString(n, 1 << (n - 1 - i)))
                want = [codeword_bit(spec, unit, y) for y in seeds]
            assert bits == want + [0] * (64 * words - len(want)), i


def test_reused_stream_memory_bound(monkeypatch):
    # production shape n = 2^16, m = 256: peak traced memory of a reused
    # seed's stream stays within its byte columns (2 MiB), one batch buffer
    # and 1 MiB of scratch, ~0.37 MiB per byte-table worker (its tables
    # take 256 KiB); a row matrix and a full steps array (2 MiB each here)
    # would not fit, nor would a third worker, nor two workers on tables of
    # 512 KiB.  At n = 2^16 - 1 the packed bits are realigned inside the
    # batch buffer, on 1.125 MiB of scratch (512 KiB of unpacked bits,
    # packbits' own copy of them and the packed rows), so no second
    # batch-sized buffer fits either.  The compile starts before any batch
    # buffer is allocated.  The worker count is pinned to the most the
    # kernel runs, then to 1, so the result does not depend on the host's
    # CPUs
    held = []

    def spy(inst, seeds):
        held.append(tracemalloc.get_traced_memory()[0])
        return seed_masks(inst, seeds)

    monkeypatch.setattr(trevisan, "seed_masks", spy)
    for workers in (trevisan._MAX_WORKERS, 1):
        monkeypatch.setattr(trevisan, "_cpus", lambda: workers)
        for n in (1 << 16, (1 << 16) - 1):
            p = preset("cor1", n, Fraction(1, 8), 256)
            code = CodeSpec(n=n, s=p.s_bits, delta=p.delta)
            inst = TrevisanInstance(block_design(p.t, p.m), code)
            inst._seed_gather  # built once per instance, not per stream
            rng = np.random.default_rng(30)
            blocks = 32
            source = io.BytesIO(rng.integers(0, 256, blocks * n // 8, dtype=np.uint8).tobytes())
            seed = io.BytesIO(rng.integers(0, 256, (inst.d + 7) // 8, dtype=np.uint8).tobytes())
            held.clear()
            tracemalloc.start()
            try:
                report = extract_stream(inst, source, seed, io.BytesIO(), reuse_seed=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            columns = 8 * (1 << 13) * 4 * 8
            batch = trevisan._batch_blocks(n, 256, 0) << 13
            scratch = 1 << 20 if n % 8 == 0 else 9 << 17
            assert report.blocks == blocks and peak < columns + batch + scratch, (n, workers)
            assert len(held) == 1 and held[0] < 1 << 16


def test_reused_stream_tail_reuses_scratch(monkeypatch):
    # production shape n = 2^16, m = 256: one full 512-block batch, then a
    # 3-block tail.  The tail runs on prefix views of the scratch that the
    # full batch left, so the stream peaks within 64 KiB of the stream
    # without the tail; scratch made anew for the tail's batch size would
    # add at least a 512 KiB table per worker.  The last block matches the
    # bit-serial extract (~2 s a block at this shape), sampled bits of two
    # full-batch blocks match its codeword_bit, and both worker counts give
    # the same bytes
    n = 1 << 16
    p = preset("cor1", n, Fraction(1, 8), 256)
    inst = TrevisanInstance(block_design(p.t, p.m), CodeSpec(n=n, s=p.s_bits, delta=p.delta))
    inst._seed_gather  # built once per instance, not per stream
    full = trevisan._batch_blocks(n, 256, 0)
    assert full == 512
    rng = np.random.default_rng(32)
    data = rng.integers(0, 256, (full + 3) * n // 8, dtype=np.uint8).tobytes()
    seed = rng.integers(0, 256, (inst.d + 7) // 8, dtype=np.uint8).tobytes()
    outs = []
    for workers in (2, 1):
        _pin_workers(monkeypatch, workers)
        peaks = {}
        for blocks in (full, full + 3):
            source, sink = io.BytesIO(data[: blocks * n // 8]), io.BytesIO()
            tracemalloc.start()
            try:
                extract_stream(inst, source, io.BytesIO(seed), sink, reuse_seed=True)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[full + 3] <= peaks[full] + (64 << 10), (workers, peaks)
        outs.append(sink.getvalue())
    out, y = outs[0], BitString.from_bytes(seed, inst.d)
    assert outs[1] == out and len(out) == 32 * (full + 3)

    def block(b):
        return BitString.from_bytes(data[b * n // 8 : (b + 1) * n // 8], n)

    assert out[-32:] == extract(inst, block(full + 2), y).to_bytes()
    for b in (0, full - 1):
        symbols = message_symbols(inst.code, block(b))
        bits = BitString.from_bytes(out[32 * b : 32 * (b + 1)], 256)
        for i in random.Random(b).sample(range(256), 16):
            assert bits[i] == codeword_bit(inst.code, symbols, trevisan._bit_seed(inst, y, i)), (b, i)


def test_concurrent_applies_get_their_own_scratch(monkeypatch):
    # two threads apply one compiled seed at once, each to its own batch:
    # while one call holds the seed's scratch the other makes its own, so
    # both get the single-threaded outputs.  A barrier in the kernel holds
    # both calls inside it together, and a short switch interval
    # interleaves their chunks
    rng = np.random.default_rng(33)
    matrix = rng.integers(0, 1 << 64, size=(130, 64), dtype=np.uint64)
    masks = _tables(matrix, 64 * 64)  # 512 byte positions, 13 chunks
    batches = [rng.integers(0, 256, (b, 512), dtype=np.uint8) for b in (40, 41)]
    _pin_workers(monkeypatch, 1)
    want = [masks.apply(batch).copy() for batch in batches]
    barrier = threading.Barrier(2, timeout=10)
    held = []
    lookup_range = CompiledMasks._lookup_range

    def meeting(self, scratch, blocks, starts, g):
        held.append(scratch)
        barrier.wait()
        return lookup_range(self, scratch, blocks, starts, g)

    monkeypatch.setattr(CompiledMasks, "_lookup_range", meeting)
    got = [None, None]

    def run(i):
        got[i] = masks.apply(batches[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(held) == 2 and held[0] is not held[1]
    for i in range(2):
        assert (got[i] == want[i]).all(), i


@pytest.mark.parametrize("m, batch", [(2000, 1), (2000, 5), (3, 600)])
def test_fresh_lane_state_bounded(m, batch):
    # fresh seeds at n = 1024, s = 16: a chunk holds at most ~980 lanes, so
    # the 2000 outputs of a block span chunks, and at m = 3 a chunk spans
    # ~220 blocks.  Peak traced memory of apply stays within _LANE_BYTES,
    # 1/4 MiB of numpy's fixed-size iteration buffers, the m bytes of output
    # bits per block and the packed output, whatever m and the batch size;
    # the outputs match the oracle
    inst = TrevisanInstance(block_design(32, m), CodeSpec(n=1024, s=16, delta=Fraction(1, 4)))
    assert batch * m > trevisan._fresh_lanes(16, m)
    rng = random.Random(m + batch)
    xs = [BitString(1024, rng.getrandbits(1024)) for _ in range(batch)]
    ys = [BitString(inst.d, rng.getrandbits(inst.d)) for _ in range(batch)]
    blocks = _rows([x.value for x in xs], 1024)
    masks = seed_masks(inst, np.stack([np.frombuffer(y.to_bytes(), dtype=np.uint8) for y in ys]))
    tracemalloc.start()
    try:
        out = masks.apply(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trevisan._LANE_BYTES + (1 << 18) + batch * m + out.nbytes
    for b in (0, batch - 1):
        assert _values(out[b : b + 1], m) == [extract(inst, xs[b], ys[b]).value]


def test_batch_size_bounds():
    # reused seed (d = 0): 4 MiB of input rows
    assert trevisan._batch_blocks(1 << 16, 256, 0) == 512
    assert trevisan._batch_blocks(13, 7, 0) % 8 == 0  # batches start on a byte
    assert trevisan._batch_blocks(16, 7, 15) % 8 == 0  # ... for seeds too
    assert trevisan._batch_blocks(1 << 25, 256, 0) == 1  # one block over 4 MiB
    assert trevisan._batch_blocks((1 << 25) + 1, 256, 0) == 8
    assert trevisan._batch_blocks(16, 60000, 0) == (1 << 22) // 60000
    # ... and at most 1 MiB of each byte-table worker's sums
    assert trevisan._batch_blocks(64, 1, 0) == 1 << 17
    # fresh seeds: 1 MiB of input rows at the production shape (d = 31 744);
    # 41 seed rows of 24 971 bytes fit in 1 MiB, and 8 does not divide d
    assert trevisan._batch_blocks(1 << 16, 256, 31744) == 128
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


def _lanes_of(monkeypatch, lanes):
    """Fresh-seed lane chunks of at most `lanes` (block, output) lanes."""
    monkeypatch.setattr(trevisan, "_fresh_lanes", lambda s, m: lanes)


@pytest.mark.parametrize("batch", [None, 8])
@pytest.mark.parametrize(
    "n, s, m, extra",
    [
        (13, 5, 11, 0),  # d = 13: neither n nor d a multiple of 8
        (64, 6, 7, 1),  # d = 17: 8 | n only
        (130, 9, 65, 2),  # d = 27: 3 words per mask row, 9 output bytes
    ],
)
def test_grouped_fresh_matches_extract(n, s, m, extra, batch, monkeypatch):
    # lane chunks of about half a block (a block's outputs split across
    # chunks), of 2.5 blocks (chunks span blocks and split one) and the
    # default; with 8-block batches a stream is several batches
    if batch:
        monkeypatch.setattr(trevisan, "_batch_blocks", lambda n, m, d: batch)
    rng = random.Random(n * 100 + m)
    inst = _random_instance(rng, n, s, Fraction(1, 3), m, extra)
    most = 9
    data = BitString(n * most, rng.getrandbits(n * most))
    seeds = BitString(inst.d * most, rng.getrandbits(inst.d * most))
    want = [
        extract(inst, data.substring(range(n * b, n * (b + 1))),
                seeds.substring(range(inst.d * b, inst.d * (b + 1))))
        for b in range(most)
    ]
    for lanes in (m // 2 + 1, 5 * m // 2 + 1, None):
        with monkeypatch.context() as patch:
            if lanes:
                _lanes_of(patch, lanes)
            for blocks in (2, 3, 4, most):
                out, report = extract_bytes(
                    inst, data.prefix(n * blocks).to_bytes(),
                    seeds.prefix(inst.d * blocks).to_bytes(),
                )
                assert out == _join(want[:blocks]).to_bytes() and report.blocks == blocks


@pytest.mark.parametrize("wrap", [io.BytesIO, _Trickle])
def test_grouped_fresh_seed_errors(wrap, monkeypatch):
    # n = 13, d = 15, m = 11, lane chunks of 3 blocks and one lane in
    # batches of 8: seeds run out, or end in a bad tail, inside the second
    # chunk or at the second batch
    inst = _odd_instance()
    _lanes_of(monkeypatch, 3 * inst.m + 1)
    monkeypatch.setattr(trevisan, "_batch_blocks", lambda n, m, d: 8)
    rng = random.Random(25)
    data = BitString(13 * 9, rng.getrandbits(13 * 9)).to_bytes()

    def run(seed):
        return extract_stream(inst, wrap(data), wrap(seed), io.BytesIO()).blocks

    whole = BitString(15 * 9, rng.getrandbits(15 * 9))
    assert run(whole.to_bytes()) == 9
    for k in (1, 4, 8):
        with pytest.raises(ParameterError, match="seed source exhausted"):
            run(whole.prefix(15 * k).to_bytes())
        # 15k bits and a 7-bit tail holding a one: a short final seed
        bad = whole.prefix(15 * k).concat(BitString(7, 1))
        with pytest.raises(ParameterError, match="short final block in seed stream"):
            run(bad.to_bytes())


@pytest.mark.parametrize(
    "n, s, m",
    [
        (1, 1, 5),  # one-bit symbols and input
        (203, 8, 13),  # a symbol is a byte; n % 8 = 3
        (130, 63, 9),  # symbols on neither a byte nor a word edge
        (197, 64, 70),  # symbols fill a word; n % 64 = 5
    ],
)
def test_fresh_evaluation_matches_extract(n, s, m, monkeypatch):
    # the fresh-seed step loop against the bit-serial oracle, at the symbol
    # sizes of the word edges; lane chunks of one lane, of part of a block
    # (its outputs split across chunks), of 2.5 blocks (a chunk spans blocks
    # and splits one) and the default
    rng = random.Random(n * 100 + s)
    inst = _random_instance(rng, n, s, Fraction(1, 3), m, 1)
    most = 8  # whole bytes at n = 1, where a padding bit would be a block
    data = BitString(n * most, rng.getrandbits(n * most))
    seeds = BitString(inst.d * most, rng.getrandbits(inst.d * most))
    xs = [data.substring(range(n * b, n * (b + 1))) for b in range(most)]
    ys = [seeds.substring(range(inst.d * b, inst.d * (b + 1))) for b in range(most)]
    fresh = _join(extract(inst, x, y) for x, y in zip(xs, ys)).to_bytes()
    shared = [extract(inst, x, ys[0]).value for x in xs]
    blocks = _rows([x.value for x in xs], n)
    row = np.frombuffer(ys[0].to_bytes(), dtype=np.uint8)[None]
    same = np.repeat(row, most, axis=0)
    for lanes in (1, m // 2 + 1, 5 * m // 2, None):
        with monkeypatch.context() as patch:
            if lanes:
                _lanes_of(patch, lanes)
            out, report = extract_bytes(inst, data.to_bytes(), seeds.to_bytes())
            assert out == fresh and report.blocks == most
            # one seed row repeated for every block of the batch
            assert _values(seed_masks(inst, same).apply(blocks), m) == shared


def test_fresh_layers_called_once_per_batch(monkeypatch):
    # one compile and one apply per batch of fresh seeds, and one step loop
    # per chunk of (block, output) lanes, in chunks of equal size: the 88
    # lanes of 8 blocks at most 30 per chunk are 30, 30, 28; a reused seed
    # is compiled once and never runs the fresh-seed step loop
    inst = _odd_instance()
    _small_batches(monkeypatch, 8)
    _lanes_of(monkeypatch, 30)
    compiles, applies, loops = [], [], []

    def compile_spy(inst, seeds):
        compiles.append(1 if isinstance(seeds, BitString) else len(seeds))
        return seed_masks(inst, seeds)

    apply = CompiledMasks.apply

    def apply_spy(self, blocks):
        applies.append(len(blocks))
        return apply(self, blocks)

    step_slices = trevisan._step_slices

    def loop_spy(spec, a, u, width):
        loops.append(len(a))
        return step_slices(spec, a, u, width)

    monkeypatch.setattr(trevisan, "seed_masks", compile_spy)
    monkeypatch.setattr(CompiledMasks, "apply", apply_spy)
    monkeypatch.setattr(trevisan, "_step_slices", loop_spy)
    rng = random.Random(26)
    data = BitString(13 * 10, rng.getrandbits(13 * 10)).to_bytes()
    seeds = BitString(15 * 10, rng.getrandbits(15 * 10)).to_bytes()
    _, report = extract_bytes(inst, data, seeds)  # 10 blocks: batches 8, 2
    assert report.blocks == 10 and compiles == applies == [8, 2]
    assert loops == [30, 30, 28, 22]
    compiles.clear(), applies.clear(), loops.clear()
    _, report = extract_bytes(inst, data, seeds, reuse_seed=True)
    assert report.blocks == 10 and compiles == [1] and applies == [8, 2] and not loops


def test_seed_rows_compile_like_bitstrings():
    # g seed rows compile to the (a, u) pairs each seed has on its own, and
    # each row, repeated for every block of a batch in the step loop, gives
    # the outputs its seed gives on the byte tables; d = 15
    inst = _odd_instance()
    rng = random.Random(28)
    ys = [BitString(15, rng.getrandbits(15)) for _ in range(3)]
    rows = np.frombuffer(b"".join(y.to_bytes() for y in ys), dtype=np.uint8).reshape(3, 2)
    blocks = _rows([rng.getrandbits(13) for _ in range(20)], 13)
    grouped = seed_masks(inst, rows)
    a, u = grouped._pairs
    assert a.shape == u.shape == (3, inst.m)
    for j, y in enumerate(ys):
        one = seed_masks(inst, rows[j : j + 1])
        assert (one._pairs[0] == a[j]).all() and (one._pairs[1] == u[j]).all()
        tables = seed_masks(inst, y)
        same = seed_masks(inst, np.repeat(rows[j : j + 1], len(blocks), axis=0))
        assert (same.apply(blocks) == tables.apply(blocks)).all()
        with pytest.raises(ParameterError):  # one row serves one block only
            one.apply(blocks)
        assert (grouped.apply(blocks[:3])[j] == tables.apply(blocks[j : j + 1])[0]).all()
    none = seed_masks(inst, rows[:0])
    assert none.apply(blocks[:0]).shape == tables.apply(blocks[:0]).shape == (0, 2)
    with pytest.raises(ParameterError):
        seed_masks(inst, rows[:, :1])


def test_per_block_mask_sets():
    # g seeds apply to a batch of g blocks, block j on seed j, as the oracle
    # gives; other block counts raise
    rng = random.Random(27)
    inst = _random_instance(rng, 150, 8, Fraction(1, 3), 13, 1)
    g = 5
    ys = [BitString(inst.d, rng.getrandbits(inst.d)) for _ in range(g)]
    xs = [BitString(150, rng.getrandbits(150)) for _ in range(g)]
    rows = np.stack([np.frombuffer(y.to_bytes(), dtype=np.uint8) for y in ys])
    blocks = _rows([x.value for x in xs], 150)
    want = [extract(inst, x, y).value for x, y in zip(xs, ys)]
    masks = seed_masks(inst, rows)
    assert _values(masks.apply(blocks), inst.m) == want
    with pytest.raises(ParameterError):
        masks.apply(blocks[:-1])


def test_reader_realigns_groups_in_place():
    # 8 does not divide n: each read's packed bits are realigned inside the
    # row buffer, 8 records per group at this n, last group first; 8 and 21
    # records are one group and three (one partial)
    n, total = 40001, 29
    value = random.Random(31).getrandbits(n * total)
    size = (n * total + 7) // 8
    data = (value << (8 * size - n * total)).to_bytes(size, "big")
    reader = _BlockReader(io.BytesIO(data), n, 21, "input")
    width = (n + 7) // 8
    got = [row.tobytes() for count in (8, 21) for row in reader.read(count)]
    want = [
        ((value >> (n * (total - 1 - j)) & ((1 << n) - 1)) << (8 * width - n)).to_bytes(width, "big")
        for j in range(total)
    ]
    assert got == want and len(reader.read(1)) == 0


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
