"""Trevisan's composition: one code-extractor bit per weak-design set.

Output bit i (0-based) applies the one-bit extractor to the seed bits at the
positions of design set S_{i+1} (1-based in the usual presentation), taken
in ascending index order; if the design's set size exceeds the code's seed
length t, only the first t of those bits are consumed.

For a fixed seed the whole map x -> Ext(x, y) is GF(2)-linear, so a seed is
compiled into m parity masks over the input bits (:func:`seed_masks`).
Streaming reads blocks in bounded batches and runs every block on those
masks, whether the seed is reused or fresh: a row fold per block, or byte
tables once one seed's masks meet a large batch (:class:`CompiledMasks`).
The bit-serial :func:`extract` is the reference oracle they are tested
against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from .bitfield import BitString
from .code_extractor import CodeSpec, code_masks, extract_bit
from .errors import ParameterError
from .weak_design import WeakDesign


@dataclass(frozen=True)
class TrevisanInstance:
    design: WeakDesign
    code: CodeSpec
    params: object = None  # ExtractorParams from the calculator, if any

    def __post_init__(self):
        if self.design.t < self.code.t:
            raise ParameterError(
                f"design set size {self.design.t} < code seed length {self.code.t}"
            )

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def d(self) -> int:
        return self.design.d

    @property
    def m(self) -> int:
        return self.design.m


def _bit_seed(inst: TrevisanInstance, y: BitString, i: int) -> BitString:
    return y.substring(inst.design.sets[i]).prefix(inst.code.t)


def extract(inst: TrevisanInstance, x: BitString, y: BitString) -> BitString:
    """m output bits, bit i from the one-bit extractor on y_{S_{i+1}}.

    The bit-serial reference oracle: the analysis harness and the tests use
    it; streaming runs on compiled masks (:func:`seed_masks`).
    """
    if x.length != inst.n:
        raise ParameterError(f"input length {x.length} != n={inst.n}")
    if y.length != inst.d:
        raise ParameterError(f"seed length {y.length} != d={inst.d}")
    return BitString.from_bits(
        extract_bit(inst.code, x, _bit_seed(inst, y, i)) for i in range(inst.m)
    )


def seed_masks(inst: TrevisanInstance, y: BitString) -> CompiledMasks:
    """Compile a seed into m parity masks: output bit i = parity(x & mask_i),
    the :func:`~trevext.code_extractor.code_masks` of each output's (a, u)."""
    if y.length != inst.d:
        raise ParameterError(f"seed length {y.length} != d={inst.d}")
    s = inst.code.s
    # seed bits of every output at once: row i holds the first t = 2s bits
    # of y at S_i, ascending (what _bit_seed gives); a is the first s, u the
    # second s, each read big-endian
    ybits = np.unpackbits(np.frombuffer(y.to_bytes(), dtype=np.uint8))
    picked = ybits[np.sort(np.array(inst.design.sets), axis=1)[:, : inst.code.t]]
    weights = (np.uint64(1) << np.arange(s, dtype=np.uint64))[::-1]
    a = (picked[:, :s] * weights).sum(axis=1, dtype=np.uint64)
    u = (picked[:, s:] * weights).sum(axis=1, dtype=np.uint64)
    return CompiledMasks(code_masks(inst.code, a, u), inst.n)


# words per slice of the row fold: 512 KiB of rows, ANDed into a scratch
# buffer that stays in cache while it is folded
_SLICE_WORDS = 1 << 16
# byte tables: at most 512 KiB of 256-entry tables per chunk of byte positions
_TABLE_WORDS = 1 << 16
# gathered table words per step of the byte-table kernel: 256 KiB
_GATHER_WORDS = 1 << 15
# Kernel choice.  One block's row fold reads all M = m*ceil(n/64) mask words.
# Byte tables for a batch of B blocks write 256 entries per 8 input bits,
# 32*M words, then gather M/8 words per block: 32*M + c*B*M/8 word costs
# against B*M, with c the cost of a gathered word in folded words.  At c = 1
# the tables pay from B = 32 / (1 - 1/8) ~ 37 blocks.  Measured at n = 2^16,
# m = 256 (2-vCPU x86 host): 0.34-0.38 ms per folded block, 8-9 ms of tables
# and 0.03-0.05 ms of gathers per block, so the tables win from 26-30 blocks.
# Only masks shared by a whole stream see that many blocks in one batch.
_TABLE_MIN_BLOCKS = 32


class CompiledMasks:
    """m parity masks over n-bit blocks: output bit i = parity(x & mask_i).

    Held as a (m, ceil(n/64)) uint64 row matrix; word w, bit b of a row
    selects bit 64*w + b of the block's integer value.  The first batch of
    at least ``_TABLE_MIN_BLOCKS`` blocks turns the rows, once, into byte
    columns and drops them: a reused seed's masks then run as byte-indexed
    XOR tables (the Method of Four Russians), everything else as a row fold.
    """

    def __init__(self, matrix: np.ndarray, n: int):
        self.m = matrix.shape[0]
        self.n = n
        self._matrix = matrix
        self._columns = None

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Outputs of a batch of blocks.

        ``blocks`` is a (B, ceil(n/8)) uint8 array, one block per row,
        MSB-first and zero-padded at the end; the result is (B, ceil(m/8))
        uint8 in the same layout, output bit 0 first.
        """
        if self._columns is None:
            if len(blocks) < _TABLE_MIN_BLOCKS:
                return self._fold(blocks)
            self._columns = self._byte_columns()
            self._matrix = None
        return self._lookup(blocks)

    def _fold(self, blocks: np.ndarray) -> np.ndarray:
        """Row fold, block by block: the rows are ANDed with the block one
        cache-sized slice at a time and each row XOR-folded to one word;
        parity(popcount) of the fold is the row's parity, since parity is
        additive over the words."""
        words = self._matrix.shape[1]
        rows = max(1, _SLICE_WORDS // words)
        buf = np.empty((min(rows, self.m), words), dtype=np.uint64)
        acc = np.empty(self.m, dtype=np.uint64)
        out = np.empty((len(blocks), (self.m + 7) // 8), dtype=np.uint8)
        for i, xw in enumerate(_integer_words(blocks, self.n)):
            for r in range(0, self.m, rows):
                part = self._matrix[r : r + rows]
                tmp = buf[: len(part)]
                np.bitwise_and(part, xw, out=tmp)
                np.bitwise_xor.reduce(tmp, axis=1, out=acc[r : r + len(part)])
            out[i] = np.packbits(np.bitwise_count(acc) & np.uint8(1))
        return out

    def _byte_columns(self) -> np.ndarray:
        """(8, ceil(n/8), ceil(m/64)) uint64: entry [j, p] is the m-bit column
        of the input bit with value 1 << j in block byte p.  Output bit r
        sits at byte r // 8, bit 7 - r % 8 of the little-endian words, so
        the words' bytes are the MSB-first output."""
        nb = (self.n + 7) // 8
        pad = 8 * nb - self.n
        cols = np.zeros((8, nb, 8 * ((self.m + 63) // 64)), dtype=np.uint8)
        for r in range(0, self.m, 8):
            rows = self._matrix[r : r + 8]
            if pad:  # integer bit e of a block is bit e + pad of its row
                shifted = rows << np.uint64(pad)
                shifted[:, 1:] |= rows[:, :-1] >> np.uint64(64 - pad)
                rows = shifted
            # word p: byte i holds block byte p (integer byte nb-1-p) of row
            # r + 7 - i; an 8x8 bit transpose turns its bit 8i + j into 8j + i
            x = np.zeros((nb, 8), dtype=np.uint8)
            x[:, 8 - len(rows) :] = rows[::-1].view(np.uint8)[:, nb - 1 :: -1].T
            y = _transpose8(x.view(np.uint64)[:, 0])
            cols[:, :, r // 8] = y.view(np.uint8).reshape(nb, 8).T
        return cols.view(np.uint64)

    def _lookup(self, blocks: np.ndarray) -> np.ndarray:
        """Byte tables: for each chunk of g byte positions, entry v of byte
        p's table is the XOR of the columns of the bits set in v, built by
        doubling; each block gathers one entry per byte and XORs them."""
        cols = self._columns
        _, nb, w = cols.shape
        g = max(1, _TABLE_WORDS // (256 * w))  # byte positions per table
        step = max(1, _GATHER_WORDS // (g * w))  # blocks per gather
        table = np.empty(256 * g * w, dtype=np.uint64)
        offsets = np.arange(g, dtype=np.intp)[:, None]
        index = np.empty(g * step, dtype=np.intp)
        got = np.empty(g * step * w, dtype=np.uint64)
        part = np.empty((step, w), dtype=np.uint64)
        acc = np.zeros((len(blocks), w), dtype=np.uint64)
        for p in range(0, nb, g):
            c = cols[:, p : p + g]
            k = c.shape[1]
            tab = table[: 256 * k * w].reshape(256, k, w)  # [v, byte, word]
            tab[0] = 0
            for j in range(8):
                np.bitwise_xor(tab[: 1 << j], c[j], out=tab[1 << j : 2 << j])
            flat = tab.reshape(256 * k, w)
            for b in range(0, len(blocks), step):
                x = blocks[b : b + step, p : p + k]
                idx = index[: k * len(x)].reshape(k, len(x))
                np.multiply(x.T, np.intp(k), out=idx)
                idx += offsets[:k]
                val = got[: k * len(x) * w].reshape(k, len(x), w)
                np.take(flat, idx, axis=0, out=val, mode="clip")
                np.bitwise_xor.reduce(val, axis=0, out=part[: len(x)])
                acc[b : b + len(x)] ^= part[: len(x)]
        return acc.view(np.uint8)[:, : (self.m + 7) // 8]


def _transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose each uint64 as an 8x8 bit matrix: bit 8i + j to bit 8j + i."""
    u = np.uint64
    t = (x ^ (x >> u(7))) & u(0x00AA00AA00AA00AA)
    x = x ^ t ^ (t << u(7))
    t = (x ^ (x >> u(14))) & u(0x0000CCCC0000CCCC)
    x = x ^ t ^ (t << u(14))
    t = (x ^ (x >> u(28))) & u(0x00000000F0F0F0F0)
    return x ^ t ^ (t << u(28))


def _integer_words(blocks: np.ndarray, n: int) -> np.ndarray:
    """(B, ceil(n/64)) uint64 integer values of byte-row blocks (see apply)."""
    nb = blocks.shape[1]
    le = np.zeros((len(blocks), 8 * ((n + 63) // 64)), dtype=np.uint8)
    le[:, :nb] = blocks[:, ::-1]
    x = le.view(np.uint64)
    pad = 8 * nb - n
    if pad:
        y = x >> np.uint64(pad)
        y[:, :-1] |= x[:, 1:] << np.uint64(64 - pad)
        x = y
    return x


@dataclass
class StreamReport:
    blocks: int = 0
    seed_reused: bool = False
    # with a reused public seed the per-block errors only compose by the
    # union bound; callers must budget blocks * epsilon
    joint_error_factor: int = 0
    # seed bits after the last one used; a tail under one byte is padding
    # and counts 0; None when the seed stream cannot seek
    seed_bits_unread: Optional[int] = 0


class _BitReader:
    """MSB-first bit reader over a binary stream; `name` labels the stream
    in errors."""

    def __init__(self, stream: BinaryIO, name: str):
        self._stream = stream
        self._name = name
        self._buf = 0
        self._nbits = 0

    def read_bits(self, n: int) -> Optional[BitString]:
        """Next n bits; None at clean EOF.

        A zero sub-byte tail counts as byte padding; any other short tail is
        a short final block and raises.
        """
        while self._nbits < n:
            chunk = self._stream.read((n - self._nbits + 7) // 8)
            if not chunk:
                if self._nbits == 0 or (self._buf == 0 and self._nbits < 8):
                    return None
                raise ParameterError(f"short final block in {self._name} stream")
            self._buf = (self._buf << (8 * len(chunk))) | int.from_bytes(chunk, "big")
            self._nbits += 8 * len(chunk)
        self._nbits -= n
        v = self._buf >> self._nbits
        self._buf &= (1 << self._nbits) - 1
        return BitString(n, v)

    def unread_bits(self) -> Optional[int]:
        """Bits not yet returned, from the stream's size and position; the
        rest of the stream is not read.  None when it cannot seek."""
        if not self._stream.seekable():
            return None
        pos = self._stream.tell()
        size = self._stream.seek(0, io.SEEK_END)
        self._stream.seek(pos)
        return self._nbits + 8 * (size - pos)


# bytes of batch buffers: 128 blocks at n = 2^16
_BATCH_BYTES = 1 << 20


def _batch_blocks(n: int, m: int) -> int:
    """Blocks per batch.  A block takes ceil(n/8) bytes of input row, up to
    8*ceil(m/64) bytes of output words and, for the writer, m bytes of
    unpacked output bits.  When 8 does not divide n the batch is a multiple
    of 8 blocks, so that every batch starts on a byte boundary."""
    b = max(1, _BATCH_BYTES // max((n + 7) // 8, m, 8))
    return b if n % 8 == 0 else max(8, b - b % 8)


class _BlockReader:
    """Reads n-bit blocks, packed MSB-first in the stream, in batches of at
    most `blocks` rows of ceil(n/8) bytes, each block MSB-first and
    zero-padded at the end (the layout :meth:`CompiledMasks.apply` takes)."""

    def __init__(self, stream: BinaryIO, n: int, blocks: int):
        self._stream = stream
        self._n = n
        self._rows = np.zeros((blocks, (n + 7) // 8), dtype=np.uint8)
        # with 8 | n the stream's bytes are the rows; otherwise whole batches
        # of bits are read, then realigned
        self._raw = self._rows.reshape(-1) if n % 8 == 0 else np.empty(blocks * n // 8, np.uint8)
        self._error = None

    def read(self) -> np.ndarray:
        """Next batch as a (k, ceil(n/8)) view, valid until the next read;
        k = 0 at a clean end.

        A zero sub-byte tail after the last block counts as byte padding;
        any other short tail is a short final block, raised after the
        blocks before it have been returned.
        """
        if self._error is not None:
            raise self._error
        view, got = memoryview(self._raw), 0
        while got < len(view):
            k = self._stream.readinto(view[got:])
            if not k:
                break
            got += k
        n = self._n
        k, tail = divmod(8 * got, n)
        if tail >= 8 or (tail and self._raw[got - 1] & ((1 << tail) - 1)):
            self._error = ParameterError("short final block in input stream")
            if k == 0:
                raise self._error
        if n % 8:
            self._realign(k)
        return self._rows[:k]

    def _realign(self, k: int):
        """Unpack the k packed blocks into their rows, a byte-aligned group
        of at most 1 MiB of unpacked bits at a time."""
        n = self._n
        step = 8 * max(1, (1 << 17) // n)
        for b in range(0, k, step):
            cnt = min(step, k - b)
            lo = b * n // 8
            bits = np.unpackbits(self._raw[lo : lo + (cnt * n + 7) // 8], count=cnt * n)
            self._rows[b : b + cnt] = np.packbits(bits.reshape(cnt, n), axis=1)


class _BitWriter:
    """Packs m-bit outputs MSB-first; the final partial byte is zero-padded
    on flush."""

    def __init__(self, stream: BinaryIO, m: int):
        self._stream = stream
        self._m = m
        self._carry = np.zeros(0, dtype=np.uint8)  # unwritten bits, < 8

    def write(self, rows: np.ndarray):
        """Write the outputs in ``rows``, (B, ceil(m/8)) uint8 as apply returns."""
        if self._m % 8 == 0:
            self._stream.write(rows.tobytes())
            return
        bits = np.concatenate(
            [self._carry, np.unpackbits(rows, axis=1, count=self._m).reshape(-1)]
        )
        whole = len(bits) - len(bits) % 8
        self._stream.write(np.packbits(bits[:whole]).tobytes())
        self._carry = bits[whole:]

    def flush(self):
        if len(self._carry):
            self._stream.write(np.packbits(self._carry).tobytes())
            self._carry = self._carry[:0]


def _next_masks(inst: TrevisanInstance, seeds: _BitReader) -> CompiledMasks:
    y = seeds.read_bits(inst.d)
    if y is None:
        raise ParameterError("seed source exhausted")
    return seed_masks(inst, y)


def extract_stream(
    inst: TrevisanInstance,
    source: BinaryIO,
    seed_source: BinaryIO,
    sink: BinaryIO,
    reuse_seed: bool = False,
) -> StreamReport:
    """Extract every n-bit block of `source`, writing m-bit outputs.

    Blocks are read in batches of bounded size and run on compiled parity
    masks.  With ``reuse_seed`` a single d-bit seed is read and compiled
    once and applied to every batch (as byte tables once a batch is large
    enough); the report carries the union-bound error factor.  Otherwise
    each block is compiled with d fresh seed bits, read only when the block
    has been read, so a clean end of input consumes no further seed.  A
    short final source block is an error; nothing is implicitly padded.
    Seed bits left after the last block are reported, not rejected.
    """
    seeds = _BitReader(seed_source, "seed")
    writer = _BitWriter(sink, inst.m)
    report = StreamReport(seed_reused=reuse_seed)
    masks = _next_masks(inst, seeds) if reuse_seed else None
    reader = _BlockReader(source, inst.n, _batch_blocks(inst.n, inst.m))
    while len(batch := reader.read()):
        if reuse_seed:
            writer.write(masks.apply(batch))
        else:
            for i in range(len(batch)):
                writer.write(_next_masks(inst, seeds).apply(batch[i : i + 1]))
        report.blocks += len(batch)
    writer.flush()
    report.joint_error_factor = report.blocks if reuse_seed else 1
    unread = seeds.unread_bits()
    report.seed_bits_unread = unread if unread is None or unread >= 8 else 0
    return report


def extract_bytes(
    inst: TrevisanInstance, data: bytes, seed: bytes, reuse_seed: bool = False
) -> tuple:
    """Convenience wrapper over extract_stream for in-memory buffers."""
    out = io.BytesIO()
    report = extract_stream(
        inst, io.BytesIO(data), io.BytesIO(seed), out, reuse_seed=reuse_seed
    )
    return out.getvalue(), report
