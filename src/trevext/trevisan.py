"""Trevisan's composition: one code-extractor bit per weak-design set.

Output bit i (0-based) applies the one-bit extractor to the seed bits at the
positions of design set S_{i+1} (1-based in the usual presentation), taken
in ascending index order; if the design's set size exceeds the code's seed
length t, only the first t of those bits are consumed.

For a fixed seed the whole map x -> Ext(x, y) is GF(2)-linear, so a seed is
compiled into m parity masks over the input bits (:func:`seed_masks`).
Streaming reads blocks in bounded batches and runs every block on those
masks (:class:`CompiledMasks`), with one kernel per seed mode: fresh seeds
are compiled a group of blocks at a time, as many as fit in
``_GROUP_BYTES`` of mask rows, and each group is folded together, block j
against its own rows; a reused seed is compiled once into byte columns,
and every batch runs on byte tables built from them.  The bit-serial
:func:`extract` is the reference oracle they are tested against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Optional

import numpy as np

from .bitfield import BitString
from .code_extractor import (
    CodeSpec,
    code_columns,
    code_masks,
    codeword_bit,
    message_symbols,
)
from .errors import ParameterError
from .weak_design import WeakDesign


@dataclass(frozen=True)
class TrevisanInstance:
    design: WeakDesign
    code: CodeSpec

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

    @cached_property
    def _seed_gather(self) -> tuple:
        """(byte, shift), (m, t) each: the seed bits output bit i reads, the
        first t of S_i in ascending order (what _bit_seed takes), as bit
        `shift` of byte `byte` of a packed seed row (MSB-first, as the
        record reader packs); built once per instance."""
        index = np.sort(np.array(self.design.sets, dtype=np.intp), axis=1)[:, : self.code.t]
        at, shift = index >> 3, (7 - (index & 7)).astype(np.uint8)
        at.flags.writeable = shift.flags.writeable = False
        return at, shift


def _bit_seed(inst: TrevisanInstance, y: BitString, i: int) -> BitString:
    return y.substring(inst.design.sets[i]).prefix(inst.code.t)


def extract(inst: TrevisanInstance, x: BitString, y: BitString) -> BitString:
    """m output bits, bit i from the one-bit extractor on y_{S_{i+1}}.

    The bit-serial reference oracle: the analysis harness and the tests use
    it; streaming runs on compiled masks (:func:`seed_masks`).  x is cut
    into message symbols once, and each bit is one :func:`codeword_bit`.
    """
    if x.length != inst.n:
        raise ParameterError(f"input length {x.length} != n={inst.n}")
    if y.length != inst.d:
        raise ParameterError(f"seed length {y.length} != d={inst.d}")
    symbols = message_symbols(inst.code, x)
    v = 0
    for i in range(inst.m):
        v = (v << 1) | codeword_bit(inst.code, symbols, _bit_seed(inst, y, i))
    return BitString(inst.m, v)


def seed_masks(inst: TrevisanInstance, seeds) -> CompiledMasks:
    """Compile seeds into parity masks: output bit i = parity(x & mask_i),
    the masks of :func:`~trevext.code_extractor.code_masks` at each
    output's (a, u).

    ``seeds`` is one d-bit BitString, a seed that every block shares,
    compiled straight into byte columns (:func:`code_columns`); or a
    (g, ceil(d/8)) uint8 array of seed rows as the record reader returns
    them, compiled into g row sets, one per block of a batch of exactly g
    blocks (one set serves any batch).  All pairs compile in one call.
    """
    if isinstance(seeds, BitString):
        if seeds.length != inst.d:
            raise ParameterError(f"seed length {seeds.length} != d={inst.d}")
        row = np.frombuffer(seeds.to_bytes(), dtype=np.uint8)[None]
        return CompiledMasks(inst.n, inst.m, columns=code_columns(inst.code, *_pairs(inst, row)))
    if seeds.ndim != 2 or seeds.shape[1] != (inst.d + 7) // 8:
        raise ParameterError(f"seed rows {seeds.shape} are not ceil(d/8) bytes wide")
    words = (inst.n + 63) // 64
    matrix = code_masks(inst.code, *_pairs(inst, seeds))
    return CompiledMasks(inst.n, inst.m, rows=matrix.reshape(len(seeds), inst.m, words))


def _pairs(inst: TrevisanInstance, seeds: np.ndarray) -> tuple:
    """The (a, u) pair of every output of every seed row, output-major
    within each seed, straight from the packed rows: row (j, i) holds the
    first t = 2s bits of seed j at S_i, ascending (what _bit_seed gives);
    a is the first s, u the second s, each big-endian."""
    s = inst.code.s
    at, shift = inst._seed_gather
    picked = (seeds[:, at] >> shift) & np.uint8(1)
    weights = (np.uint64(1) << np.arange(s, dtype=np.uint64))[::-1]
    a = (picked[..., :s] * weights).sum(axis=-1, dtype=np.uint64).reshape(-1)
    u = (picked[..., s:] * weights).sum(axis=-1, dtype=np.uint64).reshape(-1)
    return a, u


# words per slice of the row fold: 512 KiB of rows ANDed with every block of
# the batch (at least one row, when the blocks alone are more) into a
# scratch buffer that stays in cache while it is folded
_SLICE_WORDS = 1 << 16
# bytes of the mask rows of one group of fresh seeds, compiled by a single
# code_masks call and, with g > 1 blocks, folded in one slice: 8 blocks at
# n = 8192, m = 32; one block at n = 2^16, m = 256, whose masks alone take
# 2 MiB
_GROUP_BYTES = 1 << 18
# byte tables: at most 512 KiB of 256-entry tables per chunk of byte positions
_TABLE_WORDS = 1 << 16
# gathered table words per step of the byte-table kernel: 256 KiB
_GATHER_WORDS = 1 << 15


class CompiledMasks:
    """m parity masks over n-bit blocks: output bit i = parity(x & mask_i).

    Packed one of two ways, each with its own kernel:

    * ``rows``, fresh seeds: a (g, m, ceil(n/64)) uint64 array of g mask
      sets (a 2-D matrix is one set) whose row bytes are laid out like the
      blocks :meth:`apply` takes: input bit i at byte i // 8, bit 7 - i % 8,
      zero past n.  g > 1 sets are one per block of a batch of g blocks; one
      set serves any batch.  The kernel is a row fold.
    * ``columns``, a reused seed: (8, ceil(n/8), ceil(m/64)) uint64 byte
      columns as :func:`~trevext.code_extractor.code_columns` packs them.
      The kernel is byte-indexed XOR tables (the Method of Four Russians),
      built for each batch.
    """

    def __init__(self, n: int, m: int, rows=None, columns=None):
        self.n = n
        self.m = m
        self._rows = rows if rows is None or rows.ndim == 3 else rows[None]
        self._columns = columns

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Outputs of a batch of blocks.

        ``blocks`` is a (B, ceil(n/8)) uint8 array, one block per row,
        MSB-first and zero-padded at the end; the result is (B, ceil(m/8))
        uint8 in the same layout, output bit 0 first.  With g > 1 mask sets
        B must be g, block j running on set j.
        """
        return self._fold(blocks) if self._columns is None else self._lookup(blocks)

    def _fold(self, blocks: np.ndarray) -> np.ndarray:
        """Row fold of every block at once: each block's bytes, zero-padded
        to whole words, are ANDed with its set's rows, a cache-sized slice
        of rows at a time, and each row XOR-folded to one word;
        parity(popcount) of the fold is the row's parity, since parity is
        additive over the words."""
        sets, m, words = self._rows.shape
        if sets > 1 and len(blocks) != sets:
            raise ParameterError(f"{len(blocks)} blocks for {sets} mask sets")
        rows = max(1, _SLICE_WORDS // (words * max(1, len(blocks))))
        buf = np.empty((min(rows, m), len(blocks), words), dtype=np.uint64)
        acc = np.empty((m, len(blocks)), dtype=np.uint64)
        padded = np.zeros((len(blocks), 8 * words), dtype=np.uint8)
        padded[:, : blocks.shape[1]] = blocks
        xw = padded.view(np.uint64)
        for r in range(0, m, rows):
            part = self._rows[:, r : r + rows].transpose(1, 0, 2)
            tmp = buf[: len(part)]
            np.bitwise_and(part, xw, out=tmp)
            np.bitwise_xor.reduce(tmp, axis=2, out=acc[r : r + len(part)])
        return np.packbits(np.bitwise_count(acc.T) & np.uint8(1), axis=1)

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


# bytes of batch buffers with fresh seeds: 128 blocks at n = 2^16
_BATCH_BYTES = 1 << 20
# ... and with a reused seed: 512 blocks at n = 2^16.  Each batch builds the
# byte tables afresh, 256 entries per input byte, 32 times the mask words;
# at n = 2^16, m = 256 that is ~7 ms, about what 128 blocks take to gather,
# so larger batches spread it over more blocks
_REUSED_BATCH_BYTES = 1 << 22


def _batch_blocks(n: int, m: int, d: int) -> int:
    """Blocks per batch.  A block takes ceil(n/8) bytes of input row, with
    fresh seeds ceil(d/8) bytes of seed row (d = 0 for a reused seed), up
    to 8*ceil(m/64) bytes of output words and, for the writer, m bytes of
    unpacked output bits; each of these buffers stays within _BATCH_BYTES,
    or _REUSED_BATCH_BYTES for a reused seed.  When 8 does not divide n or
    d the batch is a multiple of 8 blocks, so that only a stream's last
    read can end inside a byte."""
    budget = _BATCH_BYTES if d else _REUSED_BATCH_BYTES
    b = max(1, budget // max((n + 7) // 8, (d + 7) // 8, m, 8))
    return b if n % 8 == 0 and d % 8 == 0 else max(8, b - b % 8)


class _BlockReader:
    """Reads records of n bits packed MSB-first in a stream, input blocks or
    seeds, in batches of at most `blocks` rows of ceil(n/8) bytes, each
    MSB-first and zero-padded at the end (the layout of the mask rows and
    of :meth:`CompiledMasks.apply`); `name` labels the stream in errors.

    A read takes only the bytes its records need.  Only a stream's last
    read may end inside a byte: the spare bits of that byte are counted as
    unread, never carried into a further read.  `head` holds bytes already
    taken from the stream; the first read starts with them.
    """

    def __init__(self, stream: BinaryIO, n: int, blocks: int, name: str, head: bytes = b""):
        self._stream = stream
        self._n = n
        self._name = name
        self._head = head
        self._rows = np.zeros((blocks, (n + 7) // 8), dtype=np.uint8)
        # the stream's bytes are read into the front of the rows' buffer:
        # with 8 | n they are the rows, otherwise packed bits, realigned in
        # place
        self._raw = self._rows.reshape(-1)
        self._spare = 0  # bits of the last read's bytes that no record holds
        self._error = None

    def read(self, count: int) -> np.ndarray:
        """Next `count` records (at most `blocks`) as a (k, ceil(n/8)) view,
        valid until the next read; k < count only at the end of the stream.

        At the end a zero sub-byte tail after the last record counts as byte
        padding; any other short tail is a short final block, raised after
        the records before it have been returned.
        """
        if self._error is not None:
            raise self._error
        n = self._n
        want = (count * n + 7) // 8
        view, got = memoryview(self._raw)[:want], len(self._head)
        view[:got] = self._head
        self._head = b""
        while got < want:
            k = self._stream.readinto(view[got:])
            if not k:
                break
            got += k
        k = min(count, 8 * got // n)
        tail = self._spare = 8 * got - k * n
        if got < want and (tail >= 8 or (tail and self._raw[got - 1] & ((1 << tail) - 1))):
            self._error = ParameterError(f"short final block in {self._name} stream")
            if k == 0:
                raise self._error
        if n % 8:
            self._realign(k)
        return self._rows[:k]

    def unread_bits(self) -> Optional[int]:
        """Bits not yet returned, from the stream's size and position; the
        rest of the stream is not read.  None when it cannot seek."""
        if not self._stream.seekable():
            return None
        pos = self._stream.tell()
        size = self._stream.seek(0, io.SEEK_END)
        self._stream.seek(pos)
        return self._spare + 8 * (size - pos)

    def _realign(self, k: int):
        """Unpack the k packed records at the front of the buffer into their
        rows, a byte-aligned group of about 512 KiB of unpacked bits, or of 8
        records, at a time (the unpacked bits and packbits' own copy of them
        are the scratch).  Groups go from the last to the first: each
        group's rows start at or after its own packed bits, so a write never
        reaches the packed bits of an earlier record."""
        n = self._n
        step = 8 * max(1, (1 << 16) // n)
        for b in reversed(range(0, k, step)):
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


def _group_blocks(n: int, m: int) -> int:
    """Fresh-seed blocks per mask compile: their masks fit in _GROUP_BYTES."""
    return max(1, _GROUP_BYTES // (8 * m * ((n + 63) // 64)))


def _next_seeds(seeds: _BlockReader, count: int) -> np.ndarray:
    """The next `count` seed rows; raises when fewer are left."""
    rows = seeds.read(count)
    if len(rows) < count:
        seeds.read(count)  # a short seed tail raises here
        raise ParameterError("seed source exhausted")
    return rows


def extract_stream(
    inst: TrevisanInstance,
    source: BinaryIO,
    seed_source: BinaryIO,
    sink: BinaryIO,
    reuse_seed: bool = False,
) -> StreamReport:
    """Extract every n-bit block of `source`, writing m-bit outputs.

    Blocks and seeds are read by one record reader in batches of bounded
    size; only a stream's last read may end inside a byte.  Blocks run on
    compiled parity masks.  With ``reuse_seed`` a single d-bit seed is read
    up front, compiled once into byte columns when the input's first byte
    has been read, before any batch buffer is allocated (so an empty input
    compiles nothing), and applied to every batch as byte tables; the
    report carries the union-bound error factor.
    Otherwise each block runs on d fresh seed bits, a batch's seeds read
    only when the batch has been read, so a clean end of input consumes no
    further seed, and compiled a group of blocks per :func:`seed_masks`
    call.  A short final source block is an error; nothing is implicitly
    padded.  Seed bits left after the last block are reported, not
    rejected.
    """
    blocks = _batch_blocks(inst.n, inst.m, 0 if reuse_seed else inst.d)
    seeds = _BlockReader(seed_source, inst.d, 1 if reuse_seed else blocks, "seed")
    writer = _BitWriter(sink, inst.m)
    report = StreamReport(seed_reused=reuse_seed)
    head = b""
    if reuse_seed:
        seed = BitString.from_bytes(_next_seeds(seeds, 1)[0].tobytes(), inst.d)
        # a whole byte: an input that has one holds a block or fails as short
        head = source.read(1)
        masks = seed_masks(inst, seed) if head else None
    group = _group_blocks(inst.n, inst.m)
    reader = _BlockReader(source, inst.n, blocks, "input", head)
    while len(batch := reader.read(blocks)):
        if reuse_seed:
            writer.write(masks.apply(batch))
        else:
            ys = _next_seeds(seeds, len(batch))
            for g in range(0, len(batch), group):
                writer.write(seed_masks(inst, ys[g : g + group]).apply(batch[g : g + group]))
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
