"""Trevisan's composition: one code-extractor bit per weak-design set.

Output bit i (0-based) applies the one-bit extractor to the seed bits at the
positions of design set S_{i+1} (1-based in the usual presentation), taken
in ascending index order; if the design's set size exceeds the code's seed
length t, only the first t of those bits are consumed.

For a fixed seed the whole map x -> Ext(x, y) is GF(2)-linear: output bit
i is sum_j <c_j, (M_a^T)^j u> over the message symbols c_j of x, at the
seed pair (a, u) of S_i.  Streaming reads blocks in bounded batches and
runs them through :func:`seed_masks` and :class:`CompiledMasks`, with one
kernel per seed mode.  Fresh seeds keep only the (a, u) pair of every
(block, output) lane and evaluate Ext in the step loop, all lanes of a
batch stepped together on per-lane nibble tables of M_a^T, in chunks of
bounded state; no mask is built.  A reused seed is compiled once into byte
columns, and every batch runs on byte tables built from them, a chunk of
byte positions at a time, on up to one thread per CPU (at most 2), each
thread claiming the next chunk when it is done with one and summing on its
own scratch.  The compiled seed keeps each worker's scratch from batch to
batch and lends it to one call at a time.  The bit-serial :func:`extract`
is the reference oracle they are tested against.
"""

from __future__ import annotations

import io
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Optional

import numpy as np

from .bitfield import BitString
from .code_extractor import (
    _LANE_BYTES,
    CodeSpec,
    _lane_words,
    _step_slices,
    code_columns,
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
        index = self.design.sets[:, : self.code.t]
        at, shift = index >> 3, (7 - (index & 7)).astype(np.uint8)
        at.flags.writeable = shift.flags.writeable = False
        return at, shift


def _bit_seed(inst: TrevisanInstance, y: BitString, i: int) -> BitString:
    # row i ascends, so its first t indices are the first t bits of y_{S_i}
    return y.substring(inst.design.sets[i, : inst.code.t])


def extract(inst: TrevisanInstance, x: BitString, y: BitString) -> BitString:
    """m output bits, bit i from the one-bit extractor on y_{S_{i+1}}.

    The bit-serial reference oracle: the analysis harness and the tests use
    it; streaming runs on compiled seeds (:func:`seed_masks`).  x is cut
    into message symbols once, and each bit is one :func:`codeword_bit` on
    the seed bits :func:`_bit_seed` takes, read from rows of Python ints,
    which the bit loop shifts faster than numpy scalars.
    """
    if x.length != inst.n:
        raise ParameterError(f"input length {x.length} != n={inst.n}")
    if y.length != inst.d:
        raise ParameterError(f"seed length {y.length} != d={inst.d}")
    symbols = message_symbols(inst.code, x)
    v = 0
    for row in inst.design.sets[:, : inst.code.t].tolist():
        v = (v << 1) | codeword_bit(inst.code, symbols, y.substring(row))
    return BitString(inst.m, v)


def seed_masks(inst: TrevisanInstance, seeds) -> CompiledMasks:
    """Compile seeds for :meth:`CompiledMasks.apply`: output bit i of a
    block x is <p_x(a), u> at that output's seed pair (a, u).

    ``seeds`` is one d-bit BitString, a seed that every block shares,
    compiled straight into byte columns (:func:`code_columns`); or a
    (g, ceil(d/8)) uint8 array of seed rows as the record reader returns
    them, of which only the (a, u) pair of every (seed, output) lane is
    kept, to be evaluated in the step loop: no mask is built.  g rows
    serve a batch of exactly g blocks, block j on row j.
    """
    if isinstance(seeds, BitString):
        if seeds.length != inst.d:
            raise ParameterError(f"seed length {seeds.length} != d={inst.d}")
        row = np.frombuffer(seeds.to_bytes(), dtype=np.uint8)[None]
        return CompiledMasks(inst.n, inst.m, columns=code_columns(inst.code, *_pairs(inst, row)))
    if seeds.ndim != 2 or seeds.shape[1] != (inst.d + 7) // 8:
        raise ParameterError(f"seed rows {seeds.shape} are not ceil(d/8) bytes wide")
    a, u = _pairs(inst, seeds)
    pairs = a.reshape(-1, inst.m), u.reshape(-1, inst.m)
    return CompiledMasks(inst.n, inst.m, code=inst.code, pairs=pairs)


# bytes of gathered seed bits, and of their weighted sums, per step of _pairs
_PAIR_BYTES = 1 << 18


def _pairs(inst: TrevisanInstance, seeds: np.ndarray) -> tuple:
    """The (a, u) pair of every output of every seed row, output-major
    within each seed, straight from the packed rows: row (j, i) holds the
    first t = 2s bits of seed j at S_i, ascending (what _bit_seed gives);
    a is the first s, u the second s, each big-endian.  Rows are gathered
    a few at a time, within _PAIR_BYTES of scratch."""
    s, m = inst.code.s, inst.m
    at, shift = inst._seed_gather
    weights = (np.uint64(1) << np.arange(s, dtype=np.uint64))[::-1]
    a = np.empty(len(seeds) * m, dtype=np.uint64)
    u = np.empty(len(seeds) * m, dtype=np.uint64)
    step = max(1, _PAIR_BYTES // (8 * m * inst.code.t))
    for r in range(0, len(seeds), step):
        picked = (seeds[r : r + step, at] >> shift) & np.uint8(1)
        lanes = slice(r * m, r * m + picked.shape[0] * m)
        a[lanes] = (picked[..., :s] * weights).sum(axis=-1, dtype=np.uint64).reshape(-1)
        u[lanes] = (picked[..., s:] * weights).sum(axis=-1, dtype=np.uint64).reshape(-1)
    return a, u


# symbols per slice of the fresh-seed step loop
_FRESH_WIDTH = 16
# byte tables, per worker: at most 256 KiB of 256-entry tables per chunk of
# byte positions, and at most 512 KiB of entries gathered from one chunk (a
# whole batch's at n = 2^16, m = 256, 32 byte positions; a batch of more than
# 512 blocks takes fewer byte positions per chunk).  The chunks are small so
# that a worker's scratch is; the workers claim them one at a time, so a
# worker held up on a busy CPU leaves its share to the other
_TABLE_WORDS = 1 << 15
_TAKE_WORDS = 1 << 16
# most threads the byte-table kernel runs on, each with its own ~0.9 MiB of
# scratch at n = 2^16, m = 256: two, the count measured (one per CPU of a
# 2-vCPU host)
_MAX_WORKERS = 2


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _fresh_lanes(s: int, m: int) -> int:
    """Most lanes per chunk of :meth:`CompiledMasks.apply` on fresh seeds,
    their state within _LANE_BYTES: per lane, its step state, its sums and
    terms (a slice each) and 6 words of indices and pair; per block, shared
    by its m lanes, one slice of its symbols as :func:`_symbols` cuts them
    (2s + 80 bytes of scratch per symbol).  A chunk starting or ending
    inside a block holds up to 2 blocks more than lanes / m."""
    per_lane = 8 * (_lane_words(s, _FRESH_WIDTH) + 2 * _FRESH_WIDTH + 6)
    per_block = (2 * s + 80) * _FRESH_WIDTH + 16
    return max(1, (_LANE_BYTES - 2 * per_block) // (per_lane + -(-per_block // m)))


def _symbols(code: CodeSpec, blocks: np.ndarray, j: int, count: int) -> np.ndarray:
    """(len(blocks), count) uint64: message symbols j, j+1, ... of each block
    row as :func:`~trevext.code_extractor.message_symbols` cuts them (input
    bit j*s is bit s-1 of symbol j; zero past n), by way of their bits."""
    s, n, k = code.s, code.n, len(blocks)
    lo, hi = j * s, min((j + count) * s, n)
    bits = np.zeros((k, count * s), dtype=np.uint8)
    got = np.unpackbits(blocks[:, lo >> 3 : (hi + 7) >> 3], axis=1)
    bits[:, : hi - lo] = got[:, lo & 7 : (lo & 7) + hi - lo]
    wide = np.zeros((k, count, 64), dtype=np.uint8)
    wide[:, :, 64 - s :] = bits.reshape(k, count, s)
    return np.packbits(wide, axis=2).view(">u8")[:, :, 0].astype(np.uint64)


class CompiledMasks:
    """A compiled seed: output bit i of a block x is <p_x(a_i), u_i>.

    Held one of two ways, each with its own kernel:

    * ``pairs``, fresh seeds: (a, u), each a (g, m) uint64 array, the seed
      pair of every output of g seeds, with the ``code`` they run on, one
      seed per block of a batch of g blocks.  The kernel evaluates Ext in
      the step loop of :func:`~trevext.code_extractor._step_slices`: each
      (block, output) lane accumulates acc ^= c_j & (M_a^T)^j u over the
      block's message symbols c_j, and the parity of acc is the output bit,
      since parity is linear.  Lanes run in chunks of at most _LANE_BYTES
      of state, so a block's outputs may span chunks and memory stays
      bounded at any m.
    * ``columns``, a reused seed: (8, ceil(n/8), ceil(m/64)) uint64 byte
      columns as :func:`~trevext.code_extractor.code_columns` packs them.
      The kernel is byte-indexed XOR tables (the Method of Four Russians),
      built for each batch a chunk of byte positions at a time; each chunk's
      entries for the whole batch are gathered by one ``take``.  Up to one
      worker thread per CPU, at most _MAX_WORKERS, claim the chunks one at
      a time, in order, until none is left, each with its own sums and its
      own scratch of tables, input bytes, index and gather (~0.9 MiB at
      n = 2^16, m = 256); the output is the XOR of the workers' sums.  The
      seed keeps each worker's scratch from batch to batch, a shorter
      batch on prefix views of it, and lends it to one apply at a time: an
      apply made while another holds it makes its own.
    """

    def __init__(self, n: int, m: int, columns=None, code=None, pairs=None):
        self.n = n
        self.m = m
        self._columns = columns
        self._code = code
        self._pairs = pairs
        self._lock = threading.Lock()
        self._scratch = []  # byte-table workers' scratch, while no call holds it

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Outputs of a batch of blocks.

        ``blocks`` is a (B, ceil(n/8)) uint8 array, one block per row,
        MSB-first and zero-padded at the end; the result is (B, ceil(m/8))
        uint8 in the same layout, output bit 0 first.  With g fresh seeds
        B must be g, block j running on seed j.
        """
        return self._evaluate(blocks) if self._columns is None else self._lookup(blocks)

    def _evaluate(self, blocks: np.ndarray) -> np.ndarray:
        """Ext in the step loop, a chunk of (block, output) lanes at a time,
        lane b*m + i being output i of block b."""
        sets, m = self._pairs[0].shape
        if len(blocks) != sets:
            raise ParameterError(f"{len(blocks)} blocks for {sets} seeds")
        total = len(blocks) * m
        # chunks of equal size: a short last chunk would cost a full step loop
        chunks = max(1, -(-total // _fresh_lanes(self._code.s, m)))
        lanes = max(1, -(-total // chunks))
        bits = np.empty(total, dtype=np.uint8)
        for lo in range(0, total, lanes):
            hi = min(lo + lanes, total)
            bits[lo:hi] = self._evaluate_lanes(blocks, lo, hi)
        return np.packbits(bits.reshape(len(blocks), m), axis=1)

    def _evaluate_lanes(self, blocks: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Output bits of lanes lo..hi-1: their pairs run through
        _step_slices, and each slice of steps is ANDed with the symbols of
        each lane's block and XORed into that lane's sums, one per symbol of
        the slice; the parity of a lane's sums is its bit.  Everything the
        chunk allocates is freed on return, before the next chunk's."""
        code, m = self._code, self.m
        a, u = self._pairs
        lane = np.arange(lo, hi)
        block = lane // m
        owner = block - block[0]
        mine = blocks[block[0] : block[-1] + 1]
        width = min(_FRESH_WIDTH, code.ell)
        acc = np.zeros((width, hi - lo), dtype=np.uint64)
        term = np.empty_like(acc)
        for j, steps in _step_slices(code, a.reshape(-1)[lane], u.reshape(-1)[lane], width):
            c = len(steps)
            _symbols(code, mine, j, c).T.take(owner, axis=1, out=term[:c], mode="clip")
            term[:c] &= steps
            acc[:c] ^= term[:c]
        return np.bitwise_count(np.bitwise_xor.reduce(acc, axis=0)) & np.uint8(1)

    def _lookup(self, blocks: np.ndarray) -> np.ndarray:
        """Byte tables over chunks of byte positions that the workers claim
        from one shared source of chunk starts: worker 0 is the calling
        thread, each other one a thread of its own, each on its own scratch;
        the output is the XOR of the workers' sums.  The seed lends its
        scratch to one call at a time: a call made while another holds it
        makes its own, and the seed keeps one of them when both have
        returned."""
        _, nb, w = self._columns.shape
        # byte positions per chunk: its tables and its gather both bounded
        g = max(1, min(_TABLE_WORDS // 256, _TAKE_WORDS // max(1, len(blocks))) // w)
        workers = min(_cpus(), -(-nb // g), _MAX_WORKERS)
        starts = _Claims(range(0, nb, g))
        with self._lock:
            scratch, self._scratch = self._scratch, []
        scratch += [_TableScratch() for _ in range(workers - len(scratch))]
        sums = [None] * workers
        errors = []

        def run(i):
            try:
                sums[i] = self._lookup_range(scratch[i], blocks, starts, g)
            except Exception as exc:
                errors.append(exc)

        threads = []
        try:
            for i in range(1, workers):
                thread = threading.Thread(target=run, args=(i,))
                thread.start()
                threads.append(thread)
            acc = self._lookup_range(scratch[0], blocks, starts, g)
        finally:
            for thread in threads:
                thread.join()
            with self._lock:
                if not self._scratch:
                    self._scratch = scratch
        if errors:
            raise errors[0]
        for part in sums[1:]:
            acc ^= part
        return acc.view(np.uint8)[:, : (self.m + 7) // 8]

    def _lookup_range(
        self, scratch: _TableScratch, blocks: np.ndarray, starts, g: int
    ) -> np.ndarray:
        """(B, ceil(m/64)) uint64: the XOR of each block's table entries over
        the chunks of g byte positions whose starts this thread takes from
        ``starts`` until none is left (threads sharing it take each chunk
        once).  For each chunk, entry v of byte p's table is the XOR of the
        columns of the bits set in v, built by doubling; the chunk's bytes
        of every block are copied into one contiguous buffer, indexed once,
        gathered by one take and XOR-reduced, with the sums so far, into the
        sums.  The buffers, their views and the bound take are the
        scratch's and the ufuncs are bound once per call, so a chunk makes
        only its numpy calls and one claim."""
        cols = self._columns
        count, nb = len(blocks), cols.shape[1]
        scratch.fit(g, count, cols.shape[2])
        acc = np.zeros((count, cols.shape[2]), dtype=np.uint64)
        xor, reduce, copyto, multiply, add = (
            np.bitwise_xor, np.bitwise_xor.reduce, np.copyto, np.multiply, np.add
        )
        take, scale = scratch.take, scratch.scale
        views = scratch.whole
        for p in starts:
            end = p + g
            if end > nb:  # the partial chunk starts last: no chunk follows it
                end, views = nb, scratch.part(nb - p)
            halves, x, xt, idx, offsets, val, first = views
            for (done, todo), c in zip(halves, cols[:, p:end]):
                xor(done, c, todo)
            copyto(x, blocks[:, p:end])
            multiply(xt, scale, idx)
            add(idx, offsets, idx)
            take(idx, 0, val, "clip")
            xor(first, acc, first)
            reduce(val, 0, None, acc)
        return acc


class _Claims:
    """An iterator over ``starts`` that threads share: each next() hands one
    item to one thread, under a lock."""

    def __init__(self, starts):
        self._starts = iter(starts)
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._starts)


class _TableScratch:
    """One byte-table worker's scratch, which a compiled seed keeps from
    batch to batch: for chunks of g byte positions of `count` blocks with
    w-word sums, the tables [v, byte, word] (row 0 zeroed once: the
    doubling never writes it), the chunk's input bytes, its gather index
    and its gathered entries, with the views of them that a chunk of
    :meth:`CompiledMasks._lookup_range` runs on.  A shorter batch or chunk
    takes prefix views of the same buffers, which grow only when a call
    needs more than any call before."""

    def __init__(self):
        self._shape = None
        self._table = np.empty(0, dtype=np.uint64)
        self._data = np.empty(0, dtype=np.uint8)
        self._index = np.empty(0, dtype=np.intp)
        self._got = np.empty(0, dtype=np.uint64)

    def fit(self, g: int, count: int, w: int):
        """Fit the buffers and views to chunks of g byte positions of
        `count` blocks with w-word sums; nothing changes when they fit."""
        if self._shape == (g, count, w):
            return
        self._shape = None
        self._table = _at_least(self._table, 256 * g * w)
        self._data = _at_least(self._data, count * g)
        self._index = _at_least(self._index, g * count)
        self._got = _at_least(self._got, g * count * w)
        tab = self._table[: 256 * g * w].reshape(256, g, w)  # [v, byte, word]
        tab[0] = 0
        self._tab = tab
        self.take = tab.reshape(256 * g, w).take
        self.scale = np.intp(g)
        self._offsets = np.arange(g, dtype=np.intp)[:, None]
        self._shape = (g, count, w)
        self.whole = self.part(g)

    def part(self, k: int) -> tuple:
        """Views for a chunk of the first k <= g byte positions: the table
        halves of each doubling, the input bytes and their transpose, the
        index, the byte offsets, the gathered entries and their first row.
        The tables keep the layout of g byte positions, so entry v of byte
        b is row v*g + b whatever k is."""
        g, count, w = self._shape
        tab = self._tab[:, :k]
        x = self._data[: count * k].reshape(count, k)
        val = self._got[: k * count * w].reshape(k, count, w)
        return (
            [(tab[: 1 << j], tab[1 << j : 2 << j]) for j in range(8)],
            x,
            x.T,
            self._index[: k * count].reshape(k, count),
            self._offsets[:k],
            val,
            val[0],
        )


def _at_least(buffer: np.ndarray, size: int) -> np.ndarray:
    """`buffer`, or a larger one of its dtype when it holds fewer than
    `size` items."""
    return buffer if len(buffer) >= size else np.empty(size, dtype=buffer.dtype)


@dataclass
class StreamReport:
    """What one stream extracted.  Its B blocks budget the joint error as
    B * eps in both seed modes, by the union bound, given that each block
    has min-entropy >= k conditioned on the other blocks and the side
    information; fresh seeds do not bring the factor down to 1."""

    blocks: int = 0
    seed_reused: bool = False
    # seed bits after the last one used; a tail under one byte is padding
    # and counts 0; None when the seed stream cannot seek
    seed_bits_unread: Optional[int] = 0


# bytes of batch buffers with fresh seeds: 128 blocks at n = 2^16
_BATCH_BYTES = 1 << 20
# ... and with a reused seed: 512 blocks at n = 2^16.  Each batch builds the
# byte tables afresh, 256 entries per input byte, 32 times the mask words;
# at n = 2^16, m = 256 that is ~4 ms of a ~19 ms batch on one thread (the
# rest is index, gather and XOR), so larger batches spread it over more
# blocks.  A batch's table chunks are claimed by up to one thread per CPU,
# at most _MAX_WORKERS
_REUSED_BATCH_BYTES = 1 << 22


def _batch_blocks(n: int, m: int, d: int) -> int:
    """Blocks per batch.  A block takes ceil(n/8) bytes of input row, with
    fresh seeds ceil(d/8) bytes of seed row (d = 0 for a reused seed) and
    16m bytes of (a, u) pairs, up to 8*ceil(m/64) bytes of output words
    and m bytes of unpacked output bits; each of these buffers stays within
    _BATCH_BYTES, or _REUSED_BATCH_BYTES for a reused seed.  With a reused
    seed each byte-table worker also keeps 8*ceil(m/64) bytes of sums per
    block and, when a chunk holds one byte position, as many of gathered
    entries, 8 of index and 1 of input byte; a block counts at least 32
    bytes, so these stay within the budget per worker.  When 8 does not
    divide n or d the batch is a multiple of 8 blocks, so that only a
    stream's last read can end inside a byte."""
    budget = _BATCH_BYTES if d else _REUSED_BATCH_BYTES
    pairs = 16 * m if d else m
    b = max(1, budget // max((n + 7) // 8, (d + 7) // 8, pairs, 8 if d else 32))
    return b if n % 8 == 0 and d % 8 == 0 else max(8, b - b % 8)


class _BlockReader:
    """Reads records of n bits packed MSB-first in a stream, input blocks or
    seeds, in batches of at most `blocks` rows of ceil(n/8) bytes, each
    MSB-first and zero-padded at the end (the layout of
    :meth:`CompiledMasks.apply`); `name` labels the stream in errors.

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
    compiled seeds (:func:`seed_masks`), one kernel per seed mode.  With
    ``reuse_seed`` a single d-bit seed is read up front, compiled once into
    byte columns when the input's first byte has been read, before any
    batch buffer is allocated (so an empty input compiles nothing), and
    applied to every batch as byte tables.  Otherwise each block runs on d
    fresh seed bits, a batch's seeds read only when the batch has been
    read, so a clean end of input consumes no further seed; each batch is
    one :func:`seed_masks` call, which keeps the seed pairs, and one apply,
    which evaluates them.  A short final source block is an error; nothing
    is implicitly padded.  Seed bits left after the last block are
    reported, not rejected.  In either mode the report's block count B
    budgets the joint error as B * eps (:class:`StreamReport`).
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
    reader = _BlockReader(source, inst.n, blocks, "input", head)
    while len(batch := reader.read(blocks)):
        if reuse_seed:
            writer.write(masks.apply(batch))
        else:
            writer.write(seed_masks(inst, _next_seeds(seeds, len(batch))).apply(batch))
        report.blocks += len(batch)
    writer.flush()
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
