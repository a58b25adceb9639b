"""Trevisan's composition: one code-extractor bit per weak-design set.

Output bit i (0-based) applies the one-bit extractor to the seed bits at the
positions of design set S_{i+1} (1-based in the usual presentation), taken
in ascending index order; if the design's set size exceeds the code's seed
length t, only the first t of those bits are consumed.

For a fixed seed the whole map x -> Ext(x, y) is GF(2)-linear, so a seed is
compiled into m parity masks over the input bits (:func:`seed_masks`).
Streaming runs every block on those masks, whether the seed is reused or
fresh; the bit-serial :func:`extract` is the reference oracle they are
tested against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from .bitfield import BitString
from .code_extractor import CodeSpec, extract_bit
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
    """Compile a seed into m parity masks: output bit i = parity(x & mask_i).

    Uses the GF(2)-linearity of the code: <p_x(a), z> decomposes over the
    message symbols as sum_j <c_j, (M_a^T)^j z>, with M_a the multiply-by-a
    matrix on symbol bits.  All m output bits advance together, one symbol
    per step, on s-bit vectors held in uint64 words.  Mask bit p selects bit
    p of the input's integer value, so symbol j (big-endian, zero-padded at
    the high-index end) occupies bits [n - (j+1)*s, n - j*s).
    """
    if y.length != inst.d:
        raise ParameterError(f"seed length {y.length} != d={inst.d}")
    spec = inst.code
    s, ell, n, m = spec.s, spec.ell, spec.n, inst.m
    # seed bits of every output at once: row i holds the first t = 2s bits
    # of y at S_i, ascending (what _bit_seed gives); a is the first s, u the
    # second s, each read big-endian
    ybits = np.unpackbits(np.frombuffer(y.to_bytes(), dtype=np.uint8))
    picked = ybits[np.sort(np.array(inst.design.sets), axis=1)[:, : spec.t]]
    weights = np.uint64(1) << np.arange(s, dtype=np.uint64)
    a = (picked[:, :s] * weights[::-1]).sum(axis=1, dtype=np.uint64)
    u = (picked[:, s:] * weights[::-1]).sum(axis=1, dtype=np.uint64)
    # rows[i, b] = a_i * x^b in GF(2^s): bit b of M_a^T u_i is <rows[i, b], u_i>
    low = np.uint64(spec.field().modulus ^ (1 << s))  # x^s reduced
    rows = np.empty((m, s), dtype=np.uint64)
    for b in range(s):
        rows[:, b] = a
        a = (a << np.uint64(1)) ^ (((a >> np.uint64(s - 1)) & np.uint64(1)) * low)
        a &= np.uint64((1 << s) - 1)
    steps = np.empty((ell, m), dtype=np.uint64)  # steps[j] = (M_a^T)^j z
    for j in range(ell):
        steps[j] = u
        parity = np.bitwise_count(rows & u[:, None]) & np.uint8(1)
        u = (parity.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    words = (n + 63) // 64
    matrix = np.empty((m, words), dtype=np.uint64)
    bits = np.zeros(64 * words, dtype=np.uint8)  # indexed by integer bit position
    for i in range(m):
        # symbol ell-1 lowest; bit r of each s-bit vector ascending
        vec = steps[::-1, i].astype("<u8").view(np.uint8).reshape(ell, 8)
        sym = np.unpackbits(vec, axis=1, bitorder="little")[:, :s]
        bits[:n] = sym.reshape(-1)[ell * s - n :]
        matrix[i] = np.packbits(bits, bitorder="little").view(np.uint64)
    return CompiledMasks(matrix, n)


# words per slice of the apply kernel: 512 KiB of rows, ANDed into a
# scratch buffer that stays in cache while it is folded
_SLICE_WORDS = 1 << 16


class CompiledMasks:
    """m parity masks as a (m, ceil(n/64)) uint64 matrix; word w, bit b of a
    row selects bit 64*w + b of the input's integer value."""

    def __init__(self, matrix: np.ndarray, n: int):
        self.m = matrix.shape[0]
        self.n = n
        self._words = matrix.shape[1]
        self._matrix = matrix

    def apply(self, x_value: int) -> int:
        """Output as an integer (bit 0 of the output = highest integer bit).

        The rows are ANDed with x one cache-sized slice at a time and each
        row XOR-folded to one word; parity(popcount) of the fold is the
        row's parity, since parity is additive over the words.
        """
        words = self._words
        xw = np.frombuffer(x_value.to_bytes(words * 8, "little"), dtype=np.uint64)
        rows = max(1, _SLICE_WORDS // words)
        buf = np.empty((min(rows, self.m), words), dtype=np.uint64)
        acc = np.empty(self.m, dtype=np.uint64)
        for r in range(0, self.m, rows):
            part = self._matrix[r : r + rows]
            out = buf[: len(part)]
            np.bitwise_and(part, xw, out=out)
            np.bitwise_xor.reduce(out, axis=1, out=acc[r : r + len(part)])
        par = np.bitwise_count(acc) & np.uint8(1)
        packed = int.from_bytes(np.packbits(par).tobytes(), "big")
        return packed >> (8 * ((self.m + 7) // 8) - self.m)


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


class _BitWriter:
    """MSB-first bit packer; final partial byte is zero-padded on flush."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._buf = 0
        self._nbits = 0

    def write(self, bits: BitString):
        self._buf = (self._buf << bits.length) | bits.value
        self._nbits += bits.length
        flushable = self._nbits - self._nbits % 8
        if flushable:
            keep = self._nbits - flushable
            self._stream.write((self._buf >> keep).to_bytes(flushable // 8, "big"))
            self._buf &= (1 << keep) - 1
            self._nbits = keep

    def flush(self):
        if self._nbits:
            pad = 8 - self._nbits
            self._stream.write((self._buf << pad).to_bytes(1, "big"))
            self._buf = 0
            self._nbits = 0


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

    Every block runs on compiled parity masks.  With ``reuse_seed`` a single
    d-bit seed is read and compiled once and applied to every block; the
    report carries the union-bound error factor.  Otherwise each block is
    read first and then compiled with d fresh seed bits, so a clean end of
    input consumes no further seed.  A short final source block is an error;
    nothing is implicitly padded.  Seed bits left after the last block are
    reported, not rejected.
    """
    reader = _BitReader(source, "input")
    seeds = _BitReader(seed_source, "seed")
    writer = _BitWriter(sink)
    report = StreamReport(seed_reused=reuse_seed)
    masks = _next_masks(inst, seeds) if reuse_seed else None
    while (x := reader.read_bits(inst.n)) is not None:
        if not reuse_seed:
            masks = _next_masks(inst, seeds)
        writer.write(BitString(inst.m, masks.apply(x.value)))
        report.blocks += 1
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
