"""One-bit extractor from a Reed-Solomon / Hadamard concatenated code.

The outer code interprets the n-bit input as ``ell`` symbols of GF(2^s)
(message polynomial, lowest degree first, zero-padded at the high-index
end) and evaluates it on all of GF(2^s); the inner Hadamard code replaces
each symbol with its inner products against every s-bit mask.  A codeword
therefore has ``n_bar = 2^(2s)`` bits, indexed by the pair (evaluation
point a, mask z), and the induced one-bit extractor is

    (x, y) -> <p_x(a), z>      with  y = (a, z),  |y| = t = 2s.

The list-decoding radius parameter ``delta`` enters through the distance
budget ``(ell - 1)/q <= 2*delta^2`` (Johnson bound regime), which makes the
code (delta, 1/delta^2)-list-decodable.

For a fixed seed the bit is GF(2)-linear in x.  :func:`extract_bit` is the
bit-serial reference.  :func:`_step_slices` advances many seed pairs at
once, and :func:`code_columns` packs their outputs in the one compiled
form, a column per input bit.  The exhaustive helpers
(:func:`codeword_table`, :func:`min_distance_exhaustive`,
:func:`list_size_at`) tabulate every input's outputs from those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bitfield import MAX_BINARY_FIELD_DEGREE, BinaryField, BitString
from .errors import ParameterError, SizeGuardError, UnsupportedParametersError

# exhaustive-enumeration guards
MAX_EXHAUSTIVE_N = 14
MAX_EXHAUSTIVE_NBAR = 1 << 16


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of the concatenated code and its one-bit extractor."""

    n: int  # source length in bits
    s: int  # symbol size in bits
    delta: Fraction  # list-decoding radius parameter

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise ParameterError("n and s must be >= 1")
        if not 0 < self.delta < Fraction(1, 2):
            raise ParameterError("delta must be in (0, 1/2)")
        if self.ell > self.q:
            raise ParameterError("RS undefined: ell > q")
        if Fraction(self.ell - 1, self.q) > 2 * self.delta**2:
            raise ParameterError("distance budget (ell-1)/q <= 2*delta^2 violated")

    @property
    def q(self) -> int:
        return 1 << self.s

    @property
    def ell(self) -> int:
        return -(-self.n // self.s)

    @property
    def t(self) -> int:
        return 2 * self.s

    @property
    def n_bar(self) -> int:
        return 1 << self.t

    @property
    def list_size_bound(self) -> Fraction:
        return 1 / self.delta**2

    def field(self) -> BinaryField:
        return _field(self.s)


@lru_cache(maxsize=None)
def _field(s: int) -> BinaryField:
    """GF(2^s), built once per symbol size: at most one field per supported
    s, shared by every caller (a BinaryField is never mutated)."""
    return BinaryField(s)


def min_symbol_size(n: int, delta: Fraction) -> int:
    """Minimal s with ell <= q and (ell-1)/q <= 2*delta^2 (no upper cap)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 2):
        raise ParameterError("delta must be in (0, 1/2)")
    s = 1
    while True:
        ell = -(-n // s)
        if ell <= (1 << s) and Fraction(ell - 1, 1 << s) <= 2 * delta**2:
            return s
        s += 1


def code_params(n: int, delta: Fraction) -> CodeSpec:
    """CodeSpec with the minimal supported symbol size for (n, delta)."""
    delta = Fraction(delta)
    s = min_symbol_size(n, delta)
    if s > MAX_BINARY_FIELD_DEGREE:
        raise UnsupportedParametersError(
            f"delta={float(delta):.3g} needs symbol size {s} > "
            f"{MAX_BINARY_FIELD_DEGREE}"
        )
    return CodeSpec(n=n, s=s, delta=delta)


def message_symbols(spec: CodeSpec, x: BitString) -> list:
    """x as ell field symbols, big-endian chunks, zero-padded high-index end."""
    if x.length != spec.n:
        raise ParameterError(f"input length {x.length} != n={spec.n}")
    return [x.chunk(j * spec.s, spec.s) for j in range(spec.ell)]


def codeword_bit(spec: CodeSpec, symbols: list, y: BitString) -> int:
    """The bit of :func:`extract_bit` for x given as its message symbols:
    split y = (a, z) and return <p(a), z>, p(a) by Horner's rule over
    :meth:`BinaryField.mul`.  The seed length is not checked here."""
    mul = spec.field().mul
    a = y.chunk(0, spec.s)
    acc = 0
    for c in reversed(symbols):
        acc = mul(acc, a) ^ c
    return (acc & y.chunk(spec.s, spec.s)).bit_count() & 1


def extract_bit(spec: CodeSpec, x: BitString, y: BitString) -> int:
    """One codeword bit: split y = (a, z), return <p_x(a), z> over GF(2)."""
    if y.length != spec.t:
        raise ParameterError(f"seed length {y.length} != t={spec.t}")
    return codeword_bit(spec, message_symbols(spec, x), y)


# bytes of step state per chunk of lanes (seed pairs stepped together): a
# call with more pairs steps them a chunk at a time, so that the state stays
# within this bound, plus numpy's fixed-size iteration buffers (under
# 1/4 MiB), whatever the number of pairs.  At s = 62 a fresh-seed chunk is
# ~450 lanes, whose nibble tables (~0.9 MiB) stay in a 2 MiB L2 cache.
_LANE_BYTES = 5 << 18


def _lane_words(s: int, width: int) -> int:
    """Words of :func:`_step_slices` state per lane, at most.  While the
    tables are built: the rows a * x^b (64 words) with their transpose's
    scratch and the products' temporaries (36), then the rows and the
    tables (16 words per 4 bits of symbol); while stepping: the tables, 3
    step buffers (base, index, gathered entry) per 4 bits and a slice of
    `width` steps."""
    p = (s + 3) // 4
    return max(100, 64 + 16 * p, 19 * p + width) + 1


def _step_slices(spec: CodeSpec, a: np.ndarray, u: np.ndarray, width: int):
    """Yield (j, steps) for the k uint64 seed pairs (a, u), `width` symbols
    at a time: steps[i] = (M_a^T)^(j+i) u for the symbols j, j+1, ... of
    the slice (fewer in the last), a (c, k) view that the next slice
    overwrites.

    The one-bit extractor is GF(2)-linear in x: with M_a the multiply-by-a
    matrix on symbol bits, <p_x(a), u> = sum_j <c_j a^j, u> =
    sum_j <c_j, (M_a^T)^j u> over the message symbols c_j, so the s-bit
    vector (M_a^T)^j u is the mask of symbol j.  All k pairs (lanes)
    advance together, one symbol per step, on s-bit vectors held in uint64
    words.  M_a^T u is the XOR of the columns of M_a^T at the set bits of
    u, and column c is bit c of each row a * x^b: the rows are
    bit-transposed once, and each 4 bits of u select one entry of a
    16-entry table of XORs of 4 columns, built by doubling.  A step cuts u
    into nibbles by shift and mask, indexes each lane's tables, gathers
    the entries in one take and XOR-reduces them; the index math uses
    shifts and casts only, whatever the host's byte order or intp width.
    """
    s, ell, k = spec.s, spec.ell, len(a)
    nibbles = (s + 3) // 4
    # x^s reduced; spec.field() refuses s > 64 before any uint64 arithmetic
    low = np.uint64(spec.field().modulus ^ (1 << s))
    # rows[0, b, i] = a_i * x^b in GF(2^s), zero for b >= s; after the
    # transpose word c holds bit c of every row, the column c of M_a^T
    rows = np.zeros((1, 64, k), dtype=np.uint64)
    for b in range(s):
        rows[0, b] = a
        a = (a << np.uint64(1)) ^ (((a >> np.uint64(s - 1)) & np.uint64(1)) * low)
        a &= np.uint64((1 << s) - 1)
    _transpose64(rows)
    columns = rows[0, : 4 * nibbles].reshape(nibbles, 4, k)
    # tables[p, i, v] = M_a^T (v << 4p) at lane i
    tables = np.empty((nibbles, k, 16), dtype=np.uint64)
    tables[:, :, 0] = 0
    for r in range(4):
        np.bitwise_xor(
            tables[:, :, : 1 << r], columns[:, r, :, None], out=tables[:, :, 1 << r : 2 << r]
        )
    del rows, columns
    flat = tables.reshape(-1)
    # the index is int64, what take reads as intp (without a copy where
    # intp is 64 bits), so the shift of an int64 step writes it uncast
    base = np.arange(0, 16 * nibbles * k, 16, dtype=np.int64).reshape(nibbles, k)
    shifts = np.arange(0, 4 * nibbles, 4, dtype=np.int64)[:, None]
    nibble = np.int64(15)
    index = np.empty((nibbles, k), dtype=np.int64)
    got = np.empty((nibbles, k), dtype=np.uint64)
    steps = np.empty((min(width, ell), k), dtype=np.uint64)
    # each row of steps, and its int64 reading: row i - 1 holds the step
    # before row i's, and for i = 0 (row -1) the last row of the slice before
    rows, signed = list(steps), list(steps.view(np.int64))
    right_shift, bitwise_and, add, reduce = (
        np.right_shift, np.bitwise_and, np.add, np.bitwise_xor.reduce
    )
    take = flat.take
    steps[0] = u
    for j in range(0, ell, width):
        c = min(width, ell - j)
        for i in range(1 if j == 0 else 0, c):
            # nibble p of the step before is bits 4p..4p+3 of its int64
            # reading, whose sign bits the mask drops
            right_shift(signed[i - 1], shifts, index)
            bitwise_and(index, nibble, index)
            add(index, base, index)
            take(index, 0, got, "clip")
            reduce(got, 0, None, rows[i])
        yield j, steps[:c]


# mask words per slice of code_columns (256 KiB): the symbols of a slice are
# stepped, bit-transposed and scattered into the columns together
_COLUMN_SLICE_WORDS = 1 << 15
# word q of a 64-row group holds row 8*(q//8) + 7 - q%8, so that after the
# transpose row r sits at byte r // 8, bit 7 - r % 8 of the little-endian word
_ROW_ORDER = np.arange(64) ^ 7


_TRANSPOSE_STEPS = [
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
]


def _transpose64(x: np.ndarray):
    """Transpose in place each 64x64 bit matrix x[g, :, c] of a (G, 64, C)
    uint64 array: bit b of word q goes to bit q of word b.  The scratch is
    half of x."""
    groups, _, c = x.shape
    scratch = np.empty(groups * 32 * c, dtype=np.uint64)
    for h, mask in _TRANSPOSE_STEPS:
        v = x.reshape(groups, 32 // h, 2, h, c)
        lo, hi = v[:, :, 0], v[:, :, 1]
        t = scratch.reshape(lo.shape)
        np.right_shift(lo, np.uint64(h), out=t)
        t ^= hi
        t &= np.uint64(mask)
        hi ^= t
        t <<= np.uint64(h)
        lo ^= t


def code_columns(spec: CodeSpec, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one-bit extractor at k uint64 seed pairs (a, u), packed by input bit.

    The map x -> <p_x(a_r), u_r> is GF(2)-linear, so its outputs at all k
    pairs are the XOR of the columns of x's set bits.  Returns
    (8, ceil(n/8), ceil(k/64)) uint64 byte columns: entry [j, p] is the
    k-bit column of the input bit with value 1 << j in block byte p (input
    bits MSB-first, as in a block row), that is input bit 8p + 7 - j, and
    is zero past n.  Its bit for pair r is <p_e(a_r), u_r> at the unit
    input e of that bit; it sits at byte r // 8, bit 7 - r % 8 of the
    little-endian words, so the words' bytes are the MSB-first output bits,
    and bits past k are zero.  No row matrix is built: the pairs run through
    :func:`_step_slices` as many 64-pair groups at a time as fit in
    _LANE_BYTES of step state, and each slice of steps is bit-transposed
    64 pairs at a time and scattered into the columns of its input bits.
    """
    s, n, k = spec.s, spec.n, len(a)
    words = (k + 63) // 64
    columns = np.zeros((8, (n + 7) // 8, words), dtype=np.uint64)
    # 64-pair groups per chunk; the slice of steps is bounded on its own
    groups = max(1, _LANE_BYTES // (8 * 64 * _lane_words(s, 0)))
    width = max(1, _COLUMN_SLICE_WORDS // (64 * max(1, min(groups, words))))
    for w in range(0, words, groups):
        g = min(groups, words - w)
        # whole groups: pairs past k are (0, 0), whose steps are all zero
        pa, pu = np.zeros((2, 64 * g), dtype=np.uint64)
        pa[: k - 64 * w], pu[: k - 64 * w] = a[64 * w : 64 * (w + g)], u[64 * w : 64 * (w + g)]
        for j, steps in _step_slices(spec, pa, pu, width):
            c = len(steps)
            group = steps.T.reshape(g, 64, c)[:, _ROW_ORDER]
            _transpose64(group)
            # input bit i is bit s-1 - i%s of symbol i//s: word [h, s-1 - i%s,
            # i//s - j] of the transposed slice holds its pairs of group w + h
            i = np.arange(j * s, min((j + c) * s, n))
            columns[7 - (i & 7), i >> 3, w : w + g] = group[:, s - 1 - i % s, i // s - j].T
    return columns


def _codeword_chunks(spec: CodeSpec, a: np.ndarray, u: np.ndarray):
    """Yield (lo, bits), bits[i, c] = <p_x(a_c), u_c> at x = lo + i, for all x
    (n <= MAX_EXHAUSTIVE_N), in chunks of 2^h inputs, not in order of lo.

    Input bit i is bit n-1-i of x, so bit b of x has the column of input
    bit n-1-b.  The outputs of the h low bits are tabulated once by
    doubling, table[2^b : 2^(b+1)] = table[:2^b] ^ column; the high bits run
    in Gray-code order, each chunk flipping one high column in the XOR that
    it adds to the table.  A chunk unpacks about 1 Mi outputs."""
    n, k = spec.n, len(a)
    columns = code_columns(spec, a, u)
    bit = [columns[7 - i % 8, i // 8] for i in reversed(range(n))]
    h = min(n, max(0, ((1 << 20) // k).bit_length() - 1))
    table = np.zeros((1 << h, columns.shape[2]), dtype=np.uint64)
    for b in range(h):
        np.bitwise_xor(table[: 1 << b], bit[b], out=table[1 << b : 2 << b])
    high = np.zeros(columns.shape[2], dtype=np.uint64)
    chunk = np.empty_like(table)
    for c in range(1 << (n - h)):
        if c:
            high ^= bit[h + (c & -c).bit_length() - 1]
        np.bitwise_xor(table, high, out=chunk)
        # pair r at byte r // 8, bit 7 - r % 8 of the little-endian words
        raw = chunk.astype("<u8", copy=False).view(np.uint8)
        yield (c ^ c >> 1) << h, np.unpackbits(raw, axis=1, count=k)


def codeword_table(spec: CodeSpec) -> np.ndarray:
    """uint8 array (2^n, n_bar): all codewords, bit at seed value y in column y."""
    if spec.n > MAX_EXHAUSTIVE_N or spec.n_bar > MAX_EXHAUSTIVE_NBAR:
        raise SizeGuardError("table too large for exhaustive enumeration")
    y = np.arange(spec.n_bar, dtype=np.uint64)
    out = np.empty((1 << spec.n, spec.n_bar), dtype=np.uint8)
    for lo, bits in _codeword_chunks(spec, y >> np.uint64(spec.s), y & np.uint64(spec.q - 1)):
        out[lo : lo + len(bits)] = bits
    return out


def min_distance_exhaustive(spec: CodeSpec) -> Fraction:
    """Exact minimum relative distance, via minimum nonzero codeword weight.

    The inner Hadamard block of a nonzero symbol has weight exactly q/2, so
    the weight of a codeword is (q - #roots of p_x) * q/2; minimized over
    every nonzero message.  Bit b of p_x(a) is <p_x(a), e_b>, so p_x(a) is
    nonzero when any of its s mask parities is.
    """
    if spec.n > MAX_EXHAUSTIVE_N or spec.n_bar > MAX_EXHAUSTIVE_NBAR:
        raise SizeGuardError("min-distance enumeration limited to n <= 14, n_bar <= 2^16")
    q, s = spec.q, spec.s
    # pair a*s + b is (a, e_b): at most q*s = 2^11 pairs under the n_bar guard
    a = np.repeat(np.arange(q, dtype=np.uint64), s)
    u = np.tile(np.uint64(1) << np.arange(s, dtype=np.uint64), q)
    nonzero = np.empty(1 << spec.n, dtype=np.int64)  # #a with p_x(a) != 0, by x
    for lo, bits in _codeword_chunks(spec, a, u):
        nonzero[lo : lo + len(bits)] = bits.reshape(len(bits), q, s).any(axis=2).sum(axis=1)
    return Fraction(int(nonzero[1:].min()) * (q // 2), spec.n_bar)


def list_size_at(spec: CodeSpec, center: BitString, radius: Fraction) -> int:
    """Number of codewords within relative Hamming distance <= radius."""
    if spec.n > MAX_EXHAUSTIVE_N or spec.n_bar > MAX_EXHAUSTIVE_NBAR:
        raise SizeGuardError("list enumeration guard exceeded")
    if center.length != spec.n_bar:
        raise ParameterError("center length must equal n_bar")
    radius = Fraction(radius)
    # center bit i is the codeword bit at seed value i, table column i
    dist = (codeword_table(spec) != np.fromiter(center, np.uint8)).sum(axis=1)
    return sum(
        1 for dd in dist.tolist()
        if dd * radius.denominator <= radius.numerator * spec.n_bar
    )
