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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        return BinaryField(self.s)


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


def _eval_message(spec: CodeSpec, symbols, a: int) -> int:
    f = spec.field()
    acc = 0
    for c in reversed(symbols):
        acc = f.mul(acc, a) ^ c
    return acc


def extract_bit(spec: CodeSpec, x: BitString, y: BitString) -> int:
    """One codeword bit: split y = (a, z), return <p_x(a), z> over GF(2)."""
    if y.length != spec.t:
        raise ParameterError(f"seed length {y.length} != t={spec.t}")
    a = y.chunk(0, spec.s)
    z = y.chunk(spec.s, spec.s)
    v = _eval_message(spec, message_symbols(spec, x), a)
    return (v & z).bit_count() & 1


def code_masks(spec: CodeSpec, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Parity masks of the one-bit extractor at k uint64 seed pairs (a, u).

    Row i of the (k, ceil(n/64)) uint64 result has <p_x(a_i), u_i> =
    parity(x & row i) for every input x.  A row's bytes are the mask in the
    layout of input block rows: input bit i at byte i // 8, bit 7 - i % 8,
    zero past n.  The map is GF(2)-linear in x: with M_a the multiply-by-a
    matrix on symbol bits, <p_x(a), u> = sum_j <c_j a^j, u> =
    sum_j <c_j, (M_a^T)^j u> over the message symbols c_j.  All k pairs
    advance together, one symbol per step, on s-bit vectors held in uint64
    words.  A step ANDs each u with its s rows a * x^b into one buffer,
    takes the parity of each popcount as a byte, and packs all k*s of them
    LSB-first into the next k words, read little-endian whatever the host's
    byte order.  Symbol j (big-endian, zero-padded at the high-index end)
    holds input bits [j*s, (j+1)*s), its bit s-1 first.
    """
    s, ell, n, k = spec.s, spec.ell, spec.n, len(a)
    # x^s reduced; spec.field() refuses s > 64 before any uint64 arithmetic
    low = np.uint64(spec.field().modulus ^ (1 << s))
    # rows[i, b] = a_i * x^b in GF(2^s): bit b of M_a^T u_i is <rows[i, b], u_i>
    rows = np.empty((k, s), dtype=np.uint64)
    for b in range(s):
        rows[:, b] = a
        a = (a << np.uint64(1)) ^ (((a >> np.uint64(s - 1)) & np.uint64(1)) * low)
        a &= np.uint64((1 << s) - 1)
    steps = np.empty((k, ell), dtype=np.uint64)  # steps[:, j] = (M_a^T)^j u
    # parity[i, b] = bit b of the next u_i; columns s.. stay zero, so each
    # row packs into exactly the 8 bytes of its word
    masked = np.empty((k, s), dtype=np.uint64)
    parity = np.zeros((k, 64), dtype=np.uint8)
    for j in range(ell):
        steps[:, j] = u
        np.bitwise_and(rows, u[:, None], out=masked)
        np.bitwise_count(masked, out=parity[:, :s])
        parity &= np.uint8(1)
        u = np.packbits(parity, bitorder="little").view("<u8")
    words = (n + 63) // 64
    matrix = np.zeros((k, words), dtype=np.uint64)
    masks = matrix.view(np.uint8)
    # unpack ~64 KiB of mask bits at a time: one row at the production shape
    chunk = max(1, (1 << 16) // (64 * words))
    for r in range(0, k, chunk):
        # each s-bit vector's bits MSB-first, symbol 0 first
        vec = steps[r : r + chunk].astype(">u8").view(np.uint8)
        bits = np.unpackbits(vec, axis=1).reshape(-1, ell, 64)[:, :, 64 - s :]
        bits = bits.reshape(-1, ell * s)
        masks[r : r + chunk, : (n + 7) // 8] = np.packbits(bits[:, :n], axis=1)
    return matrix


def _codeword_chunks(spec: CodeSpec, a: np.ndarray, u: np.ndarray):
    """Yield (lo, bits), bits[i, c] = <p_x(a_c), u_c> at x = lo + i, for all x."""
    # n <= MAX_EXHAUSTIVE_N: one word, read big-endian: input bit i is bit n-1-i of x
    masks = code_masks(spec, a, u).view(">u8")[:, 0] >> np.uint64(64 - spec.n)
    step = max(1, (1 << 20) // len(masks))  # table entries per chunk
    for lo in range(0, 1 << spec.n, step):
        xs = np.arange(lo, min(lo + step, 1 << spec.n), dtype=np.uint64)
        yield lo, np.bitwise_count(xs[:, None] & masks) & np.uint8(1)


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
    u = np.uint64(1) << np.arange(s, dtype=np.uint64)
    nonzero = np.zeros(1 << spec.n, dtype=np.int64)  # #a with p_x(a) != 0, by x
    block = max(1, (1 << 12) // s)  # evaluation points per compile
    for a0 in range(0, q, block):
        a = np.arange(a0, min(a0 + block, q), dtype=np.uint64)
        for lo, bits in _codeword_chunks(spec, np.repeat(a, s), np.tile(u, len(a))):
            hit = bits.reshape(len(bits), len(a), s).any(axis=2)
            nonzero[lo : lo + len(bits)] += hit.sum(axis=1)
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
