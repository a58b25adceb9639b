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


def codeword_table(spec: CodeSpec) -> np.ndarray:
    """uint8 array (2^n, n_bar): all codewords, bit at seed value y in column y."""
    if spec.n > MAX_EXHAUSTIVE_N or spec.n_bar > MAX_EXHAUSTIVE_NBAR:
        raise SizeGuardError("table too large for exhaustive enumeration")
    f = spec.field()
    q, s, ell, n = spec.q, spec.s, spec.ell, spec.n
    # symbol values of every message: (2^n, ell)
    xs = np.arange(1 << n, dtype=np.uint64)
    sym = np.zeros((1 << n, ell), dtype=np.int64)
    for j in range(ell):
        lo = j * s
        width = min(s, n - lo)
        # big-endian chunk [lo, lo+s), implicit zero padding past n
        sym[:, j] = ((xs >> np.uint64(n - lo - width)) & np.uint64((1 << width) - 1)).astype(
            np.int64
        ) << (s - width)
    # evaluate at every a by Horner using exact table-free field mults
    out = np.zeros((1 << n, q * q), dtype=np.uint8)
    zs = np.arange(q)
    for a in range(q):
        mul_a = np.array([f.mul(v, a) for v in range(q)], dtype=np.int64)
        acc = np.zeros(1 << n, dtype=np.int64)
        for j in range(ell - 1, -1, -1):
            acc = mul_a[acc] ^ sym[:, j]
        # inner products of acc against every mask z
        blocks = np.bitwise_and(acc[:, None], zs[None, :])
        par = np.zeros_like(blocks, dtype=np.uint8)
        bb = blocks.copy()
        while bb.any():
            par ^= (bb & 1).astype(np.uint8)
            bb >>= 1
        out[:, a * q : (a + 1) * q] = par
    return out


def min_distance_exhaustive(spec: CodeSpec) -> Fraction:
    """Exact minimum relative distance, via minimum nonzero codeword weight.

    The inner Hadamard block of a nonzero symbol has weight exactly q/2, so
    the weight of a codeword is (q - #roots of p_x) * q/2; minimized over
    every nonzero message.
    """
    if spec.n > MAX_EXHAUSTIVE_N:
        raise SizeGuardError("min-distance enumeration limited to n <= 14")
    best = None
    for xv in range(1, 1 << spec.n):
        symbols = message_symbols(spec, BitString(spec.n, xv))
        nonzero = sum(
            1 for a in range(spec.q) if _eval_message(spec, symbols, a) != 0
        )
        w = Fraction(nonzero * (spec.q // 2), spec.n_bar)
        if best is None or w < best:
            best = w
    return best


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
