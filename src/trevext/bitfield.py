"""Bit strings and finite-field arithmetic.

Conventions (fixed so that outputs are bit-exact across platforms):

* A :class:`BitString` of length ``n`` addresses bits ``0 .. n-1``, index 0
  first.  Packed into bytes most-significant-bit first: bit 0 of the string
  is the high bit of byte 0.
* Field symbols are packed from a bit string big-endian: bit 0 of an
  ``s``-bit chunk is the high-order coefficient bit of the GF(2^s) element.
* GF(2^s) uses, for every supported ``s``, the lexicographically least
  irreducible polynomial of degree ``s`` (see ``IRREDUCIBLE_POLY``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParameterError

# Lexicographically least irreducible polynomial of degree s over GF(2),
# encoded as an integer with bit i = coefficient of x^i (bit s always set).
# Regenerated and checked by the test suite (irreducibility + minimality).
IRREDUCIBLE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x20000004B,
    34: 0x40000001B,
    35: 0x800000005,
    36: 0x1000000035,
    37: 0x200000003F,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000027,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000071,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x4000000000007D,
    55: 0x80000000000047,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000000063,
    59: 0x80000000000007B,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000000000069,
    63: 0x8000000000000003,
    64: 0x1000000000000001B,
}

MAX_BINARY_FIELD_DEGREE = max(IRREDUCIBLE_POLY)


class BitString:
    """Immutable fixed-length bit sequence.

    Stored as (length, value) with bit ``i`` at integer position
    ``length - 1 - i``, so the integer reads the string left to right.
    """

    __slots__ = ("length", "value")

    def __init__(self, length: int, value: int = 0):
        if length < 0:
            raise ParameterError("length must be >= 0")
        if value < 0 or value >> length:
            raise ParameterError(f"value 0x{value:x} does not fit in {length} bits")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        v, n = 0, 0
        for b in bits:
            if b not in (0, 1):
                raise ParameterError(f"bit value {b!r} not in {{0,1}}")
            v = (v << 1) | b
            n += 1
        return cls(n, v)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitString":
        """Unpack MSB-first: bit 0 is the high bit of data[0]."""
        nbits = 8 * len(data)
        if length is None:
            length = nbits
        if length > nbits:
            raise ParameterError("length exceeds available bits")
        v = int.from_bytes(data, "big") >> (nbits - length)
        return cls(length, v)

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padding the final partial byte on the right."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        for i in range(self.length):
            yield self[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.length, self.value))

    def __repr__(self) -> str:
        return f"BitString('{self}')"

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ParameterError("length mismatch in xor")
        return BitString(self.length, self.value ^ other.value)

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            self.length + other.length, (self.value << other.length) | other.value
        )

    def substring(self, indices: Sequence[int]) -> "BitString":
        """Bits at the given (int or numpy int) positions, ascending."""
        idx = sorted(map(int, indices))
        if idx and (idx[0] < 0 or idx[-1] >= self.length):
            raise ParameterError("substring index out of range")
        v, x, last = 0, self.value, self.length - 1
        for i in idx:
            v = (v << 1) | ((x >> (last - i)) & 1)
        return BitString(len(idx), v)

    def prefix(self, n: int) -> "BitString":
        if n > self.length:
            raise ParameterError("prefix longer than string")
        return BitString(n, self.value >> (self.length - n))

    def chunk(self, start: int, width: int) -> int:
        """Integer value of bits [start, start+width), big-endian.

        Positions past the end read as 0 (high-index zero padding); a
        negative start raises IndexError unless no bit is read.
        """
        if width <= 0:
            return 0
        if start < 0:
            raise IndexError(start)
        shift = self.length - start - width
        v = self.value >> shift if shift >= 0 else self.value << -shift
        return v & ((1 << width) - 1)


class BinaryField:
    """GF(2^s) with the fixed modulus from ``IRREDUCIBLE_POLY``.

    Elements are integers in [0, 2^s); bit i is the coefficient of x^i.
    """

    def __init__(self, s: int):
        if s not in IRREDUCIBLE_POLY:
            raise ParameterError(
                f"GF(2^{s}) unsupported; 1 <= s <= {MAX_BINARY_FIELD_DEGREE}"
            )
        self.s = s
        self.modulus = IRREDUCIBLE_POLY[s]

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        s, mod, r = self.s, self.modulus, 0
        top = 1 << s
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def __repr__(self):
        return f"GF(2^{self.s})"

