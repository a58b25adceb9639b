"""Toeplitz two-universal hashing and two-stage extractor composition.

The hash output is T·x over GF(2), where T is the (m_out x n_in) Toeplitz
matrix determined by a seed of n_in + m_out - 1 bits: entry T[i][j] equals
seed[m_out - 1 + j - i], so the first column carries seed bits 0..m_out-1
(read bottom to top) and the first row carries seed bits
m_out-1..m_out+n_in-2.  Row i is therefore the contiguous seed window
starting at index m_out - 1 - i, which is what the implementation slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bitfield import BitString
from .entropy import _log2
from .errors import ParameterError
from .params import PINNED_CONSTANTS


@dataclass(frozen=True)
class ToeplitzSpec:
    n_in: int
    m_out: int

    def __post_init__(self):
        if self.n_in < 1 or self.m_out < 0:
            raise ParameterError("n_in must be >= 1 and m_out >= 0")
        if self.m_out > self.n_in:
            raise ParameterError("m_out must not exceed n_in")

    @property
    def seed_length(self) -> int:
        return self.n_in + self.m_out - 1 if self.m_out else 0


def toeplitz_row(spec: ToeplitzSpec, seed: BitString, i: int) -> int:
    """Row i of T as an n_in-bit integer (bit for column 0 highest)."""
    if seed.length != spec.seed_length:
        raise ParameterError(
            f"seed length {seed.length} != {spec.seed_length}"
        )
    if not 0 <= i < spec.m_out:
        raise ParameterError("row index out of range")
    start = spec.m_out - 1 - i
    return (seed.value >> (seed.length - start - spec.n_in)) & ((1 << spec.n_in) - 1)


def toeplitz_hash(spec: ToeplitzSpec, x: BitString, seed: BitString) -> BitString:
    """T·x over GF(2)."""
    if x.length != spec.n_in:
        raise ParameterError(f"input length {x.length} != n_in={spec.n_in}")
    if seed.length != spec.seed_length:
        raise ParameterError(
            f"seed length {seed.length} != {spec.seed_length}"
        )
    out = 0
    for i in range(spec.m_out):
        out = (out << 1) | ((toeplitz_row(spec, seed, i) & x.value).bit_count() & 1)
    return BitString(spec.m_out, out)


def required_min_entropy(m_out: int, eps: Fraction) -> float:
    """Leftover-hash threshold for two-universal hashing: m + 2*log2(1/eps)
    plus the additive O(1), PINNED_CONSTANTS["leftover_hash_additive"].
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ParameterError("eps must be in (0, 1)")
    return m_out + 2 * -_log2(eps) + PINNED_CONSTANTS["leftover_hash_additive"]


@dataclass(frozen=True)
class AdvertisedExtractor:
    """A strong extractor together with its advertised (k, eps) guarantee."""

    fn: Callable[[BitString, BitString], BitString]
    n: int
    d: int
    m: int
    k: float
    eps: Fraction

    def __call__(self, x: BitString, y: BitString) -> BitString:
        if x.length != self.n or y.length != self.d:
            raise ParameterError("extractor input/seed length mismatch")
        out = self.fn(x, y)
        if out.length != self.m:
            raise ParameterError("extractor output length mismatch")
        return out


def toeplitz_extractor(n_in: int, m_out: int, eps: Fraction) -> AdvertisedExtractor:
    spec = ToeplitzSpec(n_in, m_out)
    return AdvertisedExtractor(
        fn=lambda x, y: toeplitz_hash(spec, x, y),
        n=n_in,
        d=spec.seed_length,
        m=m_out,
        k=required_min_entropy(m_out, eps),
        eps=Fraction(eps),
    )


def compose_params(ext1: AdvertisedExtractor, ext2: AdvertisedExtractor):
    """Threshold bookkeeping for running ext2 after ext1 on the same source.

    After m1 bits are produced the source retains (conditioned on the first
    output) min-entropy at least k - m1, so ext2's threshold must fit under
    that; the composite error is eps1 + eps2 at threshold k.
    """
    if ext2.n != ext1.n:
        raise ParameterError("stage input lengths differ")
    if ext2.k > ext1.k - ext1.m:
        raise ParameterError(
            f"threshold bookkeeping violation: k - m1 = {ext1.k - ext1.m:g} "
            f"below second-stage requirement {ext2.k:g}"
        )
    return ext1.k, ext1.eps + ext2.eps, ext1.m + ext2.m


def compose(
    ext1: AdvertisedExtractor,
    ext2: AdvertisedExtractor,
    x: BitString,
    y1: BitString,
    y2: BitString,
) -> BitString:
    """Concatenated two-stage extraction with independent seeds y1, y2."""
    compose_params(ext1, ext2)
    return ext1(x, y1).concat(ext2(x, y2))
