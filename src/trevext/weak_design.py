"""Weak (t,r)-design construction and exact certification.

A family S_1..S_m of t-subsets of [d] is a weak (t,r)-design when every
prefix overlap sum ``sum_{j<i} 2^{|S_j ∩ S_i|}`` is at most ``r*m``.  Two
constructions are provided, both laid out by one rule, :func:`_layout`,
which gives a design's grids, so its sets and its seed length d:

* :func:`greedy_basic_design` — one grid of L = grid_rows(t, r) rows, or m
  rows when m < L, so d = t·min(m, L), certifying ``r_certified <= r``.
* :func:`block_design` — the r=1 composition: set indices are partitioned
  into shrinking blocks, each block a grid on its own disjoint universe, so
  cross-block overlaps contribute exactly 2^0 = 1 each.

The grid.  Element v·t + a is cell (row v, column a) of a rows × t grid,
and each set is the graph {v·t + a : a ∈ [0, t)} of a function a ↦ v.  Two
such sets meet in exactly the columns where their functions agree.  For a
uniformly random function, each column agrees with an earlier set's with
probability 1/rows, so the expected overlap sum of set k is
k·(1 + 1/rows)^t.  Fix the columns before a, and let o_j count the columns
where set j agrees so far.  The conditional expectation is then
(1 + 1/rows)^(t−a) · sum_j 2^{o_j}, and picking row v in column a makes it

    (1 + 1/rows)^(t−a−1) · (sum_j 2^{o_j} + sum_{j: f_j(a) = v} 2^{o_j}).

The factor is the same for every v, so the greedy (method of conditional
expectations) takes the lowest v with the least bin sum
sum_{j: f_j(a) = v} 2^{o_j}: exact integers, one bincount, no ties to
resolve.  The bins average to the conditional expectation, so it never
grows: set k sums to at most k·(1 + 1/rows)^t.  The same bound caps every
bin sum, which stays exact in float64 below 2^53 (larger requests are
refused).  While k < rows some bin is empty, so the first min(m, rows)
sets are the constant rows, pairwise disjoint.

The row rule.  :func:`grid_rows` gives the least L with (1 + 1/L)^t <= r,
in Python ints: set k of a grid of L rows sums to at most k·(1 + 1/L)^t <= k·r.
A grid of c sets uses min(c, L) rows, so a layout stops the search at its
largest grid's c.

The block budget.  :func:`block_layout` sizes each block floor(R/2) + 1,
where R counts the sets not yet placed, and each block is a grid of
min(size, grid_rows(t, 2)) rows, so in-block sums are at most 2k.  Set k
of a block after E earlier sets then sums to at most E + 2k <= E + R = m:
the design has r <= 1 by construction.

Certification is always exact (big integers / rationals), independent of how
the sets were produced.  :func:`overlap_sums` counts every overlap from the
element → set incidence (sorted (element, set) keys, below d·m < 2^63; each
element pairs the sets holding it, and a pair of sets met at o elements
overlaps in o), then adds hist[o]·(2^o − 1) per set in Python ints;
building, loading and verifying a design all certify through it, and both
builders raise :class:`ConstructionError` if the certified r exceeds their
target.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConstructionError, ParameterError, VerificationError

SERIAL_MAGIC = b"WDSN"
SERIAL_VERSION = 1
# the builders' construction: design caches are keyed by it, so a cache
# never serves the sets of an earlier construction (2: the grid greedy;
# 3: grids of grid_rows(t, r) rows, the least with (1 + 1/L)^t <= r)
CONSTRUCTION_REVISION = 3


@dataclass(frozen=True)
class DesignCertificate:
    """Exact per-index overlap sums plus the tight r they certify."""

    overlap_sums: tuple  # sum_{j<i} 2^{|S_j cap S_i|}, big integers
    r_certified: Fraction  # max overlap sum / m
    violating_index: int | None = None  # first i (0-based) exceeding the checked r * m

    @property
    def ok(self) -> bool:
        return self.violating_index is None


@dataclass(frozen=True, eq=False)
class WeakDesign:
    """m sets of t distinct indices in [0, d), checked and certified once,
    when made.  ``sets`` is the design's one in-memory form: a read-only
    (m, t) int64 array, each row ascending (the constructor takes rows in
    any order).  Designs compare by identity, as arrays have no single
    truth value."""

    d: int
    sets: np.ndarray
    r_certified: Fraction = field(init=False)  # max overlap sum / m

    def __post_init__(self):
        sets = np.asarray(self.sets, dtype=np.int64)
        if sets.ndim != 2:
            raise ParameterError("each set must hold t distinct indices")
        sets = np.sort(sets, axis=1)  # a copy, so no caller can write into it
        if sets.size:  # a malformed family never reaches the kernel
            if not (sets[:, 1:] != sets[:, :-1]).all():
                raise ParameterError("each set must hold t distinct indices")
            if sets[:, 0].min() < 0 or sets[:, -1].max() >= self.d:
                raise ParameterError("set index outside universe")
        if self.d * len(sets) >= 1 << 63:  # overlap_sums keys each (element, set) below d·m
            raise ParameterError("d·m must be below 2^63")
        if sets.shape[1] < 1:  # m empty sets would certify as r < 1 at any m
            raise ParameterError("t must be >= 1")
        sets.flags.writeable = False
        sums = overlap_sums(sets)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "r_certified", Fraction(max(sums, default=0), len(sums) or 1))

    t = property(lambda self: self.sets.shape[1])
    m = property(lambda self: self.sets.shape[0])

    @classmethod
    def from_sets(cls, d: int, sets: Sequence[Sequence[int]]) -> "WeakDesign":
        """The design of m integer sequences of one length, in any order."""
        try:
            array = np.array(sets, dtype=np.int64)
        except ValueError:  # sequences of different lengths
            raise ParameterError("each set must hold t distinct indices") from None
        return cls(d, array)


# pair keys counted at once by overlap_sums: 2 MiB of int64 keys, or one
# set's pairs if it has more
_PAIR_CHUNK = 1 << 18


def overlap_sums(sets: np.ndarray) -> tuple:
    """Exact prefix overlap sums ``sum_{j<i} 2^{|S_j ∩ S_i|}``, one per set,
    as Python ints, of a design's (m, t) array: each row t distinct indices
    in [0, d), with d·m < 2^63 (:class:`WeakDesign` holds both).

    Counted from the element → set incidence.  The (element, set) pairs are
    sorted by element; a set holding an element pairs with each earlier set
    holding it, and a pair (j, i) met at o elements overlaps in exactly o.
    An earlier set sharing nothing counts 2^0 = 1, so with hist_i[o] the
    earlier sets meeting S_i in o >= 1 elements,

        sums[i] = i + sum_o hist_i[o]·(2^o − 1).

    The pair keys are counted a run of whole later sets at a time, at most
    ``_PAIR_CHUNK`` keys or one set's, so memory stays linear in the input
    however much the sets overlap; no m×m or m×d array is built.
    """
    m, t = sets.shape
    if not sets.size:
        return tuple(range(m))
    # the incidence as (element, set) keys, sorted: each key is below d·m,
    # an element's sets come out ascending, and no key repeats
    key = np.sort(sets.reshape(-1) * m + np.repeat(np.arange(m), t))
    elem, owner = np.divmod(key, m)
    pos = np.arange(len(key))
    first = np.maximum.accumulate(np.where(np.append(True, elem[1:] != elem[:-1]), pos, 0))
    # every pair but its element's first, by set: it meets pos − first
    # earlier sets (m·len(key) < 2^63 for any family that fits in memory)
    act = np.flatnonzero(pos > first)
    act = np.sort(owner[act] * len(key) + act) % len(key)
    act_owner = owner[act]
    earlier = act - first[act]
    ends = np.cumsum(earlier)
    sums = list(range(m))
    width = t + 1
    lo = 0
    while lo < len(act):
        # whole sets only, so each pair (j, i) lies in a single chunk
        hi = max(int(np.searchsorted(ends, ends[lo] - earlier[lo] + _PAIR_CHUNK, "right")), lo + 1)
        hi = int(np.searchsorted(act_owner, act_owner[hi - 1], "right"))
        cnt = earlier[lo:hi]
        i_lo = int(act_owner[lo])
        # partner pair positions first[p], ..., p - 1 of every active pair p
        starts = np.repeat(first[act[lo:hi]] - (np.cumsum(cnt) - cnt), cnt)
        keys = np.repeat(act_owner[lo:hi] - i_lo, cnt) * m + owner[starts + np.arange(len(starts))]
        keys.sort()
        run = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
        overlap = np.diff(run, prepend=-1)  # o = |S_j ∩ S_i| of each pair (j, i)
        hist = np.bincount(keys[run] // m * width + overlap)
        cells = np.flatnonzero(hist)
        for cell, count in zip(cells.tolist(), hist[cells].tolist()):
            i, o = divmod(cell, width)
            sums[i_lo + i] += (count << o) - count  # count·(2^o − 1)
        lo = hi
    return tuple(sums)


def verify_design(design: WeakDesign, r: Fraction | int) -> DesignCertificate:
    """Recompute every overlap sum exactly (:func:`overlap_sums`, from the
    element → set incidence) and check them against r*m.

    Returns the certificate; ``violating_index`` names the first failing set
    (the certificate is still fully populated on failure).
    """
    sums, budget = overlap_sums(design.sets), Fraction(r) * design.m
    return DesignCertificate(
        overlap_sums=sums,
        r_certified=Fraction(max(sums, default=0), design.m or 1),
        violating_index=next((i for i, s in enumerate(sums) if s > budget), None),
    )


def grid_rows(t: int, r: Fraction | int, most: int | None = None) -> int:
    """The least L >= 1 with (1 + 1/L)^t <= r, i.e. (L + 1)^t·den(r) <=
    num(r)·L^t in Python ints, found by doubling and bisection ((1 + 1/L)^t
    falls as L grows).  L <= ceil(t/ln r), since (1 + 1/L)^t < e^{t/L}.
    With ``most``, min(L, most): the search tries no row count past
    ``most``, so it takes no power past most^t (the powers are its cost at
    large t)."""
    r = Fraction(r)
    if r <= 1:
        raise ParameterError("r must be > 1")

    def fits(rows: int) -> bool:  # or reaches most: the least such is min(L, most)
        if most is not None and rows >= most:
            return True
        return (rows + 1) ** t * r.denominator <= r.numerator * rows**t

    lo, hi = 0, 1  # lo does not fit (0: none below 1), hi fits once the doubling stops
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _grid_sets(t: int, count: int, rows: int) -> np.ndarray:
    """`count` sets of the rows × t grid, chosen column by column by the
    conditional-expectation greedy (module docstring); row k holds set k's
    elements v·t + a in column order."""
    if count > rows and count * (rows + 1) ** t >= rows**t << 53:
        # the bin sums below are float64, exact only under 2^53
        raise ParameterError(f"overlap sums of {count} sets exceed 2^53; lower m or r")
    f = np.empty((t, count), dtype=np.int64)  # f[a, k]: the row of set k in column a
    first = min(count, rows)
    f[:, :first] = np.arange(first)  # while k < rows, row k's bins are all empty
    for k in range(first, count):
        weight = np.ones(k)  # 2^{o_j}, o_j the columns set j agrees on so far
        for a in range(t):
            col = f[a, :k]
            v = np.bincount(col, weight, minlength=rows).argmin()
            f[a, k] = v
            weight[col == v] *= 2
    return f.T * t + np.arange(t)


def block_layout(m: int) -> tuple:
    """Block sizes floor(R/2) + 1, R the sets not yet placed."""
    sizes, rest = [], m
    while rest:
        sizes.append(rest // 2 + 1)
        rest -= sizes[-1]
    return tuple(sizes)


def _layout(t: int, m: int, kind: str, r: Fraction) -> list:
    """(sets, rows) of each grid of a design, in order, each grid on its
    own t·rows elements (module docstring); r is ignored by ``"block"``."""
    if t < 1 or m < 1:
        raise ParameterError("t and m must be >= 1")
    # a grid uses at most as many rows as it has sets, so the row search
    # stops at the largest grid's set count
    if kind == "block":
        sizes = block_layout(m)
        rows = grid_rows(t, 2, most=sizes[0])
        return [(size, min(size, rows)) for size in sizes]
    if kind == "greedy":
        if r <= 1:
            raise ParameterError("greedy design needs r > 1")
        return [(m, grid_rows(t, r, most=m))]
    raise ParameterError(f"unknown design kind {kind!r}")


def design_seed_length(t: int, m: int, kind: str, r: Fraction) -> int:
    """Universe size d, the seed length, of a design of m t-sets:
    t times the rows of its grids (:func:`_layout`)."""
    return t * sum(rows for _count, rows in _layout(t, m, kind, r))


def _build(t: int, m: int, kind: str, r: Fraction) -> WeakDesign:
    """The design of :func:`_layout`'s grids, certified to r."""
    offset, grids = 0, []
    for count, rows in _layout(t, m, kind, r):
        grids.append(_grid_sets(t, count, rows) + offset)
        offset += t * rows
    design = WeakDesign(offset, np.concatenate(grids))
    if design.r_certified > r:
        raise ConstructionError(
            f"{kind} design certification failed: r = {design.r_certified} > {r}"
        )
    return design


def greedy_basic_design(t: int, m: int, r_target: Fraction | int) -> WeakDesign:
    """Weak design on one grid of min(m, grid_rows(t, r_target)) rows, so
    d = t·min(m, grid_rows(t, r_target)) and r_certified <= r_target."""
    return _build(t, m, "greedy", Fraction(r_target))


def block_design(t: int, m: int) -> WeakDesign:
    """Weak (t,1)-design: one grid of min(size, grid_rows(t, 2)) rows per
    block of :func:`block_layout`, each on its own universe, so d is at most
    :func:`block_design_length_bound`, the r=1 construction's shape."""
    return _build(t, m, "block", Fraction(1))


def block_design_length_bound(t: int, m: int) -> int:
    """Upper bound t·grid_rows(t, 2)·ceil(log2(4m)) on block_design's d,
    at most t·ceil(t/ln 2)·ceil(log2(4m))."""
    return t * grid_rows(t, 2) * (4 * m - 1).bit_length()


def serialize_design(design: WeakDesign) -> bytes:
    """Versioned binary format: header + the m ascending rows as u32-LE."""
    r = design.r_certified
    head = SERIAL_MAGIC + struct.pack(
        "<IIIIQQ",
        SERIAL_VERSION,
        design.t,
        design.m,
        design.d,
        r.numerator,
        r.denominator,
    )
    return head + design.sets.astype("<u4").tobytes()


def deserialize_design(data: bytes) -> WeakDesign:
    off = 4 + struct.calcsize("<IIIIQQ")
    if len(data) < off:
        raise ParameterError("design payload length mismatch")
    if data[:4] != SERIAL_MAGIC:
        raise ParameterError("bad design magic")
    version, t, m, d, num, den = struct.unpack_from("<IIIIQQ", data, 4)
    if version != SERIAL_VERSION:
        raise ParameterError(f"unsupported design version {version}")
    if len(data) != off + 4 * t * m:
        raise ParameterError("design payload length mismatch")
    try:
        design = WeakDesign(d, np.frombuffer(data, "<u4", t * m, off).reshape(m, t))
    except ParameterError as exc:
        # a well-formed header with inconsistent sets means the payload
        # was corrupted, not that the caller passed bad parameters
        raise VerificationError(f"stored sets are inconsistent: {exc}") from exc
    # a zero denominator is no rational, so it matches no recomputation
    if den == 0 or design.r_certified != Fraction(num, den):
        raise VerificationError(
            f"stored r_certified {num}/{den} does not match recomputation "
            f"{design.r_certified}",
        )
    return design
