"""Weak (t,r)-design construction and exact certification.

A family S_1..S_m of t-subsets of [d] is a weak (t,r)-design when every
prefix overlap sum ``sum_{j<i} 2^{|S_j ∩ S_i|}`` is at most ``r*m``.  Two
constructions are provided:

* :func:`greedy_basic_design` — derandomized greedy (method of conditional
  expectations) on a universe of size ``d = t * ceil(t / ln r)``, certifying
  ``r_certified <= r_target``.
* :func:`block_design` — the r=1 composition: set indices are partitioned
  into geometrically shrinking blocks, each block running the greedy
  construction with budget 2 on its own disjoint universe, so cross-block
  overlaps contribute exactly 2^0 = 1 each.

Free elements first: each greedy set takes the lowest-index elements that
lie in no earlier set before any candidate is scored.  This is the greedy's
own choice, not a shortcut.  Against an earlier set with current overlap o,
a free element's marginal cost is exactly 0, while one of that set's
elements costs 2^(o+1)·E[2^H'] − 2^o·E[2^H] > 0 whenever d > t, where H'
and H are the (hypergeometric) overlaps of a uniform completion with the
set's unchosen elements after picking that element or a free one; at d = t
every set is the whole universe.  So the sequential greedy picks the free
elements, in ascending order, and only the steps left once they run out are
scored.

A candidate's cost depends on each earlier set holding it only through the
set's overlap level o (t − o of its elements are unchosen).  So the float
scores are one weighted bincount over the (m, t) array of earlier sets, and
near-ties are scored exactly once per distinct histogram of levels; tie
clouds over 256 keep the float winner (42 % of the scored steps over 177
block and greedy shapes).

Certification is always exact (big integers / rationals), independent of how
the sets were produced.  :func:`overlap_sums` counts every overlap from the
element → set incidence (sorted (element, set) pairs; each element pairs the
sets holding it, and a pair of sets met at o elements overlaps in o), then
adds hist[o]·(2^o − 1) per set in Python ints; building, loading and
verifying a design all certify through it.  The greedy's per-set budget
check is exact too, from the overlap levels the greedy already tracks, so a
scoring error can never produce an invalid certified design.

Universe sizes are exact too.  :func:`design_seed_length` is the one rule
for a design's d, and the ceil(t/ln r) in it is resolved in rational
arithmetic (:func:`ceil_div_ln`), so no rounding can move d.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConstructionError, ParameterError, VerificationError

SERIAL_MAGIC = b"WDSN"
SERIAL_VERSION = 1


@dataclass(frozen=True)
class DesignCertificate:
    """Exact per-index overlap sums plus the tight r they certify."""

    overlap_sums: tuple  # sum_{j<i} 2^{|S_j cap S_i|}, big integers
    r_certified: Fraction  # max overlap sum / m
    checked_r: Fraction | None = None
    violating_index: int | None = None  # first i (0-based) exceeding checked_r * m

    @property
    def ok(self) -> bool:
        return self.violating_index is None


@dataclass(frozen=True)
class WeakDesign:
    t: int
    d: int
    m: int
    sets: tuple  # m sorted tuples of distinct indices in [0, d)
    r_certified: Fraction

    def __post_init__(self):
        _check_sets(self.t, self.d, self.m, self.sets)

    @classmethod
    def from_sets(cls, d: int, sets: Sequence[Sequence[int]]):
        tsets = tuple(tuple(sorted(s)) for s in sets)
        t = len(tsets[0]) if tsets else 0
        _check_sets(t, d, len(tsets), tsets)  # a malformed family never reaches the kernel
        sums = overlap_sums(tsets)
        r_cert = Fraction(max(sums), len(tsets)) if tsets else Fraction(0)
        return cls(t=t, d=d, m=len(tsets), sets=tsets, r_certified=r_cert)


def _flat(sets: Sequence[Sequence[int]], size: int) -> np.ndarray:
    """The elements of every set, set after set, as one int64 array."""
    return np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64, count=size)


def _check_sets(t: int, d: int, m: int, sets: Sequence[Sequence[int]]) -> None:
    """Raise ParameterError unless `sets` is m sets of t distinct indices in
    [0, d).  Checked in one pass over the elements; a failing family is
    walked set by set, so the first faulty set names the error."""
    if len(sets) != m:
        raise ParameterError("set count does not match m")
    if all(len(s) == t for s in sets):
        rows = np.sort(_flat(sets, m * t).reshape(m, t), axis=1)
        if not (m and t) or (
            (rows[:, 1:] != rows[:, :-1]).all() and rows[:, 0].min() >= 0 and rows[:, -1].max() < d
        ):
            return
    for s in sets:
        if len(s) != t or len(set(s)) != t:
            raise ParameterError("each set must hold t distinct indices")
        if s and (min(s) < 0 or max(s) >= d):
            raise ParameterError("set index outside universe")


# pair keys counted at once by overlap_sums: 2 MiB of int64 keys, or one
# set's pairs if it has more
_PAIR_CHUNK = 1 << 18


def overlap_sums(sets: Sequence[Sequence[int]]) -> tuple:
    """Exact prefix overlap sums ``sum_{j<i} 2^{|S_j ∩ S_i|}``, one per set,
    as Python ints.

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
    m = len(sets)
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=m)
    elems = _flat(sets, int(sizes.sum()))
    if not len(elems):
        return tuple(range(m))
    low, high = int(elems.min()), int(elems.max())
    if (high - low + 1) * m < 1 << 63:
        elems -= low
    else:  # the keys below would overflow: the elements' ranks, same order
        elems = np.searchsorted(np.sort(elems), elems)
    # the incidence as (element, set) keys, sorted and each pair once: an
    # element's sets are ascending, and one repeated within a set counts once
    key = np.sort(elems * m + np.repeat(np.arange(m), sizes))
    key = key[np.append(True, key[1:] != key[:-1])]
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
    width = int(sizes.max()) + 1
    weight = [(1 << o) - 1 for o in range(width)]
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
            sums[i_lo + i] += count * weight[o]
        lo = hi
    return tuple(sums)


def verify_design(design: WeakDesign, r: Fraction | int) -> DesignCertificate:
    """Recompute every overlap sum exactly (:func:`overlap_sums`, from the
    element → set incidence) and check them against r*m.

    Returns the certificate; ``violating_index`` names the first failing set
    (the certificate is still fully populated on failure).
    """
    r = Fraction(r)
    sums = overlap_sums(design.sets)
    r_cert = Fraction(max(sums), design.m) if sums else Fraction(0)
    violating = None
    for i, s in enumerate(sums):
        if s > r * design.m:
            violating = i
            break
    return DesignCertificate(
        overlap_sums=sums,
        r_certified=r_cert,
        checked_r=r,
        violating_index=violating,
    )


def _ln_bounds(r: Fraction, terms: int) -> tuple:
    """Rationals lo < ln r < hi for r > 1, from `terms` terms of atanh.

    ln r = k·ln 2 + ln x with x = r/2^k in [1, 2), and each logarithm is
    ln y = 2·atanh(z) = 2·sum_j z^(2j+1)/(2j+1) with z = (y−1)/(y+1) in
    [0, 1/3].  Every term is nonnegative, so a partial sum is a lower
    bound; the tail after N terms is below z^(2N+1)/((2N+1)(1−z²)).
    """

    def two_atanh(z: Fraction) -> tuple:
        z2, power, total = z * z, z, Fraction(0)
        for j in range(terms):
            total += power / (2 * j + 1)
            power *= z2
        tail = power / ((2 * terms + 1) * (1 - z2))
        return 2 * total, 2 * (total + tail)

    k = r.numerator.bit_length() - r.denominator.bit_length()
    if r < 1 << k:
        k -= 1
    x = r / (1 << k)
    ln2_lo, ln2_hi = two_atanh(Fraction(1, 3))
    lnx_lo, lnx_hi = two_atanh((x - 1) / (x + 1))
    return k * ln2_lo + lnx_lo, k * ln2_hi + lnx_hi


def ceil_div_ln(t: int, r: Fraction) -> int:
    """ceil(t / ln r), exact, in rational arithmetic.

    ln r is bounded between two rationals lo < ln r < hi (:func:`_ln_bounds`)
    and the number of series terms is doubled until ceil(t/hi) equals
    ceil(t/lo).  The loop ends: ln r is irrational for rational r > 1, so
    t/ln r is not an integer and the shrinking interval around it
    eventually contains none.
    """
    if r <= 1:
        raise ParameterError("r must be > 1")
    r = Fraction(r)
    terms = 8
    while True:
        lo, hi = _ln_bounds(r, terms)
        ceil = -(-t // hi)
        if ceil == -(-t // lo):
            return ceil
        terms *= 2


@lru_cache(maxsize=None)
def _expected_weight_exact(n_remaining: int, picks: int, available: int) -> Fraction:
    """E[2^H] for H ~ Hypergeometric(n_remaining, available, picks), exact."""
    if picks < 0 or available < 0:
        raise ParameterError("negative hypergeometric parameter")
    total = math.comb(n_remaining, picks)
    acc = 0
    for h in range(max(0, picks - (n_remaining - available)), min(available, picks) + 1):
        acc += math.comb(available, h) * math.comb(n_remaining - available, picks - h) * (1 << h)
    return Fraction(acc, total)


@lru_cache(maxsize=None)
def _weight_table_float(n_remaining: int, picks: int, t: int) -> np.ndarray:
    """w[a] ~= E[2^H], H ~ Hypergeom(n_remaining, a, picks), a = 0..t."""

    def logc(n, k):
        if k < 0 or k > n:
            return -math.inf
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    out = np.empty(t + 1)
    lden = logc(n_remaining, picks)
    for a in range(t + 1):
        lo = max(0, picks - (n_remaining - a))
        hi = min(a, picks)
        if lo > hi:
            out[a] = 0.0
            continue
        term = math.exp(logc(a, lo) + logc(n_remaining - a, picks - lo) - lden + lo * math.log(2))
        acc = term
        for h in range(lo, hi):
            term *= 2.0 * (a - h) * (picks - h) / ((h + 1) * (n_remaining - a - picks + h + 1))
            acc += term
        out[a] = acc
    return out


def _score_deltas(d: int, t: int, step: int) -> np.ndarray:
    """Marginal greedy cost, indexed by a previous set's current overlap o,
    of picking one of its elements at elemental step `step` (0-based)."""
    n_remaining = d - step - 1
    picks = t - step - 1
    w = _weight_table_float(n_remaining, picks, t)
    o = np.arange(t)
    # delta[o] = 2^(o+1) * w[t-o-1] - 2^o * w[t-o]
    return np.ldexp(w[t - 1 - o], o + 1) - np.ldexp(w[t - o], o)


def greedy_basic_design(t: int, m: int, r_target: Fraction | float) -> WeakDesign:
    """Weak design with d = t*ceil(t/ln r_target) and r_certified <= r_target.

    Sets are built one element at a time, each element chosen to minimize the
    exact conditional expectation of the prefix overlap sum under uniform
    completion; ties break to the lowest index.  Every finished set's overlap
    sum is re-checked exactly against the budget.
    """
    if t < 1 or m < 1:
        raise ParameterError("t and m must be >= 1")
    r_target = Fraction(r_target).limit_denominator(10**12) if not isinstance(
        r_target, Fraction
    ) else r_target
    if r_target <= 1:
        raise ParameterError("r_target must be > 1")
    d = design_seed_length(t, m, "greedy", r_target)
    return WeakDesign.from_sets(d, _greedy_sets(t, m, d, r_target, universe_offset=0))


def _greedy_sets(t, m, d, r_target, universe_offset):
    """Core greedy loop on universe [0, d); returns sets shifted by offset."""
    budget = r_target * m
    sets = np.empty((m, t), dtype=np.intp)  # row j: set j, sorted once finished
    covered = np.zeros(d, dtype=bool)  # union of all previous sets
    for i in range(m):
        # free elements cost exactly 0 and every covered one costs more
        # (module docstring), so they come first, lowest index first
        free = np.flatnonzero(~covered)[:t]
        row, prev = sets[i], sets[:i]
        row[: len(free)] = free
        overlaps = np.zeros(i, dtype=np.intp)  # |S_j ∩ chosen| per earlier set
        for step in range(len(free), t):
            # per element, the deltas of the sets holding it in ascending j
            weights = np.repeat(_score_deltas(d, t, step)[overlaps], t)
            scores = np.bincount(prev.ravel(), weights, minlength=d)
            scores[row[:step]] = np.inf
            e = _argmin_with_exact_ties(scores, d, t, step, prev, overlaps)
            row[step] = e
            overlaps += (prev == e).any(axis=1)
        row.sort()
        # free elements lie in no earlier set, so overlaps[j] = |S_j ∩ S_i|
        exact_sum = sum(n << o for o, n in enumerate(np.bincount(overlaps).tolist()))
        if exact_sum > budget:
            raise ConstructionError(
                f"greedy overlap budget violated at set {i}: {exact_sum} > {budget}"
            )
        covered[row] = True
    return (sets + universe_offset).tolist()


def _argmin_with_exact_ties(scores, d, t, step, prev, overlaps):
    """First index attaining the float minimum; near-ties are re-scored with
    exact rationals so the winner (lowest index among exact minima) does not
    depend on rounding.

    Each earlier set holding a candidate adds D(o) = 2^(o+1)·E[2^H'] −
    2^o·E[2^H] at its overlap level o, with t − o − 1 and t − o of its
    elements unchosen for H' and H; so D is computed once per level and
    each distinct histogram of levels is scored once.  Tie clouds over 256
    keep the float winner.  Every candidate lies in some earlier set, since
    scoring starts once the free elements are used up.
    """
    e = int(np.argmin(scores))
    best = scores[e]
    tol = 1e-9 * (abs(best) + 1e-30)
    near = np.flatnonzero(scores <= best + tol)
    if len(near) == 1 or len(near) > 256:
        # a single winner, or a pathological tie cloud: the float winner
        return e
    flat = prev.ravel()
    held = np.isin(flat, near)
    # hist[c, o]: the earlier sets at overlap level o that hold near[c]
    key = np.searchsorted(near, flat[held]) * t + np.repeat(overlaps, t)[held]
    hist = np.bincount(key, minlength=len(near) * t).reshape(len(near), t)
    groups, inverse = np.unique(hist, axis=0, return_inverse=True)
    levels = np.flatnonzero(groups.any(axis=0)).tolist()
    n_remaining, picks = d - step - 1, t - step - 1
    level_delta = [
        (1 << (o + 1)) * _expected_weight_exact(n_remaining, picks, t - o - 1)
        - (1 << o) * _expected_weight_exact(n_remaining, picks, t - o)
        for o in levels
    ]
    exact = [sum(n * x for n, x in zip(c, level_delta)) for c in groups[:, levels].tolist()]
    return int(near[min(range(len(near)), key=lambda c: exact[inverse[c]])])


def block_layout(m: int) -> tuple:
    """Block sizes ceil(m/2), ceil(m/4), ..., truncated to sum to m."""
    sizes, total, b = [], 0, 1
    while total < m:
        size = min((m + (1 << b) - 1) // (1 << b), m - total)
        sizes.append(size)
        total += size
        b += 1
    return tuple(sizes)


def design_seed_length(t: int, m: int, kind: str, r: Fraction) -> int:
    """Universe size d, the seed length, of a design of m t-sets.

    ``"greedy"`` (:func:`greedy_basic_design`): t·ceil(t/ln r).
    ``"block"`` (:func:`block_design`, r ignored): t·ceil(t/ln 2) per block
    of :func:`block_layout`.
    """
    if kind == "block":
        return t * ceil_div_ln(t, 2) * len(block_layout(m))
    if kind == "greedy":
        if r <= 1:
            raise ParameterError("greedy design needs r > 1")
        return t * ceil_div_ln(t, r)
    raise ParameterError(f"unknown design kind {kind!r}")


def block_design(t: int, m: int) -> WeakDesign:
    """Weak (t,1)-design: greedy blocks with budget 2 on disjoint universes.

    Total d is at most t*ceil(t/ln 2)*ceil(log2(4m)), matching the r=1
    construction's parameter shape.
    """
    if t < 1 or m < 1:
        raise ParameterError("t and m must be >= 1")
    layout = block_layout(m)
    d = design_seed_length(t, m, "block", Fraction(1))
    d_block = d // len(layout)  # each block's own universe
    all_sets: list[tuple] = []
    for b, size in enumerate(layout):
        all_sets.extend(_greedy_sets(t, size, d_block, Fraction(2), b * d_block))
    design = WeakDesign.from_sets(d, all_sets)
    if design.r_certified > 1:
        raise ConstructionError(
            f"block design certification failed: r = {design.r_certified}"
        )
    return design


def block_design_length_bound(t: int, m: int) -> int:
    """Upper bound t*ceil(t/ln 2)*ceil(log2(4m)) on block_design's d."""
    return t * ceil_div_ln(t, Fraction(2)) * (4 * m - 1).bit_length()


def serialize_design(design: WeakDesign) -> bytes:
    """Versioned binary format: header + m sorted u32-LE index arrays."""
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
    body = b"".join(
        struct.pack(f"<{design.t}I", *s) for s in design.sets
    )
    return head + body


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
    sets = []
    for i in range(m):
        sets.append(struct.unpack_from(f"<{t}I", data, off + 4 * t * i))
    try:
        design = WeakDesign.from_sets(d, sets)
    except ParameterError as exc:
        # a well-formed header with inconsistent sets means the payload
        # was corrupted, not that the caller passed bad parameters
        raise VerificationError(f"stored sets are inconsistent: {exc}") from exc
    stored = Fraction(num, den)
    if design.r_certified != stored:
        raise VerificationError(
            f"stored r_certified {stored} does not match recomputation "
            f"{design.r_certified}",
        )
    return design
