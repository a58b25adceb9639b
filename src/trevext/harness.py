"""Micro-scale executable checks of the security reductions.

Everything here runs on explicit finite distributions in exact rational
arithmetic: extractor error as a variational distance, the per-position
hybrid decomposition, the distinguisher-to-predictor reduction with its
materialized advice tables, the majority predictor, and the robustness
statements (smoothing; weak seeds, scored per seed).  Side information is
always classical.  One builder, `_cells`, gives the oracles their integer
cells; a uniform seed is 2^d seeds of mass 1, only for d <= MAX_UNIFORM_SEED_D.
Every oracle reads Ext from one table, `_table`: a Trevisan instance is
tabulated from its one-bit extractor, `codeword_bit` once per (input,
one-bit seed) pair, since output bit i of Ext(x, y) is C(x, y_{S_i}); any
other extractor is called once per (input, seed) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .bitfield import BitString
from .code_extractor import codeword_bit, message_symbols
from .entropy import Distribution, JointDistribution, _log2, pguess_cond, variational_distance
from .errors import ParameterError, SizeGuardError
from .trevisan import TrevisanInstance, _bit_seed

MAX_HYBRID_M = 12
MAX_PREDICTOR_NBAR = 16
MAX_WITNESS_N = 8
MAX_EXACT_SOURCE_N = 12
MAX_UNIFORM_SEED_D = 16
MAX_EXHAUSTIVE_FAMILIES = 10**6


# -- generic extractor plumbing ----------------------------------------------


def _dims(ext) -> Tuple[int, int, int]:
    try:
        return ext.n, ext.d, ext.m
    except AttributeError:
        raise ParameterError("extractor must expose n, d, m") from None


def _as_joint(source) -> JointDistribution:
    """Plain Distribution -> joint with a constant side symbol."""
    if isinstance(source, JointDistribution):
        return source
    return JointDistribution({(x, None): p for x, p in source.mass.items()})


# -- extractor error oracle --------------------------------------------------


def _scaled(mass: dict) -> Tuple[list, int]:
    """Masses as integers over their common denominator L: ([(key, p*L)], L)."""
    den = math.lcm(*(p.denominator for p in mass.values()))
    return [(k, p.numerator * (den // p.denominator)) for k, p in mass.items()], den


def _scaled_seed(ext, seed: Optional[Distribution]) -> Tuple[int, int, list, int]:
    """(n, m, scaled seed masses, their denominator) under the size guard;
    the seed defaults to uniform, every d-bit seed of scaled mass 1 over 2^d."""
    n, d, m = _dims(ext)
    if n > MAX_EXACT_SOURCE_N:
        raise SizeGuardError(f"exact error oracle limited to n <= {MAX_EXACT_SOURCE_N}")
    if seed is not None:
        return (n, m, *_scaled(seed.mass))
    if d > MAX_UNIFORM_SEED_D:
        raise SizeGuardError(f"uniform seed limited to d <= {MAX_UNIFORM_SEED_D}")
    return n, m, [(BitString(d, v), 1) for v in range(1 << d)], 1 << d


def _output(ext, m: int, x: BitString, y: BitString) -> int:
    z = ext(x, y)
    if not isinstance(z, BitString) or z.length != m:
        raise ParameterError(f"extractor output {z!r} is not a {m}-bit string")
    return z.value


def _table(ext, xs: list, ys: list) -> list:
    """Ext(x, y) as ints, one row per seed: row j lists Ext(x, ys[j]) for x
    in xs, in order.  Every input must be an n-bit and every seed a d-bit
    BitString; both are checked before Ext runs.

    A Trevisan instance is tabulated one input at a time.  Output bit i is
    C(x, v) at the one-bit seed v = y_{S_i} that `_bit_seed` projects, so
    the input is cut into message symbols once, `codeword_bit` runs once
    per distinct v of any (y, i), and every output is assembled from those
    bits, which are dropped before the next input.  Any other extractor is
    called once per pair (`_output`).
    """
    n, d, m = _dims(ext)
    for what, keys, length in (("input", xs, n), ("seed", ys, d)):
        for key in keys:
            if not isinstance(key, BitString) or key.length != length:
                raise ParameterError(f"{what} {key!r} is not a {length}-bit string")
    if not isinstance(ext, TrevisanInstance):
        return [[_output(ext, m, x, y) for x in xs] for y in ys]
    code, index = ext.code, {}  # one-bit seed -> its position in `index`
    picks = [[index.setdefault(_bit_seed(ext, y, i), len(index)) for i in range(m)]
             for y in ys]
    table = [[0] * len(xs) for _ in ys]
    for col, x in enumerate(xs):
        symbols = message_symbols(code, x)
        bits = [codeword_bit(code, symbols, v) for v in index]
        for row, pick in zip(table, picks):
            z = 0
            for k in pick:
                z = (z << 1) | bits[k]
            row[col] = z
    return table


def _inputs(sources: list) -> dict:
    """The distinct inputs of scaled (x, e) masses, each to its column."""
    return {x: col for col, x in enumerate(dict.fromkeys(x for (x, _e), _p in sources))}


def _cells(ext, source, seed: Optional[Distribution]) -> Tuple[dict, int, int]:
    """(cells, m, scale) under the size guard: integer masses by
    conditioning cell, (y.value, e) -> {Ext(x, y): px * py}, over the
    common denominator `scale` of the source and the seed.

    `source` is a Distribution over inputs or a JointDistribution over
    (input, e); the seed defaults to uniform.  Ext is tabulated once per
    (distinct input, seed) pair (`_table`).
    """
    _n, m, seeds, ly = _scaled_seed(ext, seed)
    sources, lx = _scaled(_as_joint(source).mass)
    inputs = _inputs(sources)
    table = _table(ext, list(inputs), [y for y, _py in seeds])
    cells: Dict[tuple, Dict[int, int]] = {}
    for (y, py), row in zip(seeds, table):
        for (x, e), px in sources:
            cell = cells.setdefault((y.value, e), {})
            z = row[inputs[x]]
            cell[z] = cell.get(z, 0) + px * py
    return cells, m, lx * ly


def _distance(cells, m: int, scale: int) -> Fraction:
    """(1/2) sum over cells of || Z|cell - U_m * mass(cell) ||, exact.

    Each cell maps output values to integer masses over the common
    denominator `scale`; an absent output has mass 0, so it contributes
    the uniform share of the cell's mass.
    """
    size = 1 << m
    total = 0
    for cell in cells:
        p = sum(cell.values())
        total += sum(abs(size * q - p) for q in cell.values()) + (size - len(cell)) * p
    return Fraction(total, 2 * size * scale)


def extractor_error(ext, source, seed: Optional[Distribution] = None) -> Fraction:
    """Exact (1/2)|| (Ext(X,Y), Y, E) - U_m x (Y, E) ||.

    `source` is a Distribution over n-bit inputs or a JointDistribution over
    (input, side symbol); the seed defaults to uniform and is always
    independent of the source.  Masses are summed as integers over the
    common denominators of the source and the seed.
    """
    cells, m, scale = _cells(ext, source, seed)
    return _distance(cells.values(), m, scale)


@dataclass(frozen=True)
class FamilyErrorReport:
    max_error: Fraction
    regime: str  # always "exhaustive": every support is scored
    sources_checked: int
    worst_support: tuple


# count cells of one chunk of flat supports: 128 KiB per int64 scratch array
_FLAT_CELLS = 1 << 14


class _FlatKernel:
    """Exact errors of flat sources with 2^k-element supports, in integers.

    Ext is tabulated once for every input and seed (`_table`: for a
    Trevisan instance, one `codeword_bit` per input and one-bit seed), and
    kept as a (2^n, seeds) int64 table of ranks: entry (x, y) is the rank
    of Ext(x, y) among the distinct outputs of seed y, so a support's
    counts take at most 2^n cells per seed, whatever m is.  A support S of
    size K puts mass p_y·c_{y,z}/K on cell (y, z), c_{y,z} = #{x in S:
    Ext(x, y) = z}; scaled by K·L, the numerator of `_distance` is the
    integer total Σ_y p_y·D_y with

        D_y = Σ_{z < 2^m} |2^m·c_{y,z} − K|
            = Σ_{r < R} |2^m·c_{y,r} − K| + (2^m − R)·K,

    R the most distinct outputs of any one seed: ranks a seed does not
    reach count c = 0, and so does each of the 2^m − R outputs past them.
    Since D_y ≤ 2·2^m·K and Σ_y p_y = L, each total is at most 2·2^m·K·L,
    the error's denominator; the totals are int64 when that is below 2^63,
    else Python ints.  Masses never pass through floating point.
    """

    def __init__(self, ext, seed: Optional[Distribution], k: int):
        n, m, seeds, ly = _scaled_seed(ext, seed)
        inputs = [BitString(n, xv) for xv in range(1 << n)]
        ranks = []
        for column in _table(ext, inputs, [y for y, _py in seeds]):
            rank = {z: r for r, z in enumerate(dict.fromkeys(column))}
            ranks.append([rank[z] for z in column])
        self.width = 1 << m  # 2^m
        self.size = 1 << k  # K
        self.outputs = max(map(max, ranks)) + 1  # R
        self.denominator = 2 * self.width * self.size * ly
        self.dtype = np.int64 if self.denominator < 1 << 63 else object
        self.table = np.array(ranks, dtype=np.int64).T.copy()
        self.masses = np.array([py for _y, py in seeds], dtype=self.dtype)
        # supports per chunk; cell ids are rank-major, (r, support, seed), so
        # that the sum over ranks adds whole rows
        self.chunk = max(1, _FLAT_CELLS // (len(seeds) * max(self.outputs, self.size)))
        self.base = np.arange(self.chunk * len(seeds)).reshape(self.chunk, 1, len(seeds))

    def totals(self, supports: np.ndarray) -> np.ndarray:
        """The total Σ_y p_y·D_y of each row of a (C, K) array of input
        values, C at most `chunk`; the error is total / `denominator`."""
        count, seeds = len(supports), len(self.masses)
        ids = self.table[supports]  # (C, K, seeds)
        ids *= count * seeds
        ids += self.base[:count]
        c = np.bincount(ids.reshape(-1), minlength=self.outputs * count * seeds)
        c = c.reshape(self.outputs, count, seeds).astype(self.dtype, copy=False)
        c *= self.width
        c -= self.size
        dist = np.abs(c).sum(axis=0)
        dist += (self.width - self.outputs) * self.size
        return dist @ self.masses


def max_error_flat_sources(
    ext, k: int, seed: Optional[Distribution] = None
) -> FamilyErrorReport:
    """Max extractor error over flat sources with min-entropy exactly k.

    Flat sources are the extreme points of the min-entropy-k polytope, so
    the max over them bounds the max over all k-sources.  Every support is
    scored, so the maximum is exact; more than MAX_EXHAUSTIVE_FAMILIES
    supports raise SizeGuardError.  Ext is tabulated once for every input
    and seed, whatever the number of supports; a chunk of supports is
    scored per call in exact integer totals (`_FlatKernel`).  The worst
    support is the first maximum in combinations order.
    """
    n, _d, _m = _dims(ext)
    if not 0 <= k <= n:
        raise ParameterError(f"k must be in [0, n={n}]")
    size = 1 << k
    if math.comb(1 << n, size) > MAX_EXHAUSTIVE_FAMILIES:
        raise SizeGuardError(
            f"flat-source search limited to {MAX_EXHAUSTIVE_FAMILIES} supports")
    kernel = _FlatKernel(ext, seed, k)
    supports = itertools.combinations(range(1 << n), size)
    row = np.dtype((np.intp, (size,)))
    best, best_sup, count = 0, (), 0
    while len(chunk := np.fromiter(itertools.islice(supports, kernel.chunk), row)):
        totals = kernel.totals(chunk)
        i = int(np.argmax(totals))  # the first maximum of the chunk
        if totals[i] > best:
            best, best_sup = int(totals[i]), chunk[i].tolist()
        count += len(chunk)
    return FamilyErrorReport(
        Fraction(best, kernel.denominator),
        "exhaustive",
        count,
        tuple(BitString(n, v) for v in best_sup),
    )


# -- hybrid decomposition ----------------------------------------------------


@dataclass(frozen=True)
class HybridReport:
    gaps: tuple  # per-position hybrid distances, exact
    total: Fraction
    argmax: int

    @property
    def m(self) -> int:
        return len(self.gaps)


def _hybrid_guard(m: int) -> None:
    if not 1 <= m <= MAX_HYBRID_M:
        raise SizeGuardError(f"hybrid enumeration limited to 1 <= m <= {MAX_HYBRID_M}")


def hybrid_gaps(J: JointDistribution, m: int) -> HybridReport:
    """Exact per-position hybrid distances for an m-bit value with side info.

    Hybrid i keeps the first i bits of Z and replaces the rest by fresh
    uniform bits; gap i is the distance between hybrids i and i-1, so the
    gaps telescope the total distance of (Z, E) from U_m x E.
    """
    _hybrid_guard(m)
    masses, scale = _scaled(J.mass)
    for (z, _e), _p in masses:
        if not isinstance(z, BitString) or z.length != m:
            raise ParameterError("Z values must be m-bit strings")
    return _hybrid([((z.value, e), p) for (z, e), p in masses], m, scale)


def _hybrid(masses: list, m: int, scale: int) -> HybridReport:
    """:func:`hybrid_gaps` of integer masses ((z, e), p) over `scale`, each
    z an m-bit int."""

    def cells(lo: int, width: int) -> list:
        """Masses of Z's integer bits [lo, lo+width) given the bits above and E."""
        out: Dict[tuple, Dict[int, int]] = {}
        for (z, e), p in masses:
            cell = out.setdefault((z >> (lo + width), e), {})
            bits = (z >> lo) & ((1 << width) - 1)
            cell[bits] = cell.get(bits, 0) + p
        return list(out.values())

    # hybrids i and i-1 differ only in bit i-1 of Z, so gap i is that bit's
    # distance from uniform given the first i-1 bits and E
    gaps = tuple(_distance(cells(m - i, 1), 1, scale) for i in range(1, m + 1))
    total = _distance(cells(0, m), m, scale)
    if sum(gaps, Fraction(0)) < total:
        raise ParameterError("triangle inequality violated (internal error)")
    best = max(range(m), key=lambda i: (gaps[i], -i))
    if total > 0 and gaps[best] * m < total:
        raise ParameterError("max hybrid gap below total/m (internal error)")
    return HybridReport(gaps, total, best)


def extraction_joint(inst, source, seed: Optional[Distribution] = None) -> JointDistribution:
    """Joint of (Ext(X,Y), (Y, E)) — the input hybrid_gaps expects — from
    the integer cell masses of the error oracle, under its size guard."""
    cells, m, scale = _cells(inst, source, seed)
    return JointDistribution({
        (BitString(m, z), (BitString(inst.d, yv), e)): Fraction(q, scale)
        for (yv, e), cell in cells.items() for z, q in cell.items()
    })


# -- distinguisher -> one-bit predictor reduction ---------------------------


@dataclass(frozen=True)
class ReductionWitness:
    index: int  # 0-based output position i
    w: BitString  # seed bits outside S_i (best conditional value)
    advantage: Fraction  # distance of (C(X,V), V, W, G, E) from U_1 x rest
    gap: Fraction  # hybrid gap at position i
    total: Fraction  # total extractor distance
    advice_bits: int  # sum over j<i of 2^{|S_j cap S_i|}


def advice_bits(inst: TrevisanInstance, i: int) -> int:
    sets = inst.design.sets
    return sum(1 << int(o) for o in np.isin(sets[:i], sets[i]).sum(axis=1))


def reduction_witness(
    inst: TrevisanInstance, source, seed: Optional[Distribution] = None
) -> ReductionWitness:
    """Materialize the advice-based one-bit distinguisher at the worst
    hybrid position.

    The advice G for a fixed (x, w) is the tuple of truth tables of the
    previous output bits as functions of the in-set seed bits they overlap;
    conditioning on (V, W, G, E) can only increase distinguishability, so
    the returned advantage is >= the chosen hybrid gap, hence > total/m
    whenever the extractor's total distance exceeds the error budget.
    """
    if inst.n > MAX_WITNESS_N:
        raise SizeGuardError(f"reduction witness limited to n <= {MAX_WITNESS_N}")
    d, m, sets = inst.d, inst.m, inst.design.sets
    _hybrid_guard(m)

    def overlaps_of(i: int) -> list:
        """For each S_j ∩ S_i, j < i: (its size, the mask of its bits in a
        seed value, the bits of each assignment to them in order, the first
        position most significant)."""
        inside = np.isin(np.arange(d), sets[i])
        out = []
        for row in sets[:i]:
            bits = [1 << (d - 1 - int(p)) for p in row[inside[row]]]
            values = [0]
            for b in bits:
                values = [v | f for v in values for f in (0, b)]
            out.append((len(bits), sum(bits), values))
        return out

    _n, _m, seeds, ly = _scaled_seed(inst, seed)
    sources, lx = _scaled(_as_joint(source).mass)
    # one table row per seed value: every seed, and every seed with the bits
    # of some S_j ∩ S_i (j < i) reassigned, for whichever i the hybrids pick
    # (nothing to add once the seeds take every d-bit value); the hybrids
    # read Ext at the seeds, C(X, V) is bit i of Ext at the seed, and the
    # advice table of j is bit j of Ext at its reassignments
    rows = dict.fromkeys(y.value for y, _py in seeds)
    if len(rows) < 1 << d:
        for i in range(1, m):
            for _size, mask, values in overlaps_of(i):
                for y, _py in seeds:
                    rows.update(dict.fromkeys((y.value & ~mask) | f for f in values))
    rows = {yv: row for row, yv in enumerate(rows)}
    inputs = _inputs(sources)
    table = _table(inst, list(inputs), [BitString(d, yv) for yv in rows])
    report = _hybrid([((table[rows[y.value]][inputs[x]], (y.value, e)), px * py)
                      for (x, e), px in sources for y, py in seeds], m, lx * ly)
    i = report.argmax
    outside = np.flatnonzero(~np.isin(np.arange(d), sets[i]))
    overlaps = overlaps_of(i)

    def bit(col: int, yv: int, j: int) -> int:
        """Output bit j of Ext at the input of column col and seed value yv."""
        return (table[rows[yv]][col] >> (m - 1 - j)) & 1

    def advice(col: int, yv: int) -> tuple:
        tables = []
        for j, (size, mask, values) in enumerate(overlaps):
            tab = 0
            for f in values:
                tab = (tab << 1) | bit(col, (yv & ~mask) | f, j)
            tables.append((size, tab))
        return tuple(tables)

    # integer masses by cell (V, W, G, E) -> {C(X, V): px * py}
    cells: Dict[tuple, Dict[int, int]] = {}
    for (x, e), px in sources:
        col = inputs[x]
        for y, py in seeds:
            key = (_bit_seed(inst, y, i), y.substring(outside), advice(col, y.value), e)
            cell = cells.setdefault(key, {})
            c = bit(col, y.value, i)
            cell[c] = cell.get(c, 0) + px * py
    advantage = _distance(cells.values(), 1, lx * ly)

    per_w: Dict[BitString, list] = {}
    for (_v, w, _g, _e), cell in cells.items():
        per_w.setdefault(w, []).append(cell)

    def w_score(w) -> Fraction:
        return _distance(per_w[w], 1, sum(sum(cell.values()) for cell in per_w[w]))

    best_w = max(sorted(per_w, key=lambda b: b.value), key=w_score)

    if advantage < report.gaps[i]:
        raise ParameterError("advice lost distinguishing power (internal error)")
    return ReductionWitness(
        index=i,
        w=best_w,
        advantage=advantage,
        gap=report.gaps[i],
        total=report.total,
        advice_bits=advice_bits(inst, i),
    )


# -- majority predictor ------------------------------------------------------


@dataclass(frozen=True)
class MajorityReport:
    alpha: BitString
    advantage: Fraction  # measured (1/2)|X_Y o Y - U_1 o Y|, Y uniform index
    success: Fraction  # Pr[d(X, alpha) <= 1/2 - delta/2]
    premise_holds: bool  # measured advantage > delta


def majority_predictor(P: Distribution, nbar: int, delta: Fraction) -> MajorityReport:
    """Bitwise-majority string predictor for a random string X.

    If a uniformly indexed bit of X is delta-distinguishable from uniform,
    the majority string alpha agrees with X on a 1/2 + delta/2 fraction of
    positions with probability more than delta; both sides are computed
    exactly and the implication is asserted when the premise holds.
    """
    if nbar < 1:
        raise ParameterError("nbar must be >= 1")
    if nbar > MAX_PREDICTOR_NBAR:
        raise SizeGuardError(f"predictor limited to nbar <= {MAX_PREDICTOR_NBAR}")
    delta = Fraction(delta)
    if not P.is_normalized:
        raise ParameterError("source must be normalized")
    ones = [Fraction(0)] * nbar
    for x, p in P.mass.items():
        if not isinstance(x, BitString) or x.length != nbar:
            raise ParameterError("support must be nbar-bit strings")
        for yv in range(nbar):
            if x[yv]:
                ones[yv] += p
    advantage = sum(
        (abs(p1 - Fraction(1, 2)) for p1 in ones), Fraction(0)
    ) / nbar
    # ties go to 0
    alpha = BitString.from_bits(1 if p1 > Fraction(1, 2) else 0 for p1 in ones)
    threshold = Fraction(1, 2) - delta / 2
    success = Fraction(0)
    for x, p in P.mass.items():
        dist = Fraction((x ^ alpha).value.bit_count(), nbar)
        if dist <= threshold:
            success += p
    premise = advantage > delta
    if premise and not success > delta:
        raise ParameterError("majority predictor bound violated (internal error)")
    return MajorityReport(alpha, advantage, success, premise)


# -- robustness checks -------------------------------------------------------


@dataclass(frozen=True)
class SmoothingReport:
    error: Fraction  # exact error on P
    error_smoothed: Fraction  # exact error on the nearby source
    distance: Fraction  # variational distance between the two sources
    bound: Fraction  # error_smoothed + 2 * distance

    @property
    def ok(self) -> bool:
        return self.error <= self.bound


def smoothing_robustness_check(
    ext, P: Distribution, P_tilde: Distribution, seed: Optional[Distribution] = None
) -> SmoothingReport:
    """Error on a source is at most the error on any nearby source plus
    twice their distance; all three quantities computed exactly."""
    err_p = extractor_error(ext, P, seed)
    err_s = extractor_error(ext, P_tilde, seed)
    dist = variational_distance(P, P_tilde)
    rep = SmoothingReport(err_p, err_s, dist, err_s + 2 * dist)
    if not rep.ok:
        raise ParameterError("smoothing robustness violated (internal error)")
    return rep


@dataclass(frozen=True)
class WeakSeedReport:
    error: Optional[Fraction]  # exact error with side info Z, None if skipped
    bound: Fraction  # 2 * eps
    hmin_y_given_z: float
    premise_ok: bool
    skipped_reason: Optional[str]


def weak_seed_split_check(
    ext, J_yz: JointDistribution, source, s: int, eps: Fraction
) -> WeakSeedReport:
    """Splitting a weak seed by classical side information Z.

    Premises checked on the instance itself: (a) Hmin(Y|Z) >= s + log2(1/eps)
    and (b) the extractor has error <= eps on every flat seed distribution of
    min-entropy s (the extreme points).  The source is independent of (Y, Z),
    so each error is a mixture of the per-seed errors
    err_y = (1/2)|| (Ext(X, y), E) - U_m x E ||: (b) holds exactly when the
    2^s largest err_y sum to at most 2^s * eps, and the error of
    (Ext(X,Y), Y, Z) against U x (Y, Z) is sum_y P_Y(y) err_y, which must be
    at most 2*eps when both premises hold.  Every step is exact.
    """
    _n, d, _m = _dims(ext)
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError("eps must be in (0, 1]")
    if not 0 <= s <= d:
        raise ParameterError(f"seed min-entropy s must be in [0, d={d}]")
    if any(not isinstance(y, BitString) or y.length != d for y, _z in J_yz.mass):
        raise ParameterError(f"seed values of J_yz must be {d}-bit strings")
    # premise (a) is decided exactly: Hmin(Y|Z) >= s + log2(1/eps) is
    # pguess(Y|Z) * 2^s <= eps; the float entropies are for the report only
    pg = pguess_cond(J_yz)
    hyz = -_log2(pg)
    need = s + (-math.log2(eps))
    if pg * 2**s > eps:
        return WeakSeedReport(None, 2 * eps, hyz, False,
                              f"Hmin(Y|Z) = {hyz:.4f} < s + log2(1/eps) = {need:.4f}")
    # one pass over every seed, each of scaled mass 1: err_y over scale / 2^d
    cells, m, scale = _cells(ext, source, None)
    cells_of: Dict[int, list] = {yv: [] for yv in range(1 << d)}
    for (yv, _e), cell in cells.items():
        cells_of[yv].append(cell)
    err = {yv: _distance(c, m, scale >> d) for yv, c in cells_of.items()}
    worst = sorted(err, key=err.__getitem__, reverse=True)[:1 << s]
    if sum(err[yv] for yv in worst) > eps * len(worst):
        return WeakSeedReport(
            None, 2 * eps, hyz, False,
            f"extractor exceeds eps on flat seed support {tuple(sorted(worst))}"
        )
    # exact error with the seed correlated to Z
    total = sum((p * err[y.value] for (y, _z), p in J_yz.mass.items()), Fraction(0))
    if total > 2 * eps:
        raise ParameterError("weak-seed splitting bound violated (internal error)")
    return WeakSeedReport(total, 2 * eps, hyz, True, None)


# -- test-vector dump --------------------------------------------------------

TEST_VECTOR_VERSION = "TV1"


def format_test_vector(name: str, params: Dict[str, object], value: Fraction) -> str:
    """One versioned text record: exact rational result plus its parameters."""
    fields = " ".join(f"{k}={params[k]}" for k in sorted(params))
    value = Fraction(value)
    return f"{TEST_VECTOR_VERSION} {name} {fields} = {value.numerator}/{value.denominator}"


def parse_test_vector(line: str) -> Tuple[str, Dict[str, str], Fraction]:
    """(name, params, value) of a record of `format_test_vector`; any other
    line raises ParameterError."""
    head, _, val = line.rpartition(" = ")
    parts = head.split()
    if not parts or parts[0] != TEST_VECTOR_VERSION:
        raise ParameterError(f"unsupported test-vector record: {line!r}")
    if len(parts) < 2 or any("=" not in p for p in parts[2:]):
        raise ParameterError(f"test-vector record needs a name and key=value fields: {line!r}")
    num, _, den = val.partition("/")
    try:
        value = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"test-vector value is not a fraction p/q: {line!r}") from None
    return parts[1], dict(p.split("=", 1) for p in parts[2:]), value
