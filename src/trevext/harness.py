"""Micro-scale executable checks of the security reductions.

Everything here runs on explicit finite distributions in exact rational
arithmetic: extractor error as a variational distance, the per-position
hybrid decomposition, the distinguisher-to-predictor reduction with its
materialized advice tables, the majority predictor, and the robustness
statements (smoothing, weak seeds).  Side information is always classical.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .bitfield import BitString
from .code_extractor import extract_bit
from .entropy import Distribution, JointDistribution, hmin_cond, variational_distance
from .errors import ParameterError, SizeGuardError
from .trevisan import TrevisanInstance, extract

MAX_HYBRID_M = 12
MAX_PREDICTOR_NBAR = 16
MAX_WITNESS_N = 8
MAX_EXACT_SOURCE_N = 12
MAX_EXHAUSTIVE_FAMILIES = 10**6


# -- generic extractor plumbing ----------------------------------------------


def _dims(ext) -> Tuple[int, int, int]:
    try:
        return ext.n, ext.d, ext.m
    except AttributeError:
        raise ParameterError("extractor must expose n, d, m") from None


def _apply(ext, x: BitString, y: BitString) -> BitString:
    if isinstance(ext, TrevisanInstance):
        return extract(ext, x, y)
    return ext(x, y)


def _uniform_seed(d: int) -> Distribution:
    p = Fraction(1, 1 << d)
    return Distribution({BitString(d, v): p for v in range(1 << d)})


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
    the seed defaults to uniform."""
    n, d, m = _dims(ext)
    if n > MAX_EXACT_SOURCE_N:
        raise SizeGuardError(f"exact error oracle limited to n <= {MAX_EXACT_SOURCE_N}")
    if seed is None:
        seed = _uniform_seed(d)
    return (n, m, *_scaled(seed.mass))


def _output(ext, m: int, x: BitString, y: BitString) -> int:
    z = _apply(ext, x, y)
    if not isinstance(z, BitString) or z.length != m:
        raise ParameterError(f"extractor output {z!r} is not a {m}-bit string")
    return z.value


def _error_cells(ext, m: int, sources: list, seeds: list) -> Dict[tuple, Dict[int, int]]:
    """Integer masses by conditioning cell: (seed key, e) -> {Ext(x, y): px * py}.

    `sources` holds ((x, e), px) and `seeds` holds ((y, seed key), py), both
    as scaled by `_scaled`.
    """
    cells: Dict[tuple, Dict[int, int]] = {}
    for (y, key), py in seeds:
        for (x, e), px in sources:
            cell = cells.setdefault((key, e), {})
            z = _output(ext, m, x, y)
            cell[z] = cell.get(z, 0) + px * py
    return cells


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
    _n, m, seeds, ly = _scaled_seed(ext, seed)
    sources, lx = _scaled(_as_joint(source).mass)
    cells = _error_cells(ext, m, sources, [((y, y.value), py) for y, py in seeds])
    return _distance(cells.values(), m, lx * ly)


@dataclass(frozen=True)
class FamilyErrorReport:
    max_error: Fraction
    regime: str  # "exhaustive" | "sampled"
    sources_checked: int
    worst_support: tuple


def _flat_scorer(ext, seed: Optional[Distribution]):
    """A function from a set of input values to the exact error of the flat
    source on it.

    Ext is tabulated once on every (input, seed) pair, so scoring a support
    only counts table entries; the count goes through `_distance`.
    """
    n, m, seeds, ly = _scaled_seed(ext, seed)
    columns = [
        ([_output(ext, m, BitString(n, xv), y) for xv in range(1 << n)], py)
        for y, py in seeds
    ]

    def score(support) -> Fraction:
        cells = []
        for column, py in columns:
            cell: Dict[int, int] = {}
            for xv in support:
                z = column[xv]
                cell[z] = cell.get(z, 0) + py
            cells.append(cell)
        return _distance(cells, m, len(support) * ly)

    return score


def max_error_flat_sources(
    ext,
    k: int,
    seed: Optional[Distribution] = None,
    samples: int = 200,
    hillclimb_passes: int = 2,
    rng_seed: int = 0,
) -> FamilyErrorReport:
    """Max extractor error over flat sources with min-entropy exactly k.

    Flat sources are the extreme points of the min-entropy-k polytope, so
    the max over them bounds the max over all k-sources.  Exhaustive when
    the number of supports is small; otherwise random supports plus greedy
    single-swap hill climbing, deterministic in `rng_seed`.  Ext is
    evaluated once per (input, seed) pair, whatever the number of supports.
    """
    n, _d, _m = _dims(ext)
    size = 1 << k
    if size > 1 << n:
        raise ParameterError("k exceeds n")
    score = _flat_scorer(ext, seed)

    if math.comb(1 << n, size) <= MAX_EXHAUSTIVE_FAMILIES:
        best, best_sup, count = Fraction(0), (), 0
        for sup in itertools.combinations(range(1 << n), size):
            count += 1
            e = score(sup)
            if e > best:
                best, best_sup = e, sup
        return FamilyErrorReport(
            best, "exhaustive", count, tuple(BitString(n, v) for v in best_sup)
        )

    # the walk iterates sets of BitStrings, so their order fixes the result
    universe = [BitString(n, v) for v in range(1 << n)]

    def err(sup) -> Fraction:
        return score([x.value for x in sup])

    rng = random.Random(rng_seed)
    best, best_sup, count = Fraction(0), (), 0
    for _ in range(samples):
        sup = set(rng.sample(universe, size))
        e = err(sup)
        count += 1
        for _ in range(hillclimb_passes):
            improved = False
            for drop in list(sup):
                add = rng.choice(universe)
                if add in sup:
                    continue
                cand = (sup - {drop}) | {add}
                ce = err(cand)
                count += 1
                if ce > e:
                    sup, e, improved = cand, ce, True
            if not improved:
                break
        if e > best:
            best, best_sup = e, frozenset(sup)
    return FamilyErrorReport(
        best, "sampled", count, tuple(sorted(best_sup, key=lambda b: b.value))
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


def hybrid_gaps(J: JointDistribution, m: int) -> HybridReport:
    """Exact per-position hybrid distances for an m-bit value with side info.

    Hybrid i keeps the first i bits of Z and replaces the rest by fresh
    uniform bits; gap i is the distance between hybrids i and i-1, so the
    gaps telescope the total distance of (Z, E) from U_m x E.
    """
    if not 1 <= m <= MAX_HYBRID_M:
        raise SizeGuardError(f"hybrid enumeration limited to 1 <= m <= {MAX_HYBRID_M}")
    masses, scale = _scaled(J.mass)

    def cells(lo: int, width: int) -> list:
        """Masses of Z's integer bits [lo, lo+width) given the bits above and E."""
        out: Dict[tuple, Dict[int, int]] = {}
        for (z, e), p in masses:
            if not isinstance(z, BitString) or z.length != m:
                raise ParameterError("Z values must be m-bit strings")
            cell = out.setdefault((z.value >> (lo + width), e), {})
            bits = (z.value >> lo) & ((1 << width) - 1)
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
    """Joint of (Ext(X,Y), (Y, E)) — the input hybrid_gaps expects."""
    n, d, _m = _dims(inst)
    if n > MAX_EXACT_SOURCE_N:
        raise SizeGuardError("joint build limited to micro n")
    joint = _as_joint(source)
    if seed is None:
        seed = _uniform_seed(d)
    out: Dict[tuple, Fraction] = {}
    for (x, e), px in joint.mass.items():
        for y, py in seed.mass.items():
            key = (_apply(inst, x, y), (y, e))
            out[key] = out.get(key, Fraction(0)) + px * py
    return JointDistribution(out)


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
    si = set(inst.design.sets[i])
    return sum(1 << len(si & set(inst.design.sets[j])) for j in range(i))


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
    joint = _as_joint(source)
    if seed is None:
        seed = _uniform_seed(inst.d)

    report = hybrid_gaps(extraction_joint(inst, source, seed), inst.m)
    i = report.argmax
    si = inst.design.sets[i]
    si_set = set(si)
    outside = [p for p in range(inst.d) if p not in si_set]

    def advice(x: BitString, y: BitString) -> tuple:
        tables = []
        for j in range(i):
            sj = inst.design.sets[j]
            overlap = [p for p in sj if p in si_set]
            tab = 0
            for assign in range(1 << len(overlap)):
                bits = list(y)
                for a, p in enumerate(overlap):
                    bits[p] = (assign >> (len(overlap) - 1 - a)) & 1
                yy = BitString.from_bits(bits)
                b = extract_bit(
                    inst.code, x, yy.substring(sj).prefix(inst.code.t)
                )
                tab = (tab << 1) | b
            tables.append((len(overlap), tab))
        return tuple(tables)

    dist: Dict[tuple, Dict[int, Fraction]] = {}
    per_w: Dict[BitString, Dict[tuple, Dict[int, Fraction]]] = {}
    for (x, e), px in joint.mass.items():
        for y, py in seed.mass.items():
            v = y.substring(si).prefix(inst.code.t)
            w = y.substring(outside)
            g = advice(x, y)
            c = extract_bit(inst.code, x, v)
            p = px * py
            key = (v, w, g, e)
            dist.setdefault(key, {0: Fraction(0), 1: Fraction(0)})[c] += p
            per_w.setdefault(w, {}).setdefault(
                key, {0: Fraction(0), 1: Fraction(0)}
            )[c] += p

    advantage = sum(
        (abs(cs[0] - cs[1]) for cs in dist.values()), Fraction(0)
    ) / 2

    def w_score(w) -> Fraction:
        mass = sum((cs[0] + cs[1] for cs in per_w[w].values()), Fraction(0))
        if mass == 0:
            return Fraction(0)
        return sum(
            (abs(cs[0] - cs[1]) for cs in per_w[w].values()), Fraction(0)
        ) / (2 * mass)

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
    seed_sources_checked: int


def weak_seed_split_check(
    ext,
    J_yz: JointDistribution,
    source,
    s: int,
    eps: Fraction,
    max_premise_checks: int = 20000,
) -> WeakSeedReport:
    """Splitting a weak seed by classical side information Z.

    Premises checked on the instance itself: (a) Hmin(Y|Z) >= s + log2(1/eps)
    and (b) the extractor has error <= eps on every flat seed distribution of
    min-entropy s (extreme points; exhaustive up to a size guard).  When both
    hold, the exact error of (Ext(X,Y), Y, Z) against U x (Y, Z) must be at
    most 2*eps; the check is exact.
    """
    n, d, m = _dims(ext)
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError("eps must be in (0, 1]")
    hyz = hmin_cond(J_yz)
    need = s + (-math.log2(eps))
    if hyz < need - 1e-12:
        return WeakSeedReport(None, 2 * eps, hyz, False,
                              f"Hmin(Y|Z) = {hyz:.4f} < s + log2(1/eps) = {need:.4f}", 0)
    size = 1 << s
    if math.comb(1 << d, size) > max_premise_checks:
        return WeakSeedReport(None, 2 * eps, hyz, False,
                              "too many flat seed sources to certify the premise", 0)
    checked = 0
    for sup in itertools.combinations(range(1 << d), size):
        p = Fraction(1, size)
        sd = Distribution({BitString(d, v): p for v in sup})
        checked += 1
        if extractor_error(ext, source, sd) > eps:
            return WeakSeedReport(
                None, 2 * eps, hyz, False,
                f"extractor exceeds eps on flat seed support {sup}", checked
            )
    # exact error with the seed correlated to Z
    sources, lx = _scaled(_as_joint(source).mass)
    seeds, lyz = _scaled(J_yz.mass)
    cells = _error_cells(ext, m, sources, [((y, (y.value, z)), p) for (y, z), p in seeds])
    err = _distance(cells.values(), m, lx * lyz)
    if err > 2 * eps:
        raise ParameterError("weak-seed splitting bound violated (internal error)")
    return WeakSeedReport(err, 2 * eps, hyz, True, None, checked)


# -- test-vector dump --------------------------------------------------------

TEST_VECTOR_VERSION = "TV1"


def format_test_vector(name: str, params: Dict[str, object], value: Fraction) -> str:
    """One versioned text record: exact rational result plus its parameters."""
    fields = " ".join(f"{k}={params[k]}" for k in sorted(params))
    value = Fraction(value)
    return f"{TEST_VECTOR_VERSION} {name} {fields} = {value.numerator}/{value.denominator}"


def parse_test_vector(line: str) -> Tuple[str, Dict[str, str], Fraction]:
    head, _, val = line.rpartition(" = ")
    parts = head.split()
    if not parts or parts[0] != TEST_VECTOR_VERSION:
        raise ParameterError(f"unsupported test-vector record: {line!r}")
    name = parts[1]
    params = dict(p.split("=", 1) for p in parts[2:])
    num, den = val.split("/")
    return name, params, Fraction(int(num), int(den))
