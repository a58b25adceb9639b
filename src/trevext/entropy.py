"""Exact distributions, (conditional / smooth) min-entropy and distances.

All side information here is classical: a joint distribution assigns exact
rational mass to pairs (value, side symbol).  These routines are the oracles
behind every security test in the analysis harness, so they stay in exact
arithmetic throughout; entropies are returned as floats of exact rationals
(-log2 of an exact guessing probability, which callers can also query
directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Mapping, Tuple

from .errors import ParameterError


def _as_fraction_map(mass: Mapping) -> Dict[Hashable, Fraction]:
    out = {}
    for k, v in mass.items():
        f = Fraction(v)
        if f < 0:
            raise ParameterError(f"negative mass at {k!r}")
        if f:
            out[k] = f
    return out


@dataclass(frozen=True)
class Distribution:
    """Finite pmf with exact rational masses; sub-normalized allowed."""

    mass: Dict[Hashable, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "mass", _as_fraction_map(self.mass))
        if self.total > 1:
            raise ParameterError("total mass exceeds 1")

    @property
    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))

    @property
    def is_normalized(self) -> bool:
        return self.total == 1

    def __getitem__(self, k) -> Fraction:
        return self.mass.get(k, Fraction(0))


@dataclass(frozen=True)
class JointDistribution(Distribution):
    """Exact pmf over pairs (x, e) with marginalization helpers."""

    def __post_init__(self):
        for k in self.mass:
            if not (isinstance(k, tuple) and len(k) == 2):
                raise ParameterError(f"joint key {k!r} is not an (x, e) pair")
        super().__post_init__()

    def marginal_x(self) -> Distribution:
        return Distribution({x: p for (x,), p in marginalize(self.mass, (0,)).items()})

    def marginal_e(self) -> Distribution:
        return Distribution({e: p for (e,), p in marginalize(self.mass, (1,)).items()})


def pguess(P: Distribution) -> Fraction:
    if not P.mass:
        raise ParameterError("empty support")
    return max(P.mass.values())


def hmin(P: Distribution) -> float:
    """-log2 of the largest mass (requires a normalized distribution)."""
    if not P.is_normalized:
        raise ParameterError("hmin requires a normalized distribution")
    return -_log2(pguess(P))


def pguess_cond(J: JointDistribution) -> Fraction:
    """Optimal guessing probability of x given the side symbol: sum_e max_x."""
    if not J.mass:
        raise ParameterError("empty support")
    best: Dict[Hashable, Fraction] = {}
    for (x, e), p in J.mass.items():
        if p > best.get(e, Fraction(0)):
            best[e] = p
    return sum(best.values(), Fraction(0))


def hmin_cond(J: JointDistribution) -> float:
    if not J.is_normalized:
        raise ParameterError("hmin_cond requires a normalized distribution")
    return -_log2(pguess_cond(J))


def smooth_clip_level(P: Distribution, eps: Fraction) -> Fraction:
    """Smallest p* with sum_x max(P(x) - p*, 0) <= eps, exact."""
    if not P.is_normalized:
        raise ParameterError("smoothing requires a normalized distribution")
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ParameterError("eps must be in [0, 1)")
    masses = sorted(P.mass.values(), reverse=True)
    prefix = Fraction(0)
    for c, mc in enumerate(masses, start=1):
        prefix += mc
        nxt = masses[c] if c < len(masses) else Fraction(0)
        p = (prefix - eps) / c
        if nxt <= p <= mc:
            return max(p, Fraction(0))
    raise ParameterError("unreachable: no consistent clip level")


def hmin_smooth_classical(P: Distribution, eps: Fraction) -> float:
    """Trace-distance-ball smooth min-entropy of a classical distribution.

    Computed by probability clipping, which is the optimal sub-normalized
    smoothing under the trace distance.  (This upper-bounds the purified
    distance variant, which is strictly stronger as a metric.)
    """
    return -_log2(smooth_clip_level(P, eps))


def variational_distance(P: Distribution, Q: Distribution) -> Fraction:
    """(1/2) sum |P - Q|, exact."""
    keys = set(P.mass) | set(Q.mass)
    return sum((abs(P[k] - Q[k]) for k in keys), Fraction(0)) / 2


def flat_source(subset: Iterable[Hashable]) -> Distribution:
    """Uniform distribution on a nonempty subset; hmin = log2 |subset|."""
    items = list(subset)
    if not items:
        raise ParameterError("empty subset")
    p = Fraction(1, len(items))
    return Distribution({x: p for x in items})


# -- helpers for multi-coordinate classical joints (chain-rule tests) --------


def marginalize(joint: Mapping, keep: Tuple[int, ...]) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for key, p in joint.items():
        k = tuple(key[i] for i in keep)
        out[k] = out.get(k, Fraction(0)) + Fraction(p)
    return out


def pguess_indices(joint: Mapping, target: Tuple[int, ...], given: Tuple[int, ...]) -> Fraction:
    """sum over `given` values of the max over `target` values, after
    marginalizing out every other coordinate."""
    reduced = marginalize(joint, target + given)
    nt = len(target)
    best: Dict[tuple, Fraction] = {}
    for key, p in reduced.items():
        g = key[nt:]
        if p > best.get(g, Fraction(0)):
            best[g] = p
    return sum(best.values(), Fraction(0))


def hmin_indices(joint: Mapping, target: Tuple[int, ...], given: Tuple[int, ...] = ()) -> float:
    return -_log2(pguess_indices(joint, target, given))


def h0_index(joint: Mapping, coord: int) -> float:
    """log2 of the support size of one coordinate."""
    return math.log2(len(marginalize(joint, (coord,))))


def _log2(x: Fraction) -> float:
    x = Fraction(x)
    if x <= 0:
        raise ParameterError("log of non-positive value")
    return math.log2(x.numerator) - math.log2(x.denominator)
