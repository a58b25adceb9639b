"""Parameter arithmetic for the security guarantees and the named presets.

Every quantity here is a pure function of the inputs; nothing is built.
All logarithms are base 2.  Asymptotic O(1) terms are pinned to the
explicit values in ``PINNED_CONSTANTS`` so that reports are reproducible;
reports print both the asymptotic form and the pinned number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .bitfield import MAX_BINARY_FIELD_DEGREE
from .code_extractor import min_symbol_size
from .entropy import _log2
from .errors import ParameterError
from .weak_design import design_seed_length

REPORT_SCHEMA_VERSION = 3

# Pinned values for every O(1) appearing in a stated bound.
PINNED_CONSTANTS = {
    # output-length upper bound m <= k - 2 log 1/eps + O(1): additive
    # constant taken as 0 (worst case for feasibility claims).
    "rt_additive": 0.0,
    # exact accounting of the uniform-seed preset threshold:
    # k = m + 4 log2(1/eps_C) = m + 8 log2 m + 8 log2(1/eps) + 8 log2 3,
    # so the advertised "+ O(1)" equals 8 log2 3.
    "preset_cor1_additive": 8 * math.log2(3),
    # leftover-hash threshold for two-universal hashing:
    # k >= m + 2 log2(1/eps) + 0 (universal_hash.required_min_entropy).
    "leftover_hash_additive": 0.0,
}


@dataclass(frozen=True)
class ExtractorParams:
    n: int
    k: float  # min-entropy threshold
    eps: Fraction  # advertised error
    m: int
    d: int  # seed length
    t: int  # one-bit extractor seed length
    r: Fraction  # design overlap parameter
    delta: Fraction  # code list-decoding radius
    preset: str
    eps_c: Fraction  # one-bit extractor error
    k_c: float  # one-bit extractor threshold
    s_bits: int  # field symbol size
    constructible: bool  # field arithmetic available for this symbol size
    notes: tuple = ()

    @property
    def entropy_loss(self) -> float:
        return self.k - self.m

    @property
    def rt_slack(self) -> float:
        """Gap to the optimal loss: Delta - 2 log2(1/eps)."""
        return self.entropy_loss - 2 * _log2(1 / self.eps)


def trevisan_params(
    n: int,
    eps: Fraction,
    m: int,
    design_kind: str = "block",
    r: Fraction = Fraction(1),
) -> ExtractorParams:
    """Uniform-seed composition parameters.

    The one-bit error is set so the m-fold union bound meets the target:
    eps_C = (eps/3m)^2, giving advertised error 3m*sqrt(eps_C) = eps.  The
    code radius comes from the one-bit security statement eps_C = 2*delta.
    The threshold is k = k_C + r*m + log2(1/eps_C) with k_C = 3 log2(1/eps_C).
    """
    eps = Fraction(eps)
    if m < 1 or not 0 < eps < 1:
        raise ParameterError("need m >= 1 and 0 < eps < 1")
    r = Fraction(1) if design_kind == "block" else Fraction(r)
    eps_c = (eps / (3 * m)) ** 2
    delta = eps_c / 2
    s = min_symbol_size(n, delta)
    t = 2 * s
    d = design_seed_length(t, m, design_kind, r)
    k_c = 3 * _log2(1 / eps_c)
    k = k_c + float(r) * m + _log2(1 / eps_c)
    notes = (
        "advertised error 3m*sqrt(eps_C) equals eps exactly",
        "code radius from eps_C = 2*delta; folding the factor 2 into the "
        "radius instead gives the laxer delta = eps^2/9m^2 = "
        f"{float(eps**2 / (9 * m**2)):.3g} (we use {float(delta):.3g})",
    )
    if k > n:
        notes += (f"required min-entropy k = {k:.2f} exceeds the block length n = {n}, "
                  "so no source of n-bit blocks meets it",)
    return ExtractorParams(
        n=n, k=k, eps=eps, m=m, d=d, t=t, r=r, delta=delta,
        preset=f"uniform-seed/{design_kind}", eps_c=eps_c, k_c=k_c,
        s_bits=s, constructible=s <= MAX_BINARY_FIELD_DEGREE, notes=notes,
    )


@dataclass(frozen=True)
class OutputLengthBound:
    m_max: float
    infeasible: bool  # raw bound was negative (reported as 0)


def rt_upper_bound(k: float, eps: Fraction) -> OutputLengthBound:
    """Largest extractable length: k - 2 log2(1/eps) (additive constant 0)."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    raw = k - 2 * _log2(1 / Fraction(eps)) + PINNED_CONSTANTS["rt_additive"]
    if raw < 0:
        return OutputLengthBound(0.0, True)
    return OutputLengthBound(raw, False)


def smooth_budget(eps: Fraction, eps_prime: Fraction) -> Fraction:
    """Error after replacing the source by an eps'-close one: eps + 2 eps'."""
    eps, eps_prime = Fraction(eps), Fraction(eps_prime)
    if eps < 0 or eps_prime < 0:
        raise ParameterError("error terms must be nonnegative")
    return eps + 2 * eps_prime


def preset(name: str, n: int, eps: Fraction, m: int) -> ExtractorParams:
    """Named parameter presets for the concrete constructions."""
    if name == "cor1":
        return trevisan_params(n, eps, m, design_kind="block")
    raise ParameterError(f"unknown preset {name!r}")


# -- reports -----------------------------------------------------------------


def params_report_machine(p: ExtractorParams) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "preset": p.preset,
        "n": p.n,
        "m": p.m,
        "eps": [p.eps.numerator, p.eps.denominator],
        "k": p.k,
        "d": p.d,
        "t": p.t,
        "r": [p.r.numerator, p.r.denominator],
        "delta": [p.delta.numerator, p.delta.denominator],
        "eps_c": [p.eps_c.numerator, p.eps_c.denominator],
        "k_c": p.k_c,
        "symbol_bits": p.s_bits,
        "constructible": p.constructible,
        "entropy_loss": p.entropy_loss,
        "rt_slack": p.rt_slack,
        "notes": list(p.notes),
        "pinned_constants": PINNED_CONSTANTS,
    }


def params_report_text(p: ExtractorParams) -> str:
    doc = params_report_machine(p)
    lines = [f"extractor parameters ({p.preset})"]
    for key in (
        "n", "m", "k", "d", "t", "symbol_bits", "k_c",
        "entropy_loss", "rt_slack", "constructible",
    ):
        lines.append(f"  {key:16} = {doc[key]}")
    lines.append(f"  {'eps':16} = {p.eps} ({float(p.eps):.3g})")
    lines.append(f"  {'eps_c':16} = {float(p.eps_c):.6g}")
    lines.append(f"  {'delta':16} = {float(p.delta):.6g}")
    lines.append(f"  {'r':16} = {p.r}")
    for note in p.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def params_report_json(p: ExtractorParams) -> str:
    return json.dumps(params_report_machine(p), indent=2, sort_keys=True)
