"""Seeded randomness extraction toolkit.

Certified weak designs, a list-decodable-code one-bit extractor, their
composition into a multi-bit strong extractor, Toeplitz two-universal
hashing, exact min-entropy tools, an analysis harness running the security
reductions at micro scale, and parameter calculators for the composition
theorems.
"""

from .bitfield import BinaryField, BitString
from .code_extractor import CodeSpec, code_params, extract_bit, min_symbol_size
from .entropy import (
    Distribution,
    JointDistribution,
    flat_source,
    hmin,
    hmin_cond,
    hmin_smooth_classical,
    variational_distance,
)
from .errors import (
    ConstructionError,
    ParameterError,
    SizeGuardError,
    TrevextError,
    UnsupportedParametersError,
    VerificationError,
)
from .harness import (
    extractor_error,
    hybrid_gaps,
    majority_predictor,
    max_error_flat_sources,
    reduction_witness,
    smoothing_robustness_check,
    weak_seed_split_check,
)
from .params import (
    ExtractorParams,
    preset,
    rt_upper_bound,
    smooth_budget,
    trevisan_params,
)
from .trevisan import TrevisanInstance, extract, extract_bytes, extract_stream, seed_masks
from .universal_hash import ToeplitzSpec, compose, toeplitz_extractor, toeplitz_hash
from .weak_design import (
    WeakDesign,
    block_design,
    deserialize_design,
    greedy_basic_design,
    serialize_design,
    verify_design,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryField",
    "BitString",
    "CodeSpec",
    "ConstructionError",
    "Distribution",
    "ExtractorParams",
    "JointDistribution",
    "ParameterError",
    "SizeGuardError",
    "ToeplitzSpec",
    "TrevisanInstance",
    "TrevextError",
    "UnsupportedParametersError",
    "VerificationError",
    "WeakDesign",
    "block_design",
    "code_params",
    "compose",
    "deserialize_design",
    "extract",
    "extract_bit",
    "extract_bytes",
    "extract_stream",
    "extractor_error",
    "flat_source",
    "greedy_basic_design",
    "hmin",
    "hmin_cond",
    "hmin_smooth_classical",
    "hybrid_gaps",
    "majority_predictor",
    "max_error_flat_sources",
    "min_symbol_size",
    "preset",
    "reduction_witness",
    "rt_upper_bound",
    "seed_masks",
    "serialize_design",
    "smooth_budget",
    "smoothing_robustness_check",
    "toeplitz_extractor",
    "toeplitz_hash",
    "trevisan_params",
    "variational_distance",
    "verify_design",
    "weak_seed_split_check",
]
