"""Deterministic identification codes over finite memoryless channels.

Construction of typical-set identification codes, certified (exact-DP) and
Monte Carlo error measurement, packing/covering geometry, and sweepable
rate-reliability bounds with a CSV/SVG command line.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelModel,
    bernoulli_family,
    dedupe_and_purge,
    identity_channel,
    load_channel,
    make_channel,
    truncate_channel,
)
from .codebook import CodeParams, DICode, construct, derive_params, distance_code
from .errors import SizeGuardError, ValidationError
from .evaluator import (
    ErrorReport,
    exact_error_report,
    measure_lambda1,
    measure_lambda2,
    monte_carlo_errors,
    typical_set_prob,
)
from .geometry import (
    DimensionEstimate,
    PointCloud,
    estimate_dimension,
    max_packing,
    min_covering,
)
from .infodist import (
    binary_entropy,
    entropy,
    fidelity,
    hypothesis_testing_divergence,
    sqrt_embed,
    typicality_constants,
)

__all__ = [
    "ChannelModel", "bernoulli_family", "dedupe_and_purge", "identity_channel",
    "load_channel", "make_channel", "truncate_channel",
    "CodeParams", "DICode", "construct", "derive_params", "distance_code",
    "SizeGuardError", "ValidationError",
    "ErrorReport", "exact_error_report", "measure_lambda1", "measure_lambda2",
    "monte_carlo_errors", "typical_set_prob",
    "DimensionEstimate", "PointCloud", "estimate_dimension", "max_packing", "min_covering",
    "binary_entropy", "entropy", "fidelity", "hypothesis_testing_divergence",
    "sqrt_embed", "typicality_constants",
]
