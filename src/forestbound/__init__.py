"""Post hoc upper bounds on false discoveries over forest-structured
reference families, with an incremental algorithm for whole bound curves."""

# atom_hit_counts is no public name; the benchmark harness imports it here.
from .bounds import atom_hit_counts, vstar
from .curve import BoundCurve, curve_from_pvalues, fast_curve, naive_curve
from .errors import (
    DuplicateRegionError,
    ForestError,
    FormatError,
    IncompleteFamilyError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NotAPermutationError,
    OverlapError,
    SizeMismatchError,
    UnknownRegionError,
    ZetaRangeError,
)
from .forest import ForestFamily, Region, RegionKey, build_dyadic, complete_family
from .pruning import PruneResult, compact, prune
from .zeta import ZetaEstimator, apply_zetas, zeta_dkwm, zeta_trivial

__version__ = "0.1.0"

__all__ = [
    "BoundCurve",
    "DuplicateRegionError",
    "ForestError",
    "ForestFamily",
    "FormatError",
    "IncompleteFamilyError",
    "IndexOutOfRangeError",
    "InvalidProbabilityError",
    "NotAPermutationError",
    "OverlapError",
    "PruneResult",
    "Region",
    "RegionKey",
    "SizeMismatchError",
    "UnknownRegionError",
    "ZetaEstimator",
    "ZetaRangeError",
    "apply_zetas",
    "build_dyadic",
    "complete_family",
    "compact",
    "curve_from_pvalues",
    "fast_curve",
    "naive_curve",
    "prune",
    "vstar",
    "zeta_dkwm",
    "zeta_trivial",
]
