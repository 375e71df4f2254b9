"""The public API: exactly the names of ``forestbound.__all__``."""

import forestbound as fb
import forestbound.bounds
from forestbound import sim

PUBLIC = [
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
    "atom_hit_counts",
    "build_dyadic",
    "build_family",
    "compact",
    "complete_family",
    "curve_from_pvalues",
    "fast_curve",
    "fdp_curve",
    "naive_curve",
    "prune",
    "vstar",
    "zeta_dkwm",
    "zeta_trivial",
]

# The scenario and timing names live in forestbound.sim alone.
SIM = [
    "BenchReport",
    "ScalingReport",
    "ScenarioConfig",
    "TimingSummary",
    "gen_pvalues",
    "run_scenario",
    "scaling_check",
]

# The brute-force references live in tests/conftest.py, not in the package.
TEST_ONLY = [
    "TooLargeForOracleError",
    "definition_removed_set",
    "oracle_vstar_partitions",
    "oracle_vstar_sets",
    "oracle_vstar_subsets",
]


def test_public_names():
    assert len(PUBLIC) == 31
    assert sorted(fb.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fb, name) is not None, name
    for name in TEST_ONLY:
        assert not hasattr(fb, name), name
        assert not hasattr(forestbound.bounds, name), name
    for name in SIM:
        assert hasattr(sim, name), name
        assert not hasattr(fb, name), name
