"""The public API: exactly the names of ``forestbound.__all__``, and the
names the benchmark harness imports beside them."""

import ast
import importlib
from pathlib import Path

import forestbound as fb
import forestbound.bounds
from forestbound import sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
    "build_dyadic",
    "compact",
    "complete_family",
    "curve_from_pvalues",
    "fast_curve",
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

# The brute-force references live in tests/oracles.py, not in the package.
TEST_ONLY = [
    "TooLargeForOracleError",
    "definition_removed_set",
    "oracle_vstar_partitions",
    "oracle_vstar_sets",
    "oracle_vstar_subsets",
]


def test_public_names():
    assert len(PUBLIC) == 28
    assert sorted(fb.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fb, name) is not None, name
    for name in TEST_ONLY:
        assert not hasattr(fb, name), name
        assert not hasattr(forestbound.bounds, name), name
    for name in SIM:
        assert hasattr(sim, name), name
        assert not hasattr(fb, name), name


def test_perfbench_imports_resolve():
    # The benchmark harness imports names that are not in __all__, such as
    # atom_hit_counts and compact; every name it imports must still resolve.
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            module = getattr(node, "module", None) or ""
            if module.partition(".")[0] == "forestbound":
                imported += [(module, alias.name) for alias in node.names]
    from_package = {name for module, name in imported if module == "forestbound"}
    assert {"atom_hit_counts", "compact"} <= from_package
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
