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



SRC = Path(fb.__file__).resolve().parent

# The per-entry readers of caller input: forest._as_count reads a count (m,
# an atom size, a region field), bounds._checked_indices an index list.
ENTRY_READERS = {("forest", "_as_count"), ("bounds", "_checked_indices")}


def test_one_reader_per_kind_of_input():
    # operator.index reads one entry; a use of it anywhere but in the two
    # readers is a third reader.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # each node's innermost enclosing function
        for func in ast.walk(tree):  # outer functions come first
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                if "index" in {alias.name for alias in node.names}:
                    found.add((path.stem, "from operator import index"))
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "index"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"
            ):
                found.add((path.stem, scope.get(node)))
    assert found == ENTRY_READERS
