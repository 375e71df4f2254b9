"""Pruning: removal correctness, bound invariance, and the by-products."""

import random

import pytest

import forestbound as fb
from forestbound import IncompleteFamilyError, RegionKey
from forestbound.bounds import NUMPY_MIN_ATOMS, _sweep_py

from oracles import (
    definition_removed_set,
    edge_budget_families,
    random_family,
    random_path,
    random_selection,
)


class TestPruneExample:
    def test_removes_exactly_one_region(self, example_family):
        result = fb.prune(example_family)
        assert result.removed == {RegionKey(6, 7)}
        assert RegionKey(6, 7) not in result.pruned_family
        assert len(result.pruned_family) == 11

    def test_vstar_full_by_product(self, example_family):
        result = fb.prune(example_family)
        assert result.vstar_full == fb.vstar(example_family, set(range(1, 26)))
        assert result.vstar_full == 10

    def test_depths_recomputed(self, example_family):
        pruned = fb.prune(example_family).pruned_family
        # (6, 6) and (7, 7) lose their parent and surface at depth 1
        assert pruned.region((6, 6)).depth == 1
        assert pruned.region((7, 7)).depth == 1

    def test_atoms_only_family_unchanged(self):
        fam = fb.ForestFamily(4, (2, 2), [(1, 1, 1), (2, 2, 2)])
        result = fb.prune(fam)
        assert result.removed == frozenset()
        assert result.pruned_family == fam

    def test_dyadic_trivial_removes_all_internal(self):
        fam = fb.zeta_trivial(fb.build_dyadic(10, 2))
        result = fb.prune(fam)
        assert len(result.removed) == 511
        assert len(result.pruned_family) == 512
        assert all(k.i == k.j for k in result.pruned_family.keys())

    def test_requires_complete(self, partial_family):
        with pytest.raises(IncompleteFamilyError):
            fb.prune(partial_family)


class TestPruneProperties:
    def test_bound_invariance(self):
        rng = random.Random(53)
        for _ in range(120):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            pruned = fb.prune(fam).pruned_family
            for _ in range(8):
                sel = random_selection(rng, fam.m)
                assert fb.vstar(fam, sel) == fb.vstar(pruned, sel)

    def test_matches_definition_checker(self):
        # Families of every size run one sweep of their row table; vstar's
        # engine changes at NUMPY_MIN_ATOMS, so both sides are checked.
        rng = random.Random(59)
        for _ in range(200):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            assert fb.prune(fam).removed == definition_removed_set(fam)
        for _ in range(20):
            fam = fb.complete_family(
                random_family(
                    rng, min_atoms=NUMPY_MIN_ATOMS, max_atoms=NUMPY_MIN_ATOMS + 48
                )
            )
            result = fb.prune(fam)
            assert result.removed == definition_removed_set(fam)
            assert result.vstar_full == fb.vstar(fam, set(range(1, fam.m + 1)))
        for atoms in (8, NUMPY_MIN_ATOMS):
            for fam in edge_budget_families(rng, atoms):
                result = fb.prune(fam)
                assert result.removed == definition_removed_set(fam)
                assert result.vstar_full == _sweep_py(fam, fam._offsets.tolist())[-1]
                full = range(1, fam.m + 1)
                assert fb.vstar(result.pruned_family, full) == result.vstar_full

    @pytest.mark.parametrize("atoms", [16, NUMPY_MIN_ATOMS * 4])
    def test_builds_no_view_of_vstar(self, atoms):
        m = 4 * atoms
        pvalues = [(h + 0.5) / m for h in range(m)]
        fam = fb.zeta_dkwm(fb.build_dyadic(atoms.bit_length(), 4), pvalues, 0.05)
        state = set(vars(fam))
        fb.prune(fam)
        assert set(vars(fam)) == state
        assert "_views" not in state

    def test_removed_and_kept_partition_the_region_set(self):
        rng = random.Random(61)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            result = fb.prune(fam)
            kept = set(result.pruned_family.keys())
            assert kept | result.removed == set(fam.keys())
            assert kept & result.removed == set()
            assert all(type(k) is fb.RegionKey for k in result.removed)

    def test_atoms_never_removed(self):
        rng = random.Random(67)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            assert all(k.i != k.j for k in fb.prune(fam).removed)

    def test_idempotent(self):
        rng = random.Random(71)
        for _ in range(100):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            once = fb.prune(fam).pruned_family
            assert fb.prune(once).removed == frozenset()

    def test_pruned_family_stays_complete(self):
        rng = random.Random(73)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            assert fb.prune(fam).pruned_family.is_complete

    def test_vstar_full_matches_direct_evaluation(self):
        rng = random.Random(79)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            result = fb.prune(fam)
            assert result.vstar_full == fb.vstar(fam, set(range(1, fam.m + 1)))


class TestCompact:
    def test_compact_of_example(self, example_family):
        result = fb.prune(example_family)
        compacted = fb.compact(result)
        assert compacted is result.pruned_family
        assert len(compacted) == 11
        path = random_path(random.Random(0), example_family.m)
        assert fb.fast_curve(compacted, path) == fb.fast_curve(
            example_family, path
        )

    def test_compact_without_removals(self):
        fam = fb.ForestFamily(4, (2, 2), [(1, 1, 1), (2, 2, 2)])
        result = fb.prune(fam)
        assert fb.compact(result) == fam

    def test_vstar_unchanged_by_compact(self):
        rng = random.Random(83)
        for _ in range(40):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            result = fb.prune(fam)
            compacted = fb.compact(result)
            for _ in range(10):
                sel = random_selection(rng, fam.m)
                assert fb.vstar(result.pruned_family, sel) == fb.vstar(
                    compacted, sel
                )
