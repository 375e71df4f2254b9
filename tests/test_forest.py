"""Family construction, validation, depths, completion, and builders."""

import random
import tracemalloc

import numpy as np
import pytest

import forestbound as fb
from forestbound import (
    DuplicateRegionError,
    IndexOutOfRangeError,
    OverlapError,
    RegionKey,
    SizeMismatchError,
    UnknownRegionError,
    ZetaRangeError,
)
from forestbound.forest import DYADIC_MAX_M

from oracles import (
    EXAMPLE_ATOMS,
    EXAMPLE_COMPLETION,
    EXAMPLE_M,
    EXAMPLE_REGIONS,
    random_family,
)


def brute_depth(family, key):
    key = RegionKey(*key)
    count = 0
    for other in family.keys():
        if (other.i <= key.i and key.j <= other.j) and other != key:
            count += 1
    return 1 + count


def levels_by_depth(family):
    """Region keys grouped by depth: entry h-1 lists the depth-h keys by i."""
    levels = [[] for _ in range(family.height)]
    for reg in family.regions():
        levels[reg.depth - 1].append(reg.key)
    return [sorted(level) for level in levels]


def brute_forest_law(family):
    keys = list(family.keys())
    for a in keys:
        for b in keys:
            inter_lo, inter_hi = max(a.i, b.i), min(a.j, b.j)
            if inter_lo > inter_hi:
                continue  # disjoint
            nested = (a.i <= b.i and b.j <= a.j) or (b.i <= a.i and a.j <= b.j)
            if not nested:
                return False
    return True


class TestBuildFamily:
    def test_example_family_builds(self, example_family):
        assert example_family.m == 25
        assert example_family.n_atoms == 8
        assert len(example_family) == 12
        assert example_family.height == 3
        assert example_family.is_complete

    def test_single_atom_family(self):
        fam = fb.ForestFamily(1, (1,), [(1, 1, 1)])
        assert fam.height == 1
        assert fam.is_complete

    def test_partial_overlap_rejected(self):
        with pytest.raises(OverlapError):
            fb.ForestFamily(3, (1, 1, 1), [(1, 2, 1), (2, 3, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateRegionError):
            fb.ForestFamily(2, (1, 1), [(1, 2, 1), (1, 2, 2)])

    def test_zeta_range_rejected(self):
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 2, 3)])
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 2, -1)])
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 2, 2.0)])  # not an integer

    def test_atom_sizes_must_sum_to_m(self):
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(5, (2, 2), [(1, 1, 1)])

    def test_zero_size_family_rejected(self):
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(0, (), [])

    def test_nonpositive_atom_rejected(self):
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2, (2, 0), [(1, 1, 1)])

    def test_booleans_rejected(self):
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(True, (1,), [(1, 1, 1)])
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2, (True, 1), [(1, 1, 1)])
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2, (1, 1), [(True, 1, 1)])
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2, (1, 1), [(1, True, 1)])
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 1, True)])
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 1, False)])

    def test_counts_must_fit_int64(self):
        # The row table is int64: m, keys and budgets beyond it are refused.
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2**63, (2**63,), [])
        with pytest.raises(SizeMismatchError):
            fb.ForestFamily(2**64, (2**63, 2**63), [])
        assert fb.ForestFamily(2**63 - 1, (2**63 - 1,), [(1, 1, 2**62)]).m == 2**63 - 1
        with pytest.raises(IndexOutOfRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 2**64, 0)])
        with pytest.raises(ZetaRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 2, -(2**64))])

    def test_region_key_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            fb.ForestFamily(2, (1, 1), [(1, 3, 0)])
        with pytest.raises(IndexOutOfRangeError):
            fb.ForestFamily(2, (1, 1), [(0, 1, 0)])

    def test_empty_region_list_is_valid(self):
        fam = fb.ForestFamily(3, (1, 1, 1), [])
        assert len(fam) == 0
        assert not fam.is_complete
        assert fam.height == 0


class TestDepth:
    def test_example_depths(self, example_family):
        assert example_family.region((1, 5)).depth == 1
        assert example_family.region((2, 3)).depth == 2
        assert example_family.region((3, 3)).depth == 3
        assert example_family.region((6, 7)).depth == 1
        assert example_family.region((7, 7)).depth == 2
        assert example_family.region((8, 8)).depth == 1

    def test_single_region_depth(self):
        fam = fb.ForestFamily(4, (4,), [(1, 1, 2)])
        assert fam.region((1, 1)).depth == 1

    def test_nested_chain_depth(self):
        fam = fb.ForestFamily(
            4, (1, 1, 1, 1), [(1, 4, 2), (1, 2, 1), (1, 1, 1)]
        )
        assert fam.region((1, 1)).depth == 3
        assert fam.region((1, 2)).depth == 2
        assert fam.region((1, 4)).depth == 1

    def test_unknown_region(self, example_family):
        with pytest.raises(UnknownRegionError):
            example_family.region((2, 5))
        # A key is two integers: no bool, float, single value or triple.
        fam = fb.build_dyadic(3, 2)
        for key in [(True, 1), (1, False), (1.0, 1), (1,), (1, 2, 3), 5, "12", None]:
            assert key not in fam
            for lookup in (fam.region, fam.zeta, fam.region_members, fam.region_size):
                with pytest.raises(UnknownRegionError):
                    lookup(key)
        for n in (True, 1.5, "1", None, 0, 5):
            with pytest.raises(IndexOutOfRangeError):
                fam.atom_members(n)
        key = (np.int64(1), np.int32(2))
        assert key in fam
        assert fam.region(key) == fam.region((1, 2))
        assert type(fam.region(key).key.i) is int
        assert fam.atom_members(np.int64(4)) == range(7, 9)

    def test_cached_depth_matches_definition(self):
        rng = random.Random(101)
        for _ in range(50):
            fam = random_family(rng, max_atoms=8)
            for reg in fam.regions():
                assert reg.depth == brute_depth(fam, reg.key)


class TestForestLaw:
    def test_accepted_families_satisfy_law(self):
        rng = random.Random(202)
        for _ in range(100):
            fam = random_family(rng, max_atoms=8)
            assert brute_forest_law(fam)

    def test_random_overlaps_rejected(self):
        rng = random.Random(303)
        rejected = 0
        for _ in range(200):
            n = rng.randint(3, 7)
            keys = set()
            for _ in range(rng.randint(2, 6)):
                i = rng.randint(1, n)
                keys.add((i, rng.randint(i, n)))
            try:
                fam = fb.ForestFamily(n, (1,) * n, [(i, j, 0) for i, j in keys])
            except OverlapError:
                rejected += 1
                continue
            assert brute_forest_law(fam)
        assert rejected > 0  # the random soup must hit some overlaps


class TestDepthIndex:
    """Regions grouped by depth (``levels_by_depth``)."""

    def test_levels_partition_regions(self, example_family):
        levels = levels_by_depth(example_family)
        assert example_family.height == 3
        assert all(levels)  # every depth up to the height is populated
        seen = [k for level in levels for k in level]
        assert sorted(seen) == sorted(example_family.keys())

    def test_levels_sorted_and_disjoint(self):
        rng = random.Random(404)
        for _ in range(50):
            fam = random_family(rng, max_atoms=8)
            for level in levels_by_depth(fam):
                for a, b in zip(level, level[1:]):
                    assert a.i <= a.j < b.i  # sorted by i and disjoint

    def test_depth_one_partitions_atoms_when_complete(self):
        rng = random.Random(505)
        for _ in range(50):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            roots = levels_by_depth(fam)[0]
            covered = []
            for k in roots:
                covered.extend(range(k.i, k.j + 1))
            assert covered == list(range(1, fam.n_atoms + 1))


class TestCompletion:
    def test_example_completion_adds_missing_atoms(self, partial_family):
        completed = fb.complete_family(partial_family)
        assert completed.is_complete
        added = set(completed.keys()) - set(partial_family.keys())
        assert added == {RegionKey(2, 2), RegionKey(6, 6), RegionKey(8, 8)}
        for i, j, zeta in EXAMPLE_COMPLETION:
            assert completed.zeta((i, j)) == zeta  # cardinality of the atom
        for i, j, zeta in EXAMPLE_REGIONS:
            assert completed.zeta((i, j)) == zeta  # untouched

    def test_idempotent(self, partial_family):
        once = fb.complete_family(partial_family)
        twice = fb.complete_family(once)
        assert once == twice
        assert twice is once  # complete input returned as-is

    def test_empty_family_completion(self):
        fam = fb.complete_family(fb.ForestFamily(3, (1, 1, 1), []))
        assert sorted(fam.keys()) == [(1, 1), (2, 2), (3, 3)]
        assert all(fam.zeta(k) == 1 for k in fam.keys())


class TestRegionMembers:
    def test_example_members(self, example_family):
        assert list(example_family.region_members((4, 5))) == list(
            range(11, 21)
        )
        assert list(example_family.region_members((1, 5))) == list(
            range(1, 21)
        )

    def test_unit_atoms(self):
        fam = fb.ForestFamily(3, (1, 1, 1), [(2, 2, 1)])
        assert list(fam.region_members((2, 2))) == [2]

    def test_dyadic_prefix_sums(self):
        fam = fb.build_dyadic(2, 3)
        assert list(fam.region_members((1, 2))) == list(range(1, 7))
        assert list(fam.region_members((2, 2))) == [4, 5, 6]

    def test_atom_members(self, example_family):
        assert list(example_family.atom_members(3)) == list(range(5, 11))

    def test_region_size(self, example_family):
        assert example_family.region_size((4, 5)) == 10


class TestBuildDyadic:
    def test_height_10(self):
        fam = fb.build_dyadic(10, 2)
        assert fam.m == 1024
        assert len(fam) == 1023
        assert fam.n_atoms == 512
        assert fam.height == 10
        assert fam.is_complete

    def test_height_1(self):
        fam = fb.build_dyadic(1, 5)
        assert fam.m == 5
        assert sorted(fam.keys()) == [(1, 1)]

    def test_height_2_structure(self):
        fam = fb.build_dyadic(2, 1)
        assert sorted(fam.keys()) == [(1, 1), (1, 2), (2, 2)]
        assert fam.m == 2

    def test_children_tile_parents(self):
        fam = fb.build_dyadic(4, 3)
        levels = levels_by_depth(fam)
        assert len(levels) == 4
        for h, level in enumerate(levels[:-1], start=1):
            below = levels[h]
            for key in level:
                inside = [k for k in below if key.i <= k.i and k.j <= key.j]
                covered = sorted(
                    n for k in inside for n in range(k.i, k.j + 1)
                )
                assert covered == list(range(key.i, key.j + 1))

    def test_default_budgets_are_sizes(self):
        fam = fb.build_dyadic(3, 2)
        for reg in fam.regions():
            assert reg.zeta == fam.region_size(reg.key)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fb.build_dyadic(0, 1)
        with pytest.raises(ValueError):
            fb.build_dyadic(3, 0)
        with pytest.raises(SizeMismatchError):
            fb.build_dyadic(True, 1)
        with pytest.raises(SizeMismatchError):
            fb.build_dyadic(2, True)

    def test_size_guard_refuses_before_allocating(self):
        assert DYADIC_MAX_M == 2**31 - 1
        refused = ((40, 1), (32, 1), (2, 2**30), (1, 2**31), (10**9, 1))
        tracemalloc.start()
        try:
            for height, atom_size in refused:
                with pytest.raises(ValueError, match=str(DYADIC_MAX_M)):
                    fb.build_dyadic(height, atom_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # Up to the limit, a family of one or two atoms still builds.
        assert fb.build_dyadic(1, 2**31 - 1).m == 2**31 - 1
        assert fb.build_dyadic(2, 2**30 - 1).m == 2**31 - 2


class TestTipContiguity:
    def test_successors_tile_complete_families(self):
        # In any complete family, the depth-(h+1) regions inside a depth-h
        # region cover its atoms exactly (this is what lets child sums be
        # contiguous range sums).
        rng = random.Random(606)
        for _ in range(100):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            levels = levels_by_depth(fam)
            for h, level in enumerate(levels[:-1], start=1):
                below = levels[h]
                for key in level:
                    if key.i == key.j:
                        continue  # atoms have no successors
                    inside = [
                        k for k in below if key.i <= k.i and k.j <= key.j
                    ]
                    covered = sorted(
                        n for k in inside for n in range(k.i, k.j + 1)
                    )
                    assert covered == list(range(key.i, key.j + 1))
