"""Incremental curve computation against the naive baseline."""

import copy
import pickle
import random

import numpy as np
import pytest

import forestbound as fb
from forestbound import (
    IncompleteFamilyError,
    InvalidProbabilityError,
    NotAPermutationError,
    sim,
)
from forestbound.bounds import NUMPY_MIN_ATOMS, _path_array, validate_path

from oracles import (
    EXAMPLE_CURVE,
    EXAMPLE_PATH,
    CURVE_FAULT_SCRIPT,
    check_parent_column,
    random_family,
    random_path,
    reference_walk,
)


class TestFastCurveExample:
    def test_on_pruned_family(self, example_family):
        pruned = fb.prune(example_family).pruned_family
        curve = fb.fast_curve(pruned, EXAMPLE_PATH)
        assert curve.values == EXAMPLE_CURVE

    def test_on_unpruned_family(self, example_family):
        assert fb.fast_curve(example_family, EXAMPLE_PATH).values == EXAMPLE_CURVE

    def test_single_atom_family_counts_up(self):
        m = 7
        fam = fb.ForestFamily(m, (m,), [(1, 1, m)])
        path = random_path(random.Random(1), m)
        assert fb.fast_curve(fam, path).values == tuple(range(m + 1))

    def test_curve_properties(self, example_family):
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        assert curve[0] == 0
        assert len(curve) == len(EXAMPLE_PATH) + 1
        assert curve.final == 5


def row_key(family, r):
    return fb.RegionKey(int(family._left[r]), int(family._right[r]))


class TestParentColumn:
    # The rows a step's climb visits: from its atom up ``_parent`` to a root.
    def test_climb_fixtures(self, example_family):
        def climb(hyp):
            r = int(example_family._atom_rows[hyp])
            keys = []
            while r >= 0:
                keys.append(row_key(example_family, r))
                r = int(example_family._parent[r])
            return keys

        assert climb(7) == [(3, 3), (2, 3), (1, 5)]
        assert climb(1) == [(1, 1), (1, 5)]
        assert climb(24) == [(8, 8)]

    def test_parent_is_tightest_container(self, example_family):
        check_parent_column(example_family)
        rng = random.Random(89)
        for _ in range(40):
            check_parent_column(fb.complete_family(random_family(rng, max_atoms=8)))


class TestEquivalence:
    def test_fast_equals_naive_random(self):
        rng = random.Random(97)
        for _ in range(150):
            fam = fb.complete_family(random_family(rng, max_atoms=10, max_atom_size=4))
            path = random_path(rng, fam.m, partial=rng.random() < 0.3)
            # The zeta_trivial twin has only vacuous levels, and on a partial
            # path some levels receive no key.  In the other two twins only
            # the atoms' budgets bind, or only the other rows'.
            atom = fam._left == fam._right
            sizes = fam._sizes
            twins = (
                fam,
                fb.zeta_trivial(fam),
                fam._with_zetas(np.where(atom, fam._zeta, sizes)),
                fam._with_zetas(np.where(atom, sizes, fam._zeta)),
            )
            for twin in twins:
                for steps in (path, path[:1], []):
                    naive = fb.naive_curve(twin, steps)
                    fast = fb.fast_curve(twin, steps)
                    pruned = fb.fast_curve(fb.prune(twin).pruned_family, steps)
                    assert naive == fast == pruned

    def test_engine_equals_naive_on_large_families(self):
        # From NUMPY_MIN_ATOMS atoms up naive_curve's vstar runs the numpy
        # sweep; test_fast_equals_naive_random covers the plain-list side.
        rng = random.Random(211)
        for _ in range(20):
            fam = fb.complete_family(
                random_family(
                    rng, min_atoms=NUMPY_MIN_ATOMS, max_atoms=NUMPY_MIN_ATOMS + 16
                )
            )
            path = random_path(rng, fam.m, partial=rng.random() < 0.3)
            fast = fb.fast_curve(fam, path)
            assert fast == fb.naive_curve(fam, path)
            assert fast == fb.fast_curve(fb.prune(fam).pruned_family, path)

    def test_budget_copies_build_their_own_curve_view(self):
        # The engine caches its per-family constants, which binds holds the
        # budgets of, on the family; each budget copy must read its own.
        rng = random.Random(223)
        base = fb.build_dyadic(8, 3)  # 128 atoms, m = 384
        m = base.m
        pvalues = [(h + 0.5) / m if h < m // 4 else 0.9 for h in range(m)]
        path = random_path(rng, m)
        dkwm = fb.zeta_dkwm(base, pvalues, 0.05)
        assert any(dkwm._curve_view.binds)
        lowered = {key: 0 for key in list(base.keys())[::7]}
        for source in (base, dkwm):
            view = source._curve_view
            fb.fast_curve(source, path)
            copies = [
                fb.zeta_dkwm(source, pvalues, 0.05),
                fb.zeta_trivial(source),
                fb.apply_zetas(source, lowered),
            ]
            for family in copies:
                assert "_curve_view" not in vars(family)
                curve = fb.fast_curve(family, path)
                assert curve == reference_walk(family, path)
                assert curve == fb.naive_curve(family, path)
                assert family._curve_view is not view
                assert family._curve_view.binds == (
                    np.logical_or.reduceat(
                        family._zeta < family._sizes, family._levels[:-1]
                    ).tolist()
                )
            assert copies[0] == dkwm and copies[1] == base
            for family in (source, *copies):
                clone = pickle.loads(pickle.dumps(family))
                assert clone == family
                assert fb.fast_curve(clone, path) == fb.fast_curve(family, path)

    def test_audit_sees_walk_faults(self):
        # With the root's budget loosened from 1 to 2, the second step counts
        # past the budget of the family as read.  The naive curve on the
        # family as read, which ``forestbound curve --audit`` compares with,
        # stays right; on the loosened family both curves agree on every
        # path, so the fault is in the budgets, not in either computation.
        namespace = {}
        exec(CURVE_FAULT_SCRIPT, namespace)
        source, fam = namespace["source"], namespace["fam"]
        assert fb.fast_curve(source, [3, 1]).values == (0, 1, 1)
        assert fb.fast_curve(fam, [3, 1]).values == (0, 1, 2)
        assert fb.naive_curve(source, [3, 1]).values == (0, 1, 1)
        for path in ([3, 1], [3, 1, 2], [1, 2, 3, 4]):
            assert fb.fast_curve(fam, path) == fb.naive_curve(fam, path)

    def test_path_endpoint_independent_of_order(self):
        rng = random.Random(103)
        for _ in range(30):
            fam = fb.complete_family(random_family(rng))
            full = set(range(1, fam.m + 1))
            a = fb.fast_curve(fam, random_path(rng, fam.m))
            b = fb.fast_curve(fam, random_path(rng, fam.m))
            assert a.final == b.final == fb.vstar(fam, full)


class TestStepLaw:
    def test_increments_are_zero_or_one(self):
        rng = random.Random(107)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            curve = fb.fast_curve(fam, random_path(rng, fam.m))
            assert curve[0] == 0
            for prev, cur in zip(curve, curve.values[1:]):
                assert cur - prev in (0, 1)

    def test_flat_step_iff_saturated_cover(self, example_family):
        # Steps 4, 7, 8, 9 of the example fall inside saturated regions.
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        flats = [
            t
            for t in range(1, len(EXAMPLE_PATH) + 1)
            if curve[t] == curve[t - 1]
        ]
        assert flats == [4, 7, 8, 9]


class TestValidation:
    def test_not_a_permutation(self, example_family):
        for bad in ([1, 1], [0], [26], [2.5]):
            with pytest.raises(NotAPermutationError):
                fb.fast_curve(example_family, bad)

    def test_boolean_steps_rejected(self, example_family):
        for bad in ([True], [2, True], [False], iter([True])):
            with pytest.raises(NotAPermutationError):
                fb.fast_curve(example_family, bad)
        assert fb.fast_curve(example_family, [1]).values == (0, 1)

    def test_one_shot_iterable_paths(self, example_family):
        path = [2, 1, *EXAMPLE_PATH]
        expected = fb.fast_curve(example_family, path)
        for curve in (fb.fast_curve, fb.naive_curve):
            assert curve(example_family, iter(path)) == expected
            assert curve(example_family, (x for x in path)) == expected
            assert curve(example_family, dict.fromkeys(path).keys()) == expected

    def test_incomplete_family(self, partial_family):
        with pytest.raises(IncompleteFamilyError):
            fb.fast_curve(partial_family, [1])
        completed = fb.complete_family(partial_family)
        assert fb.fast_curve(completed, EXAMPLE_PATH).values == EXAMPLE_CURVE

    def test_empty_path(self, example_family):
        assert fb.fast_curve(example_family, []).values == (0,)


class TestLargeSidePathCheck:
    # fast_curve and naive_curve check the path as one array and hand every
    # fault to validate_path, so all refuse alike, on the golden family as on a
    # family of 2 * NUMPY_MIN_ATOMS atoms.
    M = 2 * NUMPY_MIN_ATOMS

    @pytest.fixture
    def large_family(self):
        m = self.M
        atoms = [(a, a, 1) for a in range(1, m + 1)]
        return fb.ForestFamily(m, (1,) * m, [(1, m, 9), *atoms])

    BAD = [
        lambda m: [True],
        lambda m: [1, True],
        lambda m: [2, True],
        lambda m: [3, np.True_, 2],
        lambda m: [np.True_],
        lambda m: [0],
        lambda m: [m + 1],
        lambda m: [1, 2**70],
        lambda m: [1, 2**63],
        lambda m: [5, 2, 5],
        lambda m: np.array([7, 3, 7]),
        lambda m: [1.0, 2.0],
        lambda m: [2, 1.5],
        lambda m: np.array([1.0, 2.0]),
        lambda m: np.array([[1, 2], [3, 4]]),
        lambda m: (x for x in [4, 1, 4]),
        lambda m: (x for x in [2, True]),
        lambda m: [[1], [2]],
        lambda m: "12",
        lambda m: [None],
        lambda m: np.array(5),
    ]
    # A set is a selection but no path: it has no order.
    UNORDERED = [lambda m: {2, 1}, lambda m: frozenset({1})]

    @pytest.mark.parametrize("bad", BAD + UNORDERED)
    def test_refusals_match_validate_path(self, large_family, example_family, bad):
        for family in (large_family, example_family):
            m = family.m
            with pytest.raises(NotAPermutationError) as want:
                validate_path(m, bad(m))
            for check in (
                lambda: fb.fast_curve(family, bad(m)),
                lambda: _path_array(m, bad(m)),
                lambda: fb.naive_curve(family, bad(m)),
            ):
                with pytest.raises(NotAPermutationError) as got:
                    check()
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)

    def test_integer_arrays_accepted(self, large_family):
        m = large_family.m
        path = random_path(random.Random(41), m, partial=True)
        expected = fb.naive_curve(large_family, path)
        for dtype in (np.int64, np.int32, np.int16, np.uint16, np.uint32, np.uint64):
            steps = np.array(path, dtype=dtype)
            assert fb.fast_curve(large_family, steps) == expected
            assert _path_array(m, steps).tolist() == path
        full = list(range(1, m + 1))
        for same, want in [
            (tuple(path), path),
            (iter(path), path),
            (range(1, m + 1), full),
            ([], []),
            (np.array([], dtype=int), []),
        ]:
            steps = _path_array(m, same)
            assert steps.dtype == np.int64 and steps.tolist() == want


class TestWalkWork:
    # The paper's cost law, O(m + sum of region spans), counted on the walk
    # rather than timed: a step climbs only while it adds to the bound, a
    # row takes at most min(zeta, |R ∩ S_T|) climbs, and a row's span is
    # painted at most once.
    def check(self, family, path):
        work = {}
        curve = reference_walk(family, path, work)
        assert curve == fb.fast_curve(family, path)
        assert work["steps"] == len(path)
        assert work["climbing_steps"] == curve.final
        chosen = set(path)
        for r, climbs in enumerate(work["climbs"]):
            i, j = int(family._left[r]), int(family._right[r])
            members = family.region_members((i, j))
            assert climbs <= min(int(family._zeta[r]), len(chosen & set(members)))
        assert max(work["paints"]) <= 1
        spans = (family._right - family._left + 1).sum()
        assert work["cells"] <= spans

    def test_dyadic_families(self):
        rng = random.Random(137)
        for height, atom_size in [(1, 5), (3, 2), (4, 3), (6, 1), (5, 4)]:
            fam = fb.build_dyadic(height, atom_size)
            p = [rng.random() ** 3 for _ in range(fam.m)]
            budgets = [rng.randint(0, s) for s in fam._sizes.tolist()]
            for est in (fam, fb.zeta_dkwm(fam, p, 0.1), fam._with_zetas(budgets)):
                self.check(est, random_path(rng, fam.m))
                self.check(est, random_path(rng, fam.m, partial=True))

    def test_random_laminar_families(self):
        rng = random.Random(139)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng, max_atoms=10))
            self.check(fam, random_path(rng, fam.m))
            self.check(fam, random_path(rng, fam.m, partial=True))


class TestCurveFromPvalues:
    def test_sorts_ascending(self):
        fam = fb.complete_family(fb.ForestFamily(3, (1, 1, 1), [(1, 3, 3)]))
        p = [0.01, 0.5, 0.2]
        curve = fb.curve_from_pvalues(fam, p)
        assert curve == fb.fast_curve(fam, [1, 3, 2])

    def test_stable_ties(self):
        m = 6
        fam = fb.complete_family(fb.ForestFamily(m, (m,), [(1, 1, m)]))
        curve = fb.curve_from_pvalues(fam, [0.5] * m)
        assert curve == fb.fast_curve(fam, list(range(1, m + 1)))

    def test_matches_naive_on_generated_pvalues(self):
        cfg = sim.ScenarioConfig(
            m=32, tree_height=4, signal_leaves=frozenset({1, 3}), n_repl=1, seed=5
        )
        p = sim.gen_pvalues(cfg)
        fam = fb.zeta_dkwm(fb.build_dyadic(4, 4), p, 0.1)
        order = sorted(range(1, 33), key=lambda i: (p[i - 1], i))
        assert fb.curve_from_pvalues(fam, p) == fb.naive_curve(fam, order)

    def test_validation(self, example_family):
        with pytest.raises(InvalidProbabilityError):
            fb.curve_from_pvalues(example_family, [0.5] * 24)  # wrong length
        with pytest.raises(InvalidProbabilityError):
            fb.curve_from_pvalues(example_family, [0.5] * 24 + [1.5])
        with pytest.raises(InvalidProbabilityError):
            fb.curve_from_pvalues(example_family, [0.5] * 24 + [float("nan")])


class TestConcurrentReads:
    def test_shared_family_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        fam = fb.zeta_trivial(fb.build_dyadic(6, 2))
        rng = random.Random(131)
        paths = [random_path(rng, fam.m) for _ in range(16)]
        expected = [fb.fast_curve(fam, p) for p in paths]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: fb.fast_curve(fam, p), paths))
        assert got == expected


class TestBoundCurve:
    def test_values_are_one_read_only_int64_array(self, example_family):
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        assert curve._array.dtype == np.int64
        assert not curve._array.flags.writeable
        with pytest.raises(ValueError):
            curve._array[1] = 7

    def test_values_tuple_built_once(self, example_family):
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        assert curve._values is None  # the engine builds no tuple
        values = curve.values
        assert type(values) is tuple and all(type(v) is int for v in values)
        assert curve.values is values

    def test_sequence_behaviour(self):
        curve = fb.BoundCurve((0, 1, 1, 2))
        assert len(curve) == 4
        assert list(curve) == [0, 1, 1, 2]
        assert all(type(v) is int for v in curve)
        assert curve[3] == 2 and type(curve[3]) is int
        assert curve[-1] == curve.final == 2 and type(curve.final) is int
        assert curve[1:3] == (1, 1)
        with pytest.raises(IndexError):
            curve[4]
        assert repr(curve) == "BoundCurve(values=(0, 1, 1, 2))"

    def test_equality_and_hash(self):
        curve = fb.BoundCurve((0, 1, 1, 2))
        same = [
            fb.BoundCurve([0, 1, 1, 2]),
            fb.BoundCurve(np.array([0, 1, 1, 2], dtype=np.int32)),
            fb.BoundCurve(np.array([0, 1, 1, 2], dtype=np.uint64)),
        ]
        for other in same:
            assert curve == other and hash(curve) == hash(other)
        assert curve != fb.BoundCurve((0, 1, 2, 2))
        assert curve != fb.BoundCurve((0, 1, 1))
        assert curve != (0, 1, 1, 2)
        assert len({curve, *same}) == 1

    def test_immutable(self):
        curve = fb.BoundCurve((0, 1, 1, 2))
        for name in ("values", "_array", "_values", "final", "other"):
            with pytest.raises(AttributeError):
                setattr(curve, name, (0, 1))
            with pytest.raises(AttributeError):
                delattr(curve, name)
        assert curve.values == (0, 1, 1, 2) and curve[3] == 2

    def test_copy_and_pickle(self):
        curve = fb.BoundCurve((0, 1, 1, 2))
        clones = copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))
        for clone in clones:
            assert clone == curve and clone.values == (0, 1, 1, 2)
            assert not clone._array.flags.writeable

    def test_copies_its_input(self):
        source = np.array([0, 1, 2])
        curve = fb.BoundCurve(source)
        source[2] = 1
        assert curve.values == (0, 1, 2)
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            (0, 0.5),
            (0, "1"),
            ((0, 1), (1, 2)),
            3,
            np.array([0, 2**63], dtype=np.uint64),  # would wrap to -2**63
            [0, True],
            (0, 1, True),
            [0, np.True_],
        ],
    )
    def test_refuses_what_is_not_a_flat_integer_sequence(self, values):
        with pytest.raises(TypeError):
            fb.BoundCurve(values)
