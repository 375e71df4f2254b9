"""Single-evaluation bound against its defining oracles."""

import random
import re
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forestbound as fb
from forestbound import (
    IncompleteFamilyError,
    IndexOutOfRangeError,
    NotAPermutationError,
)
from forestbound.bounds import (
    NUMPY_MIN_ATOMS,
    _members,
    _sweep_inputs,
    _sweep_np,
    _sweep_py,
    _sweep_view,
    atom_hit_counts,
    validate_path,
)

import test_curve
from oracles import (
    EXAMPLE_CURVE,
    budget_mix_family,
    definition_removed_set,
    edge_budget_families,
    EXAMPLE_PATH,
    ORACLE_MAX_ATOMS,
    ORACLE_MAX_M,
    TooLargeForOracleError,
    oracle_vstar_partitions,
    oracle_vstar_sets,
    oracle_vstar_subsets,
    random_family,
    random_selection,
)


def both_engines(family, selection):
    """The bound from each sweep engine, whatever the family's size, after
    checking that the two accumulators agree at every binding row (no atom,
    budget below size) and at the roots' slot.  Atoms have no children, so
    _sweep_py's accumulator is 0 at every atom row."""
    hc = list(accumulate(atom_hit_counts(family, selection)))
    py = _sweep_py(family, hc)
    atoms = family._left == family._right
    assert not any(np.array(py[:-1])[atoms])
    view = family._view(_sweep_view)
    binding = ~atoms & (family._zeta < family._sizes)
    expected = [py[r] for r in np.flatnonzero(binding).tolist()] + [py[-1]]
    inputs = _sweep_inputs(view, _members(family, selection))
    vec = _sweep_np(view.levels, view.parent, *inputs)
    assert vec.tolist() == expected
    return py[-1], int(vec[-1])


class TestVstar:
    def test_example_value(self, example_family):
        assert fb.vstar(example_family, {11, 17, 12, 13, 18, 3}) == 5

    def test_empty_selection(self, example_family):
        assert fb.vstar(example_family, set()) == 0

    def test_zero_budget_caps_everything(self):
        fam = fb.ForestFamily(3, (3,), [(1, 1, 0)])
        assert fb.vstar(fam, {1, 2, 3}) == 0

    def test_incomplete_family_errors(self, partial_family):
        with pytest.raises(IncompleteFamilyError):
            fb.vstar(partial_family, {1})

    def test_completed_copy_gives_golden_value(self, partial_family):
        sel = {11, 17, 12, 13, 18, 3}
        with pytest.raises(IncompleteFamilyError):
            fb.vstar(partial_family, sel)
        assert fb.vstar(fb.complete_family(partial_family), sel) == 5

    def test_selection_validation(self, example_family):
        with pytest.raises(IndexOutOfRangeError):
            fb.vstar(example_family, {0})
        with pytest.raises(IndexOutOfRangeError):
            fb.vstar(example_family, {26})
        with pytest.raises(IndexOutOfRangeError):
            fb.vstar(example_family, {-3})
        with pytest.raises(IndexOutOfRangeError):
            fb.vstar(example_family, ["a"])
        with pytest.raises(IndexOutOfRangeError):
            fb.vstar(example_family, [1, 1])

    def test_boolean_members_rejected(self, example_family):
        # True hashes like 1, so it hides in sets as well as sequences.
        for bad in ([True], {True}, frozenset({True, 2}), (3, True), [False]):
            with pytest.raises(IndexOutOfRangeError):
                fb.vstar(example_family, bad)
            with pytest.raises(IndexOutOfRangeError):
                atom_hit_counts(example_family, bad)
        assert fb.vstar(example_family, [1]) == fb.vstar(example_family, {1}) == 1
        assert atom_hit_counts(example_family, (2, 1))[1] == 2

    def test_accepts_lists_and_sets(self, example_family):
        assert fb.vstar(example_family, [11, 17]) == fb.vstar(
            example_family, {17, 11}
        )

    def test_engines_agree(self):
        # Each engine against a defining oracle on both sides of the size
        # dispatch.  The partition oracle stops at ORACLE_MAX_ATOMS, below
        # NUMPY_MIN_ATOMS, so the large side checks selections of at most 10
        # hypotheses against the set oracle, and arbitrary selections of the
        # two engines against each other.
        rng = random.Random(17)
        for _ in range(150):
            fam = fb.complete_family(
                random_family(rng, max_atoms=ORACLE_MAX_ATOMS)
            )
            sel = random_selection(rng, fam.m)
            expected = oracle_vstar_partitions(fam, sel)
            assert both_engines(fam, sel) == (expected, expected)
        for _ in range(40):
            fam = fb.complete_family(
                random_family(
                    rng, min_atoms=NUMPY_MIN_ATOMS, max_atoms=NUMPY_MIN_ATOMS + 16
                )
            )
            sel = set(rng.sample(range(1, fam.m + 1), rng.randint(0, 10)))
            expected = oracle_vstar_sets(fam, sel)
            assert both_engines(fam, sel) == (expected, expected)
            py, np_ = both_engines(fam, random_selection(rng, fam.m))
            assert py == np_


# One instance, so that the message naming it is the same on every call.
NO_COLLECTION = object()


class TestLargeSideSelections:
    # From NUMPY_MIN_ATOMS atoms up, vstar reads the selection as one sorted
    # array and hands every fault to the validator atom_hit_counts also uses.
    FORMS = [
        list,
        tuple,
        set,
        frozenset,
        lambda s: np.array(s, dtype=np.int32),
        lambda s: np.array(s, dtype=np.uint64),
        lambda s: np.array(s, dtype=np.int64),
    ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_matches_python_counts_and_oracle(self, seed, data):
        rng = random.Random(seed)
        fam = fb.complete_family(
            random_family(
                rng, min_atoms=NUMPY_MIN_ATOMS, max_atoms=NUMPY_MIN_ATOMS + 32
            )
        )
        size = data.draw(
            st.one_of(st.integers(0, ORACLE_MAX_M), st.integers(0, fam.m))
        )
        members = rng.sample(range(1, fam.m + 1), size)
        hc = list(accumulate(atom_hit_counts(fam, members)))
        expected = _sweep_py(fam, hc)[-1]
        if size <= ORACLE_MAX_M:
            assert expected == oracle_vstar_sets(fam, members)
        for form in self.FORMS:
            assert fb.vstar(fam, form(members)) == expected

    @pytest.fixture
    def large_family(self):
        m = 2 * NUMPY_MIN_ATOMS
        atoms = [(a, a, 1) for a in range(1, m + 1)]
        return fb.ForestFamily(m, (1,) * m, [(1, m, 9), *atoms])

    BAD = test_curve.TestLargeSidePathCheck.BAD + [
        lambda m: {True},
        lambda m: {True, 2},
        lambda m: frozenset({np.True_, 3}),
        lambda m: {np.True_},
        lambda m: {False, 4},
        lambda m: np.array([True]),
        lambda m: (3, 3),
        lambda m: (5, 2, 5),
        # Not collections at all.
        lambda m: None,
        lambda m: 5,
        lambda m: 2.5,
        lambda m: NO_COLLECTION,
    ]

    @pytest.mark.parametrize("bad", BAD)
    def test_refusals_match_hit_counts(self, large_family, example_family, bad):
        messages = []
        for family in (large_family, example_family):
            with pytest.raises(IndexOutOfRangeError) as want:
                atom_hit_counts(family, bad(family.m))
            with pytest.raises(IndexOutOfRangeError) as got:
                fb.vstar(family, bad(family.m))
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            # The bound, and the one entry that depends on it, name m.
            message = str(got.value).replace(f"1..{family.m}", "1..m")
            messages.append(re.sub(rf"\b{family.m + 1}\b", "m + 1", message))
        assert messages[0] == messages[1]

    def test_no_table_of_size_m(self, large_family):
        fam = fb.build_dyadic(8, 2**15)  # 128 atoms, m = 2**22
        assert fam.n_atoms == NUMPY_MIN_ATOMS
        for family in (large_family, fam):
            fb.vstar(family, [2, 1, family.m])
            fb.vstar(family, {3, family.m - 1})
            assert "_atom_of" not in family.__dict__
        # A refusal is found from the selection alone, too.
        for bad in ([1, 1], [0], [1.5]):
            with pytest.raises(IndexOutOfRangeError):
                fb.vstar(fam, bad)
        assert "_atom_of" not in fam.__dict__
        fam = fb.build_dyadic(8, 2**15)  # its first vstar is measured
        tracemalloc.start()
        try:
            assert fb.vstar(fam, [1, fam.m]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSwitchPoints:
    # From NUMPY_MIN_ATOMS atoms up, vstar counts the T tight atoms (budget
    # below size) from their 2T bounds' places among the members when it
    # has at least 2T members, and from the members' places among the
    # bounds otherwise.  Both ways are checked on both sides of the switch,
    # on families with no tight atom, with every atom tight, and mixed.
    FORMS = [
        list,
        set,
        np.array,
        lambda s: np.array(s, dtype=object),
        lambda s: (x for x in s),
    ]

    @staticmethod
    def sizes(fam):
        tight = fam._view(_sweep_view).tight.size
        sizes = {0, 1, tight - 1, tight, tight + 1, fam.n_atoms, fam.m}
        return sorted(s for s in sizes if 0 <= s <= fam.m)

    @staticmethod
    def families():
        rng = random.Random(29)
        for atoms, keep in (
            (NUMPY_MIN_ATOMS, 1.0),
            (NUMPY_MIN_ATOMS, 0.04),
            (4 * NUMPY_MIN_ATOMS, 0.02),
            (4 * NUMPY_MIN_ATOMS, 0.3),
        ):
            for _ in range(2):
                fam = budget_mix_family(rng, atoms, keep)
                yield rng, fam
                yield rng, fb.prune(fam).pruned_family
        for atoms in (NUMPY_MIN_ATOMS, 4 * NUMPY_MIN_ATOMS):
            # Every budget 0 (T = N), and every budget vacuous (T = 0).
            edges = list(edge_budget_families(rng, atoms))[1:3]
            assert [e._view(_sweep_view).tight.size for e in edges] == [2 * atoms, 0]
            for fam in edges:
                yield rng, fam

    def test_engines_and_oracle(self):
        ways = set()
        for rng, fam in self.families():
            for size in self.sizes(fam):
                members = rng.sample(range(1, fam.m + 1), size)
                hc = list(accumulate(atom_hit_counts(fam, members)))
                expected = _sweep_py(fam, hc)[-1]
                assert both_engines(fam, members) == (expected, expected)
                for form in self.FORMS:
                    assert fb.vstar(fam, form(members)) == expected
                ways.add(size >= fam._view(_sweep_view).tight.size)
                if size <= 8:
                    assert oracle_vstar_sets(fam, members) == expected
        assert ways == {True, False}

    def test_prune(self):
        rng = random.Random(31)
        edges = [
            fam
            for atoms in (16, NUMPY_MIN_ATOMS, 4 * NUMPY_MIN_ATOMS)
            for fam in edge_budget_families(rng, atoms)
        ]
        for fam in [fam for _, fam in self.families()] + edges:
            result = fb.prune(fam)
            assert result.removed == definition_removed_set(fam)
            assert result.vstar_full == _sweep_py(fam, fam._offsets)[-1]


class TestCostFollowsTheSelection:
    def test_one_member_allocates_no_table_of_the_atoms(self):
        # 2**15 atoms under 257 non-atom regions: a one-member vstar touches
        # one atom and the non-atom rows, so it allocates nothing of size N.
        n = 2**15
        atoms = [(a, a, a % 2) for a in range(1, n + 1)]
        blocks = [(i, i + 127, 10) for i in range(1, n + 1, 128)]
        result = fb.prune(fb.ForestFamily(n, (1,) * n, [(1, n, 100), *blocks, *atoms]))
        assert result.removed == frozenset()
        fam = result.pruned_family
        assert fb.vstar(fam, [1]) == 1  # builds the cached views
        tracemalloc.start()
        try:
            assert fb.vstar(fam, [3]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


@pytest.mark.parametrize("atoms", [16, NUMPY_MIN_ATOMS])
def test_copy_with_new_budgets_sweeps_them(atoms):
    # _with_zetas shares the family's lookup caches; the Python sweep's
    # cached row lists hold the budgets, so the copy must not reuse them.
    est = fb.build_dyadic(int(np.log2(atoms)) + 1, 2)
    selection = list(range(1, est.m + 1, 3))
    assert fb.vstar(est, selection) == len(selection)
    tight = est._with_zetas(np.zeros(len(est), dtype=np.int64))
    assert fb.vstar(tight, selection) == 0
    assert fb.vstar(est, selection) == len(selection)


def test_sweep_table_holds_the_binding_rows():
    # A region whose budget is its size passes its children's savings up
    # unchanged, so vstar's numpy table leaves it out: on zeta_trivial it
    # holds no row, and on an unpruned DKWM family it holds what pruning
    # keeps of the non-atom rows, and no less.
    base = fb.build_dyadic(8, 4)
    m = base.m
    pvalues = [(h + 0.5) / m if h % 64 < 24 else 0.9 for h in range(m)]
    rng = random.Random(37)
    trivial, dkwm = fb.zeta_trivial(base), fb.zeta_dkwm(base, pvalues, 0.05)
    assert trivial._view(_sweep_view).zeta.size == 0
    binding = (dkwm._left != dkwm._right) & (dkwm._zeta < dkwm._sizes)
    table = dkwm._view(_sweep_view)
    assert 0 < table.zeta.size == np.count_nonzero(binding)
    assert table.zeta.size < np.count_nonzero(dkwm._left != dkwm._right)
    pruned = fb.prune(dkwm).pruned_family
    for size in (0, 1, 7, 64, m // 2, m):
        members = rng.sample(range(1, m + 1), size)
        assert fb.vstar(trivial, members) == size
        expected = both_engines(dkwm, members)[0]
        assert fb.vstar(dkwm, members) == expected == fb.vstar(pruned, members)


def test_one_completeness_check(partial_family):
    # Every bound, curve and pruning entry refuses an incomplete family with
    # the same message, which names both ways to complete it.
    calls = [
        lambda f: fb.vstar(f, {1}),
        lambda f: fb.naive_curve(f, [1]),
        lambda f: fb.fast_curve(f, [1]),
        lambda f: fb.curve_from_pvalues(f, [0.5] * f.m),
        fb.prune,
        lambda f: oracle_vstar_partitions(f, {1}),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(IncompleteFamilyError) as info:
            call(partial_family)
        messages.add(str(info.value))
    (message,) = messages
    assert "complete_family()" in message and "forestbound complete" in message


@pytest.mark.parametrize(
    "bad", [[True], [True, 2], [3, 3], (3, 3), (5, 2, 5), [0], [26], [1.5]]
)
def test_oracles_share_selection_rules(example_family, bad):
    for bound in (
        fb.vstar,
        oracle_vstar_sets,
        oracle_vstar_subsets,
        oracle_vstar_partitions,
    ):
        with pytest.raises(IndexOutOfRangeError):
            bound(example_family, bad)


class TestHitCounts:
    def test_counts_match_definition(self, example_family):
        sel = {1, 2, 3, 11, 12, 25}
        hits = atom_hit_counts(example_family, sel)
        for n in range(1, example_family.n_atoms + 1):
            expected = len(sel & set(example_family.atom_members(n)))
            assert hits[n] == expected

    def test_counts_bounded_by_atom_sizes(self):
        rng = random.Random(23)
        for _ in range(50):
            fam = random_family(rng)
            sel = random_selection(rng, fam.m)
            hits = atom_hit_counts(fam, sel)
            assert hits[0] == 0
            for n, size in enumerate(fam.atom_sizes, start=1):
                assert 0 <= hits[n] <= size
            assert sum(hits) == len(sel)


class TestOracles:
    def test_sets_example(self, example_family):
        assert oracle_vstar_sets(example_family, {11}) == 1

    def test_sets_empty(self, example_family):
        assert oracle_vstar_sets(example_family, set()) == 0

    def test_partitions_example(self, example_family):
        assert oracle_vstar_partitions(example_family, {11, 17, 12}) == 3

    def test_partitions_atoms_only_closed_form(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 6)
            sizes = [rng.randint(1, 3) for _ in range(n)]
            fam = fb.ForestFamily(
                sum(sizes),
                sizes,
                [(a, a, rng.randint(0, sizes[a - 1])) for a in range(1, n + 1)],
            )
            sel = random_selection(rng, fam.m)
            expected = sum(
                min(fam.zeta((a, a)), len(sel & set(fam.atom_members(a))))
                for a in range(1, n + 1)
            )
            assert oracle_vstar_partitions(fam, sel) == expected

    def test_partitions_requires_complete(self, partial_family):
        with pytest.raises(IncompleteFamilyError):
            oracle_vstar_partitions(partial_family, {1})

    def test_subsets_example_before_completion(self, partial_family):
        sel = set(range(11, 21))
        assert oracle_vstar_subsets(partial_family, sel) == 4
        assert oracle_vstar_sets(partial_family, sel) == 4

    def test_subsets_never_exceeds_selection_size(self):
        rng = random.Random(31)
        for _ in range(50):
            fam = random_family(rng)
            sel = random_selection(rng, fam.m)
            assert oracle_vstar_subsets(fam, sel) <= len(sel)

    def test_guards(self):
        big = fb.build_dyadic(6, 1)  # m = 32, |K| = 63, N = 32
        with pytest.raises(TooLargeForOracleError):
            oracle_vstar_sets(big, set(range(1, 33)))
        with pytest.raises(TooLargeForOracleError):
            oracle_vstar_partitions(big, {1})
        with pytest.raises(TooLargeForOracleError):
            oracle_vstar_subsets(big, {1})

    def test_sets_allows_small_selection_on_larger_family(self, example_family):
        # m = 25 exceeds the subset budget, but |S| = 1 keeps it enumerable
        assert oracle_vstar_sets(example_family, {11}) == 1

    def test_cross_oracle_equality(self):
        rng = random.Random(37)
        for _ in range(150):
            fam = random_family(rng)
            comp = fb.complete_family(fam)
            sel = random_selection(rng, fam.m)
            reference = oracle_vstar_sets(comp, sel)
            assert oracle_vstar_subsets(comp, sel) == reference
            assert oracle_vstar_partitions(comp, sel) == reference
            assert fb.vstar(comp, sel) == reference

    def test_completion_invariance(self):
        rng = random.Random(41)
        for _ in range(100):
            fam = random_family(rng)
            comp = fb.complete_family(fam)
            sel = random_selection(rng, fam.m)
            assert oracle_vstar_sets(fam, sel) == oracle_vstar_sets(
                comp, sel
            )
            assert oracle_vstar_subsets(fam, sel) == fb.vstar(comp, sel)


class TestVstarProperties:
    def test_bounds_and_monotonicity(self):
        rng = random.Random(43)
        for _ in range(80):
            fam = fb.complete_family(random_family(rng))
            small = random_selection(rng, fam.m)
            extra = random_selection(rng, fam.m)
            big = small | extra
            v_small = fb.vstar(fam, small)
            v_big = fb.vstar(fam, big)
            assert 0 <= v_small <= len(small)
            assert v_small <= v_big  # monotone in the selection

    def test_single_region_cap_inequality(self):
        # For any region: the bound never beats using that region alone.
        rng = random.Random(47)
        for _ in range(60):
            fam = fb.complete_family(random_family(rng))
            sel = random_selection(rng, fam.m)
            v = fb.vstar(fam, sel)
            for reg in fam.regions():
                members = set(fam.region_members(reg.key))
                cap = min(reg.zeta, len(sel & members)) + len(sel - members)
                assert v <= cap


class TestNaiveCurve:
    def test_example_prefix(self, example_family):
        curve = fb.naive_curve(example_family, EXAMPLE_PATH)
        assert curve.values == EXAMPLE_CURVE

    def test_single_hypothesis(self):
        fam = fb.ForestFamily(1, (1,), [(1, 1, 1)])
        assert fb.naive_curve(fam, [1]).values == (0, 1)
        fam0 = fb.ForestFamily(1, (1,), [(1, 1, 0)])
        assert fb.naive_curve(fam0, [1]).values == (0, 0)

    def test_path_validation(self, example_family):
        with pytest.raises(NotAPermutationError):
            fb.naive_curve(example_family, [1, 1])
        with pytest.raises(NotAPermutationError):
            fb.naive_curve(example_family, [0])
        with pytest.raises(NotAPermutationError):
            fb.naive_curve(example_family, [26])
        with pytest.raises(NotAPermutationError):
            fb.naive_curve(example_family, [1.5])

    def test_boolean_steps_rejected(self, example_family):
        for bad in ([True], [2, True], [False]):
            with pytest.raises(NotAPermutationError):
                fb.naive_curve(example_family, bad)
            with pytest.raises(NotAPermutationError):
                validate_path(example_family.m, bad)
        assert validate_path(25, [2, 1]) == (2, 1)
        assert validate_path(25, np.array([3, 1])) == (3, 1)
