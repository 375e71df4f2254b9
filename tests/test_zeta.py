"""Budget estimators: trivial and DKW-based."""

import random
import tracemalloc
import warnings

import numpy as np
import pytest

import forestbound as fb
from forestbound import InvalidProbabilityError, sim, zeta
from forestbound.zeta import upper_null_count

from oracles import random_family


class TestTrivial:
    def test_dyadic_height_2(self):
        fam = fb.zeta_trivial(fb.build_dyadic(2, 1))
        assert fam.zeta((1, 2)) == 2
        assert fam.zeta((1, 1)) == 1
        assert fam.zeta((2, 2)) == 1

    def test_example_structure_budgets(self, example_family):
        fam = fb.zeta_trivial(example_family)
        assert fam.zeta((1, 5)) == 20
        assert fam.zeta((4, 5)) == 10
        assert fam.zeta((8, 8)) == 3

    def test_then_prune_removes_every_internal_region(self):
        rng = random.Random(109)
        for _ in range(40):
            fam = fb.zeta_trivial(
                fb.complete_family(random_family(rng, max_atoms=8))
            )
            removed = fb.prune(fam).removed
            internals = {k for k in fam.keys() if k.i != k.j}
            assert removed == internals

    def test_returns_new_family(self, example_family):
        out = fb.zeta_trivial(example_family)
        assert out is not example_family
        assert example_family.zeta((2, 3)) == 1  # original untouched


class TestUpperNullCount:
    def test_all_zero_pvalues_detect_signal(self):
        n = 512
        count = upper_null_count(np.zeros(n), alpha=0.05)
        assert count < n
        assert count <= 2

    def test_uniform_pvalues_usually_vacuous(self):
        n = 512
        rng = np.random.default_rng(7)
        vacuous = sum(
            upper_null_count(rng.random(n), alpha=0.05) == n for _ in range(21)
        )
        assert vacuous > 10  # level-0.95 coverage makes this overwhelming

    def test_never_exceeds_size(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p = rng.random(n) ** rng.uniform(0.2, 3.0)
            assert 0 <= upper_null_count(p, 0.1) <= n

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        alphas = [0.01, 0.05, 0.1, 0.25, 0.5, 0.9]
        for _ in range(30):
            p = rng.random(int(rng.integers(1, 80))) ** 0.5
            counts = [upper_null_count(p, a) for a in alphas]
            assert counts == sorted(counts, reverse=True)

    def test_shrinking_pvalues_never_raises_count(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = rng.random(int(rng.integers(2, 60)))
            for scale in (0.5, 0.1, 0.01):
                assert upper_null_count(p * scale, 0.05) <= upper_null_count(
                    p, 0.05
                )

    def test_empty_region(self):
        assert upper_null_count(np.array([]), 0.05) == 0
        assert upper_null_count([], 0.05) == 0

    def test_takes_a_list(self):
        p = [0.0, 0.01, 0.02, 0.5]
        assert upper_null_count(p, 0.05) == upper_null_count(np.array(p), 0.05)

    @pytest.mark.parametrize(
        "p, alpha",
        [
            (np.array([0.1, np.nan]), 0.05),
            (np.array([0.1, 1.5]), 0.05),
            (np.array([0.1, -np.inf]), 0.05),
            (np.full((2, 2), 0.5), 0.05),
            (0.5, 0.05),
            ([0.1, True], 0.05),
            (np.array([0.1, 0.2]), 2),
            (np.array([0.1, 0.2]), 0.0),
            ([], 1.0),
        ],
    )
    def test_refuses_what_zeta_dkwm_refuses(self, p, alpha):
        with pytest.raises(InvalidProbabilityError):
            upper_null_count(p, alpha)

    def test_all_pvalues_one(self):
        assert upper_null_count(np.ones(8), 0.05) == 8


class TestZetaDkwm:
    def test_budgets_in_range_and_family_valid(self):
        rng = random.Random(113)
        nprng = np.random.default_rng(19)
        for _ in range(30):
            fam = fb.complete_family(random_family(rng, max_atoms=8))
            p = nprng.random(fam.m)
            out = fb.zeta_dkwm(fam, p, 0.05)
            for reg in out.regions():
                assert 0 <= reg.zeta <= out.region_size(reg.key)

    def test_signal_region_saturates_quickly(self):
        fam = fb.build_dyadic(2, 16)  # two atoms of 16
        p = np.concatenate([np.zeros(16), np.full(16, 0.8)])
        out = fb.zeta_dkwm(fam, p, 0.05)
        assert out.zeta((1, 1)) < 16
        assert out.zeta((2, 2)) == 16

    def test_validation(self, example_family):
        with pytest.raises(InvalidProbabilityError):
            fb.zeta_dkwm(example_family, [0.5] * 24, 0.05)
        with pytest.raises(InvalidProbabilityError):
            fb.zeta_dkwm(example_family, [2.0] + [0.5] * 24, 0.05)
        with pytest.raises(InvalidProbabilityError):
            fb.zeta_dkwm(example_family, [0.5] * 25, 1.5)

    def test_original_family_untouched(self, example_family):
        fb.zeta_dkwm(example_family, [0.5] * 25, 0.05)
        assert example_family.zeta((2, 3)) == 1


class TestZetaDkwmMatchesRegionwise:
    """The level-by-level budgets equal upper_null_count region by region."""

    @staticmethod
    def draw_pvalues(nprng, fam, kind):
        m = fam.m
        if kind == 0:
            return nprng.random(m) ** nprng.uniform(0.2, 3.0)
        if kind == 1:  # heavy ties, with p = 0 and p = 1
            return nprng.choice([0.0, 0.25, 0.5, 1.0], m)
        if kind == 2:
            return np.round(nprng.random(m) ** 2, 1)
        # whole atoms of ones (all-ones regions) and of zeros
        p = nprng.random(m)
        for n in range(1, fam.n_atoms + 1):
            members = fam.atom_members(n)
            u = nprng.random()
            if u < 0.3:
                p[members.start - 1 : members.stop - 1] = 1.0
            elif u < 0.4:
                p[members.start - 1 : members.stop - 1] = 0.0
        return p

    @staticmethod
    def assert_regionwise(fam, p, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no budget may need clamping
            out = fb.zeta_dkwm(fam, p, alpha)
        for key in fam.keys():
            members = fam.region_members(key)
            region_p = p[members.start - 1 : members.stop - 1]
            assert out.zeta(key) == upper_null_count(region_p, alpha), key

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5])
    def test_random_laminar_families(self, alpha):
        # The shipped block bound gathers every level of these small
        # families into one block.
        self.assert_random_families(alpha)

    # 1 groups every level alone; 7 and 64 mix lone levels with blocks.
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5])
    def test_random_laminar_families_small_blocks(self, alpha, block, monkeypatch):
        monkeypatch.setattr(zeta, "_BLOCK", block)
        self.assert_random_families(alpha)

    def assert_random_families(self, alpha):
        rng = random.Random(151)
        nprng = np.random.default_rng(23)
        partial_levels = 0
        for k in range(240):
            fam = random_family(
                rng, max_atoms=10, max_atom_size=6, complete=k % 3 == 0
            )
            depths = {}
            for reg in fam.regions():
                depths[reg.depth] = depths.get(reg.depth, 0) + fam.region_size(
                    reg.key
                )
            partial_levels += any(size < fam.m for size in depths.values())
            p = self.draw_pvalues(nprng, fam, k % 4)
            self.assert_regionwise(fam, p, alpha)
            if k % 4 == 1:  # heavy ties, at the union calibration alpha / K
                self.assert_regionwise(fam, p, alpha / max(len(fam), 1))
        assert partial_levels > 50  # levels that leave hypotheses uncovered

    def test_small_partial_levels_share_one_block(self):
        # Ten nested partial levels on the left and three on the right.
        regions = [(1, j, 0) for j in range(1, 11)]
        regions += [(13, 20, 0), (14, 20, 0), (14, 15, 0), (17, 18, 0)]
        fam = fb.ForestFamily(60, [3] * 20, regions)
        levels = fam._levels.tolist()
        entries = np.add.reduceat(fam._sizes, levels[:-1]).tolist()
        assert len(levels) == 11 and max(entries) < fam.m  # all partial
        assert zeta._groups(levels, entries, fam.m, zeta._BLOCK) == [
            (0, len(fam), False)
        ]
        nprng = np.random.default_rng(37)
        for kind in range(4):
            p = self.draw_pvalues(nprng, fam, kind)
            for alpha in (1e-6, 0.05, 0.5):
                self.assert_regionwise(fam, p, alpha)

    @pytest.mark.parametrize("block", [1, 64, zeta._BLOCK])
    def test_tie_order_changes_no_budget(self, block, monkeypatch):
        # The p-value sort may put tied hypotheses in any order; here it puts
        # them in decreasing and in random order instead of numpy's.
        monkeypatch.setattr(zeta, "_BLOCK", block)
        argsort = np.argsort
        nprng = np.random.default_rng(41)
        rng = random.Random(43)
        for k in range(60):
            fam = random_family(
                rng, max_atoms=12, max_atom_size=8, complete=k % 2 == 0
            )
            p = self.draw_pvalues(nprng, fam, 1 + k % 2)
            expected = fb.zeta_dkwm(fam, p, 0.05)
            for tiebreak in (-np.arange(fam.m), nprng.random(fam.m)):

                def tied_argsort(a, *args, kind=None, _t=tiebreak, **kw):
                    if kind is None and a.shape == _t.shape:
                        return np.lexsort((_t, a))
                    return argsort(a, *args, kind=kind, **kw)

                monkeypatch.setattr(np, "argsort", tied_argsort)
                assert fb.zeta_dkwm(fam, p, 0.05) == expected
                monkeypatch.setattr(np, "argsort", argsort)
            self.assert_regionwise(fam, p, 0.05)

    def test_lone_level_closes_the_pending_block(self):
        # Entries never grow with depth in a family, so a level that fills a
        # block after smaller ones is reached here, from level lists alone.
        levels = [0, 3, 5, 6, 9, 10]
        assert zeta._groups(levels, [5, 4, 20, 3, 8], 100, 10) == [
            (0, 5, False),
            (5, 6, True),
            (6, 9, False),
            (9, 10, False),
        ]
        assert zeta._groups(levels, [10, 9, 1, 1, 1], 100, 10) == [
            (0, 3, True),
            (3, 6, False),
            (6, 10, False),
        ]

    @pytest.mark.parametrize(
        "m", [1, 2, 512, 2**13, 2**40, 2**50, 2**50 + 1, 2**51, 2**62, 2**63 - 1]
    )
    @pytest.mark.parametrize("block", [1, 7, zeta._BLOCK])
    def test_block_keys_stay_below_2_to_63(self, m, block):
        # Any level lists a family of m hypotheses can give: rows hold at
        # least one entry each, and a level at most m entries.
        rng = random.Random(m ^ block)
        shift = (m - 1).bit_length()
        for _ in range(40):
            rows = [min(m, rng.choice([1, 2, 5, 3000, 20000])) for _ in range(12)]
            entries = [min(m, r * rng.choice([1, 2, 9])) for r in rows]
            levels = np.concatenate(([0], np.cumsum(rows))).tolist()
            groups = zeta._groups(levels, entries, m, block)
            assert [g[0] for g in groups] == [0] + [g[1] for g in groups[:-1]]
            assert groups[-1][1] == levels[-1]
            for a, b, alone in groups:
                first, end = levels.index(a), levels.index(b)
                if alone:
                    assert end == first + 1
                else:
                    assert ((b - a - 1) << shift | (m - 1)) < 2**63
                    assert sum(entries[first:end]) <= block

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5])
    def test_dyadic_and_constant_pvalues(self, alpha):
        nprng = np.random.default_rng(29)
        fam = fb.build_dyadic(6, 5)
        for kind in range(4):
            self.assert_regionwise(fam, self.draw_pvalues(nprng, fam, kind), alpha)
        for value in (0.0, 0.5, 1.0):
            self.assert_regionwise(fam, np.full(fam.m, value), alpha)

    def test_family_without_regions(self):
        fam = fb.ForestFamily(3, (1, 2), [])
        assert fb.zeta_dkwm(fam, [0.1, 0.2, 0.3], 0.05) == fam

    def test_peak_memory_is_linear_in_m(self):
        # About 46 bytes per hypothesis at m = 2**17; one key sort over every
        # row of this 14-level family would hold some 110 on its own.
        fam = fb.build_dyadic(14, 16)
        p = np.random.default_rng(47).random(fam.m)
        tracemalloc.start()
        try:
            fb.zeta_dkwm(fam, p, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * fam.m


class TestApplyZetas:
    def test_clamps_and_warns(self, example_family):
        with pytest.warns(UserWarning, match="clamped"):
            out = fb.apply_zetas(
                example_family, {fb.RegionKey(1, 5): 99, fb.RegionKey(7, 7): -2}
            )
        assert out.zeta((1, 5)) == 20
        assert out.zeta((7, 7)) == 0
        assert out.zeta((2, 3)) == 1  # untouched regions keep budgets

    def test_rounds_down_and_says_so(self, example_family):
        with pytest.warns(UserWarning) as record:
            out = fb.apply_zetas(example_family, {fb.RegionKey(1, 5): 2.5})
        assert out.zeta((1, 5)) == 2
        (message,) = [str(w.message) for w in record]
        assert "rounded 1 non-integer" in message and "clamped" not in message

    def test_out_of_range_fractions_are_clamped(self, example_family):
        with pytest.warns(UserWarning, match="clamped 2 ") as record:
            out = fb.apply_zetas(
                example_family, {fb.RegionKey(1, 5): 20.5, fb.RegionKey(7, 7): -0.5}
            )
        assert len(record) == 1
        assert out.zeta((1, 5)) == 20
        assert out.zeta((7, 7)) == 0

    def test_string_estimate_is_a_zeta_error(self, example_family):
        # int("3") reads it, but a string is no number to round or clamp.
        with pytest.raises(fb.ZetaRangeError):
            fb.apply_zetas(example_family, {fb.RegionKey(1, 5): "3"})

    @pytest.mark.parametrize(
        "estimates, name", [(None, "NoneType"), ([((1, 1), 1)], "list")]
    )
    def test_no_mapping_is_a_format_error(self, example_family, estimates, name):
        with pytest.raises(fb.FormatError, match=f"got a {name}$"):
            fb.apply_zetas(example_family, estimates)

    def test_in_range_estimates_pass_silently(self, example_family):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fb.apply_zetas(example_family, {fb.RegionKey(1, 5): 3})
        assert out.zeta((1, 5)) == 3

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), True, np.True_]
    )
    def test_non_finite_or_boolean_estimate_is_a_zeta_error(self, example_family, bad):
        with pytest.raises(fb.ZetaRangeError):
            fb.apply_zetas(example_family, {fb.RegionKey(1, 5): bad})

    @pytest.mark.parametrize("key", [(True, 1), (2.0, 2), (1,), (1, 1, 1), 5])
    def test_key_that_is_no_integer_pair_is_unknown(self, key):
        fam = fb.build_dyadic(3, 2)
        with pytest.raises(fb.UnknownRegionError):
            fb.apply_zetas(fam, {key: 0})


class TestZetaEstimator:
    def test_trivial_strategy(self, example_family):
        est = fb.ZetaEstimator(method="trivial")
        assert est.apply(example_family) == fb.zeta_trivial(example_family)

    def test_dkwm_strategy_needs_pvalues(self, example_family):
        est = fb.ZetaEstimator(method="dkwm", alpha=0.1)
        with pytest.raises(InvalidProbabilityError):
            est.apply(example_family)
        out = est.apply(example_family, [0.5] * 25)
        assert out == fb.zeta_dkwm(example_family, [0.5] * 25, 0.1)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            fb.ZetaEstimator(method="simes")
        with pytest.raises(InvalidProbabilityError):
            fb.ZetaEstimator(method="dkwm", alpha=0.0)


@pytest.mark.parametrize(
    "bad",
    [
        [0.5] * 24,
        [0.5] * 24 + [float("nan")],
        [0.5] * 24 + [float("inf")],
        [float("-inf")] + [0.5] * 24,
        [0.5] * 24 + [-0.1],
        [1.1] + [0.5] * 24,
        ["a"] * 25,
        [[0.5]] * 12 + [[0.5, 0.5]] * 13,
        [{}] * 25,
        [True] * 25,
        np.ones(25, bool),
        ["0.5"] * 25,
        [0.5] * 24 + [True],
        np.array([0.5] * 24 + [True], dtype=object),
    ],
)
def test_one_pvalue_check(example_family, bad):
    # zeta_dkwm and curve_from_pvalues share one check and message.
    with pytest.raises(InvalidProbabilityError) as dkwm:
        fb.zeta_dkwm(example_family, bad, 0.05)
    with pytest.raises(InvalidProbabilityError) as curve:
        fb.curve_from_pvalues(example_family, bad)
    assert str(dkwm.value) == str(curve.value)
    assert str(dkwm.value) == "expected 25 finite p-values within [0, 1]"


@pytest.mark.parametrize(
    "alpha", [0.0, 1.0, -0.5, 1.5, float("nan"), "0.1", None, True]
)
def test_one_alpha_check(example_family, alpha):
    # zeta_dkwm, ZetaEstimator and ScenarioConfig share one check and message.
    message = r"^alpha must be in \(0, 1\), got "
    with pytest.raises(InvalidProbabilityError, match=message):
        fb.zeta_dkwm(example_family, [0.5] * 25, alpha)
    with pytest.raises(InvalidProbabilityError, match=message):
        fb.ZetaEstimator("dkwm", alpha)
    with pytest.raises(InvalidProbabilityError, match=message):
        sim.ScenarioConfig(m=16, tree_height=3, signal_leaves=frozenset(), alpha=alpha)
    if alpha == "0.1":  # a value that is no real number is shown by repr
        with pytest.raises(InvalidProbabilityError, match=r"got '0\.1'$"):
            fb.zeta_dkwm(example_family, [0.5] * 25, alpha)
