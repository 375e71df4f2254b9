"""Scenario generation and the timing harness."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import forestbound as fb
from forestbound import sim
from forestbound.sim import (
    VARIANTS,
    BenchReport,
    TimingSummary,
    bench_csv,
    bench_table,
    pvalue_from_stat,
)


def tiny_config(**kw):
    defaults = dict(
        m=16,
        tree_height=3,
        signal_leaves=frozenset({1}),
        n_repl=2,
        seed=3,
    )
    defaults.update(kw)
    return sim.ScenarioConfig(**defaults)


def test_import_leaves_scipy_unloaded():
    # Only the scenario p-values need scipy.special, and only bench needs
    # sim; importing the package, and so every other CLI command, skips both.
    # No exact fractions are built either: the curve CSV renders V_t / t
    # from the int64 array.
    src = os.path.dirname(os.path.dirname(fb.__file__))
    script = (
        "import forestbound; import sys\n"
        'assert "scipy" not in sys.modules\n'
        'assert "forestbound.sim" not in sys.modules\n'
        'assert "fractions" not in sys.modules\n'
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


class TestPvalueTransform:
    def test_zero_statistic_gives_half(self):
        assert pvalue_from_stat(0.0) == 0.5

    def test_infinite_statistic_clamps(self):
        assert pvalue_from_stat(np.inf) == 0.0
        assert pvalue_from_stat(-np.inf) == 1.0

    def test_accuracy_against_erfc(self):
        xs = np.linspace(-8, 8, 1001)
        expected = 0.5 * np.array([math.erfc(x / math.sqrt(2)) for x in xs])
        assert np.max(np.abs(pvalue_from_stat(xs) - expected)) < 1e-12


class TestGenPvalues:
    def test_reproducible_and_in_range(self):
        cfg = tiny_config()
        a = sim.gen_pvalues(cfg)
        b = sim.gen_pvalues(cfg)
        assert np.array_equal(a, b)
        assert a.shape == (16,)
        assert np.all((a >= 0) & (a <= 1))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            sim.gen_pvalues(tiny_config(seed=1)), sim.gen_pvalues(tiny_config(seed=2))
        )

    def test_signal_atoms_get_small_pvalues(self):
        cfg = sim.ScenarioConfig(
            m=4096,
            tree_height=2,
            signal_leaves=frozenset({1}),
            mu=4.0,
            n_repl=1,
            seed=7,
        )
        p = sim.gen_pvalues(cfg)
        signal, null = p[:2048], p[2048:]
        assert np.median(signal) < 0.01
        assert 0.4 < np.median(null) < 0.6

    def test_null_mean_monte_carlo(self):
        # mean of 1e5 uniform draws stays within 3 sigma of 1/2
        cfg = sim.ScenarioConfig(
            m=100_000,
            tree_height=1,
            signal_leaves=frozenset(),
            n_repl=1,
            seed=11,
        )
        p = sim.gen_pvalues(cfg)
        tol = 3.0 * math.sqrt(1.0 / 12.0) / math.sqrt(p.size)
        assert abs(float(p.mean()) - 0.5) < tol


class TestScenarioConfig:
    def test_atom_size(self):
        assert tiny_config().atom_size == 4

    def test_m_must_divide(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig(m=10, tree_height=3, signal_leaves=frozenset())

    def test_m_within_dyadic_limit(self):
        # Refused before gen_pvalues allocates m floats, as build_dyadic would.
        sim.ScenarioConfig(m=2**30, tree_height=5)
        with pytest.raises(ValueError, match="exceeds"):
            sim.ScenarioConfig(m=2**31, tree_height=5)

    def test_signal_leaves_bounds(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig(m=8, tree_height=2, signal_leaves=frozenset({3}))

    def test_signal_leaves_are_integer_atoms(self):
        # True would act as leaf 1 and 5.0 would fail later in gen_pvalues.
        for bad in (True, 5.0, 0):
            with pytest.raises(ValueError, match=f"1..8, got {bad!r}"):
                sim.ScenarioConfig(m=16, tree_height=4, signal_leaves=frozenset({bad}))
        cfg = sim.ScenarioConfig(
            m=16, tree_height=4, signal_leaves=frozenset({np.int64(8)})
        )
        assert sim.gen_pvalues(cfg).shape == (16,)

    def test_signal_leaves_read_once(self):
        cfg = sim.ScenarioConfig(
            m=32, tree_height=5, seed=7, signal_leaves=iter([1, 2])
        )
        twin = sim.ScenarioConfig(
            m=32, tree_height=5, seed=7, signal_leaves=frozenset({1, 2})
        )
        assert cfg == twin
        assert np.array_equal(sim.gen_pvalues(cfg), sim.gen_pvalues(twin))

    def test_signal_leaves_checked_without_an_atom_set(self):
        tracemalloc.start()
        try:
            sim.ScenarioConfig(m=2**20, tree_height=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"m": 16.0}, "m must be an integer, got 16.0"),
            ({"tree_height": 3.0}, "tree_height must be an integer, got 3.0"),
            ({"m": True, "tree_height": True}, "m must be an integer, got True"),
            ({"n_repl": 2.5}, "n_repl must be an integer, got 2.5"),
            ({"n_repl": True}, "n_repl must be an integer, got True"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"mu": "4"}, "mu must be a real number other than NaN, got '4'"),
            ({"mu": True}, "mu must be a real number other than NaN, got True"),
            ({"mu": math.nan}, "mu must be a real number other than NaN, got nan"),
            ({"order_by_pvalue": 1}, "order_by_pvalue must be a bool, got 1"),
            ({"tree_height": 33}, "tree height must be <= 32, got 33"),
            (
                {"signal_leaves": 5},
                "signal leaves must be an iterable of integers in 1..4, got 5",
            ),
            (
                {"signal_leaves": None},
                "signal leaves must be an iterable of integers in 1..4, got None",
            ),
        ],
    )
    def test_malformed_fields_refused(self, fields, message):
        with pytest.raises(ValueError) as caught:
            tiny_config(**fields)
        assert str(caught.value) == message

    def test_numpy_scalars_accepted(self):
        cfg = tiny_config(m=np.int64(16), seed=np.int64(3), mu=np.float64(4.0))
        assert np.array_equal(sim.gen_pvalues(cfg), sim.gen_pvalues(tiny_config()))

    def test_n_repl_positive(self):
        with pytest.raises(ValueError):
            tiny_config(n_repl=0)

    def test_zeta_method_checked(self):
        with pytest.raises(ValueError):
            tiny_config(zeta_method="oracle")


class TestRunScenario:
    def test_single_replication_min_equals_max(self):
        cfg = sim.ScenarioConfig(
            m=2, tree_height=1, signal_leaves=frozenset({1}), n_repl=1, seed=1
        )
        report = sim.run_scenario(cfg)
        for summary in report.summaries.values():
            assert summary.min == summary.max == summary.median
            assert summary.neval == 1

    def test_summary_ordering_invariants(self):
        report = sim.run_scenario(tiny_config(n_repl=5))
        assert set(report.summaries) == set(VARIANTS)
        for s in report.summaries.values():
            assert s.min <= s.lq <= s.median <= s.uq <= s.max
            assert s.min <= s.mean <= s.max
            assert s.neval == 5

    def test_variant_subset(self):
        report = sim.run_scenario(tiny_config(), variants=("fast.pruned",))
        assert list(report.summaries) == ["fast.pruned"]
        with pytest.raises(ValueError):
            sim.run_scenario(tiny_config(), variants=("fast.cached",))

    def test_region_counts(self):
        report = sim.run_scenario(tiny_config(), variants=("fast.pruned",))
        assert report.region_count == 7
        assert report.pruned_region_count == 4  # trivial budgets keep atoms only

    def test_dkwm_scenario_runs(self):
        report = sim.run_scenario(
            tiny_config(zeta_method="dkwm", alpha=0.1),
            variants=("fast.not.pruned", "naive.not.pruned"),
        )
        assert report.pruned_region_count <= report.region_count

    def test_pvalue_order_runs(self):
        report = sim.run_scenario(
            tiny_config(order_by_pvalue=True),
            variants=("fast.not.pruned", "naive.not.pruned"),
        )
        assert report.region_count == 7


class TestScalingCheck:
    def test_preconditions(self):
        small = tiny_config()
        with pytest.raises(ValueError):
            sim.scaling_check(small, tiny_config(m=32))
        with pytest.raises(ValueError):
            sim.scaling_check(
                small,
                sim.ScenarioConfig(
                    m=160,
                    tree_height=4,
                    signal_leaves=frozenset({1}),
                    n_repl=2,
                    seed=3,
                ),
            )

    def test_produces_ratios(self):
        small = tiny_config(n_repl=3)
        large = tiny_config(m=160, n_repl=3)
        result = sim.scaling_check(small, large, variants=("fast.not.pruned",))
        assert set(result.ratios) == {"fast.not.pruned"}
        assert result.ratios["fast.not.pruned"] > 0
        assert result.small.summaries["fast.not.pruned"].neval == 3


class TestVariantCrossCheck:
    @pytest.fixture
    def off_by_one(self, monkeypatch):
        real = sim.fast_curve

        def loosened(family, path):
            return fb.BoundCurve([v + 1 for v in real(family, path)])

        monkeypatch.setattr(sim, "fast_curve", loosened)

    def test_run_scenario_refuses_a_disagreeing_variant(self, off_by_one):
        with pytest.raises(RuntimeError, match="variant fast.not.pruned disagrees"):
            sim.run_scenario(tiny_config())

    def test_scaling_check_refuses_a_disagreeing_variant(self, off_by_one):
        with pytest.raises(RuntimeError, match="variant fast.pruned disagrees"):
            sim.scaling_check(
                tiny_config(),
                tiny_config(m=160),
                variants=("naive.pruned", "fast.pruned"),
            )


class TestEmptyVariants:
    # An empty choice, or a bare string, is refused before any family is built.
    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("p-values drawn for an empty variant choice")

        monkeypatch.setattr(sim, "gen_pvalues", refuse)

    def test_run_scenario(self, nothing_built):
        with pytest.raises(ValueError, match="at least one"):
            sim.run_scenario(tiny_config(), variants=())

    def test_scaling_check(self, nothing_built):
        with pytest.raises(ValueError, match="at least one"):
            sim.scaling_check(tiny_config(), tiny_config(m=160), variants=[])

    def test_a_bare_string(self, nothing_built):
        with pytest.raises(ValueError, match="got 'fast.pruned'$"):
            sim.run_scenario(tiny_config(), variants="fast.pruned")


class TestReportFormats:
    REPORT = BenchReport(
        config=tiny_config(),
        summaries={
            "naive.not.pruned": TimingSummary(
                0.000123456789, 0.0002, 0.00025, 0.0003, 0.0004, 0.0125, 7
            ),
            "fast.pruned": TimingSummary(
                1.5e-06, 2e-06, 2.25e-06, 2.5e-06, 3e-06, 1.234567891, 7
            ),
        },
        region_count=7,
        pruned_region_count=4,
    )

    def test_csv_text(self):
        assert bench_csv(self.REPORT) == (
            "expr,min,lq,mean,median,uq,max,neval\n"
            "naive.not.pruned,0.000123457,0.000200000,0.000250000,"
            "0.000300000,0.000400000,0.012500000,7\n"
            "fast.pruned,0.000001500,0.000002000,0.000002250,"
            "0.000002500,0.000003000,1.234567891,7\n"
        )

    def test_table_text(self):
        assert bench_table(self.REPORT) == (
            "expr                    min         lq       mean     median"
            "         uq        max  neval\n"
            "naive.not.pruned  0.0001235  0.0002000  0.0002500  0.0003000"
            "  0.0004000  0.0125000      7\n"
            "fast.pruned       0.0000015  0.0000020  0.0000023  0.0000025"
            "  0.0000030  1.2345679      7\n"
        )

    def test_csv_shape(self):
        report = sim.run_scenario(tiny_config(n_repl=3))
        lines = bench_csv(report).strip().splitlines()
        assert lines[0] == "expr,min,lq,mean,median,uq,max,neval"
        assert len(lines) == 1 + len(VARIANTS)
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] in VARIANTS
            assert cells[-1] == "3"
            assert all(float(c) >= 0 for c in cells[1:-1])

    def test_table_aligned(self):
        report = sim.run_scenario(tiny_config(n_repl=3))
        lines = bench_table(report).splitlines()
        assert lines[0].split() == [
            "expr", "min", "lq", "mean", "median", "uq", "max", "neval",
        ]
        assert len({len(line) for line in lines}) == 1  # constant width
