"""Scenario generation and timing harness for the curve algorithms.

This is the scenario module behind ``forestbound bench`` and acceptance
criteria 6-8.  The package does not import it, so ``import forestbound``
loads neither it nor scipy; callers write ``from forestbound import sim``.

Scenarios test one-sided Gaussian means on a dyadic forest: hypotheses in
designated signal atoms get a positive shift, the rest are null, and
p-values come from the standard normal survival function.  The harness times
the naive (repeated single-evaluation) and incremental curve computations on
the same inputs, pruned and unpruned, and reports summary statistics per
variant.  Pruning runs once, before the replications, mirroring how a user
would amortize it across many curves.  Signal leaves are read as ``vstar``
reads a selection: once, as ints in 1..N, a refusal naming the entry.

Timing uses the monotonic performance counter.  Preparing a scenario runs
each chosen variant twice untimed: the warm-ups populate the per-family
lookup caches and feed the cross-check that all variants return identical
curves, so every scenario is warmed up and checked before the first timed
replication.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import _checked_indices
from .curve import BoundCurve, _pvalue_path, fast_curve, naive_curve
from .forest import DYADIC_MAX_M, ForestFamily, _as_count, build_dyadic
from .pruning import prune
from .zeta import ZetaEstimator

VARIANTS = (
    "naive.not.pruned",
    "naive.pruned",
    "fast.not.pruned",
    "fast.pruned",
)

WARMUP_RUNS = 2
# scaling_check alternates its two scenarios over this many rounds.
SCALING_ROUNDS = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one benchmark scenario."""

    m: int
    tree_height: int
    signal_leaves: frozenset[int] = frozenset({1, 5, 9, 10})
    mu: float = 4.0
    zeta_method: str = "trivial"
    alpha: float = 0.05
    n_repl: int = 10
    seed: int = 0
    order_by_pvalue: bool = False

    def __post_init__(self) -> None:
        for name in ("m", "tree_height", "n_repl", "seed"):
            _as_count(getattr(self, name), name, ValueError)
        if self.tree_height < 1:
            raise ValueError("tree height must be >= 1")
        # build_dyadic's bound, checked before 2**(H-1) is computed.
        if self.tree_height > 32:
            raise ValueError(f"tree height must be <= 32, got {self.tree_height}")
        n_atoms = 2 ** (self.tree_height - 1)
        if self.m % n_atoms != 0 or self.m < n_atoms:
            raise ValueError(
                f"m={self.m} must be a positive multiple of 2**(H-1)={n_atoms}"
            )
        # build_dyadic refuses these too, but only after gen_pvalues has
        # allocated arrays of m floats.
        if self.m > DYADIC_MAX_M:
            raise ValueError(f"m={self.m} exceeds {DYADIC_MAX_M}")
        leaves = self.signal_leaves
        if isinstance(leaves, AbstractSet):  # leaves need no order
            leaves = list(leaves)
        leaves = _checked_indices(
            leaves, n_atoms, ValueError, "signal leaves", distinct=False
        )
        object.__setattr__(self, "signal_leaves", frozenset(leaves))
        if self.n_repl < 1:
            raise ValueError("n_repl must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        mu = self.mu
        if not isinstance(mu, numbers.Real) or isinstance(mu, bool) or math.isnan(mu):
            raise ValueError(f"mu must be a real number other than NaN, got {mu!r}")
        if not isinstance(self.order_by_pvalue, bool):
            raise ValueError(
                f"order_by_pvalue must be a bool, got {self.order_by_pvalue!r}"
            )
        ZetaEstimator(self.zeta_method, self.alpha)  # refuses either field

    @property
    def atom_size(self) -> int:
        return self.m // 2 ** (self.tree_height - 1)


@dataclass(frozen=True)
class TimingSummary:
    """Per-variant run-time statistics in seconds."""

    min: float
    lq: float
    mean: float
    median: float
    uq: float
    max: float
    neval: int

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "TimingSummary":
        arr = np.asarray(times, dtype=float)
        lq, median, uq = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(
            min=float(arr.min()),
            lq=float(lq),
            mean=float(arr.mean()),
            median=float(median),
            uq=float(uq),
            max=float(arr.max()),
            neval=len(times),
        )


@dataclass(frozen=True)
class BenchReport:
    """Summaries per timed variant plus the instance's structural facts."""

    config: ScenarioConfig
    summaries: dict[str, TimingSummary]
    region_count: int
    pruned_region_count: int

    def median(self, variant: str) -> float:
        return self.summaries[variant].median


@dataclass(frozen=True)
class ScalingReport:
    """Median-time ratios between a scenario and its 10x-larger twin."""

    small: BenchReport
    large: BenchReport
    ratios: dict[str, float]


def pvalue_from_stat(x) -> np.ndarray | float:
    """One-sided p-value of a Gaussian statistic: survival function at x."""
    from scipy.special import ndtr  # here, so that importing the package skips scipy

    return ndtr(-np.asarray(x, dtype=float))


def gen_pvalues(cfg: ScenarioConfig) -> np.ndarray:
    """Draw the scenario's m p-values.

    Statistics are independent normals with unit variance; the mean is
    ``cfg.mu`` inside signal atoms and 0 elsewhere.  Sampling goes through
    the inverse normal CDF applied to the generator's uniforms, so a given
    seed yields the same stream on every platform.
    """
    from scipy.special import ndtri

    rng = np.random.default_rng(cfg.seed)
    mu = np.zeros(cfg.m)
    size = cfg.atom_size
    for leaf in cfg.signal_leaves:
        mu[(leaf - 1) * size : leaf * size] = cfg.mu
    stats = mu + ndtri(rng.random(cfg.m))
    return pvalue_from_stat(stats)


def _scenario_family(cfg: ScenarioConfig, pvalues: np.ndarray) -> ForestFamily:
    family = build_dyadic(cfg.tree_height, cfg.atom_size)
    return ZetaEstimator(cfg.zeta_method, cfg.alpha).apply(family, pvalues)


def _prepare(
    cfg: ScenarioConfig, variants: Sequence[str] | None
) -> tuple[dict[str, Callable[[], BoundCurve]], int, int]:
    """A scenario's chosen runners, warmed up and cross-checked, and the
    region counts of its family and of the pruned twin."""
    if isinstance(variants, str):
        raise ValueError(f"variants must be a sequence of names, got {variants!r}")
    chosen = VARIANTS if variants is None else tuple(variants)
    unknown = set(chosen) - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants: {sorted(unknown)}")
    if not chosen:
        raise ValueError(f"variants must name at least one of {list(VARIANTS)}")
    pvalues = gen_pvalues(cfg)
    family = _scenario_family(cfg, pvalues)
    pruned = prune(family).pruned_family
    if cfg.order_by_pvalue:
        path = _pvalue_path(cfg.m, pvalues)
    else:
        path = list(range(1, cfg.m + 1))
    runners = {
        "naive.not.pruned": lambda: naive_curve(family, path),
        "naive.pruned": lambda: naive_curve(pruned, path),
        "fast.not.pruned": lambda: fast_curve(family, path),
        "fast.pruned": lambda: fast_curve(pruned, path),
    }
    runners = {name: runners[name] for name in chosen}
    curves: dict[str, BoundCurve] = {}
    for name, fn in runners.items():
        for _ in range(WARMUP_RUNS):
            curves[name] = fn()
    reference = next(iter(curves.values()))
    for name, curve in curves.items():
        if curve != reference:
            raise RuntimeError(f"variant {name} disagrees with the others")
    return runners, len(family), len(pruned)


def _measure(
    cfgs: Sequence[ScenarioConfig], variants: Sequence[str] | None, rounds: int
) -> list[BenchReport]:
    """One report per scenario, timed in ``rounds`` alternating rounds of
    ceil(n_repl / rounds) replications per variant."""
    prepared = [_prepare(cfg, variants) for cfg in cfgs]
    times = [{name: [] for name in runners} for runners, _, _ in prepared]
    for _ in range(rounds):
        for cfg, (runners, _, _), buckets in zip(cfgs, prepared, times):
            for name, fn in runners.items():
                for _ in range(-(-cfg.n_repl // rounds)):
                    t0 = time.perf_counter()
                    fn()
                    t1 = time.perf_counter()
                    buckets[name].append(t1 - t0)
    return [
        BenchReport(
            config=cfg,
            summaries={
                name: TimingSummary.from_times(ts) for name, ts in buckets.items()
            },
            region_count=regions,
            pruned_region_count=pruned,
        )
        for cfg, (_, regions, pruned), buckets in zip(cfgs, prepared, times)
    ]


def run_scenario(
    cfg: ScenarioConfig, variants: Sequence[str] | None = None
) -> BenchReport:
    """Time the curve computations of one scenario.

    Builds the dyadic family, estimates budgets, prunes once, then times
    ``cfg.n_repl`` executions of each variant on the same path (hypothesis
    order by default, p-value order with ``cfg.order_by_pvalue``).  All
    variants must return the same curve; a mismatch raises RuntimeError.
    ``variants`` restricts which of the four are timed.
    """
    return _measure([cfg], variants, 1)[0]


def scaling_check(
    cfg_small: ScenarioConfig,
    cfg_large: ScenarioConfig,
    variants: Sequence[str] | None = None,
) -> ScalingReport:
    """Median-time ratios between two scenarios with a 10x hypothesis gap.

    The incremental algorithm should scale roughly linearly in m (ratio near
    10) and the naive baseline roughly quadratically (ratio near 100).  The
    two scenarios are measured in alternating rounds so that slow spells of
    the host machine hit both sides alike; each scenario's replications are
    spread evenly over the rounds and pooled before taking medians.
    """
    if cfg_large.m != 10 * cfg_small.m:
        raise ValueError("cfg_large.m must be exactly 10 * cfg_small.m")
    if cfg_large.tree_height != cfg_small.tree_height:
        raise ValueError("scenarios must share the tree height")
    small, large = _measure([cfg_small, cfg_large], variants, SCALING_ROUNDS)
    ratios = {name: large.median(name) / small.median(name) for name in small.summaries}
    return ScalingReport(small=small, large=large, ratios=ratios)


def _rows(report: BenchReport, decimals: int) -> list[tuple[str, ...]]:
    """The header, then per variant its name, six times and ``neval``."""
    rows = [("expr", "min", "lq", "mean", "median", "uq", "max", "neval")]
    for name, s in report.summaries.items():
        times = (s.min, s.lq, s.mean, s.median, s.uq, s.max)
        rows.append((name, *(f"{t:.{decimals}f}" for t in times), str(s.neval)))
    return rows


def bench_csv(report: BenchReport) -> str:
    """The report as CSV, one row per timed variant."""
    return "".join(",".join(row) + "\n" for row in _rows(report, 9))


def bench_table(report: BenchReport) -> str:
    """The report as an aligned text table (times in seconds)."""
    rows = _rows(report, 7)
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for name, *cells in rows:
        padded = (cell.rjust(width) for cell, width in zip(cells, widths[1:]))
        lines.append("  ".join([name.ljust(widths[0]), *padded]) + "\n")
    return "".join(lines)
