"""Budget estimation strategies attached to a built forest structure.

Estimators assign each region an integer budget in 0..|R| and return a new
family; the surrounding bound and curve algorithms never depend on which
estimator produced the budgets.  Two strategies ship: the trivial one, which
makes every budget vacuous, and a concentration-based one built on the
one-sided Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant.
Third-party estimates plug in through :func:`apply_zetas`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidProbabilityError, ZetaRangeError
from .forest import ForestFamily, RegionKey

# Names of the shipped estimators, as ZetaEstimator and the CLI accept them.
ZETA_METHODS = ("trivial", "dkwm")


def zeta_trivial(family: ForestFamily) -> ForestFamily:
    """Set every region's budget to its size (no information)."""
    return family._with_zetas(family._sizes)


def _check_alpha(alpha: float) -> None:
    # The one check of a confidence level, for every entry point taking one.
    # A bool is a Real.  A value that is no real number is shown by repr, so
    # a refused "0.1" does not read like an accepted 0.1.
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and 0.0 < alpha < 1.0):
        shown = alpha if real else repr(alpha)
        raise InvalidProbabilityError(f"alpha must be in (0, 1), got {shown}")


def _check_pvalues(m: int, pvalues: Sequence[float]) -> np.ndarray:
    # The one check of a p-value vector, for every entry point taking one.
    # Booleans, complex numbers, bytes and strings are no p-values, though a
    # float cast reads each of them as a number.  Among other numbers, or in
    # an object array, numpy reads True as 1.0 and False as 0.0, so only the
    # entries equal to 0 or 1 of such input are probed for a bool.
    message = f"expected {m} finite p-values within [0, 1]"
    try:
        arr = np.asarray(pvalues)
        arr = None if arr.dtype.kind in "bcSU" else arr.astype(float, copy=False)
    except (TypeError, ValueError):  # non-numeric or ragged input
        arr = None
    if arr is None or arr.shape != (m,) or not (
        np.all(np.isfinite(arr)) and arr.min() >= 0.0 and arr.max() <= 1.0
    ):
        raise InvalidProbabilityError(message)
    if not isinstance(pvalues, np.ndarray) or pvalues.dtype == object:
        ends = np.flatnonzero((arr == 0.0) | (arr == 1.0)).tolist()
        # The entries' distinct types, gathered first, cost several times
        # less than an isinstance call per entry.
        kinds = {type(pvalues[i]) for i in ends}
        if any(issubclass(kind, (bool, np.bool_)) for kind in kinds):
            raise InvalidProbabilityError(message)
    return arr


def upper_null_count(pvalues: np.ndarray, alpha: float) -> int:
    """Level-(1-alpha) upper confidence count of true nulls in one region.

    Null p-values are super-uniform, so with probability at least 1 - alpha
    the one-sided DKW bound gives, for every threshold t,

        #{p > t}  >=  n0 * (1 - t) - sqrt(n0 * log(1/alpha) / 2),

    where n0 is the number of true nulls.  Solving the quadratic in sqrt(n0)
    at each observed threshold and taking the smallest root bound yields the
    confidence count; the candidate thresholds 0 and the observed p-values
    are where the piecewise bound attains its infimum.
    """
    n = pvalues.size
    if n == 0:
        return 0
    c = math.log(1.0 / alpha) / 2.0
    ps = np.sort(pvalues)
    ts = np.concatenate(([0.0], ps))
    ts = ts[ts < 1.0]
    if ts.size == 0:
        return n
    exceed = n - np.searchsorted(ps, ts, side="right")
    gap = 1.0 - ts
    x = (math.sqrt(c) + np.sqrt(c + 4.0 * gap * exceed)) / (2.0 * gap)
    bound = math.floor(float(np.min(x * x)))
    return min(n, bound)


def zeta_dkwm(
    family: ForestFamily, pvalues: Sequence[float], alpha: float
) -> ForestFamily:
    """Budgets from per-region DKW upper confidence counts of true nulls.

    Each region's bound is computed at level alpha individually, with no
    multiplicity adjustment across regions; joint validity of the family is
    the caller's concern.  Regions full of small p-values get budgets well
    below their size, so they saturate quickly in the curve algorithms;
    regions compatible with uniform p-values keep the vacuous budget.

    The budgets equal :func:`upper_null_count` on each region's p-values.
    They are computed one depth level at a time, since the regions of one
    level are disjoint: one sort groups the level's p-values by region in
    increasing order, and the bound is reduced per region over the whole
    level at once.
    """
    arr = _check_pvalues(family.m, pvalues)
    _check_alpha(alpha)
    lo = family._offsets[family._left - 1]
    hi = family._offsets[family._right]
    budgets = np.empty(len(family), dtype=np.int64)

    order = np.argsort(arr, kind="stable")
    p_sorted = arr[order]
    c = math.log(1.0 / alpha) / 2.0
    levels = family._levels.tolist()
    for a, b in zip(levels, levels[1:]):
        # The rows of a level are sorted by i, so lo increases.
        budgets[a:b] = _level_null_counts(p_sorted, order, lo[a:b], hi[a:b], c)
    return family._with_zetas(budgets)


def _level_null_counts(
    p_sorted: np.ndarray,
    order: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    c: float,
) -> np.ndarray:
    # upper_null_count for disjoint regions covering hypotheses lo..hi-1
    # (0-based, sorted by lo), given the p-values in increasing order and
    # their hypotheses.  Within a region, the element at position pos of the
    # sorted p-values stands for the threshold t = p with exceed = n - pos - 1;
    # among tied elements the last one has the exact #{p > t}, and the others
    # give larger bounds, which the minimum ignores.
    regions = lo.size
    m = order.size
    sizes = hi - lo
    # Label every hypothesis with its region's position in the level, and
    # those outside the level with ``regions``, run by run: the gap before
    # each region, the region, and the gap after the last one.
    label_of = np.full(2 * regions + 1, regions, dtype=np.min_scalar_type(regions))
    label_of[1::2] = np.arange(regions)
    runs = np.empty(2 * regions + 1, dtype=np.int64)
    runs[1::2] = sizes
    runs[0::2] = np.concatenate((lo, [m])) - np.concatenate(([0], hi))
    labels = np.repeat(label_of, runs)[order]
    covered = labels < regions
    if not covered.all():
        labels = labels[covered]
        p_sorted = p_sorted[covered]
    grouped = p_sorted[np.argsort(labels, kind="stable")]

    ends = np.cumsum(sizes)
    exceed = np.repeat(ends - 1, sizes) - np.arange(ends[-1])
    gap = 1.0 - grouped
    with np.errstate(divide="ignore"):
        # A p-value of 1 is no threshold (gap 0): its bound is +inf.
        x = (math.sqrt(c) + np.sqrt(c + 4.0 * gap * exceed)) / (2.0 * gap)
    low = np.minimum.reduceat(x * x, ends - sizes)
    # The threshold t = 0 with exceed = n.  That is exact when no p-value
    # is 0; otherwise the last zero above gives the exact, smaller bound.
    x0 = (math.sqrt(c) + np.sqrt(c + 4.0 * sizes)) / 2.0
    low = np.minimum(low, x0 * x0)
    return np.minimum(np.floor(low).astype(np.int64), sizes)


def apply_zetas(
    family: ForestFamily, estimates: Mapping[RegionKey, int]
) -> ForestFamily:
    """Attach raw budget estimates, rounded down to integers and clamped
    into 0..|R|.

    Entry point for third-party estimation strategies; emits one warning
    when any estimate had to be clamped and another when any in-range
    estimate was rounded down (the shipped estimators give integers in
    range by construction).  Regions absent from ``estimates`` keep their
    budget.  An estimate that is a boolean or not a finite number raises
    ZetaRangeError, and an ``estimates`` with no ``items()`` FormatError.
    """
    if not callable(getattr(estimates, "items", None)):
        raise FormatError(
            "zeta estimates must be a mapping of region keys to budgets, "
            f"got a {type(estimates).__name__}"
        )
    sizes = family._sizes.tolist()
    zeta = family._zeta.copy()
    clamped_keys = []
    rounded_keys = []
    for key, z in estimates.items():
        r = family._row(key)
        size = sizes[r]
        try:
            value = int(z)
            if value > z:  # int() truncates toward zero; a count rounds down
                value -= 1
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None or isinstance(z, (bool, np.bool_)):
            raise ZetaRangeError(
                f"zeta estimate {z!r} for region {key} is not a finite number"
            )
        if value < 0 or z > size:
            clamped_keys.append(key)
        elif value != z:
            rounded_keys.append(key)
        zeta[r] = min(max(value, 0), size)
    if clamped_keys:
        warnings.warn(
            f"clamped {len(clamped_keys)} zeta estimate(s) into the "
            "structural range 0..|R|",
            stacklevel=2,
        )
    if rounded_keys:
        warnings.warn(
            f"rounded {len(rounded_keys)} non-integer zeta estimate(s) down "
            "to an integer",
            stacklevel=2,
        )
    return family._with_zetas(zeta)


@dataclass(frozen=True)
class ZetaEstimator:
    """Named budget strategy: ``trivial`` or ``dkwm`` (with its alpha)."""

    method: str = "trivial"
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.method not in ZETA_METHODS:
            raise ValueError(f"unknown zeta method {self.method!r}")
        _check_alpha(self.alpha)

    def apply(
        self, family: ForestFamily, pvalues: Sequence[float] | None = None
    ) -> ForestFamily:
        if self.method == "trivial":
            return zeta_trivial(family)
        if pvalues is None:
            raise InvalidProbabilityError("dkwm estimation needs p-values")
        return zeta_dkwm(family, pvalues, self.alpha)
