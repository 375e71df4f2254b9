"""Budget estimation strategies attached to a built forest structure.

Estimators assign each region an integer budget in 0..|R| and return a new
family; the surrounding bound and curve algorithms never depend on which
estimator produced the budgets.  Two strategies ship: the trivial one, which
makes every budget vacuous, and a concentration-based one built on the
one-sided Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant.
The latter sorts the p-values once, with no regard to the order of ties,
and then groups them by region a lone large depth level or a block of
smaller levels at a time, so its sorts and numpy calls follow the groups,
not the levels (see :func:`zeta_dkwm`).  Third-party estimates plug in
through :func:`apply_zetas`.
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


def _check_pvalues(m: int | None, pvalues: Sequence[float]) -> np.ndarray:
    # The one check of a p-value vector, for every entry point taking one;
    # m=None takes a vector of any length.  Booleans, complex numbers, bytes
    # and strings are no p-values, though a float cast reads each of them as
    # a number.  Among other numbers, or in an object array, numpy reads True
    # as 1.0 and False as 0.0, so only the entries equal to 0 or 1 of such
    # input are probed for a bool.  The range test refuses NaN too, as the
    # minimum of an array holding NaN is NaN.
    count = "" if m is None else f"{m} "
    message = f"expected {count}finite p-values within [0, 1]"
    try:
        arr = np.asarray(pvalues)
        arr = None if arr.dtype.kind in "bcSU" else arr.astype(float, copy=False)
    except (TypeError, ValueError):  # non-numeric or ragged input
        arr = None
    if (
        arr is None
        or (arr.ndim != 1 if m is None else arr.shape != (m,))
        or (arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0))
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


def upper_null_count(pvalues: Sequence[float], alpha: float) -> int:
    """Level-(1-alpha) upper confidence count of true nulls in one region.

    Null p-values are super-uniform, so with probability at least 1 - alpha
    the one-sided DKW bound gives, for every threshold t,

        #{p > t}  >=  n0 * (1 - t) - sqrt(n0 * log(1/alpha) / 2),

    where n0 is the number of true nulls.  Solving the quadratic in sqrt(n0)
    at each observed threshold and taking the smallest root bound yields the
    confidence count; the candidate thresholds 0 and the observed p-values
    are where the piecewise bound attains its infimum.  ``pvalues`` is a
    vector of finite p-values within [0, 1], possibly empty, and alpha is in
    (0, 1); anything else raises InvalidProbabilityError.
    """
    ps = np.sort(_check_pvalues(None, pvalues))
    _check_alpha(alpha)
    n = ps.size
    if n == 0:
        return 0
    c = math.log(1.0 / alpha) / 2.0
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

    The budgets equal :func:`upper_null_count` on each region's p-values,
    which the bound reads in increasing order.  One sort of all the
    p-values comes first, and it need not be stable: a region's p-values
    in increasing order are the same numbers whichever of two tied
    hypotheses the sort puts first, so no budget depends on tie order.
    The rows are then ordered a group at a time.  A depth level of at least
    ``_BLOCK`` hypothesis entries (the sum of its regions' sizes) is a group
    of its own, ordered by a stable sort of region labels, as the regions
    of one level are disjoint.  Runs of smaller levels are gathered into
    blocks of at most ``_BLOCK`` entries, each ordered by one sort of the
    keys ``row << bits(m - 1) | rank``: the row within the block above the
    hypothesis' place in the p-value order.  The bound is evaluated and
    reduced per row over a whole group at once, so a group holds O(m +
    _BLOCK) memory beside the sorted p-values, whatever the height.
    """
    arr = _check_pvalues(family.m, pvalues)
    _check_alpha(alpha)
    m = family.m
    sizes = family._sizes
    lo = family._offsets[family._left - 1]
    levels = family._levels.tolist()
    entries = np.add.reduceat(sizes, levels[:-1]).tolist()

    order = np.argsort(arr)
    gaps = arr[order]  # 1 - p, for the p-values in increasing order
    np.subtract(1.0, gaps, out=gaps)
    rank = None
    c = math.log(1.0 / alpha) / 2.0
    low = np.empty(len(family))
    for a, b, alone in _groups(levels, entries, m, _BLOCK):
        s = sizes[a:b]
        ends = np.cumsum(s)
        if alone:
            grouped = _level_gaps(gaps, order, lo[a:b], s, m)
        else:
            if rank is None:
                rank = np.empty_like(order)
                rank[order] = np.arange(m)
            grouped = _block_gaps(gaps, rank, lo[a:b], s, ends)
        low[a:b] = _row_minima(grouped, s, ends, c)
    # The threshold t = 0 with exceed = n.  That is exact when no p-value
    # is 0; otherwise the last zero gives the exact, smaller bound.
    x0 = (math.sqrt(c) + np.sqrt(c + 4.0 * sizes)) / 2.0
    np.minimum(low, x0 * x0, out=low)
    return family._with_zetas(np.minimum(np.floor(low).astype(np.int64), sizes))


# Hypothesis entries (the sum of |R| over rows) that a block of levels holds
# at most, and from which a level is grouped alone.  A level's label sort
# costs O(m) and a block's key sort a comparison sort of its entries.
# Measured on dyadic families of 2**10 to 2**13 hypotheses: from 2**14 up,
# the 2**13-entry levels of m = 2**13 went into blocks, 1.1-1.3x slower,
# and below 2**13 families of 2**10 split into more groups, up to 1.9x.
_BLOCK = 1 << 13


def _groups(
    levels: list[int], entries: list[int], m: int, block: int
) -> list[tuple[int, int, bool]]:
    # The groups of rows a..b-1 that zeta_dkwm orders at once, in row order,
    # given the levels' bounds in rows and their hypothesis entries: (a, b,
    # True) for a level grouped alone, (a, b, False) for a block of levels.
    # A block's keys hold the row within the block above the bits(m - 1)
    # bits of a rank, so a block holds at most ``cap`` rows, which keeps
    # every key below 2**63; a level with more rows is grouped alone.
    shift = (m - 1).bit_length()
    cap = 1 << (63 - shift)
    groups = []
    first = total = 0  # the pending block's first level and its entries
    for h, n in enumerate(entries):
        a, b = levels[h], levels[h + 1]
        alone = n >= block or b - a > cap
        if total and (alone or total + n > block or b - levels[first] > cap):
            groups.append((levels[first], a, False))
            total = 0
        if alone:
            groups.append((a, b, True))
            continue
        if not total:
            first = h
        total += n
    if total:
        groups.append((levels[first], levels[-1], False))
    return groups


def _level_gaps(
    gaps: np.ndarray, order: np.ndarray, lo: np.ndarray, sizes: np.ndarray, m: int
) -> np.ndarray:
    # The gaps 1 - p of disjoint regions covering hypotheses lo..lo+size-1
    # (0-based, sorted by lo), region by region, each region's in increasing
    # p order.  Every hypothesis is labelled with its region's position in
    # the level, and those outside the level with ``regions``, run by run:
    # the gap before each region, the region, and the gap after the last.
    regions = lo.size
    label_of = np.full(2 * regions + 1, regions, dtype=np.min_scalar_type(regions))
    label_of[1::2] = np.arange(regions)
    runs = np.empty(2 * regions + 1, dtype=np.int64)
    runs[1::2] = sizes
    runs[0::2] = np.concatenate((lo, [m])) - np.concatenate(([0], lo + sizes))
    labels = np.repeat(label_of, runs)[order]
    if sizes.sum() < m:  # drop the hypotheses outside the level
        covered = labels < regions
        labels = labels[covered]
        gaps = gaps[covered]
    return gaps[np.argsort(labels, kind="stable")]


def _block_gaps(
    gaps: np.ndarray,
    rank: np.ndarray,
    lo: np.ndarray,
    sizes: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    # As _level_gaps for rows that may nest, given each hypothesis' place in
    # the p-value order: the members of every row, row by row, keyed by the
    # row above the rank, and the keys sorted.  _groups keeps the keys below
    # 2**63.
    shift = (rank.size - 1).bit_length()
    member = np.repeat(lo - (ends - sizes), sizes)
    member += np.arange(ends[-1])
    key = np.repeat(np.arange(lo.size) << shift, sizes)
    key |= rank[member]
    key.sort()
    key &= (1 << shift) - 1
    return gaps[key]


def _row_minima(
    gaps: np.ndarray, sizes: np.ndarray, ends: np.ndarray, c: float
) -> np.ndarray:
    # The smallest root bound of each row, from its gaps 1 - p in increasing
    # p order, which this overwrites.  The element at position pos of a row
    # stands for the threshold t = p with exceed = n - pos - 1; among tied
    # elements the last one has the exact #{p > t}, and the others give
    # larger bounds, which the minimum ignores.
    exceed = np.repeat(ends - 1, sizes)
    exceed -= np.arange(ends[-1])
    x = gaps * 4.0
    x *= exceed
    del exceed
    x += c
    np.sqrt(x, out=x)
    x += math.sqrt(c)
    gaps *= 2.0
    with np.errstate(divide="ignore"):
        # A p-value of 1 is no threshold (gap 0): its bound is +inf.
        x /= gaps
    x *= x
    return np.minimum.reduceat(x, ends - sizes)


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
