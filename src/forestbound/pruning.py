"""Removal of regions whose budget is dominated by a tiling of descendants.

A non-atom region is redundant whenever some chain of family members tiles
its atom interval with budgets summing to no more than its own: such a region
can never be the binding term of the bound, so dropping it leaves every bound
value unchanged while shrinking the family.  The detection reuses the
bottom-up sweep of the single-evaluation bound on the full selection set,
where each region's capped budget is just its budget: a region is dominated
exactly when its budget is at least the summed values of its children.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bounds import (
    NUMPY_MIN_ATOMS,
    _from_prefix_counts,
    _require_complete,
    _sweep_np,
    _sweep_py,
)
from .forest import ForestFamily, RegionKey


@dataclass(frozen=True)
class PruneResult:
    """Outcome of pruning: the surviving family, what was removed, and the
    bound of the full selection set, which the sweep yields for free."""

    pruned_family: ForestFamily
    removed: frozenset[RegionKey]
    vstar_full: int


def prune(family: ForestFamily) -> PruneResult:
    """Drop every dominated non-atom region; atoms are never touched.

    Requires a complete family; the result is complete as well, with depths
    recomputed after removal.  For any selection set the pruned family yields
    exactly the same bound.  Pruning an already-pruned family removes
    nothing.
    """
    _require_complete(family)
    # On the full set the prefix counts are the atom offsets and a row's
    # count is its size; the sizes of a non-atom's children add up to its
    # own, so it is dominated exactly when its budget is at least the summed
    # values of its children, its size plus its accumulator.
    left, right, zeta = family._left, family._right, family._zeta
    if family.n_atoms < NUMPY_MIN_ATOMS:
        acc = _sweep_py(family, family._offsets)
        children = family._sizes + np.asarray(acc[:-1], dtype=np.int64)
        dominated = (left != right) & (zeta >= children)
    else:
        acc = _sweep_np(family, *_from_prefix_counts(family, family._offsets))
        rows = family._sweep_rows.rows
        dominated = np.zeros(len(family), dtype=bool)
        dominated[rows] = zeta[rows] >= family._sizes[rows] + acc[:-1]
    # RegionKey._make without a Python call per region.
    pairs = zip(left[dominated].tolist(), right[dominated].tolist())
    removed = frozenset(map(tuple.__new__, repeat(RegionKey), pairs))
    kept = ~dominated
    pruned = ForestFamily._from_rows(
        family.m, family._offsets, left[kept], right[kept], zeta[kept]
    )
    return PruneResult(
        pruned_family=pruned, removed=removed, vstar_full=int(acc[-1])
    )


def compact(result: PruneResult) -> ForestFamily:
    """The pruned family, already built from the surviving regions alone;
    kept for callers that compact after pruning."""
    return result.pruned_family

