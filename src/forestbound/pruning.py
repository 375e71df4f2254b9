"""Removal of regions whose budget is dominated by a tiling of descendants.

A non-atom region is redundant whenever some chain of family members tiles
its atom interval with budgets summing to no more than its own: such a region
can never be the binding term of the bound, so dropping it leaves every bound
value unchanged while shrinking the family.  The detection is one bottom-up
sweep of the family's own row table on the full selection set, where each
region's capped budget is just its budget: a region is dominated exactly
when its budget is at least the summed values of its children.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bounds import _require_complete, _sweep_np
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
    # On the full set a row's count is its size, and the sizes of a
    # non-atom's children add up to its own, so it is dominated exactly when
    # its budget is at least the summed values of its children, its size
    # plus its accumulator: when its slack is at least its accumulator.
    left, right, zeta = family._left, family._right, family._zeta
    slack = zeta - family._sizes
    acc = np.zeros(len(family) + 1, dtype=np.int64)
    acc[-1] = family.m
    _sweep_np(family._levels, family._parent, slack, acc)
    dominated = (left != right) & (slack >= acc[:-1])
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

