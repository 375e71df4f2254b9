"""Removal of regions whose budget is dominated by a tiling of descendants.

A non-atom region is redundant whenever some chain of family members tiles
its atom interval with budgets summing to no more than its own: such a region
can never be the binding term of the bound, so dropping it leaves every bound
value unchanged while shrinking the family.  The detection reuses the
bottom-up sweep of the single-evaluation bound on the full selection set,
where each region's capped budget is just its budget: a region is dominated
exactly when its budget is at least the summed values of its children.

:func:`definition_removed_set` re-derives the removed set straight from the
tiling-domination definition by memoized enumeration; it is deliberately
independent of the sweep and exists to cross-check :func:`prune` on small
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bounds import _require_complete, _sweep
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
    # values of its children.
    acc = _sweep(family, family._offsets)
    left, right, zeta = family._left, family._right, family._zeta
    children = family._sizes() + np.asarray(acc[:-1], dtype=np.int64)
    dominated = (left != right) & (zeta >= children)
    # RegionKey._make without a Python call per region.
    pairs = zip(left[dominated].tolist(), right[dominated].tolist())
    removed = frozenset(map(tuple.__new__, repeat(RegionKey), pairs))
    kept = ~dominated
    pruned = ForestFamily._from_rows(
        family.m, family.atom_sizes, left[kept], right[kept], zeta[kept]
    )
    return PruneResult(
        pruned_family=pruned, removed=removed, vstar_full=int(acc[-1])
    )


def compact(result: PruneResult) -> ForestFamily:
    """The pruned family, already built from the surviving regions alone;
    kept for callers that compact after pruning."""
    return result.pruned_family


def definition_removed_set(family: ForestFamily) -> frozenset[RegionKey]:
    """Removed set per the domination definition, by direct enumeration.

    A region (i, j) is removed when its atom interval can be tiled by at
    least two family members whose budgets sum to at most its own.  Tiling
    costs are minimized by recursion on the leftmost uncovered atom,
    memoized per sub-interval.  Small families only; cross-checks prune().
    """
    ends: dict[int, list[int]] = {}
    for key in family.keys():
        ends.setdefault(key.i, []).append(key.j)
    zeta = {key: family.zeta(key) for key in family.keys()}
    memo: dict[tuple[int, int], float] = {}

    def min_tiling_cost(a: int, b: int) -> float:
        # Cheapest tiling of atoms a..b by family intervals; inf if none.
        if a > b:
            return 0.0
        got = memo.get((a, b))
        if got is not None:
            return got
        best = float("inf")
        for j in ends.get(a, ()):
            if j <= b:
                tail = min_tiling_cost(j + 1, b)
                cost = zeta[RegionKey(a, j)] + tail
                if cost < best:
                    best = cost
        memo[(a, b)] = best
        return best

    removed = set()
    for key in family.keys():
        if key.i == key.j:
            continue
        best_two_pieces = float("inf")
        for j in ends.get(key.i, ()):
            if j < key.j:  # first piece proper, so at least two pieces total
                cost = zeta[RegionKey(key.i, j)] + min_tiling_cost(j + 1, key.j)
                if cost < best_two_pieces:
                    best_two_pieces = cost
        if best_two_pieces <= zeta[key]:
            removed.add(key)
    return frozenset(removed)
