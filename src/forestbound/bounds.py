"""Single-evaluation bound and the checks of caller-supplied indices.

:func:`vstar` computes the interpolated upper bound on the number of false
discoveries in a selection set, as a bottom-up sweep over the forest levels:
each region's value is its own capped budget ``zeta & |S ∩ R|``, further
capped by the sum of its children's values, and the answer is the sum over
the roots.  The sweep reads the selection as prefix counts per atom and
runs over the family's row table.  From NUMPY_MIN_ATOMS atoms up, the
selection is sorted as one array and counted with ``searchsorted`` from the
smaller side, each member finding its atom or each atom end finding its
place among the members, in O(|S| log |S| + min(|S| log N, N log |S|) + |K|)
per call; below, a Python loop counts it, in O(|S| + N + |K|).

Hypothesis indices from callers have one array reader, ``_index_array``: it
reads vstar's selection from NUMPY_MIN_ATOMS up, the path of both curve
functions and the path column of the CSV writers.  Whatever it does not
read, each caller hands to its own Python validator, which raises the
refusal: :func:`atom_hit_counts` for vstar, :func:`validate_path` for the
curves, and a per-entry scan for the writers.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Collection, Sequence

import numpy as np

from .errors import IncompleteFamilyError, IndexOutOfRangeError, NotAPermutationError
from .forest import ForestFamily

# Families with at least this many atoms go through the vectorized sweep of
# vstar and prune; below it, plain lists beat the per-call overhead (on a
# 2-vCPU x86 host, the numpy sweep took 1.3-1.6x the Python time at 64
# atoms, 0.8-1.2x at 128).
NUMPY_MIN_ATOMS = 128


def atom_hit_counts(family: ForestFamily, selection: Collection[int]) -> list[int]:
    """How many selected hypotheses fall in each atom; entry 0 is padding.

    Interval sums of this vector give the selection overlap of any region.
    Rejects duplicate, non-integer (boolean included), and out-of-range
    members.
    """
    distinct = isinstance(selection, (set, frozenset))
    atom_of = family._atom_of
    hits = [0] * (family.n_atoms + 1)
    try:
        # A selection that is no collection, such as a 0-d array, and an
        # unhashable member, such as a list, raise TypeError here.
        items = selection if distinct else tuple(selection)
        if not distinct and len(set(items)) != len(items):
            raise IndexOutOfRangeError("selection contains duplicate indices")
        for s in items:
            # True indexes like 1; only a member <= 1 needs the second look.
            if s <= 1 and (s < 1 or s is True):
                raise IndexError
            hits[atom_of[s]] += 1
    except (IndexError, TypeError):
        raise IndexOutOfRangeError(
            f"selection members must be integers in 1..{family.m}"
        ) from None
    return hits


def _require_complete(family: ForestFamily) -> None:
    # The one completeness check of every bound, curve and pruning entry.
    if not family.is_complete:
        raise IncompleteFamilyError(
            "family is not complete; add its missing atoms with "
            "complete_family() or `forestbound complete`"
        )


def _sweep(family: ForestFamily, hc: Sequence[int]) -> list[int] | np.ndarray:
    """The bottom-up sweep's accumulator, from the engine the size suits."""
    if family.n_atoms >= NUMPY_MIN_ATOMS:
        return _sweep_np(family, hc)
    return _sweep_py(family, hc)


def _sweep_py(family: ForestFamily, hc: Sequence[int]) -> list[int]:
    """The bottom-up sweep over plain lists; returns its accumulator.

    ``hc`` holds the prefix counts: ``hc[n]`` selected hypotheses in atoms
    1..n, for n = 0..N.  A row's value is its budget capped by its selected
    count (an atom) or by its children's summed values, which, as children
    tile their parent in a complete family, is ``count + acc[r]``:
    ``acc[r]`` sums the children's savings ``value - count``.  Children come
    after their parents, so one reverse pass adds each saving to the
    parent's slot; the roots' go to ``acc[-1]``, which starts at |S| and so
    ends as the bound.
    """
    if isinstance(hc, np.ndarray):
        hc = hc.tolist()
    zeta, left, right, parent = family._row_lists
    acc = [0] * (len(zeta) + 1)
    acc[-1] = hc[-1]
    for r in range(len(zeta) - 1, -1, -1):
        v = zeta[r] - hc[right[r]] + hc[left[r] - 1]
        c = acc[r]
        if c < v:
            v = c
        acc[parent[r]] += v
    return acc


def _sweep_np(family: ForestFamily, hc: Sequence[int]) -> np.ndarray:
    # _sweep_py's sweep and accumulator, one depth level at a time.  A row
    # whose selected count is within its budget, with only such rows below
    # it, saves nothing, so the sweep starts at the deepest level that has a
    # row over its budget, and skips every level when none has one.  That
    # pays only where deep budgets are vacuous, as with zeta_trivial.
    hc = np.asarray(hc, dtype=np.int64)
    slack = family._zeta - (hc[family._right] - hc[family._left - 1])
    acc = np.zeros(len(slack) + 1, dtype=np.int64)
    acc[-1] = hc[-1]
    levels = family._levels.tolist()
    over = np.flatnonzero(np.minimum.reduceat(slack, levels[:-1]) < 0)
    if over.size:
        deepest = int(over[-1]) + 1
        parent = family._parent
        for a, b in zip(levels[deepest - 1 : 0 : -1], levels[deepest:1:-1]):
            np.add.at(acc, parent[a:b], np.minimum(slack[a:b], acc[a:b]))
        # Every root's parent slot is the last one: a sum, not a scatter.
        roots = levels[1]
        acc[-1] += np.minimum(slack[:roots], acc[:roots]).sum()
    return acc


def _prefix_counts(
    family: ForestFamily, selection: Collection[int]
) -> list[int] | np.ndarray:
    """The sweep's prefix counts of ``selection``, which is checked as
    :func:`atom_hit_counts` checks it.

    From NUMPY_MIN_ATOMS atoms up, a selection that :func:`_index_array`
    reads is sorted once and counted up to each atom's end: a selection
    smaller than the offsets looks up each member's atom among them and
    counts the atoms with ``bincount``, a larger one looks up each atom's end
    among the members; nothing of size m is built and no Python loop runs
    over the members.  Any other selection, and one with a repeat, goes to
    :func:`atom_hit_counts`.
    """
    if family.n_atoms < NUMPY_MIN_ATOMS:
        return list(accumulate(atom_hit_counts(family, selection)))
    if not isinstance(selection, (Sequence, np.ndarray)):
        selection = list(selection)  # sets and one-shot iterables
    members = _index_array(family.m, selection)
    if members is not None:
        members = np.sort(members)
        if not (members[1:] == members[:-1]).any():
            offsets = family._offsets
            if members.size < offsets.size:  # each member finds its atom
                hits = offsets.searchsorted(members)
                hits = np.bincount(hits, minlength=offsets.size)
                return hits.cumsum(out=hits)
            return np.searchsorted(members, offsets, side="right")
    return np.cumsum(atom_hit_counts(family, selection))


def vstar(family: ForestFamily, selection: Collection[int]) -> int:
    """Upper bound on the number of false discoveries in ``selection``.

    The family must be complete (:func:`forestbound.complete_family` makes
    it so).  ``selection`` holds distinct integers in 1..m, as a set, a
    sequence or a 1-D integer array; booleans are refused.  The result is
    exact for the family's interpolated bound: the minimum over
    partition-realizing region subsets of the summed capped budgets.
    """
    _require_complete(family)
    return int(_sweep(family, _prefix_counts(family, selection))[-1])


def validate_path(m: int, path: Sequence[int]) -> tuple[int, ...]:
    """Check that ``path`` is a prefix of a permutation of 1..m (no booleans)."""
    try:
        if not isinstance(path, (Sequence, np.ndarray)):
            path = list(path)  # a one-shot iterable: the boolean check indexes it
        entries = iter(path)
    except TypeError:  # no sequence at all, such as a 0-d array
        raise NotAPermutationError(
            f"path entries must be integers, got {path!r}"
        ) from None
    out = []
    seen = set()
    for x in entries:
        try:
            xi = operator.index(x)
        except TypeError:
            raise NotAPermutationError(
                f"path entries must be integers, got {x!r}"
            ) from None
        if not 1 <= xi <= m:
            raise NotAPermutationError(f"path entry {xi} outside 1..{m}")
        if xi in seen:
            raise NotAPermutationError(f"path repeats index {xi}")
        seen.add(xi)
        out.append(xi)
    if 1 in seen and path[out.index(1)] is True:
        raise NotAPermutationError("path entries must be integers, got True")
    return tuple(out)


def _index_array(bound: int, values) -> np.ndarray | None:
    """The one array check of caller-supplied hypothesis indices: ``values``
    as int64 when numpy reads it as a 1-D integer array of entries in
    1..bound, with no boolean among those equal to 1 (numpy reads True as 1);
    otherwise None, and the caller's Python validator raises the refusal.
    Repeats are the caller's to find."""
    if not isinstance(values, (Sequence, np.ndarray)):
        return None
    try:
        array = np.asarray(values)
    except (TypeError, ValueError, OverflowError):  # ragged or exotic
        return None
    if array.ndim != 1:
        return None
    if not array.size:
        return array.astype(np.int64)
    if array.dtype.kind not in "iu":
        return None
    lo = array.min()
    if lo < 1 or array.max() > bound:
        return None
    if lo == 1 and not isinstance(values, np.ndarray):
        ones = np.flatnonzero(array == 1).tolist()
        if any(isinstance(values[i], (bool, np.bool_)) for i in ones):
            return None
    return array.astype(np.int64, copy=False)


def _path_array(m: int, path: Sequence[int]) -> np.ndarray:
    """:func:`validate_path` as one array: the path as int64, repeats found
    by ``bincount``; a path refused or repeating goes to validate_path."""
    steps = _index_array(m, path)
    if steps is None or np.bincount(steps).max(initial=0) > 1:
        return np.array(validate_path(m, path), dtype=np.int64)
    return steps

