"""Single-evaluation bound and the checks of caller-supplied indices.

:func:`vstar` computes the interpolated upper bound on the number of false
discoveries in a selection set, as a bottom-up sweep over the forest levels:
each region's value is its own capped budget ``zeta & |S ∩ R|``, further
capped by the sum of its children's values, and the answer is the sum over
the roots.  Below NUMPY_MIN_ATOMS atoms a Python loop counts the selection
per atom and sweeps every row, in O(|S| + N + K) for N atoms and K rows.

From NUMPY_MIN_ATOMS atoms up the sweep runs over the I *binding* rows
alone, the non-atom rows with a budget below their size.  A row whose budget
is its size never holds more selected members than its budget, so it passes
its children's savings up unchanged, and they go straight to its nearest
binding ancestor; this leaves out most rows of an unpruned DKWM family and
every non-atom row under zeta_trivial.  In a complete family an atom has no
children, so its value is ``min(zeta, count)`` and it saves only when it is
tight (zeta below its size) and the selection puts more than zeta members
in it.  The selection is sorted once; the binding rows are counted by
``searchsorted`` of their bounds among the members, and the T tight atoms
by placing the smaller of two sorted runs, their bounds and the members, in
the larger.  A call costs O(|S| log |S| + I log |S| + min(|S|, T) log
max(|S|, T)), however large N and m are.

Hypothesis indices from callers have one array reader, ``_index_array``: it
reads vstar's selection from NUMPY_MIN_ATOMS up, the path of both curve
functions and the path column of the CSV writers.  A Python sequence goes
to int64 in one strict C-level conversion, ``struct.pack``, which refuses
every entry that is no integer, so no dtype is guessed; an ndarray is read
as it is.  Whatever it does not read, each caller hands to its own Python
validator, which raises the refusal: :func:`atom_hit_counts` for vstar,
:func:`validate_path` for the curves, and a per-entry scan for the writers.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, MappingView, Set as AbstractSet
from itertools import accumulate
from typing import Collection, Sequence

import numpy as np

from .errors import IncompleteFamilyError, IndexOutOfRangeError, NotAPermutationError
from .forest import ForestFamily, _SweepView

# Families with at least this many atoms go through vstar's vectorized
# sweep; below it, plain lists beat the per-call overhead (on a 2-vCPU x86
# host, with DKWM budgets and |S| from 1 to m, the numpy sweep took
# 0.9-1.6x the Python time at 64 atoms, 0.7-1.0x at 128).
NUMPY_MIN_ATOMS = 128


def atom_hit_counts(family: ForestFamily, selection: Collection[int]) -> list[int]:
    """How many selected hypotheses fall in each atom; entry 0 is padding.

    vstar's check of a selection, and its Python engine's counter; no
    public name.  Interval sums of this vector give the selection overlap
    of any region.  Rejects duplicate, non-integer (boolean included), and
    out-of-range members.
    """
    distinct = isinstance(selection, (set, frozenset))
    atom_of = family._atom_of
    hits = [0] * (family.n_atoms + 1)
    items = None  # stays None for a selection that is no collection
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
    except IndexError:
        pass
    except TypeError:
        # An integer type with __index__ but no ordering fails the compare:
        # read every member through __index__, booleans refused, and count
        # the ints again.
        try:
            ints = [operator.index(s) for s in items]
        except TypeError:
            pass
        else:
            if not any(isinstance(s, bool) for s in items):
                return atom_hit_counts(family, ints)
    else:
        return hits
    raise IndexOutOfRangeError(
        f"selection members must be integers in 1..{family.m}"
    )


def _require_complete(family: ForestFamily) -> None:
    # The one completeness check of every bound, curve and pruning entry.
    if not family.is_complete:
        raise IncompleteFamilyError(
            "family is not complete; add its missing atoms with "
            "complete_family() or `forestbound complete`"
        )


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


def _sweep_np(
    levels: np.ndarray, parent: np.ndarray, slack: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """_sweep_py's sweep over a row table, one depth level at a time; sums
    into ``acc`` in place and returns it.  It reads no family.

    Rows ``levels[h-1]:levels[h]`` have depth h.  ``slack`` holds each
    row's budget less its selected count, so row r saves
    ``min(slack[r], acc[r])``, which it adds to slot ``parent[r]``; the
    roots add theirs to the last slot, which ends as the bound.  ``acc``
    starts with the savings known before the sweep.  prune sweeps every
    row and passes zeros with m in the last slot.  vstar's table holds the
    binding rows alone, so it passes the tight atoms' savings in the slots
    of their nearest binding ancestors and |S| in the last.  A row within
    its budget, with no saving below it, saves nothing, so the sweep starts
    at the deepest level holding a row whose saving is not 0, and skips
    every level when none has one.  That pays for prune where deep budgets
    are vacuous, as with zeta_trivial, and for vstar when the selection
    puts no deep row over its budget.
    """
    over = np.flatnonzero(np.minimum(slack, acc[:-1]) < 0)
    if over.size:
        levels = levels[: levels.searchsorted(over[-1], "right") + 1].tolist()
        for a, b in zip(levels[-2:0:-1], levels[:1:-1]):
            np.add.at(acc, parent[a:b], np.minimum(slack[a:b], acc[a:b]))
        # Every root's parent slot is the last one: a sum, not a scatter.
        roots = levels[1]
        acc[-1] += np.minimum(slack[:roots], acc[:roots]).sum()
    return acc


def _members(family: ForestFamily, selection: Collection[int]) -> np.ndarray:
    """``selection`` as sorted distinct int64, checked as
    :func:`atom_hit_counts` checks it.

    A selection that :func:`_index_array` reads is sorted once, its sorted
    ends give its range, and nothing of size m or N is built.  Any other
    selection, and one with a repeat, goes to :func:`atom_hit_counts`,
    which raises the refusal; one that passes there, such as an object
    array of ints, is read member by member.
    """
    if not isinstance(selection, (Sequence, np.ndarray)) and isinstance(
        selection, Iterable
    ):
        selection = list(selection)  # sets and one-shot iterables
    members = _index_array(family.m, selection, sort=True)
    if members is not None and not np.count_nonzero(members[1:] == members[:-1]):
        return members
    atom_hit_counts(family, selection)
    return np.sort(np.fromiter(map(operator.index, selection), np.int64))


def _sweep_inputs(
    view: _SweepView, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The slack and accumulator of vstar's numpy sweep from sorted
    distinct members.

    A binding row's count is the number of members up to its last
    hypothesis less those up to the one before its first.  Only the T tight
    atoms can save, and their bounds and the members are two sorted runs;
    the smaller is placed in the larger.  With at least 2T members, each
    tight atom's count comes from its bounds' places among the members, and
    its saving ``min(zeta - count, 0)`` goes to its parent slot.  With
    fewer, each member's place among the bounds is odd, 2k + 1, when it lies
    in tight atom k; it is an excess member when the member zeta_k places
    before it lies in the same atom, and each lowers its atom's parent slot
    by one.
    """
    tight = view.tight
    if members.size >= tight.size:
        ends = members.searchsorted(tight, "right")
        saved = np.minimum(view.tight_zeta - (ends[1::2] - ends[::2]), 0)
        acc = np.zeros(view.zeta.size + 1, dtype=np.int64)
        np.add.at(acc, view.tight_parent, saved)
    else:
        places = tight.searchsorted(members)
        atoms = places[(places & 1) == 1] >> 1
        # Entry k of the padded atoms is the atom of the k-th member in a
        # tight atom; entry 0, the pad, is no atom, and stands for every
        # place before the first.
        back = np.arange(1, atoms.size + 1) - view.tight_zeta[atoms]
        np.maximum(back, 0, out=back)
        excess = atoms[np.concatenate(([-1], atoms))[back] == atoms]
        acc = np.bincount(view.tight_parent[excess], minlength=view.zeta.size + 1)
        np.negative(acc, out=acc)
    acc[-1] += members.size
    ends = members.searchsorted(view.bounds, "right")
    return view.zeta - ends[1] + ends[0], acc


def vstar(family: ForestFamily, selection: Collection[int]) -> int:
    """Upper bound on the number of false discoveries in ``selection``.

    The family must be complete (:func:`forestbound.complete_family` makes
    it so).  ``selection`` holds distinct integers in 1..m, as a set, a
    sequence or a 1-D integer array; booleans are refused.  The result is
    exact for the family's interpolated bound: the minimum over
    partition-realizing region subsets of the summed capped budgets.
    """
    _require_complete(family)
    if family.n_atoms < NUMPY_MIN_ATOMS:
        hc = list(accumulate(atom_hit_counts(family, selection)))
        return _sweep_py(family, hc)[-1]
    members = _members(family, selection)
    view = family._sweep_view
    slack, acc = _sweep_inputs(view, members)
    return int(_sweep_np(view.levels, view.parent, slack, acc)[-1])


def validate_path(m: int, path: Sequence[int]) -> tuple[int, ...]:
    """Check that ``path`` is a prefix of a permutation of 1..m (no booleans).

    A set has no order, so it is refused, not listed in hash order; a
    dict's keys keep the order they were inserted in."""
    if isinstance(path, AbstractSet) and not isinstance(path, MappingView):
        raise NotAPermutationError(
            f"path must be ordered, got a {type(path).__name__}"
        )
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


def _index_array(bound: int, values, sort: bool = False) -> np.ndarray | None:
    """The one array check of caller-supplied hypothesis indices: ``values``
    as int64, sorted when ``sort``, when it is a 1-D integer array or a
    sequence of integers, each entry in 1..bound and no entry equal to 1 a
    boolean; otherwise None, and the caller's Python validator raises the
    refusal.  Repeats are the caller's to find.

    A sequence is packed in one C-level conversion, ``struct.pack``, which
    reads each entry through ``__index__`` and so refuses what is no
    integer (a float, numpy's floats and booleans, a string, None, a nested
    sequence) and ints outside int64; it reads True as 1, hence the look at
    the entries equal to 1.  It reads bytes entry by entry, as small ints,
    like the validators.  The range is read from the sorted ends when
    ``sort``, else from ``min`` and ``max``."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
            return None
        array = values
    elif isinstance(values, Sequence):
        try:
            packed = struct.pack(f"{len(values)}q", *values)
        except (struct.error, TypeError):
            return None
        array = np.frombuffer(packed, np.int64)
    else:
        return None
    if not array.size:
        return array.astype(np.int64)
    if sort:
        out = np.sort(array)
        lo, hi = out[0], out[-1]
    else:
        out = array
        lo, hi = array.min(), array.max()
    if lo < 1 or hi > bound:
        return None
    if lo == 1 and not isinstance(values, np.ndarray):
        # A sorted caller refuses a repeated 1, so it is the first 1 that
        # needs the look.
        ones = [array.argmin()] if sort else np.flatnonzero(array == 1).tolist()
        if any(values[i] is True for i in ones):
            return None
    return out.astype(np.int64, copy=False)


def _path_array(m: int, path: Sequence[int]) -> np.ndarray:
    """:func:`validate_path` as one array: the path as int64, repeats found
    by ``bincount``; a path refused or repeating goes to validate_path."""
    steps = _index_array(m, path)
    if steps is None or np.count_nonzero(np.bincount(steps)) < steps.size:
        return np.array(validate_path(m, path), dtype=np.int64)
    return steps

