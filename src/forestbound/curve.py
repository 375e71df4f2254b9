"""Incremental computation of the whole bound curve along a nested path.

Growing the selection set one hypothesis at a time changes only the regions
that contain the new hypothesis's atom, and in a forest those are the atom's
ancestors.  The paper's walk climbs from each step's atom up to the root,
counting down the budgets on the way, for a total cost of O(m + sum of
region spans), versus the quadratic cost of calling the single-evaluation
bound once per prefix.  :func:`fast_curve` computes the same values with a
rank-and-truncate engine; the test suite keeps the walk, as
``reference_walk``, to check it against.

Call a region's *increment times* the steps that it passes up: an atom's
are the first zeta of the steps that enter it, and a region's are the first
zeta of the union of its children's.  Up to step t a region then passes up
min(zeta, sum over its children) times, which is its value in the
bottom-up sweep of vstar(S_t), so V_t counts the roots' increment times up
to t.  The engine sorts the T steps once, keyed by their atom's row, and
keeps each atom's first zeta keys; then per depth level, deepest first, it
re-keys the kept keys to the parent row and sorts and truncates only the
keys so handed up, at most the sum of min(zeta, |R ∩ S_T|) over the child
rows R; an atom's keys are never sorted again.  A level whose budgets are
all vacuous keeps every key and needs no sort.  No Python loop runs over
the steps.  What does not change between calls on one family (the row
numbers, each row's distance to its parent, the level starts and which
levels bind) is read from the family's cached ``_curve_view``, so a call
pays only for its own path: the path is read with one C-level conversion
(:func:`forestbound.bounds._index_array`), and the curve it returns holds
V_0..V_T as the int64 array of the counts' running sum, taken over without
a copy; the CSV writer renders that array, and only a caller of
:attr:`BoundCurve.values` turns it into Python ints.

:func:`naive_curve` evaluates vstar(S_t) afresh on every prefix S_t; it is
quadratic in m and is the reference to compare a curve with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bounds import _path_array, _require_complete, vstar
from .forest import ForestFamily
from .zeta import _check_pvalues


class BoundCurve:
    """The sequence (V_0, V_1, ..., V_T) of bounds along a path prefix.

    The values are kept as one read-only int64 array, which the CSV writer
    reads; :attr:`values` is the tuple of Python ints, built on first
    access.  Indexing gives a Python int, and two curves are equal when
    their values are.  A curve is immutable: setting or deleting an
    attribute raises ``AttributeError``.
    """

    __slots__ = ("_array", "_values")

    def __init__(self, values: Sequence[int] | np.ndarray) -> None:
        array = np.array(values)  # a copy: the caller's sequence stays theirs
        # An unsigned value above the int64 range would wrap.
        wraps = array.dtype.kind == "u" and array.size and array.max() >= 2**63
        if array.ndim != 1 or (array.size and array.dtype.kind not in "iu") or wraps:
            raise TypeError("a curve is a flat sequence of integers")
        # numpy reads a boolean among integers as 0 or 1; only an array of
        # another kind can hold one.
        if not isinstance(values, np.ndarray):
            bits = np.flatnonzero((array == 0) | (array == 1)).tolist()
            if any(isinstance(values[i], (bool, np.bool_)) for i in bits):
                raise TypeError("a curve is a flat sequence of integers")
        array = array.astype(np.int64, copy=False)
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "_values", None)

    @classmethod
    def _over(cls, array: np.ndarray) -> "BoundCurve":
        # A curve over a fresh 1-D int64 array, which it takes without a copy.
        array.flags.writeable = False
        curve = object.__new__(cls)
        object.__setattr__(curve, "_array", array)
        object.__setattr__(curve, "_values", None)
        return curve

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to BoundCurve.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete BoundCurve.{name}")

    def __reduce__(self):
        return BoundCurve, (self._array,)

    @property
    def values(self) -> tuple[int, ...]:
        if self._values is None:
            object.__setattr__(self, "_values", tuple(self._array.tolist()))
        return self._values

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return self.values[t]
        return int(self._array[t])

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundCurve):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"BoundCurve(values={self.values!r})"

    @property
    def final(self) -> int:
        return int(self._array[-1])


def naive_curve(family: ForestFamily, path: Sequence[int]) -> BoundCurve:
    """Bound curve along a nested path by independent vstar calls.

    Quadratic in the path length; kept as the reference baseline for
    :func:`fast_curve`.  Takes the same complete family and path prefix, and
    returns one value per prefix length, starting at V_0 = 0.
    """
    _require_complete(family)
    steps = _path_array(family.m, path).tolist()
    values = [0]
    selected: set[int] = set()
    for idx in steps:
        selected.add(idx)
        values.append(vstar(family, selected))
    return BoundCurve(tuple(values))


def fast_curve(family: ForestFamily, path: Sequence[int]) -> BoundCurve:
    """Bound values for every prefix of ``path`` in a single forward pass.

    The family must be complete (:func:`forestbound.complete_family` makes
    it so).  ``path`` must be a prefix of a permutation of 1..m, as a
    sequence or an integer array, and is checked as one array; the returned
    curve has one entry per prefix length, starting at V_0 = 0, held as an
    int64 array (``values``, the tuple, is built on first access).  The
    rank-and-truncate engine of the module docstring passes every step
    through every ancestor of its atom, so a pruned family (same output,
    fewer rows) runs faster.  To check a curve, compare it with
    :func:`naive_curve` on the same family and path.
    """
    _require_complete(family)
    return _curve_np(family, _path_array(family.m, path))


def _curve_np(family: ForestFamily, steps: np.ndarray) -> BoundCurve:
    """The curve from every row's increment times, one depth level at a time.

    ``steps`` is a checked path as an int64 array.  Step t is keyed
    ``row << shift | t`` by the row that owns it, first its atom's; the keys
    are sorted once, and every atom keeps its first zeta of them in one
    pass.  Deepest level first, the keys a level kept are re-keyed to their
    parent rows, and the level above sorts and truncates only these, since
    its atoms' keys are already sorted and kept.  The roots' keys end in
    their times.
    """
    n_steps = len(steps)
    shift = n_steps.bit_length()
    seq = np.arange(n_steps + 1)  # the times 1..T, and positions among keys
    keys = family._atom_rows[steps]
    keys <<= shift
    keys += seq[1:]
    keys.sort()
    view = family._curve_view
    bounds = view.rows << shift  # rows r..q own the keys bounds[r]:bounds[q + 1]
    rekey = view.rekey << shift
    zeta, levels, binds = family._zeta, view.levels, view.binds
    # Only a level with a budget below its region's size can refuse a key;
    # the budgets of zeta_trivial, the default of forestbound bench, never do.
    if any(binds):
        keys = _first_keys(keys, bounds, zeta, seq)
    # keys[cut[h - 1]:cut[h]] are the kept steps in the atoms of depth h.
    cut = keys.searchsorted(family._levels << shift).tolist()
    # The deepest level holds atoms only.
    here = keys[cut[-2] :]
    for h in range(len(levels) - 2, 0, -1):
        # The keys handed up belong to the level's non-atom rows, which its
        # atoms' keys never share.
        up = rekey[here >> shift]
        up += here
        if binds[h - 1]:
            up.sort()
            a, b = levels[h - 1], levels[h]
            up = _first_keys(up, bounds[a : b + 1], zeta[a:b], seq)
        # The level's atoms, if they kept keys, add theirs.
        if cut[h - 1] < cut[h]:
            up = np.concatenate((up, keys[cut[h - 1] : cut[h]]))
        here = up
    values = np.bincount(here & ((1 << shift) - 1), minlength=n_steps + 1)
    return BoundCurve._over(np.add.accumulate(values, out=values))


def _first_keys(
    keys: np.ndarray, bounds: np.ndarray, zeta: np.ndarray, seq: np.ndarray
) -> np.ndarray:
    # The sorted keys of rows r..q (bounds[r]:bounds[q + 1], budgets zeta),
    # each row cut to its first zeta: a key stays when fewer than zeta keys
    # of its row come before it.  seq is 0, 1, ... over at least the keys.
    first = keys.searchsorted(bounds)
    return keys[seq[: keys.size] < (first[:-1] + zeta).repeat(np.diff(first))]


def curve_from_pvalues(family: ForestFamily, pvalues: Sequence[float]) -> BoundCurve:
    """Bound curve along the path ordering the p-values increasingly.

    Ties break by ascending hypothesis index (stable sort), so the output is
    deterministic.
    """
    path = _pvalue_path(family.m, pvalues)
    return fast_curve(family, path)


def _pvalue_path(m: int, pvalues: Sequence[float]) -> np.ndarray:
    # The hypotheses 1..m by increasing p-value, ties by ascending index, as
    # an int64 array: the one ordering behind curve_from_pvalues and the
    # CLI's curve CSV.
    return np.argsort(_check_pvalues(m, pvalues), kind="stable") + 1

