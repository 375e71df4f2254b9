"""Incremental computation of the whole bound curve along a nested path.

Growing the selection set one hypothesis at a time changes only the regions
that contain the new hypothesis's atom, and in a forest those are the atom's
ancestors.  Each region counts down its budget as it absorbs selected
hypotheses and freezes once the budget is spent, so a step climbs from its
atom's row up the parent column to the root, decrementing every budget on
the way, and adds 1 to the bound unless the atom already lies inside a
saturated region, in which case the bound is unchanged and nothing is
climbed.  Total cost is O(m + sum of region spans), versus the quadratic
cost of calling the single-evaluation bound once per prefix.

:func:`naive_curve` evaluates vstar(S_t) afresh on every prefix S_t; it is
quadratic in m and is the reference to compare a curve with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import _require_complete, validate_path, vstar
from .forest import ForestFamily
from .zeta import _check_pvalues


@dataclass(frozen=True)
class BoundCurve:
    """The sequence (V_0, V_1, ..., V_T) of bounds along a path prefix."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, t: int) -> int:
        return self.values[t]

    def __iter__(self):
        return iter(self.values)

    @property
    def final(self) -> int:
        return self.values[-1]


def naive_curve(family: ForestFamily, path: Sequence[int]) -> BoundCurve:
    """Bound curve along a nested path by independent vstar calls.

    Quadratic in the path length; kept as the reference baseline for
    :func:`fast_curve`.  Takes the same complete family and path prefix, and
    returns one value per prefix length, starting at V_0 = 0.
    """
    _require_complete(family)
    steps = validate_path(family.m, path)
    values = [0]
    selected: set[int] = set()
    for idx in steps:
        selected.add(idx)
        values.append(vstar(family, selected))
    return BoundCurve(tuple(values))


def fast_curve(family: ForestFamily, path: Sequence[int]) -> BoundCurve:
    """Bound values for every prefix of ``path`` in a single forward pass.

    The family must be complete (:func:`forestbound.complete_family` makes
    it so).  ``path`` must be a prefix of a permutation of 1..m; the returned
    curve has one entry per prefix length, starting at V_0 = 0.  A step
    whose atom is not yet covered by a saturated region climbs the family's
    parent column from the atom's row to the root, decrementing every budget
    on the way and covering the span of each row whose budget reaches 0.
    The climb visits every ancestor, so a pruned family (same output, fewer
    rows) walks faster.  To check a curve, compare it with
    :func:`naive_curve` on the same family and path.
    """
    _require_complete(family)
    steps = validate_path(family.m, path)

    atom_of = family._atom_of()
    budget = family._zeta.tolist()  # what each region has left to absorb
    parent = family._parent.tolist()
    left = family._left.tolist()
    right = family._right.tolist()
    atoms = np.flatnonzero(family._left == family._right)
    # The row of each atom (n, n) by n; entry 0 is padding.
    row_of_atom = [-1, *atoms[np.argsort(family._left[atoms])].tolist()]
    covered = bytearray(family.n_atoms + 1)
    for r in np.flatnonzero(family._zeta == 0).tolist():
        span = right[r] - left[r] + 1
        covered[left[r] : right[r] + 1] = b"\x01" * span

    v = 0
    values = [0]
    append = values.append
    for idx in steps:
        n = atom_of[idx]
        if not covered[n]:
            r = row_of_atom[n]
            while r >= 0:
                b = budget[r] - 1
                budget[r] = b
                if b == 0:
                    span = right[r] - left[r] + 1
                    covered[left[r] : right[r] + 1] = b"\x01" * span
                r = parent[r]
            v += 1
        append(v)
    return BoundCurve(tuple(values))


def curve_from_pvalues(family: ForestFamily, pvalues: Sequence[float]) -> BoundCurve:
    """Bound curve along the path ordering the p-values increasingly.

    Ties break by ascending hypothesis index (stable sort), so the output is
    deterministic.
    """
    path = _pvalue_path(family.m, pvalues)
    return fast_curve(family, path)


def _pvalue_path(m: int, pvalues: Sequence[float]) -> list[int]:
    # The hypotheses 1..m by increasing p-value, ties by ascending index:
    # the one ordering behind curve_from_pvalues and the CLI's curve CSV.
    return (np.argsort(_check_pvalues(m, pvalues), kind="stable") + 1).tolist()


def fdp_curve(curve: BoundCurve) -> list[Fraction]:
    """Exact proportion bounds V_t / max(t, 1) for t = 1..T."""
    return [
        Fraction(v, max(t, 1))
        for t, v in enumerate(curve.values[1:], start=1)
    ]
