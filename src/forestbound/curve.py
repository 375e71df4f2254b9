"""Incremental computation of the whole bound curve along a nested path.

Growing the selection set one hypothesis at a time lets the bound be updated
in O(depth) per step instead of recomputing it from scratch: each region
counts down its budget as it absorbs selected hypotheses, and freezes once
the budget is spent.  A step adds 1 to the bound unless the new
hypothesis falls inside an already-saturated region, in which case the bound
is unchanged.  Total cost is O(m + sum of region spans), versus the quadratic
cost of calling the single-evaluation bound once per prefix.

The audit mode re-derives the same values through the partition-tracking
formulation and asserts, at every step, that the bound equals both the summed
root counters and the summed capped budgets over the tracked partition; on
small inputs it additionally cross-checks every active region's counter
against an independent bound evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import _require_complete, validate_path, vstar
from .forest import ForestFamily, RegionKey
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


def fast_curve(
    family: ForestFamily, path: Sequence[int], *, audit: bool = False
) -> BoundCurve:
    """Bound values for every prefix of ``path`` in a single forward pass.

    The family must be complete (:func:`forestbound.complete_family` makes
    it so).  ``path`` must be a prefix of a permutation of 1..m; the returned
    curve has one entry per prefix length, starting at V_0 = 0.  Pruning the
    family first is optional and does not change the output.  With
    ``audit=True`` the per-step identities of the partition-tracking
    formulation are asserted (slow; meant for verification on small inputs).
    """
    _require_complete(family)
    steps = validate_path(family.m, path)
    if audit:
        return BoundCurve(_fast_curve_audit(family, steps))

    atom_of, chains = family._walk()
    budget = family._zeta.tolist()  # what each region has left to absorb
    left = family._left.tolist()
    right = family._right.tolist()
    covered = bytearray(family.n_atoms + 1)
    for r in np.flatnonzero(family._zeta == 0).tolist():
        span = right[r] - left[r] + 1
        covered[left[r] : right[r] + 1] = b"\x01" * span

    v = 0
    values = [0]
    append = values.append
    for idx in steps:
        n = atom_of[idx]
        if covered[n]:
            append(v)
            continue
        for r in chains[n]:
            b = budget[r] - 1
            budget[r] = b
            if b == 0:
                span = right[r] - left[r] + 1
                covered[left[r] : right[r] + 1] = b"\x01" * span
                break
        v += 1
        append(v)
    return BoundCurve(tuple(values))


# Audit runs cross-check every active region against a fresh vstar call when
# m is at most this large; beyond it only the per-step sum identities run.
AUDIT_FULL_CHECK_MAX_M = 32


def _fast_curve_audit(
    family: ForestFamily, steps: tuple[int, ...]
) -> tuple[int, ...]:
    # Bookkeeping: ``eta`` maps regions to their absorbed counts,
    # ``saturated`` holds the frozen regions, and ``partition`` tracks a
    # partition-realizing region subset whose capped budgets sum to the bound.
    atom_of, chains = family._walk()
    left = family._left.tolist()
    right = family._right.tolist()
    keys = list(map(RegionKey, left, right))
    zeta_zero = np.flatnonzero(family._zeta == 0).tolist()  # shallow to deep
    n_atoms = family.n_atoms

    # Zero-budget regions are saturated from the start, so the maximal ones
    # replace their atoms in the initial partition; otherwise the capped-sum
    # identity would start off broken for atoms trapped under a zero budget.
    pre_covered = bytearray(n_atoms + 1)
    partition: set[RegionKey] = set()
    for r in zeta_zero:
        if not pre_covered[left[r]]:
            partition.add(keys[r])
            for n in range(left[r], right[r] + 1):
                pre_covered[n] = 1
    partition.update(
        RegionKey(n, n) for n in range(1, n_atoms + 1) if not pre_covered[n]
    )
    eta = {k: 0 for k in keys}
    saturated = {keys[r] for r in zeta_zero}
    roots = keys[: family._levels[1]]
    sel_count = {k: 0 for k in keys}  # |S_t ∩ R_k|, saturation-independent
    selected: set[int] = set()

    def contains(outer: RegionKey, inner: RegionKey) -> bool:
        return outer.i <= inner.i and inner.j <= outer.j

    v = 0
    values = [0]
    for t, idx in enumerate(steps, start=1):
        selected.add(idx)
        n = atom_of[idx]
        chain = [keys[r] for r in chains[n]]
        for k in chain:
            sel_count[k] += 1
        if not any(k in saturated for k in chain):
            for k in chain:
                eta[k] += 1
                assert eta[k] <= family.zeta(k), (
                    f"t={t}: counter of {k} exceeded its budget"
                )
                if eta[k] >= family.zeta(k):
                    saturated.add(k)
                    partition = {p for p in partition if not contains(k, p)}
                    partition.add(k)
                    break
            v += 1
        values.append(v)

        _assert_step_identities(family, t, v, eta, partition, roots, sel_count)
        if family.m <= AUDIT_FULL_CHECK_MAX_M:
            _assert_eta_matches_vstar(family, t, eta, partition, selected)
    return tuple(values)


def _assert_step_identities(family, t, v, eta, partition, roots, sel_count) -> None:
    total = sum(eta[k] for k in roots)
    assert v == total, f"t={t}: bound {v} != root counter sum {total}"
    spans = sorted((k.i, k.j) for k in partition)
    pos = 1
    for i, j in spans:
        assert i == pos, f"t={t}: tracked partition has a gap at atom {pos}"
        pos = j + 1
    assert pos == family.n_atoms + 1, (
        f"t={t}: tracked partition stops at atom {pos - 1}"
    )
    capped = sum(min(family.zeta(k), sel_count[k]) for k in partition)
    assert v == capped, f"t={t}: bound {v} != partition capped sum {capped}"


def _assert_eta_matches_vstar(family, t, eta, partition, selected) -> None:
    # Active regions: those containing at least one tracked-partition member.
    for reg in family.regions():
        if not any(reg.key.i <= p.i and p.j <= reg.key.j for p in partition):
            continue
        expected = vstar(family, selected & set(family.region_members(reg.key)))
        assert eta[reg.key] == expected, (
            f"t={t}: counter of {reg.key} is {eta[reg.key]}, "
            f"bound of restricted selection is {expected}"
        )


def curve_from_pvalues(
    family: ForestFamily, pvalues: Sequence[float], *, audit: bool = False
) -> BoundCurve:
    """Bound curve along the path ordering the p-values increasingly.

    Ties break by ascending hypothesis index (stable sort), so the output is
    deterministic.
    """
    path = _pvalue_path(family.m, pvalues)
    return fast_curve(family, path, audit=audit)


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
