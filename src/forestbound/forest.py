"""Forest-structured reference families over an ordered atom partition.

The m hypotheses, labeled 1..m, are split into N consecutive atoms; atom n
covers a contiguous block of hypothesis indices whose length is given by
``atom_sizes[n-1]``.  A region is a contiguous run of atoms, identified by the
pair (i, j) of its first and last atom index, and carries an integer budget
``zeta`` bounding the number of false discoveries the region can contribute.
Any two regions must be disjoint or nested, so the family forms a forest of
interval nodes; the depth of a region is 1 plus the number of regions that
strictly contain it.

A family is *complete* when every atom (n, n) is itself a region.  The bound
and curve computations in :mod:`forestbound.bounds` and
:mod:`forestbound.curve` require completeness; :func:`complete_family` adds
the missing atoms with their cardinality as budget, which leaves the bound
unchanged.

ForestFamily instances are immutable after construction and safe to share
across threads.  Derived lookup structures are built lazily and cached; the
cache build is idempotent, so a race at worst duplicates work.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateRegionError,
    IndexOutOfRangeError,
    OverlapError,
    SizeMismatchError,
    UnknownRegionError,
    ZetaRangeError,
)


class RegionKey(NamedTuple):
    """Atom-interval identifier of a region: first and last atom index (1-based)."""

    i: int
    j: int


@dataclass(frozen=True)
class Region:
    """A region with its budget and cached depth."""

    key: RegionKey
    zeta: int
    depth: int


class _Layout:
    """Flat arrays over regions in (depth, i) order, shared by the sweeps.

    ``parent[r]`` is the index of the tightest strictly containing region
    (-1 for roots), ``chains[n]`` lists the regions containing atom n from
    shallowest to deepest, and ``level_slices[h-1]`` is the (start, stop)
    range of depth-h regions in the flat order.
    """

    __slots__ = (
        "keys",
        "left",
        "right",
        "zeta",
        "parent",
        "is_atom",
        "level_slices",
        "chains",
        "zeta_zero",
        "np_left_m1",
        "np_right",
        "np_zeta",
        "np_atom_rids",
        "np_levels",
    )

    def __init__(self, family: "ForestFamily") -> None:
        order = sorted(family._regions, key=lambda k: (family._depths[k], k[0]))
        self.keys = tuple(order)
        self.left = [k[0] for k in order]
        self.right = [k[1] for k in order]
        self.zeta = [family._regions[k] for k in order]
        self.is_atom = [k[0] == k[1] for k in order]
        self.zeta_zero = tuple(r for r, z in enumerate(self.zeta) if z == 0)

        slices: list[tuple[int, int]] = []
        start = 0
        for r, key in enumerate(order):
            if family._depths[key] != family._depths[order[start]]:
                slices.append((start, r))
                start = r
        if order:
            slices.append((start, len(order)))
        self.level_slices = slices

        chains: list[list[int]] = [[] for _ in range(family.n_atoms + 1)]
        parent = [-1] * len(order)
        for r in range(len(order)):
            i, j = self.left[r], self.right[r]
            if chains[i]:
                parent[r] = chains[i][-1]
            for n in range(i, j + 1):
                chains[n].append(r)
        self.parent = parent
        self.chains = [tuple(c) for c in chains]

        self.np_left_m1 = np.asarray(self.left, dtype=np.int64) - 1
        self.np_right = np.asarray(self.right, dtype=np.int64)
        self.np_zeta = np.asarray(self.zeta, dtype=np.int64)
        self.np_atom_rids = np.asarray(
            [r for r, atom in enumerate(self.is_atom) if atom], dtype=np.int64
        )
        np_parent = np.asarray(self.parent, dtype=np.int64)
        self.np_levels = [
            (slice(a, b), np_parent[a:b]) for a, b in self.level_slices
        ]


def _as_count(value, what: str, error: type[Exception] = SizeMismatchError) -> int:
    # bool is an int subclass, but True is no count.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


class ForestFamily:
    """An immutable reference family with a forest interval structure.

    Build instances through :func:`build_family`, :func:`build_dyadic`, or
    :func:`complete_family`; the constructor validates every structural
    invariant (partition sizes, key ranges, distinctness, the
    disjoint-or-nested law, and budget ranges) and computes region depths.
    """

    def __init__(
        self,
        m: int,
        atom_sizes: Sequence[int],
        regions: Iterable[tuple[int, int, int]],
    ) -> None:
        m = _as_count(m, "m")
        if m < 1:
            raise SizeMismatchError(f"m must be >= 1, got {m}")
        sizes = tuple(_as_count(s, "atom size") for s in atom_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise SizeMismatchError(f"atom sizes must be positive, got {sizes}")
        if sum(sizes) != m:
            raise SizeMismatchError(
                f"atom sizes sum to {sum(sizes)}, expected m={m}"
            )
        self.m = m
        self.atom_sizes = sizes
        self._offsets = tuple(accumulate(sizes, initial=0))
        n = len(sizes)

        table: dict[RegionKey, int] = {}
        for i, j, zeta in regions:
            i = _as_count(i, "region start")
            j = _as_count(j, "region end")
            if not (1 <= i <= j <= n):
                raise IndexOutOfRangeError(
                    f"region ({i}, {j}) outside atom range 1..{n}"
                )
            key = RegionKey(i, j)
            if key in table:
                raise DuplicateRegionError(f"region {key} given twice")
            zeta = _as_count(zeta, "zeta", ZetaRangeError)
            size = self._offsets[j] - self._offsets[i - 1]
            if not (0 <= zeta <= size):
                raise ZetaRangeError(
                    f"zeta={zeta} for region {key} outside 0..{size}"
                )
            table[key] = zeta

        self._regions = table
        self._depths = self._compute_depths(table)
        self._height = max(self._depths.values(), default=0)
        self._complete = all(RegionKey(a, a) in table for a in range(1, n + 1))
        self._atom_of_cache: list[int] | None = None
        self._layout_cache: _Layout | None = None

    @staticmethod
    def _compute_depths(table: dict[RegionKey, int]) -> dict[RegionKey, int]:
        # Single sweep over keys sorted by (i, -j): the stack holds exactly the
        # strict containers of the current interval, so its size gives the
        # depth, and any partial overlap surfaces as a failed nesting test.
        depths: dict[RegionKey, int] = {}
        stack: list[RegionKey] = []
        for key in sorted(table, key=lambda k: (k[0], -k[1])):
            while stack and stack[-1][1] < key[0]:
                stack.pop()
            if stack and key[1] > stack[-1][1]:
                raise OverlapError(
                    f"regions {stack[-1]} and {key} overlap without nesting"
                )
            depths[key] = len(stack) + 1
            stack.append(key)
        return depths

    # -- basic queries ----------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atom_sizes)

    @property
    def height(self) -> int:
        return self._height

    @property
    def is_complete(self) -> bool:
        return self._complete

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, key) -> bool:
        return RegionKey(*key) in self._regions

    def __eq__(self, other) -> bool:
        if not isinstance(other, ForestFamily):
            return NotImplemented
        return (
            self.m == other.m
            and self.atom_sizes == other.atom_sizes
            and self._regions == other._regions
        )

    def __repr__(self) -> str:
        return (
            f"ForestFamily(m={self.m}, atoms={self.n_atoms}, "
            f"regions={len(self._regions)}, height={self.height}, "
            f"complete={self._complete})"
        )

    def keys(self) -> Iterator[RegionKey]:
        return iter(sorted(self._regions))

    def regions(self) -> Iterator[Region]:
        for key in sorted(self._regions):
            yield Region(key, self._regions[key], self._depths[key])

    def region(self, key) -> Region:
        key = RegionKey(*key)
        if key not in self._regions:
            raise UnknownRegionError(f"region {key} not in family")
        return Region(key, self._regions[key], self._depths[key])

    def zeta(self, key) -> int:
        return self.region(key).zeta

    def region_size(self, key) -> int:
        """Number of hypotheses covered by the region's atoms."""
        key = RegionKey(*key)
        if key not in self._regions:
            raise UnknownRegionError(f"region {key} not in family")
        return self._offsets[key.j] - self._offsets[key.i - 1]

    def atom_members(self, n: int) -> range:
        """Hypothesis indices of atom n (1-based, contiguous)."""
        if not 1 <= n <= self.n_atoms:
            raise IndexOutOfRangeError(f"atom {n} outside 1..{self.n_atoms}")
        return range(self._offsets[n - 1] + 1, self._offsets[n] + 1)

    def with_zetas(self, zetas: dict[RegionKey, int]) -> "ForestFamily":
        """A copy of this family with region budgets replaced."""
        return ForestFamily(
            self.m,
            self.atom_sizes,
            ((k.i, k.j, zetas.get(k, z)) for k, z in self._regions.items()),
        )

    # -- derived structures (lazy, cached) --------------------------------

    def _atom_of(self) -> list[int]:
        cache = self._atom_of_cache
        if cache is None:
            cache = [0] * (self.m + 1)
            for n, size in enumerate(self.atom_sizes, start=1):
                lo = self._offsets[n - 1]
                for h in range(lo + 1, lo + size + 1):
                    cache[h] = n
            self._atom_of_cache = cache
        return cache

    def _layout(self) -> _Layout:
        lay = self._layout_cache
        if lay is None:
            lay = _Layout(self)
            self._layout_cache = lay
        return lay


def build_family(
    m: int,
    atom_sizes: Sequence[int],
    regions: Iterable[tuple[int, int, int]],
) -> ForestFamily:
    """Validate and build a reference family from (i, j, zeta) triples."""
    return ForestFamily(m, atom_sizes, regions)


def complete_family(family: ForestFamily) -> ForestFamily:
    """Add every missing atom (n, n) with its cardinality as budget.

    Returns the family unchanged when it is already complete; the added
    budgets are vacuous, so the interpolated bound is identical before and
    after.  Idempotent.
    """
    if family.is_complete:
        return family
    triples = [(k.i, k.j, z) for k, z in family._regions.items()]
    for n, size in enumerate(family.atom_sizes, start=1):
        if RegionKey(n, n) not in family._regions:
            triples.append((n, n, size))
    return ForestFamily(family.m, family.atom_sizes, triples)


def region_members(family: ForestFamily, key) -> range:
    """Hypothesis indices covered by a region (contiguous by construction)."""
    key = RegionKey(*key)
    if key not in family._regions:
        raise UnknownRegionError(f"region {key} not in family")
    return range(
        family._offsets[key.i - 1] + 1, family._offsets[key.j] + 1
    )


# Largest m that build_dyadic builds: m = 2**(height-1) * atom_size.
DYADIC_MAX_M = 2**31 - 1


def build_dyadic(height: int, atom_size: int) -> ForestFamily:
    """Complete balanced binary-tree family of the given height.

    Produces 2**(height-1) atoms of equal size and 2**height - 1 regions;
    every internal region is the union of its two children.  All budgets
    default to the region size (vacuous); apply an estimator from
    :mod:`forestbound.zeta` to sharpen them.  A family with more than
    DYADIC_MAX_M hypotheses is refused with ValueError before anything is
    allocated.
    """
    height = _as_count(height, "height")
    atom_size = _as_count(atom_size, "atom size")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if atom_size < 1:
        raise ValueError(f"atom size must be >= 1, got {atom_size}")
    # Height 32 exceeds the limit even with atoms of size 1, so taller trees
    # are refused without computing their size.
    if height > 32 or atom_size << (height - 1) > DYADIC_MAX_M:
        raise ValueError(
            f"height {height} with atom size {atom_size} gives "
            f"m = 2**{height - 1} * {atom_size} > {DYADIC_MAX_M}"
        )
    n = 2 ** (height - 1)
    triples = []
    span = n
    while span >= 1:
        for start in range(1, n + 1, span):
            triples.append((start, start + span - 1, span * atom_size))
        span //= 2
    return ForestFamily(n * atom_size, (atom_size,) * n, triples)
