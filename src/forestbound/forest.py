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

Construction is array work, with no Python loop over the regions: the
integer checks take whole columns, and one pass over the regions sorted by
(i, -j) finds depths, parents and any partial overlap with sorts and binary
searches (see :class:`ForestFamily`).  A refused input names the same first
fault as a check of one value at a time would.

ForestFamily instances hold read-only int64 arrays, m and a flag, and are
safe to share across threads.  Views that hold Python objects are cached
properties built on first read; a race at worst builds one twice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateRegionError,
    FormatError,
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
    """A region with its budget and depth."""

    key: RegionKey
    zeta: int
    depth: int


def _as_count(value, what: str, error: type[Exception] = SizeMismatchError) -> int:
    # bool is an int subclass, but True is no count.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _all_ints(values) -> bool:
    # Exact ints only: a bool, a float or a numpy scalar fails the test.
    return set(map(type, values)) <= {int}


def _region_key(key) -> RegionKey | None:
    """``key`` as a pair of integers (no bool), or None when it is no such
    pair."""
    try:
        i, j = key
        return RegionKey(_as_count(i, "i", TypeError), _as_count(j, "j", TypeError))
    except (TypeError, ValueError):
        return None


def _checked_sizes(m, atom_sizes) -> tuple[int, np.ndarray]:
    """m and the atom offsets: ``offsets[n]`` hypotheses lie in atoms 1..n."""
    m = _as_count(m, "m")
    if not 1 <= m < 2**63:  # every count must fit the int64 row table
        raise SizeMismatchError(f"m must be in 1..2**63 - 1, got {m}")
    try:
        sizes = tuple(atom_sizes)
    except TypeError:  # no sequence at all, such as 1 or None
        raise SizeMismatchError(
            f"atom sizes must be a sequence of integers, got {atom_sizes!r}"
        ) from None
    if not _all_ints(sizes):
        sizes = tuple(_as_count(s, "atom size") for s in sizes)
    if not sizes or min(sizes) < 1:
        raise SizeMismatchError(f"atom sizes must be positive, got {sizes}")
    if sum(sizes) != m:
        raise SizeMismatchError(f"atom sizes sum to {sum(sizes)}, expected m={m}")
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return m, offsets


_COLUMNS = (
    ("region start", IndexOutOfRangeError),
    ("region end", IndexOutOfRangeError),
    ("zeta", ZetaRangeError),
)


def _region_columns(columns, rows) -> list[np.ndarray]:
    """The region columns i, j and zeta as int64 arrays.

    Three columns of ints are converted whole.  Otherwise ``rows``, the same
    triples in input order, are checked value by value, so the fault raised
    is the first one met row by row: i, then j, then zeta.  A row that is
    no triple raises FormatError.
    """
    if len(columns) != 3 or not all(map(_all_ints, columns)):
        columns = [], [], []
        for n, row in enumerate(rows, start=1):
            try:
                i, j, z = row
            except (TypeError, ValueError):
                raise FormatError(
                    f"row {n} of regions is not an (i, j, zeta) triple: {row!r}"
                ) from None
            columns[0].append(_as_count(i, "region start"))
            columns[1].append(_as_count(j, "region end"))
            columns[2].append(_as_count(z, "zeta", ZetaRangeError))
    return [_int64(c, what, error) for c, (what, error) in zip(columns, _COLUMNS)]


def _int64(values, what: str, error: type[Exception]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise error(f"a {what} is outside the 64-bit integer range") from None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _SweepView(NamedTuple):
    """What vstar's numpy sweep reads: it runs over the I *binding* rows,
    the non-atom rows with a budget below their size, numbered 0..I-1 in
    row order, and slot I collects the roots.  A row whose budget is its
    size never has more selected members than its budget, so it passes its
    children's savings up unchanged, and they go straight to the slot of
    its nearest binding ancestor.  In a complete family an atom has no
    children, so it enters the sweep only through that slot, and only a
    *tight* atom, one with a budget below its size, can hold more selected
    members than its budget.  Tight atoms are disjoint, so their hypothesis
    bounds form one sorted run."""

    bounds: np.ndarray  # 2 x I: the hypotheses before each row and up to its end
    zeta: np.ndarray  # the budget of each binding row
    parent: np.ndarray  # the slot of each binding row's nearest binding ancestor
    levels: np.ndarray  # rows levels[h-1]:levels[h] have depth h, or none
    tight: np.ndarray  # 2T: lo_0, hi_0, lo_1, hi_1, ..., as bounds holds them
    tight_zeta: np.ndarray
    tight_parent: np.ndarray


class _CurveView(NamedTuple):
    """What the curve engine reads beside the row table, the same at every
    call: rows ``levels[h-1]:levels[h]`` have depth h, and ``binds[h-1]``
    says whether a budget of depth h is below its region's size, the only
    way a level can refuse a key."""

    rows: np.ndarray  # 0..K: shifted, the least key each row owns
    rekey: np.ndarray  # parent - row: shifted, it moves a key to its parent
    levels: list[int]
    binds: list[bool]


class ForestFamily:
    """An immutable reference family with a forest interval structure.

    Build instances from (i, j, zeta) triples with
    ``ForestFamily(m, atom_sizes, regions)``, or through
    :func:`build_dyadic` or :func:`complete_family`; the constructor
    validates every structural invariant (partition sizes, key ranges,
    distinctness, the disjoint-or-nested law, and budget ranges) and
    computes region depths.

    The regions are one row table in (depth, i) order, so children follow
    their parents: read-only int64 arrays ``_left``, ``_right``, ``_zeta``,
    ``_depth`` and ``_parent`` (the row of the tightest strictly containing
    region, -1 for a root).  ``_offsets[n]``, the partition's one record,
    counts the hypotheses in atoms 1..n, and rows ``_levels[h-1]:_levels[h]``
    have depth h.  Every other view is a cached property; the budget check
    builds ``_sizes``, each row's hypothesis count.  The sweeps of
    :mod:`forestbound.bounds` and the curve engine of
    :mod:`forestbound.curve` read ancestry only from ``_parent``; ``prune``
    sweeps this table itself, and vstar's two engines read it through
    ``_row_lists`` and ``_sweep_view``, the binding rows and the tight
    atoms; the curve engine reads its per-family constants from
    ``_curve_view``.  Those three hold budgets, so a budget copy builds its
    own.

    Construction checks m, the atom sizes and the columns i, j and zeta
    whole: columns of exact ints become int64 arrays, and only when a column
    holds anything else, or a row is no tuple, are the triples checked value
    by value, in input order.  The structural pass sorts the rows by
    (i, -j).  Row r's depth is then r + 1 less the rows that end before it
    starts (one ``searchsorted`` on the sorted ends); a stable sort on depth
    gives the (depth, i) order; and a row's parent is the last earlier row
    one level up (one ``searchsorted`` on depth-major keys).  A partial
    overlap shows as a row that ends past its parent; the first such row in
    (i, -j) order and its parent are the two regions named.  Costs are
    O(K log K) for K regions.
    """

    def __init__(
        self,
        m: int,
        atom_sizes: Sequence[int],
        regions: Iterable[tuple[int, int, int]],
    ) -> None:
        m, offsets = _checked_sizes(m, atom_sizes)
        try:
            rows = iter(regions)
        except TypeError:
            raise FormatError(
                f"regions must be an iterable of (i, j, zeta) triples, got {regions!r}"
            ) from None
        rows = list(rows)
        columns = ()
        # Only tuple rows are transposed: the fallback reads the rows again,
        # and a row that is an iterator could be read once only.
        if set(map(type, rows)) <= {tuple}:
            try:
                columns = tuple(zip(*rows, strict=True))
            except ValueError:  # rows of unequal lengths
                pass
        self._build(m, offsets, *_region_columns(columns, rows))

    @classmethod
    def _from_columns(cls, m, atom_sizes, left, right, zeta) -> "ForestFamily":
        # For readers that hold the regions as three sequences, i, j and zeta.
        m, offsets = _checked_sizes(m, atom_sizes)
        columns = (left, right, zeta)
        return cls.__new__(cls)._build(
            m, offsets, *_region_columns(columns, zip(*columns))
        )

    @classmethod
    def _from_rows(cls, m, offsets, left, right, zeta) -> "ForestFamily":
        # For callers that hold validated atom offsets and int64 columns.
        return cls.__new__(cls)._build(m, offsets, left, right, zeta)

    def _build(self, m, offsets, left, right, zeta) -> "ForestFamily":
        # The structural pass: key ranges, distinctness and nesting, then the
        # rows in (depth, i) order with their parents, and budget ranges.
        n = len(offsets) - 1
        bad = np.flatnonzero((left < 1) | (left > right) | (right > n))
        if bad.size:
            r = bad[0]
            raise IndexOutOfRangeError(
                f"region ({left[r]}, {right[r]}) outside atom range 1..{n}"
            )
        order = np.lexsort((-right, left))
        left, right, zeta = left[order], right[order], zeta[order]
        twice = np.flatnonzero((left[1:] == left[:-1]) & (right[1:] == right[:-1]))
        if twice.size:
            r = twice[0]
            key = RegionKey(int(left[r]), int(right[r]))
            raise DuplicateRegionError(f"region {key} given twice")
        # In (i, -j) order every row that ends before row r starts comes
        # before r, and every other row before r contains it (or overlaps it,
        # which the check below refuses); so r's depth is r + 1 minus the
        # rows that end before it starts.
        k = len(left)
        depth = np.arange(1, k + 1) - np.searchsorted(np.sort(right), left)
        # A stable sort on depth gives the (depth, i) order, as regions of
        # one depth are disjoint.  On the depth-major keys a row's parent is
        # the last row before it one level up: the last key below its own
        # key less k.  Keys are below k * (k + 1), within int64 for any k
        # that fits in memory.
        rows = np.argsort(depth, kind="stable")
        key = depth[rows] * k + rows
        parent = np.searchsorted(key, key - k) - 1
        left, right, zeta = left[rows], right[rows], zeta[rows]
        # The rows before the first one that ends past its parent nest, so
        # their depths and parents are exact; that row, in (i, -j) order, is
        # the first that nests in no earlier row, and its parent is the
        # innermost earlier row it meets.
        over = np.flatnonzero((parent >= 0) & (right > right[parent]))
        if over.size:
            r = over[rows[over].argmin()]
            top = RegionKey(int(left[parent[r]]), int(right[parent[r]]))
            key = RegionKey(int(left[r]), int(right[r]))
            raise OverlapError(f"regions {top} and {key} overlap without nesting")
        self.m = m
        self._offsets = _frozen(offsets)
        self._left = _frozen(left)
        self._right = _frozen(right)
        self._zeta = self._checked(zeta)
        self._depth = _frozen(depth[rows])
        self._parent = _frozen(parent)
        height = int(depth.max(initial=0))
        self._levels = _frozen(
            np.searchsorted(self._depth, np.arange(height + 1), side="right")
        )
        self._complete = bool(np.count_nonzero(left == right) == n)
        return self

    def _with_zetas(self, zeta) -> "ForestFamily":
        """A copy with the row-aligned budgets ``zeta``; the structure arrays
        and the views that hold no budget are shared with this family."""
        family = ForestFamily.__new__(ForestFamily)
        family.__dict__.update(self.__dict__)
        # These views hold the budgets.
        for view in ("_row_lists", "_sweep_view", "_curve_view"):
            family.__dict__.pop(view, None)
        family._zeta = self._checked(np.array(zeta, dtype=np.int64))
        return family

    def _checked(self, zeta: np.ndarray) -> np.ndarray:
        # Budgets in 0..|R|, row by row, made read-only.
        size = self._sizes
        bad = np.flatnonzero((zeta < 0) | (zeta > size))
        if bad.size:
            r = bad[0]
            key = RegionKey(int(self._left[r]), int(self._right[r]))
            raise ZetaRangeError(
                f"zeta={zeta[r]} for region {key} outside 0..{size[r]}"
            )
        return _frozen(zeta)

    # -- basic queries ----------------------------------------------------

    @property
    def atom_sizes(self) -> tuple[int, ...]:
        """Hypotheses per atom, read from the offsets."""
        return tuple((self._offsets[1:] - self._offsets[:-1]).tolist())

    @property
    def n_atoms(self) -> int:
        return len(self._offsets) - 1

    @property
    def height(self) -> int:
        return len(self._levels) - 1

    @property
    def is_complete(self) -> bool:
        return self._complete

    def __len__(self) -> int:
        return len(self._zeta)

    def __contains__(self, key) -> bool:
        return _region_key(key) in self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ForestFamily):
            return NotImplemented
        # Rows in (depth, i) order are canonical: equal region sets give
        # equal tables.
        return (
            self.m == other.m
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._left, other._left)
            and np.array_equal(self._right, other._right)
            and np.array_equal(self._zeta, other._zeta)
        )

    def __repr__(self) -> str:
        return (
            f"ForestFamily(m={self.m}, atoms={self.n_atoms}, "
            f"regions={len(self)}, height={self.height}, "
            f"complete={self._complete})"
        )

    def keys(self) -> Iterator[RegionKey]:
        """Region keys sorted by (i, j)."""
        order = np.lexsort((self._right, self._left))
        return map(RegionKey, self._left[order].tolist(), self._right[order].tolist())

    def regions(self) -> Iterator[Region]:
        """Regions sorted by key."""
        order = np.lexsort((self._right, self._left))
        zeta, depth = self._zeta[order].tolist(), self._depth[order].tolist()
        return map(Region, self.keys(), zeta, depth)

    def region(self, key) -> Region:
        r = self._row(key)
        key = RegionKey(int(self._left[r]), int(self._right[r]))
        return Region(key, int(self._zeta[r]), int(self._depth[r]))

    def zeta(self, key) -> int:
        return int(self._zeta[self._row(key)])

    def region_size(self, key) -> int:
        """Number of hypotheses covered by the region's atoms."""
        return len(self.region_members(key))

    def region_members(self, key) -> range:
        """Hypothesis indices covered by a region (contiguous by construction)."""
        r = self._row(key)
        lo = int(self._offsets[self._left[r] - 1])
        return range(lo + 1, int(self._offsets[self._right[r]]) + 1)

    def atom_members(self, n: int) -> range:
        """Hypothesis indices of atom n (1-based, contiguous)."""
        n = _as_count(n, "atom", IndexOutOfRangeError)
        if not 1 <= n <= self.n_atoms:
            raise IndexOutOfRangeError(f"atom {n} outside 1..{self.n_atoms}")
        return range(int(self._offsets[n - 1]) + 1, int(self._offsets[n]) + 1)

    def _row(self, key) -> int:
        """The row of ``key``, read as a pair of integers (no bool)."""
        pair = _region_key(key)
        r = self._rows.get(pair)
        if r is None:
            raise UnknownRegionError(f"region {pair or key!r} not in family")
        return r

    # -- derived views (lazy, cached) -------------------------------------

    @cached_property
    def _sizes(self) -> np.ndarray:
        """Number of hypotheses of every row, read-only int64."""
        return _frozen(self._offsets[self._right] - self._offsets[self._left - 1])

    @cached_property
    def _rows(self) -> dict[tuple[int, int], int]:
        keys = zip(self._left.tolist(), self._right.tolist())
        return dict(zip(keys, range(len(self))))

    @cached_property
    def _row_lists(self) -> tuple[list[int], ...]:
        """The columns ``_zeta``, ``_left``, ``_right`` and ``_parent`` as
        lists of Python ints, for the Python sweep."""
        columns = (self._zeta, self._left, self._right, self._parent)
        return tuple(c.tolist() for c in columns)

    @cached_property
    def _sweep_view(self) -> _SweepView:
        """What vstar's numpy sweep reads.  Complete families only."""
        left, right, offsets = self._left, self._right, self._offsets
        binding = (left != right) & (self._zeta < self._sizes)
        rows = np.flatnonzero(binding)
        # to[r] is the slot that r's children send their savings to: r's own
        # number when it binds, else its parent's to; the roots' parent, -1,
        # reads the last entry, I.  Parents come before their children.
        to = np.full(len(self) + 1, len(rows), dtype=np.int64)
        to[rows] = np.arange(len(rows))
        starts = self._levels.tolist()
        for a, b in zip(starts, starts[1:]):
            to[a:b] = np.where(binding[a:b], to[a:b], to[self._parent[a:b]])
        slot = to[self._parent]
        # Atom rows in atom order: tight atoms come out sorted.
        atoms = np.flatnonzero(left == right)
        atoms = atoms[left[atoms].argsort()]
        tight = atoms[self._zeta[atoms] < self._sizes[atoms]]
        n = left[tight]
        # Rows are in depth order, so the binding rows of depth <= h are
        # those before the first row of depth h + 1.
        levels = rows.searchsorted(self._levels)
        columns = (
            offsets[np.array((left[rows] - 1, right[rows]))],
            self._zeta[rows],
            slot[rows],
            levels,
            offsets[np.column_stack((n - 1, n)).ravel()],
            self._zeta[tight],
            slot[tight],
        )
        return _SweepView(*map(_frozen, columns))

    @cached_property
    def _curve_view(self) -> _CurveView:
        """What the curve engine reads beside the row table."""
        rows = np.arange(len(self) + 1)
        levels = self._levels.tolist()
        binds = np.logical_or.reduceat(self._zeta < self._sizes, levels[:-1])
        return _CurveView(
            _frozen(rows), _frozen(self._parent - rows[:-1]), levels, binds.tolist()
        )

    @cached_property
    def _atom_of(self) -> list[int]:
        """``atom_of[h]`` is the atom of hypothesis h; entry 0 is padding."""
        atom_of = [0]
        for n, size in enumerate(self.atom_sizes, start=1):
            atom_of += [n] * size
        return atom_of

    @cached_property
    def _atom_rows(self) -> np.ndarray:
        """``atom_rows[h]`` is the row of the atom of hypothesis h, read-only
        int64; entry 0 is padding.  Complete families only."""
        atoms = np.flatnonzero(self._left == self._right)
        atoms = atoms[np.argsort(self._left[atoms])]
        atom_rows = np.empty(self.m + 1, dtype=np.int64)
        atom_rows[0] = -1
        atom_rows[1:] = np.repeat(atoms, np.diff(self._offsets))
        return _frozen(atom_rows)


def complete_family(family: ForestFamily) -> ForestFamily:
    """Add every missing atom (n, n) with its cardinality as budget.

    Returns the family unchanged when it is already complete; the added
    budgets are vacuous, so the interpolated bound is identical before and
    after.  Idempotent.
    """
    if family.is_complete:
        return family
    atoms = family._left[family._left == family._right]
    missing = np.setdiff1d(np.arange(1, family.n_atoms + 1), atoms)
    sizes = np.diff(family._offsets)[missing - 1]
    return ForestFamily._from_rows(
        family.m,
        family._offsets,
        np.concatenate((family._left, missing)),
        np.concatenate((family._right, missing)),
        np.concatenate((family._zeta, sizes)),
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
    spans = n >> np.arange(height)  # n, n/2, ..., 1 atoms per region
    left = np.concatenate([np.arange(1, n + 1, span) for span in spans.tolist()])
    span = np.repeat(spans, n // spans)
    offsets = np.arange(n + 1) * atom_size
    return ForestFamily._from_rows(
        n * atom_size, offsets, left, left + span - 1, span * atom_size
    )
