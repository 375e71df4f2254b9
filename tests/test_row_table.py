"""The row-table constructor, pinned to the dict-and-stack construction.

``reference_build`` is how a family was built before its regions became one
row table: per-triple checks into a dict, then one stack sweep over the keys
for the depths (``reference_nest``, which also gives the parents).
Hypothesis draws laminar families (complete, incomplete, with gaps, with zero
budgets) and single-fault corruptions of them.  The family must accept and
reject exactly what the reference does, with the same error class (and, for
an overlap, the same message), and agree with it on regions, depths, parents,
the forest file and equality.
"""

import json
import operator
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forestbound as fb
from forestbound import (
    DuplicateRegionError,
    ForestError,
    FormatError,
    IndexOutOfRangeError,
    OverlapError,
    RegionKey,
    SizeMismatchError,
    ZetaRangeError,
)
from forestbound.curve import _curve_np
from forestbound.forest import ForestFamily
from forestbound.formats import dump_forest

from oracles import (
    EXAMPLE_CURVE,
    EXAMPLE_PATH,
    ORACLE_MAX_M,
    check_parent_column,
    definition_removed_set,
    oracle_vstar_partitions,
    oracle_vstar_sets,
    oracle_vstar_subsets,
    random_family,
    reference_walk,
)

MAX_ATOMS = 8  # within ORACLE_MAX_ATOMS, so the partition oracle applies


# -- reference construction ----------------------------------------------


def _ref_count(value, what, error=SizeMismatchError):
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def reference_build(m, atom_sizes, regions):
    """(m, sizes, {key: zeta}, {key: depth}), or what the old constructor raised."""
    m = _ref_count(m, "m")
    if m < 1:
        raise SizeMismatchError(f"m must be >= 1, got {m}")
    sizes = tuple(_ref_count(s, "atom size") for s in atom_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise SizeMismatchError(f"atom sizes must be positive, got {sizes}")
    if sum(sizes) != m:
        raise SizeMismatchError(f"atom sizes sum to {sum(sizes)}, expected m={m}")
    offsets = tuple(accumulate(sizes, initial=0))
    n = len(sizes)
    table = {}
    for i, j, zeta in regions:
        i = _ref_count(i, "region start")
        j = _ref_count(j, "region end")
        if not (1 <= i <= j <= n):
            raise IndexOutOfRangeError(f"region ({i}, {j}) outside atom range 1..{n}")
        key = RegionKey(i, j)
        if key in table:
            raise DuplicateRegionError(f"region {key} given twice")
        zeta = _ref_count(zeta, "zeta", ZetaRangeError)
        size = offsets[j] - offsets[i - 1]
        if not (0 <= zeta <= size):
            raise ZetaRangeError(f"zeta={zeta} for region {key} outside 0..{size}")
        table[key] = zeta
    depths = {key: depth for key, (depth, _) in reference_nest(table).items()}
    return m, sizes, table, depths


def reference_nest(keys):
    """{key: (depth, parent key or None)} by one stack pass over the keys in
    (i, -j) order, as the family was nested before its array pass."""
    nest, stack = {}, []
    for key in sorted(keys, key=lambda k: (k[0], -k[1])):
        while stack and stack[-1][1] < key[0]:
            stack.pop()
        if stack and key[1] > stack[-1][1]:
            raise OverlapError(f"regions {stack[-1]} and {key} overlap without nesting")
        nest[key] = (len(stack) + 1, stack[-1] if stack else None)
        stack.append(key)
    return nest


def reference_dump(m, sizes, table, depths):
    keys = sorted(table, key=lambda k: (depths[k], k[0]))
    doc = {
        "m": m,
        "atom_sizes": list(sizes),
        "regions": [{"i": k.i, "j": k.j, "zeta": table[k]} for k in keys],
    }
    return json.dumps(doc, indent=2) + "\n"


def raised(build, args):
    try:
        build(*args)
    except ForestError as exc:
        return exc
    return None


# -- strategies -------------------------------------------------------------


def _size(sizes, i, j):
    return sum(sizes[i - 1 : j])


@st.composite
def laminar_inputs(draw):
    """(m, atom_sizes, triples) of a valid family, triples in random order.

    Intervals come from recursive splitting of the atom range, with some
    parts skipped (gaps); about half the families get every atom (complete).
    Budgets favour 0 and the region size.
    """
    n = draw(st.integers(1, MAX_ATOMS))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    keys = set()

    def split(i, j):
        if draw(st.booleans()):
            keys.add((i, j))
        if i == j:
            return
        cuts = draw(st.sets(st.integers(i, j - 1), min_size=1, max_size=min(3, j - i)))
        lo = i
        for cut in sorted(cuts) + [j]:
            if draw(st.integers(0, 5)):  # 0: leave a gap
                split(lo, cut)
            lo = cut + 1

    split(1, n)
    if draw(st.booleans()):
        keys.update((a, a) for a in range(1, n + 1))
    triples = []
    for i, j in sorted(keys):
        size = _size(sizes, i, j)
        zeta = draw(st.one_of(st.just(0), st.just(size), st.integers(0, size)))
        triples.append((i, j, zeta))
    return sum(sizes), sizes, draw(st.permutations(triples))


def _partial(a, b, i, j):
    # (a, b) and (i, j) intersect and neither contains the other.
    return max(a, i) <= min(b, j) and not (
        (a <= i and j <= b) or (i <= a and b <= j)
    )


@st.composite
def corrupted_inputs(draw):
    """A valid input with exactly one fault, and the fault's name."""
    m, sizes, triples = draw(laminar_inputs())
    triples = list(triples)
    n = len(sizes)
    kind = draw(
        st.sampled_from(
            ["overlap", "duplicate", "key range", "zeta range", "not an integer"]
        )
    )
    if not triples:
        triples.append((1, 1, 0))
    if kind == "overlap":
        if n < 3:  # too few atoms for any partial overlap
            sizes = sizes + [1] * (3 - n)
            m, n = sum(sizes), 3
        keys = {(i, j) for i, j, _ in triples}
        overlapping = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a, n + 1)
            if (a, b) not in keys and any(_partial(a, b, i, j) for i, j in keys)
        ]
        # Without a candidate, neither (1, 2) nor (2, 3) is a key.
        added = [(1, 2), (2, 3)]
        if overlapping:
            added = [draw(st.sampled_from(overlapping))]
        for a, b in added:
            at = draw(st.integers(0, len(triples)))
            triples.insert(at, (a, b, draw(st.integers(0, _size(sizes, a, b)))))
        return kind, (m, sizes, triples)
    k = draw(st.integers(0, len(triples) - 1))
    i, j, zeta = triples[k]
    size = _size(sizes, i, j)
    if kind == "duplicate":
        at = draw(st.integers(0, len(triples)))
        triples.insert(at, (i, j, draw(st.integers(0, size))))
    elif kind == "key range":
        triples[k] = draw(
            st.sampled_from(
                [
                    (draw(st.integers(-3, 0)), j, zeta),
                    (i, n + draw(st.integers(1, 3)), zeta),
                    (j + draw(st.integers(1, 2)), j, zeta),
                    (i, 2**70, zeta),
                    (-(2**70), j, zeta),
                ]
            )
        )
    elif kind == "zeta range":
        above = size + draw(st.integers(1, 3))
        bad = draw(st.sampled_from([-draw(st.integers(1, 3)), above, 2**70, -(2**70)]))
        triples[k] = (i, j, bad)
    else:
        field = draw(st.sampled_from(["m", "atom size", "i", "j", "zeta"]))
        value = {"m": m, "atom size": sizes[0], "i": i, "j": j, "zeta": zeta}[field]
        bad = draw(st.sampled_from([True, False, float(value), value + 0.5]))
        if field == "m":
            m = bad
        elif field == "atom size":
            sizes = [bad, *sizes[1:]]
        else:
            row = [i, j, zeta]
            row[["i", "j", "zeta"].index(field)] = bad
            triples[k] = tuple(row)
    return kind, (m, sizes, triples)


# -- the constructor against the reference -------------------------------


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(laminar_inputs())
    def test_valid_families(self, args):
        m, sizes, table, depths = reference_build(*args)
        fam = fb.ForestFamily(*args)
        assert {(r.key, r.zeta, r.depth) for r in fam.regions()} == {
            (k, table[k], depths[k]) for k in table
        }
        assert list(fam.keys()) == sorted(table)
        assert len(fam) == len(table)
        assert fam.height == max(depths.values(), default=0)
        assert fam.is_complete == all((a, a) in table for a in range(1, len(sizes) + 1))
        assert dump_forest(fam) == reference_dump(m, sizes, table, depths)
        atoms = range(1, len(sizes) + 1)
        missing = [(a, a, sizes[a - 1]) for a in atoms if (a, a) not in table]
        assert fb.complete_family(fam) == fb.ForestFamily(m, sizes, args[2] + missing)

    @settings(max_examples=300, deadline=None)
    @given(laminar_inputs())
    def test_parent_column(self, args):
        # reference_build gives no parents, so they are checked against the
        # keys directly; the curve engine re-keys up this column.
        fam = fb.ForestFamily(*args)
        check_parent_column(fam)
        check_parent_column(fb.complete_family(fam))

    @settings(max_examples=400, deadline=None)
    @given(corrupted_inputs())
    def test_corrupted_inputs(self, corrupted):
        kind, args = corrupted
        expected = raised(reference_build, args)
        assert expected is not None, kind  # the corruption is a fault
        got = raised(fb.ForestFamily, args)
        assert type(got) is type(expected), kind
        if kind == "overlap":  # the same two regions are named
            assert str(got) == str(expected)

    @settings(max_examples=300, deadline=None)
    @given(laminar_inputs(), st.data())
    def test_equality(self, args, data):
        m, sizes, triples = args
        variants = ["reordered", "budget", "dropped", "other"]
        variant = data.draw(st.sampled_from(variants))
        if variant == "reordered":
            other = (m, sizes, data.draw(st.permutations(triples)))
        elif variant == "budget" and triples:
            k = data.draw(st.integers(0, len(triples) - 1))
            i, j, _ = triples[k]
            zeta = data.draw(st.integers(0, _size(sizes, i, j)))
            other = (m, sizes, triples[:k] + [(i, j, zeta)] + triples[k + 1 :])
        elif variant == "dropped" and triples:
            other = (m, sizes, triples[1:])
        else:
            other = data.draw(laminar_inputs())
        same = reference_build(*args)[:3] == reference_build(*other)[:3]
        assert (fb.ForestFamily(*args) == fb.ForestFamily(*other)) == same


def check_nesting(fam):
    """``_depth`` and ``_parent`` are what the stack pass gives."""
    keys = list(map(RegionKey, fam._left.tolist(), fam._right.tolist()))
    nest = reference_nest(keys)
    for key, depth, parent in zip(keys, fam._depth.tolist(), fam._parent.tolist()):
        assert (depth, keys[parent] if parent >= 0 else None) == nest[key], key


class TestNestingAgainstStackPass:
    # ``laminar_inputs`` stops at 8 atoms; these families have 100 to 400
    # regions and dyadic ones up to 4095, so the sorted ends are long.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_families(self, seed, complete):
        rng = random.Random(seed)
        fam = random_family(rng, max_atoms=300, min_atoms=100, complete=complete)
        assume(100 <= len(fam) <= 400)
        full = fb.complete_family(fam)
        for family in (fam, full, fb.prune(full).pruned_family):
            check_nesting(family)

    @pytest.mark.parametrize("height", range(1, 13))
    def test_dyadic(self, height):
        fam = fb.build_dyadic(height, 2)
        check_nesting(fam)
        assert fam._depth.tolist() == np.repeat(
            np.arange(1, height + 1), 2 ** np.arange(height)
        ).tolist()


class TestFirstFault:
    """With several faults, the one raised is the first the per-value checks
    meet: m, the atom sizes, then each triple's i, j and zeta in input
    order; then 64-bit range by column, key range, duplicates in (i, -j)
    order, nesting, and budgets in (depth, i) order."""

    @pytest.mark.parametrize(
        "m, sizes, regions, error, message",
        [
            (
                2, (1, 1), [(1, 1, 0.5), (1.0, 2, 1)],
                ZetaRangeError, "zeta must be an integer, got 0.5",
            ),
            (
                2, (1.0, True), [(1, 1, 0)],
                SizeMismatchError, "atom size must be an integer, got 1.0",
            ),
            (
                2, (True, 1.0), [(1, 1, 0)],
                SizeMismatchError, "atom size must be an integer, got True",
            ),
            (
                1.0, (1, 1), [(0, 1, 0.5)],
                SizeMismatchError, "m must be an integer, got 1.0",
            ),
            (
                2, (1, 1), [(1, 1, True), (1, 2, 2.0)],
                ZetaRangeError, "zeta must be an integer, got True",
            ),
            (
                2, (1, 1), [(1.5, 1, 0), (1, 2)],
                SizeMismatchError, "region start must be an integer, got 1.5",
            ),
            (
                2, (1, 1), [(2**70, 1, 0), (1, 1, 0.5)],
                ZetaRangeError, "zeta must be an integer, got 0.5",
            ),
            (
                2, (1, 1), [(1, 2**70, 0), (2**70, 1, 0)],
                IndexOutOfRangeError,
                "a region start is outside the 64-bit integer range",
            ),
            (  # a range fault after a duplicate
                2, (1, 1), [(1, 1, 0), (1, 1, 0), (3, 3, 0)],
                IndexOutOfRangeError, "region (3, 3) outside atom range 1..2",
            ),
            (  # a duplicate after an overlap
                3, (1, 1, 1), [(1, 2, 0), (2, 3, 0), (2, 3, 0)],
                DuplicateRegionError, "region RegionKey(i=2, j=3) given twice",
            ),
            (  # a budget fault before an overlap
                3, (1, 1, 1), [(1, 2, 99), (2, 3, 0)],
                OverlapError,
                "regions RegionKey(i=1, j=2) and RegionKey(i=2, j=3) "
                "overlap without nesting",
            ),
            (  # two overlaps: the first in (i, -j) order
                5, (1,) * 5, [(3, 5, 0), (1, 3, 0), (2, 4, 0)],
                OverlapError,
                "regions RegionKey(i=1, j=3) and RegionKey(i=2, j=4) "
                "overlap without nesting",
            ),
            (  # the first in (i, -j) order, though a later one is shallower
                14, (1,) * 14, [(12, 14, 0), (11, 13, 0), (1, 10, 0), (2, 4, 0), (3, 6, 0)],
                OverlapError,
                "regions RegionKey(i=2, j=4) and RegionKey(i=3, j=6) "
                "overlap without nesting",
            ),
            (  # the innermost earlier region met is named
                6, (1,) * 6, [(1, 6, 0), (1, 3, 0), (2, 2, 0), (2, 5, 0)],
                OverlapError,
                "regions RegionKey(i=1, j=3) and RegionKey(i=2, j=5) "
                "overlap without nesting",
            ),
            (  # budgets are checked in (depth, i) order
                2, (1, 1), [(1, 1, -1), (1, 2, 3)],
                ZetaRangeError, "zeta=3 for region RegionKey(i=1, j=2) outside 0..2",
            ),
        ],
    )
    def test_class_and_message(self, m, sizes, regions, error, message):
        with pytest.raises(ForestError) as info:
            fb.ForestFamily(m, sizes, regions)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_row_that_is_no_triple(self):
        with pytest.raises(FormatError) as info:
            fb.ForestFamily(2, (1, 1), [(1, 1, 0), (1, 2)])
        assert str(info.value) == (
            "row 2 of regions is not an (i, j, zeta) triple: (1, 2)"
        )

    @pytest.mark.parametrize(
        "regions, error, message",
        [
            ([iter((1, 1, 0.5))], ZetaRangeError, "zeta must be an integer, got 0.5"),
            (
                [iter((1, 1, 0)), iter((1.0, 2, 1))],
                SizeMismatchError, "region start must be an integer, got 1.0",
            ),
            ([iter((1, 1, 0.5)), 5], ZetaRangeError, "zeta must be an integer, got 0.5"),
            (
                [iter((1, 1, 0)), 5],
                FormatError, "row 2 of regions is not an (i, j, zeta) triple: 5",
            ),
            ([[1, 1, 0.5], (1.0, 2, 1)], ZetaRangeError, "zeta must be an integer, got 0.5"),
        ],
    )
    def test_rows_that_are_no_tuples(self, regions, error, message):
        # Rows are read as the per-value checks read them, once each.
        with pytest.raises(error) as info:
            fb.ForestFamily(2, (1, 1), regions)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "regions, message",
        [
            (5, "regions must be an iterable of (i, j, zeta) triples, got 5"),
            (None, "regions must be an iterable of (i, j, zeta) triples, got None"),
            ([(1, 1)], "row 1 of regions is not an (i, j, zeta) triple: (1, 1)"),
            (
                [(1, 1, 1, 1)],
                "row 1 of regions is not an (i, j, zeta) triple: (1, 1, 1, 1)",
            ),
            ([5], "row 1 of regions is not an (i, j, zeta) triple: 5"),
        ],
    )
    def test_regions_that_are_no_triples(self, regions, message):
        with pytest.raises(FormatError) as info:
            fb.ForestFamily(1, [1], regions)
        assert str(info.value) == message

    def test_rows_read_once_build_the_same_family(self):
        rows = [(1, 2, 2), (1, 1, 1), (2, 2, 0)]
        once = fb.ForestFamily(2, (1, 1), (iter(row) for row in rows))
        assert once == fb.ForestFamily(2, (1, 1), rows)


class TestCurvesOnDrawnFamilies:
    @settings(max_examples=200, deadline=None)
    @given(laminar_inputs(), st.data())
    def test_fast_naive_pruned_and_oracle_agree(self, args, data):
        drawn = fb.ForestFamily(*args)
        fam = fb.complete_family(drawn)
        order = data.draw(st.permutations(range(1, fam.m + 1)))
        path = order[: data.draw(st.integers(0, fam.m))]
        result = fb.prune(fam)
        fast = fb.fast_curve(fam, path)
        assert fast == fb.naive_curve(fam, path)
        assert fast == fb.fast_curve(result.pruned_family, path)
        for t in range(len(path) + 1):
            prefix = path[:t]
            assert fast[t] == oracle_vstar_partitions(fam, prefix)
            # Completion adds only vacuous budgets, so the drawn family agrees.
            assert fast[t] == oracle_vstar_subsets(drawn, prefix)
            if min(fam.m, t) <= ORACLE_MAX_M:
                assert fast[t] == oracle_vstar_sets(fam, prefix)
        kept = [
            (r.key.i, r.key.j, r.zeta)
            for r in fam.regions()
            if r.key not in result.removed
        ]
        assert result.pruned_family == fb.ForestFamily(fam.m, fam.atom_sizes, kept)
        assert result.removed == definition_removed_set(fam)


# -- the rank-and-truncate curve engine ----------------------------------


def _steps(path):
    return np.array(path, dtype=np.int64)


class TestCurveEngine:
    # ``_curve_np`` is called directly, on checked int64 paths, and compared
    # with the paper's walk (``reference_walk``), the naive curve and the
    # partition oracle.
    @settings(max_examples=300, deadline=None)
    @given(laminar_inputs(), st.data())
    def test_walk_naive_and_oracle_agree(self, args, data):
        # Completion leaves atoms at different depths; budgets favour 0; the
        # path is any prefix of a permutation, the empty one included.
        fam = fb.complete_family(fb.ForestFamily(*args))
        order = data.draw(st.permutations(range(1, fam.m + 1)))
        path = order[: data.draw(st.integers(0, fam.m))]
        got = _curve_np(fam, _steps(path))
        assert got == reference_walk(fam, path) == fb.naive_curve(fam, path)
        assert _curve_np(fb.prune(fam).pruned_family, _steps(path)) == got
        for t in range(len(path) + 1):
            assert got[t] == oracle_vstar_partitions(fam, path[:t])

    def test_example_family(self, example_family):
        # Atoms at depths 1 to 3, a zero budget at (7, 7), and (6, 7) pruned.
        pruned = fb.prune(example_family).pruned_family
        for fam in (example_family, pruned):
            assert _curve_np(fam, _steps(EXAMPLE_PATH)).values == EXAMPLE_CURVE
            for t in range(len(EXAMPLE_PATH) + 1):
                prefix = _steps(EXAMPLE_PATH[:t])
                assert _curve_np(fam, prefix).values == EXAMPLE_CURVE[: t + 1]

    def test_zero_budget_root_and_atoms(self):
        atoms = [(1, 1, 2), (2, 2, 0), (3, 3, 1)]
        path = [3, 1, 5, 2, 6, 4]
        fam = fb.ForestFamily(6, (2, 2, 2), [(1, 3, 0), *atoms])
        assert _curve_np(fam, _steps(path)).values == (0,) * 7
        fam = fb.ForestFamily(6, (2, 2, 2), [(1, 3, 6), *atoms])
        assert _curve_np(fam, _steps(path)) == fb.naive_curve(fam, path)
        assert _curve_np(fam, _steps(path)).values == (0, 0, 1, 2, 3, 3, 3)


# -- budgets replace one array ---------------------------------------------

STRUCTURE = ("_left", "_right", "_depth", "_parent", "_offsets", "_levels", "_sizes")


def _estimates(fam):
    p = np.linspace(0.0, 1.0, fam.m)
    clamped = {key: fam.region_size(key) - 1 for key in fam.keys()}
    return [
        fb.zeta_trivial(fam),
        fb.zeta_dkwm(fam, p, 0.05),
        fb.apply_zetas(fam, clamped),
        fb.ZetaEstimator("dkwm", 0.1).apply(fam, p),
    ]


class TestBudgetsAreACopy:
    def test_shares_read_only_structure(self):
        fam = fb.build_dyadic(4, 3)
        atom_rows = fam._atom_rows
        assert not atom_rows.flags.writeable
        assert atom_rows[1:].tolist() == [fam._row((n, n)) for n in fam._atom_of[1:]]
        row_lists = fam._row_lists
        sweep_view = fam._sweep_view
        for est in _estimates(fam):
            for name in ("_atom_rows", "_atom_of", "_rows"):
                assert getattr(est, name) is getattr(fam, name), name
            # The numpy sweep's view holds budgets, so a copy builds its own,
            # which holds the copy's budgets.
            assert est._sweep_view is not sweep_view
            view = est._sweep_view
            binding = (est._left != est._right) & (est._zeta < est._sizes)
            assert view.zeta.tolist() == est._zeta[binding].tolist()
            atoms = range(1, est.n_atoms + 1)
            tight = [n for n in atoms if est.zeta((n, n)) < est.region_size((n, n))]
            assert view.tight_zeta.tolist() == [est.zeta((n, n)) for n in tight]
            for name in STRUCTURE:
                assert getattr(est, name) is getattr(fam, name), name
            assert est._zeta is not fam._zeta
            assert est._row_lists is not row_lists
            assert est._row_lists[0] == est._zeta.tolist()
            assert est._row_lists[1:] == row_lists[1:]
            assert est.is_complete and est.height == fam.height
        for name in STRUCTURE + ("_zeta",):
            column = getattr(fam, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = 0
        for column in sweep_view:
            assert not column.flags.writeable

    def test_derived_families_share_the_offsets(self):
        fam = fb.build_dyadic(4, 3)
        assert fb.prune(fam).pruned_family._offsets is fam._offsets
        partial = fb.ForestFamily(6, (1, 2, 3), [(1, 3, 6), (2, 2, 1)])
        assert fb.complete_family(partial)._offsets is partial._offsets

    def test_fresh_family_holds_arrays_only(self):
        fam = fb.build_dyadic(10, 16)
        state = vars(fam)
        assert set(state) == {"m", "_complete", "_zeta", *STRUCTURE}
        for name, value in state.items():
            assert not isinstance(value, (tuple, list, dict)), name
            if name not in ("m", "_complete"):
                assert value.dtype == np.int64 and not value.flags.writeable, name

    def test_no_structural_pass(self, monkeypatch):
        fam = fb.build_dyadic(4, 3)

        def refuse(*args):
            raise AssertionError("the structural pass ran")

        monkeypatch.setattr(ForestFamily, "_build", refuse)
        for est in _estimates(fam):
            assert sorted(est.keys()) == sorted(fam.keys())

    def test_budget_range_checked(self):
        fam = fb.build_dyadic(3, 2)
        sizes = fam._sizes
        assert fam._with_zetas(sizes) == fam
        assert fam._with_zetas(np.zeros(len(fam), dtype=np.int64)).zeta((1, 4)) == 0
        with pytest.raises(ZetaRangeError):
            fam._with_zetas(sizes + 1)
        with pytest.raises(ZetaRangeError):
            fam._with_zetas(-np.ones(len(fam), dtype=np.int64))

    def test_source_family_unchanged(self):
        fam = fb.build_dyadic(3, 2)
        before = dump_forest(fam)
        est = fb.apply_zetas(fam, {(1, 4): 0})
        assert est.zeta((1, 4)) == 0
        assert dump_forest(fam) == before
