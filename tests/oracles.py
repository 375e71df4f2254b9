"""Test helpers shared by the test modules: the m=25 worked example, random
family generators, and the brute-force references the package is checked
against: the paper's curve walk for ``fast_curve``, three exhaustive oracles
for ``vstar`` and the domination definition for ``prune``.

The example family has 8 atoms of sizes (2, 2, 6, 6, 4, 1, 1, 3) and is used
throughout as a golden instance: its completion adds atoms 2, 6, 8; pruning
removes exactly the region (6, 7); and the bound curve along the fixed
9-step path is (1, 2, 3, 3, 4, 5, 5, 5, 5).  The fixtures that build it are
in ``conftest.py``; the helpers live here, under a name no other test
directory uses, so that ``tests`` and ``perfbench`` run in one session.
"""

import operator
import random
from itertools import accumulate
from typing import Collection, Iterator

import forestbound as fb
from forestbound import ForestFamily, RegionKey
from forestbound.bounds import _require_complete, atom_hit_counts, validate_path

EXAMPLE_M = 25
EXAMPLE_ATOMS = (2, 2, 6, 6, 4, 1, 1, 3)
EXAMPLE_REGIONS = [
    (1, 5, 6),
    (1, 1, 2),
    (2, 3, 1),
    (3, 3, 4),
    (4, 5, 4),
    (4, 4, 2),
    (5, 5, 3),
    (6, 7, 2),
    (7, 7, 0),
]
EXAMPLE_COMPLETION = [(2, 2, 2), (6, 6, 1), (8, 8, 3)]
EXAMPLE_PATH = (11, 17, 12, 13, 18, 3, 19, 22, 5)
EXAMPLE_CURVE = (0, 1, 2, 3, 3, 4, 5, 5, 5, 5)


def random_family(
    rng: random.Random,
    max_atoms: int = 6,
    max_atom_size: int = 3,
    complete: bool = False,
    min_atoms: int = 1,
) -> fb.ForestFamily:
    """A random valid family: laminar intervals with uniform random budgets.

    Intervals come from recursive random splitting of the atom range, so
    nesting chains, gaps, and sibling blocks all occur.  With
    ``complete=True`` every atom is included, with a random budget of its
    own (rather than the cardinality default of completion).
    """
    n = rng.randint(min_atoms, max_atoms)
    sizes = [rng.randint(1, max_atom_size) for _ in range(n)]
    keys = set()

    def split(i, j, force=False):
        if force or rng.random() < 0.6:
            keys.add((i, j))
        if i == j:
            return
        cuts = sorted(rng.sample(range(i, j), rng.randint(1, min(3, j - i))))
        lo = i
        for cut in cuts + [j]:
            if rng.random() < 0.85:
                split(lo, cut)
            lo = cut + 1

    split(1, n, force=rng.random() < 0.8)
    if complete:
        keys.update((a, a) for a in range(1, n + 1))
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    triples = [
        (i, j, rng.randint(0, offsets[j] - offsets[i - 1])) for (i, j) in keys
    ]
    return fb.ForestFamily(sum(sizes), sizes, triples)


def budget_mix_family(
    rng: random.Random, atoms: int, keep: float = 1.0
) -> fb.ForestFamily:
    """A complete random family of ``atoms`` atoms of 1-3 hypotheses that
    keeps each non-atom region of :func:`random_family` with probability
    ``keep``; every budget is 0, vacuous or uniform, a third of the regions
    each, so atoms and non-atoms alike overrun, save nothing or bind."""
    fam = random_family(rng, min_atoms=atoms, max_atoms=atoms, complete=True)
    triples = []
    for key in fam.keys():
        if key.i != key.j and rng.random() >= keep:
            continue
        size = fam.region_size(key)
        zeta = rng.choice((0, size, rng.randint(0, size)))
        triples.append((key.i, key.j, zeta))
    return fb.ForestFamily(fam.m, fam.atom_sizes, triples)


def edge_budget_families(rng: random.Random, atoms: int) -> Iterator[ForestFamily]:
    """Complete families of ``atoms`` atoms at the edges of the sweep: atoms
    alone (height 1), every budget 0, every budget vacuous, and vacuous
    budgets but for the one root's, below its size, so that the only row
    over its budget is a root."""
    fam = random_family(rng, min_atoms=atoms, max_atoms=atoms, complete=True)
    keys = {*fam.keys(), RegionKey(1, atoms)}
    offsets = list(accumulate(fam.atom_sizes, initial=0))

    def budgets(zeta):
        sizes = (offsets[k.j] - offsets[k.i - 1] for k in keys)
        triples = [(k.i, k.j, zeta(k, size)) for k, size in zip(keys, sizes)]
        return fb.ForestFamily(fam.m, fam.atom_sizes, triples)

    atoms_only = [(a, a, rng.randint(0, s)) for a, s in enumerate(fam.atom_sizes, 1)]
    yield fb.ForestFamily(fam.m, fam.atom_sizes, atoms_only)
    yield budgets(lambda k, size: 0)
    yield budgets(lambda k, size: size)
    yield budgets(lambda k, size: size - 1 if k == (1, atoms) else size)


# Defines ``loosen(family)``, a copy of ``family`` whose root (1, 4) has a
# budget of 2, and ``fam``, the loosened 4-atom family ``source``.  On the
# path [3, 1] every curve of ``fam`` reaches V_2 = 2, past the root's budget
# of 1 in ``source``.
CURVE_FAULT_SCRIPT = """\
import forestbound as fb

def loosen(family):
    zeta = family._zeta.copy()
    zeta[family._row((1, 4))] = 2
    return family._with_zetas(zeta)

source = fb.ForestFamily(
    4, (1, 1, 1, 1), [(1, 4, 1), (1, 2, 2), (1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)]
)
fam = loosen(source)
"""


def reference_walk(family: fb.ForestFamily, path, work: dict | None = None):
    """The paper's walk: the bound curve along ``path``, one climb per step.

    A step whose atom lies in no saturated region climbs the parent column
    from its atom's row to the root, decrementing every budget on the way
    and painting covered the atoms of each row whose budget reaches 0, and
    adds 1 to the bound; a step inside a saturated region adds nothing and
    climbs nothing.  Rows with a zero budget are painted before the first
    step.  ``fast_curve`` must give the same values everywhere.

    A ``work`` dict receives the counted work: ``steps``, ``climbing_steps``,
    ``climbs[r]`` (the steps that climbed into row r), ``paints[r]`` (the
    times row r was painted) and ``cells`` (the atom cells painted).
    """
    assert family.is_complete
    steps = validate_path(family.m, path)
    atom_rows = family._atom_rows.tolist()
    budget = family._zeta.tolist()  # what each region has left to absorb
    parent = family._parent.tolist()
    left = family._left.tolist()
    right = family._right.tolist()
    climbs = [0] * len(budget)
    paints = [0] * len(budget)
    covered = bytearray(family.n_atoms + 1)

    def paint(r):
        paints[r] += 1
        covered[left[r] : right[r] + 1] = b"\x01" * (right[r] - left[r] + 1)

    for r, b in enumerate(budget):
        if b == 0:
            paint(r)
    v = 0
    values = [0]
    for idx in steps:
        r = atom_rows[idx]
        if not covered[left[r]]:
            while r >= 0:
                climbs[r] += 1
                budget[r] -= 1
                if budget[r] == 0:
                    paint(r)
                r = parent[r]
            v += 1
        values.append(v)
    if work is not None:
        spans = [j - i + 1 for i, j in zip(left, right)]
        work.update(
            steps=len(steps),
            climbing_steps=v,
            climbs=climbs,
            paints=paints,
            cells=sum(p * s for p, s in zip(paints, spans)),
        )
    return fb.BoundCurve(tuple(values))


def check_parent_column(family: fb.ForestFamily) -> None:
    """By brute force over the keys: ``_parent[r]`` is the tightest region
    strictly containing row r, and -1 exactly for the rows of depth 1."""
    keys = list(zip(family._left.tolist(), family._right.tolist()))
    for r, (i, j) in enumerate(keys):
        containers = [
            q for q, (a, b) in enumerate(keys) if q != r and a <= i and j <= b
        ]
        tightest = min(containers, key=lambda q: keys[q][1] - keys[q][0], default=-1)
        assert family._parent[r] == tightest, (i, j)
        assert (family._parent[r] == -1) == (family._depth[r] == 1), (i, j)


def random_selection(rng: random.Random, m: int) -> set:
    return set(rng.sample(range(1, m + 1), rng.randint(0, m)))


def random_path(rng: random.Random, m: int, partial: bool = False) -> list:
    path = list(range(1, m + 1))
    rng.shuffle(path)
    if partial:
        return path[: rng.randint(0, m)]
    return path


# -- oracles -------------------------------------------------------------
#
# The three oracle functions recompute vstar's value straight from its
# defining optimization problems by exhaustive enumeration.  They exist only
# to cross-check ``vstar`` on small instances and refuse anything large.

ORACLE_MAX_M = 20
ORACLE_MAX_ATOMS = 12
ORACLE_MAX_REGIONS = 20


class TooLargeForOracleError(fb.ForestError):
    """The instance exceeds the hard size guard of a brute-force oracle."""


def _selection_mask(family: ForestFamily, selection: Collection[int]) -> int:
    atom_hit_counts(family, selection)  # refuses what vstar refuses
    mask = 0
    for s in selection:
        mask |= 1 << (operator.index(s) - 1)
    return mask


def _region_masks(family: ForestFamily) -> list[tuple[int, int]]:
    out = []
    for reg in family.regions():
        mask = 0
        for h in family.region_members(reg.key):
            mask |= 1 << (h - 1)
        out.append((mask, reg.zeta))
    return out


def oracle_vstar_sets(family: ForestFamily, selection: Collection[int]) -> int:
    """Defining maximum: the largest subset of S obeying every region budget.

    Restricting the candidate null sets to A ⊆ S loses nothing, since only
    ``|S ∩ A|`` is scored; the budgets constrain ``|A ∩ R| <= zeta`` for
    every region.  Guard: the enumeration size ``min(m, |S|) <= 20``.
    """
    if min(family.m, len(selection)) > ORACLE_MAX_M:
        raise TooLargeForOracleError(
            f"|S|={len(selection)} and m={family.m} both exceed {ORACLE_MAX_M}"
        )
    smask = _selection_mask(family, selection)
    regs = _region_masks(family)
    best = 0
    sub = smask
    while True:
        size = sub.bit_count()
        if size > best and all(
            (sub & rmask).bit_count() <= z for rmask, z in regs
        ):
            best = size
        if sub == 0:
            return best
        sub = (sub - 1) & smask


def _tilings(
    starts: dict[int, list[int]], pos: int, stop: int
) -> Iterator[list[RegionKey]]:
    # All ways to cover atoms pos..stop by family intervals, left to right.
    if pos > stop:
        yield []
        return
    for j in starts.get(pos, ()):
        if j <= stop:
            for rest in _tilings(starts, j + 1, stop):
                yield [RegionKey(pos, j), *rest]


def partition_subsets(family: ForestFamily) -> Iterator[list[RegionKey]]:
    """All region subsets whose intervals tile the atom range exactly."""
    starts: dict[int, list[int]] = {}
    for key in family.keys():
        starts.setdefault(key.i, []).append(key.j)
    yield from _tilings(starts, 1, family.n_atoms)


def oracle_vstar_partitions(
    family: ForestFamily, selection: Collection[int]
) -> int:
    """Partition form: minimum summed capped budget over tiling subsets.

    Requires a complete family (the atoms guarantee at least one tiling).
    Guard: N <= 12.
    """
    if family.n_atoms > ORACLE_MAX_ATOMS:
        raise TooLargeForOracleError(
            f"N={family.n_atoms} exceeds {ORACLE_MAX_ATOMS}"
        )
    _require_complete(family)
    hits = atom_hit_counts(family, selection)
    prefix = list(accumulate(hits))
    best = None
    for tiling in partition_subsets(family):
        total = 0
        for key in tiling:
            count = prefix[key.j] - prefix[key.i - 1]
            total += min(family.zeta(key), count)
        if best is None or total < best:
            best = total
    assert best is not None
    return best


def oracle_vstar_subsets(family: ForestFamily, selection: Collection[int]) -> int:
    """Free-subset form: min over all region subsets Q of the capped budgets
    plus the uncovered remainder ``|S \\ U Q|``.  Works on incomplete
    families.  Guard: |K| <= 20.
    """
    k = len(family)
    if k > ORACLE_MAX_REGIONS:
        raise TooLargeForOracleError(f"|K|={k} exceeds {ORACLE_MAX_REGIONS}")
    smask = _selection_mask(family, selection)
    regs = _region_masks(family)
    terms = [min(z, (smask & rmask).bit_count()) for rmask, z in regs]
    # Incremental enumeration: reuse the union mask and budget sum of the
    # subset with the lowest bit cleared.
    union = [0] * (1 << k)
    total = [0] * (1 << k)
    best = smask.bit_count()  # Q = empty set
    for q in range(1, 1 << k):
        low = q & -q
        idx = low.bit_length() - 1
        prev = q ^ low
        union[q] = union[prev] | regs[idx][0]
        total[q] = total[prev] + terms[idx]
        cost = total[q] + (smask & ~union[q]).bit_count()
        if cost < best:
            best = cost
    return best


def definition_removed_set(family: ForestFamily) -> frozenset[RegionKey]:
    """Removed set per the domination definition, by direct enumeration.

    A region (i, j) is removed when its atom interval can be tiled by at
    least two family members whose budgets sum to at most its own.  Tiling
    costs are minimized by recursion on the leftmost uncovered atom,
    memoized per sub-interval.  Deliberately independent of the sweep, for
    small families only; cross-checks prune().
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
