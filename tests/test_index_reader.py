"""Every entry point that reads caller-supplied hypothesis indices gives what
its Python validator gives: the same value, or the same exception class and
message.

The array reader behind vstar (from NUMPY_MIN_ATOMS atoms up), both curves
and both CSV writers reads only what it can check as one array, and hands
the rest to the validator; these tests pin the outcome for every kind of
entry, as a list, a tuple and a range.
"""

from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import index

import numpy as np
import pytest

import forestbound as fb
from forestbound import FormatError
from forestbound.bounds import (
    NUMPY_MIN_ATOMS,
    _sweep_py,
    atom_hit_counts,
    validate_path,
)
from forestbound.formats import dump_curve_csv, dump_path_csv

M = 2 * NUMPY_MIN_ATOMS
INT64_MAX = 2**63 - 1


def _family(atom_size: int) -> fb.ForestFamily:
    n = M // atom_size
    atoms = [(a, a, min(2, atom_size)) for a in range(1, n + 1)]
    halves = [(1, n // 2, 5), (n // 2 + 1, n, 7)]
    return fb.ForestFamily(M, (atom_size,) * n, [(1, n, 9), *halves, *atoms])


LARGE = _family(1)  # 256 atoms: vstar's numpy side
SMALL = _family(8)  # 32 atoms: vstar's Python engine
assert LARGE.n_atoms >= NUMPY_MIN_ATOMS > SMALL.n_atoms

class IntLike:
    """An integer by the index protocol, as a third-party integer type is:
    ``__index__``, ordering and hashing, and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        return self.value < other

    def __le__(self, other):
        return self.value <= other

    def __repr__(self):
        return f"IntLike({self.value})"


class IndexOnly:
    """An integer by ``__index__`` alone: no ordering, and hashed by
    identity, so two equal ones are no repeat to a set."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IndexOnly({self.value})"


# Each entry is put between 3 and 2, so it sits neither first nor last.
ENTRIES = [
    1,
    np.int64(1),
    np.int32(7),
    np.uint64(9),
    True,
    np.True_,
    False,
    1.0,
    np.float64(2.0),
    Decimal(1),
    Fraction(1),
    "1",
    None,
    [1],
    2**63,
    np.uint64(2**63),
    0,
    -1,
    M + 1,
]
SEQUENCES = (
    [[3, x, 2] for x in ENTRIES]
    + [[x] for x in ENTRIES]
    + [
        [1, 3, True],  # True beside the entry equal to 1
        [True, 3, 1],
        [4, True, 5],
        [1, np.True_],
        [3, 2, 3],
        [M, 1, M - 1],
    ]
)
INPUTS = (
    [kind(s) for s in SEQUENCES for kind in (list, tuple)]
    + [range(1, 6), range(5, 0, -1), range(0, 3), range(-1, 2), range(M - 1, M + 2)]
    + [range(0), [], ()]
    + [b"\x03\x01\x02", bytearray(b"\x03\x01\x02"), b"\x00\x01", bytearray(b"\x02\x02")]
)


def _ids(value):
    return repr(value)[:40]


def _outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def _python_vstar(family, selection):
    # The Python engine, which reads the selection member by member.
    return _sweep_py(family, list(accumulate(atom_hit_counts(family, selection))))[-1]


def _python_curve(family, path):
    return fb.naive_curve(family, validate_path(family.m, path))


def _python_path_csv(path):
    # The writers' own rule, one entry at a time: integers >= 1 by the index
    # protocol, no bool.
    lines = ["hypothesis_index"]
    for x in path:
        try:
            ok = not isinstance(x, (bool, np.bool_)) and 1 <= index(x) <= INT64_MAX
        except TypeError:
            ok = False
        if not ok:
            raise FormatError(f"path entry {x!r} is not a hypothesis index")
        lines.append(str(index(x)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("selection", INPUTS, ids=_ids)
@pytest.mark.parametrize("family", [LARGE, SMALL], ids=["numpy-side", "python-side"])
def test_vstar_matches_python_engine(family, selection):
    assert _outcome(fb.vstar, family, selection) == _outcome(
        _python_vstar, family, selection
    )


@pytest.mark.parametrize("path", INPUTS, ids=_ids)
@pytest.mark.parametrize("curve", [fb.fast_curve, fb.naive_curve])
def test_curves_match_validate_path(curve, path):
    assert _outcome(curve, LARGE, path) == _outcome(_python_curve, LARGE, path)


@pytest.mark.parametrize("path", INPUTS, ids=_ids)
def test_path_csv_matches_entry_scan(path):
    assert _outcome(dump_path_csv, path) == _outcome(_python_path_csv, path)


@pytest.mark.parametrize("path", INPUTS, ids=_ids)
def test_curve_csv_reads_the_path_as_the_path_csv_does(path):
    # A curve of zeros fits any path; only the path column can be refused.
    curve = fb.BoundCurve([0] * (len(path) + 1))
    want = _outcome(_python_path_csv, path)
    got = _outcome(dump_curve_csv, path, curve)
    if want[0] == "value":
        assert got[0] == "value"
        column = [row.split(",")[1] for row in got[1].splitlines()[1:]]
        assert column == want[1].splitlines()[1:]
    else:
        assert got == want


INDEX_PROTOCOL = [
    [3, IntLike(7), 2],
    (IntLike(7),),
    [3, IntLike(0)],
    [IntLike(5), 1.5],
    [IndexOnly(3), 2],
    np.array([IndexOnly(3), 2], dtype=object),
    [3, IndexOnly(7), 1],
    np.array([3, IndexOnly(7), 1], dtype=object),
    [IndexOnly(3), IndexOnly(3)],
    [IndexOnly(5), True],
    [IndexOnly(5), np.True_],
    [2, IndexOnly(0)],
    [IndexOnly(5), 1.5],
]


@pytest.mark.parametrize("path", INDEX_PROTOCOL, ids=_ids)
def test_index_protocol_integers_are_read_alike(path):
    # An integer type of another library, read through __index__ with or
    # without an ordering: vstar's two engines and the curves read it, as a
    # list or an object array; the writers read it too, and refuse an entry
    # below 1 or a float beside it with the same message either way.
    for family in (LARGE, SMALL):
        want = _outcome(_python_vstar, family, path)
        assert _outcome(fb.vstar, family, path) == want
        # An object array reads as the list of its entries does.
        assert _outcome(fb.vstar, family, list(path)) == want
    for curve in (fb.fast_curve, fb.naive_curve):
        assert _outcome(curve, LARGE, path) == _outcome(_python_curve, LARGE, path)
    assert _outcome(dump_path_csv, path) == _outcome(_python_path_csv, path)
