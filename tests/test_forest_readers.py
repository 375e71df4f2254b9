"""The forest file and a caller's triples meet one constructor: for every
document, ``parse_forest`` gives what ``ForestFamily(m, atom_sizes,
regions)`` gives on the document's fields, an equal family or the same
exception class and message."""

import json
import random

import pytest

import forestbound as fb
from forestbound.formats import dump_forest, parse_forest

from oracles import random_family

# The region lists of tests/test_formats.py whose records carry all three
# fields, with the m and atom sizes they are parsed with.
FORMATS_DOCS = [
    (2, [1, 1], [{"i": 1, "j": 1, "zeta": 1}]),
    (2, [1, 1], [{"i": 1, "j": 1, "zeta": True}]),
    (2, [1, 1], [{"i": 1, "j": 1, "zeta": 2.0}]),
    (True, [1], [{"i": 1, "j": 1, "zeta": 1}]),
    (2, [True, True], [{"i": 1, "j": 1, "zeta": 1}]),
    (2, [1, 1], [{"i": True, "j": True, "zeta": 1}]),
    (1, 1, []),
    (1, None, []),
    (2, [1, 1], [{"i": 1, "j": 1, "zeta": 0.5}, {"i": 1.0, "j": 2, "zeta": 1}]),
    (3, [1, 1, 1], [{"i": 1, "j": 2, "zeta": 0}, {"i": 2, "j": 3, "zeta": 0}]),
]

# Values a field may hold in a faulty file.
BAD_VALUES = [True, False, 1.5, 2.0, 0, -1, 10**20, "1", None, [1]]


def outcome(build):
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)


def assert_same_outcome(m, atom_sizes, regions):
    doc = {"m": m, "atom_sizes": atom_sizes, "regions": regions}
    parsed = outcome(lambda: parse_forest(json.dumps(doc)))
    triples = [(r["i"], r["j"], r["zeta"]) for r in regions]
    built = outcome(lambda: fb.ForestFamily(m, atom_sizes, triples))
    assert type(parsed) is type(built)
    assert parsed == built
    return parsed


@pytest.mark.parametrize("m, atom_sizes, regions", FORMATS_DOCS)
def test_formats_documents(m, atom_sizes, regions):
    assert_same_outcome(m, atom_sizes, regions)


def random_doc(rng):
    """A random family's document, its records shuffled, with at most one
    fault: a field, m or an atom size replaced, or a record repeated with a
    shifted end."""
    complete = rng.random() < 0.5
    fam = random_family(rng, max_atoms=10, max_atom_size=4, complete=complete)
    doc = json.loads(dump_forest(fam))
    regions = doc["regions"]
    rng.shuffle(regions)
    fault = rng.randrange(5)
    if fault == 0 and regions:
        field = rng.choice(["i", "j", "zeta"])
        rng.choice(regions)[field] = rng.choice(BAD_VALUES + [fam.n_atoms + 1])
    elif fault == 1:
        doc["m"] = rng.choice(BAD_VALUES + [fam.m + 1])
    elif fault == 2:
        doc["atom_sizes"][rng.randrange(fam.n_atoms)] = rng.choice(BAD_VALUES)
    elif fault == 3 and regions:
        twin = dict(rng.choice(regions))
        twin["j"] = min(twin["j"] + rng.randint(0, 2), fam.n_atoms)
        regions.insert(rng.randrange(len(regions) + 1), twin)
    return doc


def test_random_documents():
    rng = random.Random(3030)
    outcomes = set()
    for _ in range(600):
        doc = random_doc(rng)
        parsed = assert_same_outcome(doc["m"], doc["atom_sizes"], doc["regions"])
        outcomes.add("family" if isinstance(parsed, fb.ForestFamily) else parsed[0])
    # Valid files and every kind of refusal are met.
    assert outcomes >= {
        "family",
        fb.SizeMismatchError,
        fb.IndexOutOfRangeError,
        fb.ZetaRangeError,
        fb.DuplicateRegionError,
        fb.OverlapError,
    }
