"""File formats: forest JSON, path/p-value CSV, curve CSV, prune report."""

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import forestbound as fb
from forestbound import FormatError
from forestbound.formats import (
    dump_curve_csv,
    dump_forest,
    dump_path_csv,
    dump_pvalues_csv,
    dump_removed_csv,
    parse_forest,
    parse_path_csv,
    parse_pvalues_csv,
)

from conftest import (
    EXAMPLE_ATOMS,
    EXAMPLE_M,
    EXAMPLE_PATH,
    EXAMPLE_REGIONS,
    random_family,
)


def reference_dump_forest(family):
    """The forest file as the json encoder writes it."""
    regions = sorted(family.regions(), key=lambda r: (r.depth, r.key.i))
    doc = {
        "m": family.m,
        "atom_sizes": list(family.atom_sizes),
        "regions": [
            {"i": r.key.i, "j": r.key.j, "zeta": r.zeta} for r in regions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_fdp_fields(pairs):
    """fdp_bound text of each (V, t): the reduced fraction V/t as a Fraction,
    its numerator divided by its denominator at 17 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 17
        fields = []
        for v, t in pairs:
            f = Fraction(v, t)
            fields.append(str(Decimal(f.numerator) / Decimal(f.denominator)))
    return fields


def fdp_fields(csv_text, first=1):
    """The fdp_bound column of a curve CSV from row t = first on."""
    return [row.rpartition(",")[2] for row in csv_text.splitlines()[first:]]


class TestForestRoundTrip:
    def test_byte_identical_for_canonical_input(self, example_family):
        text = dump_forest(example_family)
        assert dump_forest(parse_forest(text)) == text

    def test_random_families_round_trip(self):
        rng = random.Random(127)
        for _ in range(50):
            fam = random_family(rng, max_atoms=8)
            again = parse_forest(dump_forest(fam))
            assert again == fam
            assert dump_forest(again) == dump_forest(fam)

    def test_regions_ordered_by_depth_then_start(self, example_family):
        doc = dump_forest(example_family)
        regions = [
            (r["i"], r["j"])
            for r in json.loads(doc)["regions"]
        ]
        depths = [example_family.region(k).depth for k in regions]
        starts = [k[0] for k in regions]
        assert depths == sorted(depths)
        for d in set(depths):
            level = [s for s, dd in zip(starts, depths) if dd == d]
            assert level == sorted(level)

    def test_matches_json_encoder(self, example_family, partial_family):
        assert dump_forest(example_family) == reference_dump_forest(example_family)
        assert dump_forest(partial_family) == reference_dump_forest(partial_family)
        empty = fb.build_family(3, (1, 2), [])
        assert dump_forest(empty) == reference_dump_forest(empty)
        rng = random.Random(131)
        for k in range(400):
            fam = random_family(
                rng, max_atoms=12, max_atom_size=20, complete=k % 2 == 0
            )
            assert dump_forest(fam) == reference_dump_forest(fam)
        dyadic = fb.zeta_trivial(fb.build_dyadic(8, 3))
        assert dump_forest(dyadic) == reference_dump_forest(dyadic)

    def test_depth_never_serialized(self, example_family):
        assert '"depth"' not in dump_forest(example_family)

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_forest("not json {")
        with pytest.raises(FormatError):
            parse_forest("[1, 2]")
        with pytest.raises(FormatError):
            parse_forest('{"m": 2}')
        with pytest.raises(FormatError):
            parse_forest('{"m": 2, "atom_sizes": [1, 1], "regions": [{"i": 1}]}')

    def test_parse_validates_family(self):
        bad = (
            '{"m": 3, "atom_sizes": [1, 1, 1], '
            '"regions": [{"i": 1, "j": 2, "zeta": 0}, '
            '{"i": 2, "j": 3, "zeta": 0}]}'
        )
        with pytest.raises(fb.OverlapError):
            parse_forest(bad)

    def test_parse_rejects_booleans_and_fractional_budgets(self):
        def doc(m=2, sizes=(1, 1), region=(1, 1), zeta=1):
            i, j = region
            return json.dumps(
                {
                    "m": m,
                    "atom_sizes": list(sizes),
                    "regions": [{"i": i, "j": j, "zeta": zeta}],
                }
            )

        assert parse_forest(doc()).zeta((1, 1)) == 1
        with pytest.raises(fb.ZetaRangeError):
            parse_forest(doc(zeta=True))
        with pytest.raises(fb.ZetaRangeError):
            parse_forest(doc(zeta=2.0))
        with pytest.raises(fb.SizeMismatchError):
            parse_forest(doc(m=True, sizes=(1,)))
        with pytest.raises(fb.SizeMismatchError):
            parse_forest(doc(sizes=(True, True)))
        with pytest.raises(fb.SizeMismatchError):
            parse_forest(doc(region=(True, True)))


class TestPathCsv:
    def test_round_trip(self):
        text = dump_path_csv([3, 1, 2])
        assert text == "hypothesis_index\n3\n1\n2\n"
        assert parse_path_csv(text) == [3, 1, 2]

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_path_csv("3\n1\n")

    def test_bad_entry(self):
        with pytest.raises(FormatError):
            parse_path_csv("hypothesis_index\nfoo\n")

    def test_empty_path(self):
        assert parse_path_csv("hypothesis_index\n") == []


class TestPvaluesCsv:
    def test_round_trip(self):
        values = [0.25, 1.0, 0.0, 1e-17]
        assert parse_pvalues_csv(dump_pvalues_csv(values)) == values

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_pvalues_csv("0.5\n")


class TestCurveCsv:
    def test_example_rows(self, example_family):
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        text = dump_curve_csv(EXAMPLE_PATH, curve)
        lines = text.strip().splitlines()
        assert lines[0] == "t,hypothesis_index,V_t,fdp_bound"
        assert len(lines) == 10
        assert lines[1] == "1,11,1,1"
        assert lines[4] == "4,13,3,0.75"
        assert lines[9] == "9,5,5,0.55555555555555556"  # exact 5/9 to 17 digits

    def test_length_mismatch(self, example_family):
        curve = fb.fast_curve(example_family, EXAMPLE_PATH)
        with pytest.raises(FormatError):
            dump_curve_csv(EXAMPLE_PATH[:-1], curve)

    def test_17_digit_rendering(self):
        curve = fb.BoundCurve((0, 1, 1))
        text = dump_curve_csv([5, 4], curve)
        assert text.strip().splitlines()[2].endswith("0.5")

    def test_every_fraction_up_to_2048_matches_reference(self):
        # Curve k has V_t = (k + t) mod (t + 1); for each t, the curves
        # k = 0..t give every V in 0..t once, so the rows t >= k checked
        # below cover every 0 <= V <= t <= 2048 exactly once.
        top = 2048
        path = range(1, top + 1)
        checked = 0
        for k in range(top + 1):
            values = (0, *((k + t) % (t + 1) for t in path))
            text = dump_curve_csv(path, fb.BoundCurve(values))
            first = max(k, 1)
            pairs = [(values[t], t) for t in range(first, top + 1)]
            assert fdp_fields(text, first) == reference_fdp_fields(pairs)
            checked += len(pairs)
        assert checked == (top + 1) * (top + 2) // 2 - 1

    def test_exponent_form_and_half_even_ties_match_reference(self):
        # One curve of 2**20 steps.  V/t below 1e-6 takes exponent form.
        # At t = 2**a, V/t = V * 5**a / 10**a, so an odd V with 18 digits in
        # V * 5**a ends in 5: an exact tie at 17 significant digits, which
        # rounds half-even (down to an even 17th digit, up from an odd one).
        top = 2**20
        rows = {top: 1, 10**6 + 1: 1, 999_999: 0, 3 * 2**18: 3 * 2**18}
        ties = {}
        for a, parity in ((18, 0), (19, 1)):
            v = -(-(10**17) // 5**a) | 1
            while Decimal(v * 5**a).as_tuple().digits[16] % 2 != parity:
                v += 2
            digits = Decimal(v * 5**a).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
            rows[2**a] = v
            ties[2**a] = digits
        values = [0] * (top + 1)
        for t, v in rows.items():
            values[t] = v
        fields = fdp_fields(
            dump_curve_csv(range(1, top + 1), fb.BoundCurve(tuple(values)))
        )
        checked = sorted(rows)
        got = [fields[t - 1] for t in checked]
        assert got == reference_fdp_fields([(rows[t], t) for t in checked])
        assert fields[top - 1] == "9.5367431640625E-7"
        assert fields[10**6] == "9.9999900000100000E-7"  # rounded: zeros kept
        assert fields[999_998] == "0"
        assert fields[3 * 2**18 - 1] == "1"
        for t, digits in ties.items():
            kept = Decimal(fields[t - 1]).as_tuple().digits
            assert len(kept) == 17
            rounded_up = kept[16] != digits[16]
            assert rounded_up == (digits[16] % 2 == 1)


class TestRemovedCsv:
    def test_sorted_keys(self):
        text = dump_removed_csv({fb.RegionKey(6, 7), fb.RegionKey(1, 5)})
        assert text == "i,j\n1,5\n6,7\n"

    def test_empty(self):
        assert dump_removed_csv(set()) == "i,j\n"
