"""File formats: forest JSON, path/p-value CSV, curve CSV, prune report."""

import json
import random

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

from conftest import EXAMPLE_PATH, random_family


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


class TestRemovedCsv:
    def test_sorted_keys(self):
        text = dump_removed_csv({fb.RegionKey(6, 7), fb.RegionKey(1, 5)})
        assert text == "i,j\n1,5\n6,7\n"

    def test_empty(self):
        assert dump_removed_csv(set()) == "i,j\n"
