"""File formats: forest JSON, path/p-value CSV, curve CSV, prune report."""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from forestbound.formats import _csv_rows

from oracles import (
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
        empty = fb.ForestFamily(3, (1, 2), [])
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
        for sizes in ("1", "null"):  # no sequence at all
            with pytest.raises(fb.SizeMismatchError):
                parse_forest(f'{{"m": 1, "atom_sizes": {sizes}, "regions": []}}')
        with pytest.raises(fb.SizeMismatchError):
            fb.ForestFamily(1, 1, [])

    @pytest.mark.parametrize(
        "regions, error, message",
        [
            # Each region is read whole before the next: the missing zeta of
            # the first region is named, not the missing j of the second.
            (
                [{"i": 1, "j": 1}, {"i": 2}],
                FormatError,
                "forest file missing or malformed field: 'zeta'",
            ),
            (
                [{"i": 1, "j": 1, "zeta": 0}, [1, 2, 0]],
                FormatError,
                "forest file missing or malformed field: "
                "list indices must be integers or slices, not str",
            ),
            (
                5,
                FormatError,
                "forest file missing or malformed field: 'int' object is not iterable",
            ),
            (
                [{"i": 1, "j": 1, "zeta": 0.5}, {"i": 1.0, "j": 2, "zeta": 1}],
                fb.ZetaRangeError,
                "zeta must be an integer, got 0.5",
            ),
            (
                {},
                FormatError,
                "forest file missing or malformed field: "
                "'regions' must be a JSON array",
            ),
            (
                "",
                FormatError,
                "forest file missing or malformed field: "
                "'regions' must be a JSON array",
            ),
        ],
    )
    def test_parse_names_the_first_fault(self, regions, error, message):
        doc = {"m": 2, "atom_sizes": [1, 1], "regions": regions}
        with pytest.raises(error) as info:
            parse_forest(json.dumps(doc))
        assert type(info.value) is error
        assert str(info.value) == message


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
        # int() reads both as numbers: 10 and 1.
        for entry in ("1_0", "\u0661"):
            with pytest.raises(FormatError, match="bad path entry"):
                parse_path_csv(f"hypothesis_index\n3\n{entry}\n")

    def test_empty_path(self):
        assert parse_path_csv("hypothesis_index\n") == []


class TestPvaluesCsv:
    def test_round_trip(self):
        values = [0.25, 1.0, 0.0, 1e-17]
        assert parse_pvalues_csv(dump_pvalues_csv(values)) == values

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_pvalues_csv("0.5\n")

    def test_writes_each_value_at_17_digits(self):
        values = [0.25, 1, 0, 1e-17, np.float32(0.1), Fraction(1, 3)]
        expected = "".join(f"{float(p):.17g}\n" for p in values)
        assert dump_pvalues_csv(values) == "p_value\n" + expected
        assert dump_pvalues_csv(np.array(values, dtype=float)) == "p_value\n" + expected
        assert dump_pvalues_csv(iter(values)) == "p_value\n" + expected
        assert dump_pvalues_csv([]) == "p_value\n"

    @pytest.mark.parametrize(
        "values", [[True, 0.5], [np.True_], ["0.5"], [7], [math.nan], [-0.1], [[0.5]]]
    )
    def test_refuses_what_is_no_p_value(self, values):
        with pytest.raises(fb.InvalidProbabilityError):
            dump_pvalues_csv(values)


class TestPvaluesCsvOddInputs:
    """What parse_pvalues_csv gives today on odd inputs, line by line through
    ``float``: a faster parser must give the same values or refusals."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("p_value\n\n0.5\n\n\n0.25\n", [0.5, 0.25]),  # blank lines skipped
            ("p_value\n  0.5  \n\t0.25\n", [0.5, 0.25]),  # whitespace stripped
            ("  p_value  \n0.5\n", [0.5]),  # the header too
            ("p_value\r\n0.5\r\n", [0.5]),
            ("p_value\n+0.5\n", [0.5]),
            ("p_value\n.5\n1e-3\n-0.0\n", [0.5, 0.001, -0.0]),
            ("p_value\n1E-3\n5e-1\n", [0.001, 0.5]),
            ("p_value\ninf\n-inf\n", [math.inf, -math.inf]),
            ("p_value\n", []),  # header only
        ],
    )
    def test_values(self, text, expected):
        got = parse_pvalues_csv(text)
        assert got == expected
        assert [math.copysign(1, x) for x in got] == [
            math.copysign(1, x) for x in expected
        ]

    def test_nan_is_read(self):
        (got,) = parse_pvalues_csv("p_value\nnan\n")
        assert math.isnan(got)

    @pytest.mark.parametrize(
        "text",
        ["", "\n\n", "0.5\n", "P_VALUE\n0.5\n", "p_value,x\n0.5\n"],
    )
    def test_missing_header(self, text):
        with pytest.raises(FormatError, match="must start with a 'p_value' header"):
            parse_pvalues_csv(text)

    @pytest.mark.parametrize(
        "entry",
        # float() reads the last four, as 10, 5, 0.0001 and 0.5.
        ["0.5,0.1", "0x1p-2", "foo", "0.5 0.1", "1_0", "0_5", "0.000_1", "\u0660.5"],
    )
    def test_bad_entry(self, entry):
        with pytest.raises(FormatError, match="bad p-value entry"):
            parse_pvalues_csv(f"p_value\n{entry}\n")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "-0.5"])
    def test_read_but_refused_by_the_curve(self, entry):
        family = fb.zeta_trivial(fb.build_dyadic(1, 1))
        pvalues = parse_pvalues_csv(f"p_value\n{entry}\n")
        with pytest.raises(fb.InvalidProbabilityError):
            fb.curve_from_pvalues(family, pvalues)


class TestPvaluesCsvEntries:
    """Each entry is read as ``float`` reads the line stripped of its
    whitespace; the first bad one is named."""

    @pytest.mark.parametrize(
        "text, named",
        [
            ("p_value\n0.5\n  foo  \n0.25\n", "'foo'"),
            ("p_value\n0.5 0.6\n", "'0.5 0.6'"),
            ("p_value\n\t0.5  0.6\t\n", "'0.5  0.6'"),
            ("p_value\n0.1\n0x1p-2\nbar\n", "'0x1p-2'"),
            ("p_value\n0.25\x00\n", "'0.25\\x00'"),
            ("p_value\n0.5\n0.25\x00\x00\n", "'0.25\\x00\\x00'"),
        ],
    )
    def test_first_bad_entry_named(self, text, named):
        message = f"bad p-value entry: could not convert string to float: {named}"
        with pytest.raises(FormatError) as info:
            parse_pvalues_csv(text)
        assert str(info.value) == message

    def test_values_are_python_floats(self):
        got = parse_pvalues_csv("p_value\n0.5\n1\n")
        assert got == [0.5, 1.0] and all(type(x) is float for x in got)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=20))
    def test_reads_what_float_reads(self, values):
        text = "p_value\n" + "".join(f"  {x!r} \n\n" for x in values)
        assert parse_pvalues_csv(text) == [float(repr(x)) for x in values]


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


def decimal_quotient(v, t):
    """The reference rendering: str of the Decimal quotient at 17 digits."""
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(v) / t)


TOP_T = 2**59  # the renderer's domain is 1 <= t < 2**59


@st.composite
def quotient_pairs(draw):
    """(V, t) with 0 <= V <= t < 2**59, leaning on the renderer's edges:
    the int64 edge, V/t just above or below a power of ten (the zero count
    and the carry of rounding up to it), tiny V/t (exponent form), 0 and 1,
    and denominators 2**a * 5**b, whose quotients are exact."""
    t = draw(
        st.integers(1, TOP_T - 1)
        | st.integers(TOP_T - 2**20, TOP_T - 1)
        | st.integers(1, 2**20)
        | st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 58), st.integers(0, 24))
        .filter(lambda t: t < TOP_T)
    )
    kind = draw(st.sampled_from(["any", "power", "small", "edge"]))
    if kind == "any":
        v = draw(st.integers(0, t))
    elif kind == "power":
        lead = draw(st.integers(0, 18))
        v = -(-t // 10**lead) if draw(st.booleans()) else t // 10**lead
        v += draw(st.integers(-2, 2))
    elif kind == "small":
        v = draw(st.integers(0, 1000))
    else:
        v = t - draw(st.integers(0, 2))
    return min(max(v, 0), t), t


@st.composite
def half_even_ties(draw):
    """(V, 2**a) whose exact quotient V * 5**a / 10**a has 18 significant
    digits, the last a 5: a tie at 17 digits."""
    a = draw(st.integers(18, 25))
    lo = -(-(10**17) // 5**a)
    hi = min(2**a - 1, (10**18 - 1) // 5**a)
    v = draw(st.integers(lo, hi).filter(lambda v: v % 2 == 1))
    return v, 2**a


def rendered(pairs):
    """The fdp_bound fields _csv_rows writes for the (V, t) pairs, in one block."""
    v = np.array([p[0] for p in pairs], dtype=np.int64)
    t = np.array([p[1] for p in pairs], dtype=np.int64)
    return _csv_rows((), v, t).splitlines()


class TestFdpRenderingMatchesDecimal:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(quotient_pairs(), min_size=1, max_size=40))
    @example([(1, TOP_T - 1), (TOP_T - 2, TOP_T - 1), (0, 1), (1, 1)])
    @example([(3 * 10**16, 3 * 10**17 + 1), (3 * 10**15, 3 * 10**17 + 1)])
    def test_pairs(self, pairs):
        assert rendered(pairs) == [decimal_quotient(v, t) for v, t in pairs]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(half_even_ties(), min_size=1, max_size=10))
    def test_half_even_ties(self, pairs):
        got = rendered(pairs)
        assert got == [decimal_quotient(v, t) for v, t in pairs]
        for field, (v, t) in zip(got, pairs):
            exact = Decimal(v * 5 ** (t.bit_length() - 1)).as_tuple().digits
            assert len(exact) == 18 and exact[-1] == 5
            assert len(Decimal(field).as_tuple().digits) == 17

    def test_carries_into_a_power_of_ten(self):
        # Just below 10**-1 and 10**-2, by less than half a unit in the 17th
        # digit: rounding up moves the first digit one place left.
        t = 3 * 10**17 + 1
        fields = ["0.10000000000000000", "0.010000000000000000"]
        assert rendered([(3 * 10**16, t), (3 * 10**15, t)]) == fields
        assert [decimal_quotient(3 * 10**16, t), decimal_quotient(3 * 10**15, t)] == fields

    def test_carry_to_one(self):
        # (t - 1) / t rounds up to 1 at 17 digits once t > 2 * 10**17; the
        # result keeps its 17 digits because it is not exact.
        t = 3 * 10**17
        assert rendered([(t - 1, t)]) == ["1.0000000000000000"]
        assert decimal_quotient(t - 1, t) == "1.0000000000000000"


class TestCurveCsvRefusals:
    CURVE = fb.BoundCurve((0, 1, 1))
    HEADER = "t,hypothesis_index,V_t,fdp_bound\n"

    @pytest.mark.parametrize(
        "path",
        [
            [1.5, 2],
            [1.0, 2],
            np.array([1.5, 2.0]),
            [True, 2],
            [2, True],
            [np.True_, 2],
            np.array([True, True]),
            [0, 2],
            [-1, 2],
            [1, 2**64],
            [1, "2"],
            [1, None],
            [[1], [2]],
            [1, True],
            [3, 1, np.True_],
            np.array(5),
        ],
        ids=repr,
    )
    def test_path_entries(self, path):
        with pytest.raises(FormatError):
            dump_curve_csv(path, self.CURVE)
        with pytest.raises(FormatError):
            dump_path_csv(path)

    def test_integer_paths_accepted(self):
        text = dump_curve_csv([5, 4], self.CURVE)
        assert text == self.HEADER + "1,5,1,1\n2,4,1,0.5\n"
        for path in (
            (5, 4),
            np.array([5, 4], dtype=np.uint16),
            np.array([5, 4], dtype=np.int32),
            np.array([5, 4], dtype=np.uint64),
            [np.int64(5), 4],
            np.array([5, 4], dtype=object),
            b"\x05\x04",
        ):
            assert dump_curve_csv(path, self.CURVE) == text
            assert dump_path_csv(path) == "hypothesis_index\n5\n4\n"
        assert dump_curve_csv(range(1, 3), self.CURVE).startswith(self.HEADER + "1,1,")

    @pytest.mark.parametrize(
        "values, t",
        [((0, 2, 2), 1), ((0, 1, 3), 2), ((0, -1, 0), 1), ((1, 1, 1), 0)],
    )
    def test_values_outside_0_to_t(self, values, t):
        with pytest.raises(FormatError, match=f"V_{t} = "):
            dump_curve_csv([1, 2], fb.BoundCurve(values))

    def test_values_outside_0_to_t_in_a_later_block(self):
        n = 20000
        values = np.arange(n + 1)
        values[n] = n + 1
        with pytest.raises(FormatError, match=f"V_{n} = {n + 1} outside 0..{n}"):
            dump_curve_csv(range(1, n + 1), fb.BoundCurve(values))

    def test_empty_path_writes_the_header(self):
        empty = fb.BoundCurve((0,))
        for path in ([], (), np.array([], dtype=np.int64), range(1, 1)):
            assert dump_curve_csv(path, empty) == self.HEADER
        assert dump_path_csv([]) == "hypothesis_index\n"

    def test_length_check_stays(self):
        with pytest.raises(FormatError, match="curve has 3 values for 1 path steps"):
            dump_curve_csv([1], self.CURVE)


class TestRemovedCsv:
    def test_sorted_keys(self):
        text = dump_removed_csv({fb.RegionKey(6, 7), fb.RegionKey(1, 5)})
        assert text == "i,j\n1,5\n6,7\n"

    def test_empty(self):
        assert dump_removed_csv(set()) == "i,j\n"

    @pytest.mark.parametrize(
        "key", [(True, "x"), (2.5, None), (1, True), (1, 2, 3), (2, 1), (0, 1), 5, "12"]
    )
    def test_refuses_what_is_no_atom_interval(self, key):
        with pytest.raises(FormatError, match="is not an atom interval"):
            dump_removed_csv([fb.RegionKey(1, 5), key])
