import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    Observation,
    PanelDataset,
    apply_adoption_schedule,
    fit_twfe,
    load_panel_csv,
    load_schedule_csv,
    validate,
    write_panel_csv,
)
from twfediag.errors import DuplicateKey, MissingColumn, ParseError, UnknownUnit

from conftest import bundled_schedule, canonical_2x2, make_panel, random_panel
from oracles import from_observations


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPanelCsv:
    def test_two_row_file(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out,d\nA,2000,1.0,0\nA,2001,2.0,1\n")
        ds = load_panel_csv(f, "c", "y", "out", "d")
        assert ds.units == ("A",)
        assert ds.periods == (2000, 2001)
        assert ds.observations == (
            Observation("A", 2000, 1.0, 0),
            Observation("A", 2001, 2.0, 1),
        )

    def test_duplicate_rows_rejected(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out,d\nA,2000,1.0,0\nA,2000,2.0,0\n")
        with pytest.raises(DuplicateKey):
            load_panel_csv(f, "c", "y", "out", "d")

    def test_missing_column(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,1.0\n")
        with pytest.raises(MissingColumn):
            load_panel_csv(f, "c", "y", "enrollment")

    def test_bad_period(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,200x,1.0\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert exc.value.row == 2 and exc.value.column == "y"

    def test_period_beyond_64_bits(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,1.0\nA,-9223372036854775809,1.0\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert exc.value.row == 3 and exc.value.column == "y"

    def test_short_row_and_blank_lines(self, tmp_path):
        # blank lines are skipped and not counted; a short row's missing
        # cells read as empty
        f = write_csv(tmp_path / "p.csv", "c,y,out,d\n\nA,2000,1.0,0\n\nA,2001\n")
        ds = load_panel_csv(f, "c", "y", "out")
        assert ds.observations == (Observation("A", 2000, 1.0, 0), Observation("A", 2001, None, 0))
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out", "d")
        assert exc.value.row == 3 and exc.value.column == "d"

    def test_short_row_without_period(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,1.0\nA\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert exc.value.row == 3 and exc.value.column == "y"
        assert str(exc.value) == "row 3, column 'y': missing value"

    @pytest.mark.parametrize("body, row", [
        (b"A,2000,1.0\n\nC\xf4te,2000,1.0\n", 3),
        (b"".join(b"U%d,2000,1.0\n" % i for i in range(3000)) + b"\xf4,2000,1.0\n", 3002),
        (b'"A\nB\xf4",2000,1.0\n', 2),
        (b"A,2000,1.0\r\xf4,2000,1.0\r", 3),
    ], ids=["after a blank line", "past the first read", "in a quoted line break", "CR line ends"])
    def test_bytes_not_utf8(self, tmp_path, body, row):
        # a Latin-1 byte names its row (blank lines not counted), with no column
        f = tmp_path / "p.csv"
        f.write_bytes(b"c,y,out\n" + body)
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert (exc.value.row, exc.value.column) == (row, None)
        assert str(exc.value) == f"row {row}: not UTF-8 text"

    def test_header_not_utf8(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"c,y,out,\xe9t\xe9\nA,2000,1.0,0\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert (exc.value.row, exc.value.column) == (1, None)

    def test_cell_beyond_field_limit(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\n\nA,2000,1.0\nB,2000," + "9" * 200_000 + "\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert (exc.value.row, exc.value.column) == (3, None)
        assert str(exc.value) == "row 3: field larger than field limit (131072)"

    def test_bad_outcome(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,abc\n")
        with pytest.raises(ParseError):
            load_panel_csv(f, "c", "y", "out")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_outcome(self, tmp_path, cell):
        f = write_csv(tmp_path / "p.csv", f"c,y,out\nA,2000,1.0\nA,2001,{cell}\n")
        with pytest.raises(ParseError) as exc:
            load_panel_csv(f, "c", "y", "out")
        assert exc.value.row == 3 and exc.value.column == "out"

    def test_byte_order_mark_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"\xef\xbb\xbfunit,y,out\nA,2000,1.0\n")
        ds = load_panel_csv(f, "unit", "y", "out")
        assert ds.observations == (Observation("A", 2000, 1.0, 0),)

    def test_bad_treatment(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out,d\nA,2000,1.0,2\n")
        with pytest.raises(ParseError):
            load_panel_csv(f, "c", "y", "out", "d")

    def test_missing_outcome_preserved(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,\nA,2001,3.5\n")
        ds = load_panel_csv(f, "c", "y", "out")
        assert ds.observations[0].outcome is None
        assert [o for o in ds.observations if o.outcome is not None] == [
            Observation("A", 2001, 3.5, 0)
        ]
        assert ds.observed.tolist() == [False, True]

    def test_no_treatment_column_defaults_untreated(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out\nA,2000,1.0\n")
        ds = load_panel_csv(f, "c", "y", "out")
        assert ds.observations[0].treated == 0


class TestAdoptionSchedule:
    def test_adoption_year_counts_as_treated(self):
        ds = make_panel([("Malawi", y, 1.0, 0) for y in range(1981, 2016)]
                        + [("Kenya", y, 1.0, 0) for y in range(1981, 2016)])
        out = apply_adoption_schedule(ds, bundled_schedule())
        treated = {o.period: o.treated for o in out.observations if o.unit == "Malawi"}
        assert all(treated[y] == 0 for y in range(1981, 1994))
        assert all(treated[y] == 1 for y in range(1994, 2016))

    def test_next_year_coding(self):
        # treated from the period after adoption: the schedule shifted one period later
        ds = make_panel([("A", y, 1.0, 0) for y in (1993, 1994, 1995)])
        sched = AdoptionSchedule({"A": 1994 + 1})
        out = apply_adoption_schedule(ds, sched)
        assert [o.treated for o in out.observations] == [0, 0, 1]

    def test_never_treated(self):
        ds = make_panel([("A", y, 1.0, 0) for y in (1, 2, 3)])
        out = apply_adoption_schedule(ds, AdoptionSchedule({"A": None}))
        assert all(o.treated == 0 for o in out.observations)

    def test_unknown_unit(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 0)])
        with pytest.raises(UnknownUnit):
            apply_adoption_schedule(ds, AdoptionSchedule({"B": 1}))

    def test_idempotent(self):
        ds = make_panel([("A", y, 1.0, 0) for y in (1, 2, 3)]
                        + [("B", y, 1.0, 0) for y in (1, 2, 3)])
        sched = AdoptionSchedule({"A": 2, "B": None})
        once = apply_adoption_schedule(ds, sched)
        twice = apply_adoption_schedule(once, sched)
        assert once.observations == twice.observations

    def test_schedule_csv_parsing(self, tmp_path):
        f = write_csv(tmp_path / "s.csv", "unit,adoption_period\nA,2001\nB,NEVER\n")
        sched = load_schedule_csv(f)
        assert sched.entries == {"A": 2001, "B": None}

    def test_schedule_byte_order_mark_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"\xef\xbb\xbfunit,adoption_period\nA,2001\nB,never\n")
        assert load_schedule_csv(f).entries == {"A": 2001, "B": None}

    def test_schedule_duplicate_entry(self, tmp_path):
        f = write_csv(tmp_path / "s.csv", "unit,adoption_period\nA,2001\nA,2002\n")
        with pytest.raises(ParseError):
            load_schedule_csv(f)

    def test_schedule_row_without_unit(self, tmp_path):
        f = write_csv(tmp_path / "s.csv", "adoption_period,unit\n2001,A\n\n2001\n")
        with pytest.raises(ParseError) as exc:
            load_schedule_csv(f)
        assert str(exc.value) == "row 3, column 'unit': missing value"

    def test_schedule_row_without_period(self, tmp_path):
        f = write_csv(tmp_path / "s.csv", "unit,adoption_period\nA,2001\nB\n")
        with pytest.raises(ParseError) as exc:
            load_schedule_csv(f)
        assert str(exc.value) == "row 3, column 'adoption_period': not an integer or 'never': ''"

    @pytest.mark.parametrize("body, message", [
        ("A,2001\nC\u00f4te,never\n".encode("latin-1"), "row 3: not UTF-8 text"),
        (b"A,2001\nB," + b"1" * 200_000 + b"\n", "row 3: field larger than field limit (131072)"),
    ], ids=["latin-1", "oversized cell"])
    def test_schedule_unreadable_row(self, tmp_path, body, message):
        f = tmp_path / "s.csv"
        f.write_bytes(b"unit,adoption_period\n" + body)
        with pytest.raises(ParseError) as exc:
            load_schedule_csv(f)
        assert str(exc.value) == message

    def test_schedule_period_beyond_64_bits(self, tmp_path):
        f = write_csv(tmp_path / "s.csv", "unit,adoption_period\nA,2001\nB,99999999999999999999\n")
        with pytest.raises(ParseError) as exc:
            load_schedule_csv(f)
        assert exc.value.row == 3 and exc.value.column == "adoption_period"


class TestValidate:
    def test_balanced_2x2_valid(self):
        report = validate(canonical_2x2())
        assert report.is_valid
        assert report.balance == "balanced"
        assert report.timing_groups[2] == ("B",)
        assert report.timing_groups[None] == ("A",)

    def test_non_absorbing_flagged(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 1), ("A", 3, 1.0, 0),
                         ("B", 1, 1.0, 0), ("B", 2, 1.0, 0), ("B", 3, 1.0, 0)])
        report = validate(ds)
        assert not report.is_valid
        codes = [v[0] for v in report.violations]
        assert "NonAbsorbing" in codes

    def test_too_few_units_and_periods(self):
        report = validate(make_panel([("A", 1, 1.0, 0)]))
        codes = {v[0] for v in report.violations}
        assert {"TooFewUnits", "TooFewPeriods"} <= codes

    def test_unbalanced_via_missing_outcome(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, None, 0),
                         ("B", 1, 1.0, 0), ("B", 2, 1.0, 1)])
        assert validate(ds).balance == "unbalanced"

    def test_timing_groups_with_never_treated(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 1),
                         ("B", 1, 1.0, 0), ("B", 2, 1.0, 1),
                         ("C", 1, 1.0, 0), ("C", 2, 1.0, 0)])
        groups = validate(ds).timing_groups
        assert groups[2] == ("A", "B")
        assert groups[None] == ("C",)


SHAPE = "^panel columns must be 1-dimensional and of equal length$"


class TestColumns:
    def test_restrict_takes_a_row_mask(self):
        ds = make_panel([("B", 2, 1.0, 0), ("A", 1, None, 0), ("B", 1, 2.0, 1), ("A", 2, 3.0, 1)])
        sub = ds.restrict(ds.period == 1)
        assert sub.units == ("B", "A")  # the parent's order, not first appearance among the kept rows
        assert sub.observations == (ds.observations[1], ds.observations[2])
        with pytest.raises(ValueError):
            ds.restrict(lambda o: o.period == 1)
        with pytest.raises(ValueError):
            ds.restrict(np.array([0, 1, 1, 0]))

    def test_codes_must_index_labels_that_each_have_a_row(self):
        permuted = PanelDataset(("A", "B"), [1, 0], [1, 1], [1.0, 2.0], [0, 0])
        assert [permuted.units[c] for c in permuted.unit.tolist()] == ["B", "A"]
        assert PanelDataset((), [], [], [], []).units == ()
        with pytest.raises(ValueError, match="^every unit label must have a row$"):
            PanelDataset(("A", "B", "C"), [0, 1], [1, 1], [1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="^every unit label must have a row$"):
            PanelDataset(("A",), [], [], [], [])
        for codes in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="^unit codes must index the unit labels$"):
                PanelDataset(("A", "B"), codes, [1, 1], [1.0, 2.0], [0, 0])

    @pytest.mark.parametrize("units, columns, message", [
        (("A", "B"), {"unit": [0, 1, 1]}, SHAPE),
        (("A", "B"), {"outcome": [1.0]}, SHAPE),
        (("A", "B"), {"outcome": [[1.0], [2.0]]}, SHAPE),
        (("A", "B"), {"unit": [[0, 1]], "period": [[2000, 2000]], "outcome": [[1.0, 2.0]],
                      "treated": [[0, 1]]}, SHAPE),
        (("A", "B"), {"treated": [0, 2]}, "^treated must be 0 or 1$"),
        (("A", "A"), {}, "^unit labels must be distinct$"),
    ], ids=["unit longer", "outcome shorter", "outcome 2-d", "every column 2-d", "treated 2",
            "repeated unit label"])
    def test_refused_columns(self, units, columns, message):
        columns = {"unit": [0, 1], "period": [2000, 2000], "outcome": [1.0, 2.0], "treated": [0, 1],
                   **columns}
        with pytest.raises(ValueError, match=message):
            PanelDataset(units, **columns)

    @pytest.mark.parametrize("column, values, message", [
        ("period", [2000.0, np.nan], "^period value nan is not an int64$"),
        ("treated", [0.4, 1.0], "^treated value 0.4 is not an int8$"),
        ("unit", [0.0, 1.9], "^unit value 1.9 is not an int32$"),
        ("treated", [0, 257], "^treated value 257 is not an int8$"),
        ("period", [0, 2**63], "^period value 9.223372036854776e\\+18 is not an int64$"),
        ("unit", [0, 2**32 + 1], "^unit value 4294967297 is not an int32$"),
        ("treated", np.array([0, 257], np.int16), "^treated value 257 is not an int8$"),
        ("period", np.array([0, 2**63], np.uint64), "^period value 9223372036854775808 is not an int64$"),
    ], ids=["nan period", "fractional treated", "fractional unit code", "int list past int8",
            "int list past int64", "int list past int32", "int16 array past int8", "uint64 array past int64"])
    def test_integer_column_refuses_a_value_it_cannot_hold(self, column, values, message):
        columns = {"unit": [0, 1], "period": [2000, 2000], "outcome": [1.0, 2.0], "treated": [0, 1]}
        columns[column] = values
        with pytest.raises(ValueError, match=message):
            PanelDataset(("A", "B"), **columns)

    def test_integral_floats_are_integer_columns(self):
        ds = PanelDataset(("A", "B"), np.array([1.0, 0.0]), np.array([2000.0, 2001.0]),
                          [1.0, 2.0], np.array([0.0, 1.0]))
        assert ds.unit.dtype == np.int32 and ds.unit.tolist() == [1, 0]
        assert ds.period.dtype == np.int64 and ds.period.tolist() == [2000, 2001]
        assert ds.treated.dtype == np.int8 and ds.treated.tolist() == [0, 1]

    def test_columns_of_a_loaded_panel(self, tmp_path):
        f = write_csv(tmp_path / "p.csv", "c,y,out,d\nB,2001,1.0,0\nA,2000,,1\nB,2000,2.5,1\n")
        ds = load_panel_csv(f, "c", "y", "out", "d")
        assert ds.units == ("B", "A")
        assert ds.unit.dtype == np.int32 and ds.unit.tolist() == [0, 1, 0]
        assert ds.period.dtype == np.int64 and ds.period.tolist() == [2001, 2000, 2000]
        assert ds.outcome.dtype == np.float64 and np.isnan(ds.outcome[1])
        assert ds.treated.dtype == np.int8 and ds.treated.tolist() == [0, 1, 1]
        assert ds.periods == (2000, 2001)


class TestRoundTrip:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        _, ds = random_panel(rng, missing=True)
        path = tmp_path / "out.csv"
        write_panel_csv(ds, path)
        back = load_panel_csv(path, "unit", "period", "outcome", "treated")
        assert back.observations == ds.observations

    def test_row_order_never_affects_beta(self):
        rng = np.random.default_rng(12)
        _, ds = random_panel(rng, noise_sd=1.0)
        beta = fit_twfe(ds).beta
        order = rng.permutation(len(ds.observations))
        shuffled = from_observations(ds.observations[i] for i in order)
        assert fit_twfe(shuffled).beta == pytest.approx(beta, abs=1e-10)


def test_replication_load_counts(replication_primary):
    assert len(replication_primary.units) == 15
    assert replication_primary.periods[0] == 1981
    assert replication_primary.periods[-1] == 2015
    treated_nonmissing = sum(
        o.treated for o in replication_primary.observations if o.outcome is not None
    )
    assert treated_nonmissing == 193


def test_replication_validates(replication_primary):
    report = validate(replication_primary)
    assert report.is_valid
    assert report.balance == "unbalanced"
    assert len([k for k in report.timing_groups if k is not None]) == 13
