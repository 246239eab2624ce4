"""Property suite: the column passes of panel I/O and synthetic generation
against their row-by-row references in oracles.py.

- load_panel_csv reads CSVs built from a cell grammar of valid, padded,
  odd-but-valid and bad cells, with short rows, blank lines, a byte-order
  mark and quoted fields holding commas and line breaks, with and without
  an adoption schedule. It must give the reference loader's columns bit
  for bit, or raise the same error.
- write_panel_csv must write the bytes a csv.writer row loop writes, on
  labels that need quoting, and read back to the same columns. So must
  write_csv on random label and number columns, and every CSV file the
  CLI writes from a panel whose unit labels need quoting.
- generate_panel must give the unit-by-unit generator's columns bit for
  bit, for every effect kind, with and without noise, and the same
  InvalidSpec messages. The generator reference calls nothing of
  twfediag.synth, so the one effect formula there, EffectModel.on_grid,
  is checked against the kinds' definitions in oracles.effect_reference.
"""

import csv
import dataclasses
import inspect
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twfediag import (
    AdoptionSchedule,
    EffectModel,
    PanelDataset,
    SyntheticSpec,
    fit_twfe,
    generate_panel,
    leave_one_unit_out,
    load_panel_csv,
    residual_scatter,
    schedule_from_data,
    sweep_end_year,
    sweep_post_horizon,
    weight_grid,
    weight_report,
    write_panel_csv,
)
from twfediag.cli import SWEEP_HEADER, main
from twfediag.diagnostics import STATUS
from twfediag.errors import InvalidSpec, TwfeDiagError
from twfediag import panel, synth
from twfediag.panel import write_csv

from oracles import (
    generate_panel_reference,
    load_panel_csv_reference,
    write_panel_csv_reference,
    write_rows_reference,
)

# cells a valid file holds, and cells that stress the parsers: padding,
# underscores, signs and non-ASCII digits that int() and float() accept,
# blanks, non-finite and out-of-range values, and plain garbage
UNIT_CELLS = ["A", "B", "c d", " A", "A,B", 'say "hi"', "line\nbreak", "é", ""]
PERIOD_OK = ["2000", "2001", "1999", "-3", "0"]
PERIOD_ODD = [" 2000 ", "2_001", "+5", "٣", "9223372036854775807", "-9223372036854775808",
              "9223372036854775808", "-9223372036854775809", "", "  ", "x", "1.0", "nan", "2" * 30]
OUTCOME_OK = ["1.5", "-0.0", "0", "1e-300", "123456789.123456789", ""]
OUTCOME_ODD = [" 2.5 ", "  ", "1_0.5", "+5", "٣.5", "nan", "NaN", "inf", "-Infinity",
               "1e400", "abc", "1,5", "0x10"]
TREATED_OK = ["0", "1"]
TREATED_ODD = [" 1 ", "0 ", "", "  ", "2", "01", "1.0", "yes", "١"]
COLUMNS = ["unit", "period", "outcome", "treated"]


def mostly(ok, odd):
    return st.one_of(st.sampled_from(ok), st.sampled_from(ok), st.sampled_from(ok + odd))


@st.composite
def panel_files(draw):
    """(file bytes, load_panel_csv column arguments)."""
    header = draw(st.permutations(COLUMNS + ["extra"]))
    with_treatment = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cells = {
            "unit": draw(st.sampled_from(UNIT_CELLS)),
            "period": draw(mostly(PERIOD_OK, PERIOD_ODD)),
            "outcome": draw(mostly(OUTCOME_OK, OUTCOME_ODD)),
            "treated": draw(mostly(TREATED_OK, TREATED_ODD)),
            "extra": "x",
        }
        row = [cells[name] for name in header]
        if draw(st.integers(0, 5)) == 0:
            row = row[: draw(st.integers(0, len(row) - 1))]  # short; empty is a blank line
        rows.append(row)
        if draw(st.integers(0, 7)) == 0:
            rows.append([])  # a blank line
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    columns = ("unit", "period", "outcome", "treated" if with_treatment else None)
    return bom + text.getvalue().encode("utf-8"), columns


def with_file(data: bytes, read):
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        with open(path, "wb") as f:
            f.write(data)
        return read(path)
    finally:
        os.unlink(path)


def outcome(path):
    """The loaded dataset, or the error as (type, message)."""
    try:
        return path()
    except TwfeDiagError as exc:
        return type(exc), str(exc)


def assert_same_columns(got: PanelDataset, want: PanelDataset):
    assert got.units == want.units
    for name, dtype in (("unit", np.int32), ("period", np.int64),
                        ("outcome", np.float64), ("treated", np.int8)):
        column = getattr(got, name)
        assert column.dtype == dtype
        assert column.tobytes() == getattr(want, name).tobytes(), name  # bit for bit, NaN too


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=panel_files())
@example(case=(b"unit,period,outcome,treated\r\nA,2000,,0\r\nA,2001,  ,1\r\nB,2000\r\n",
               ("unit", "period", "outcome", "treated")))
@example(case=(b"unit,period,outcome\nA,2000,1.0\nA\n", ("unit", "period", "outcome", None)))
@example(case=(b"\xef\xbb\xbfunit,period,outcome\n\"A,\nB\",9223372036854775808,nan\n",
               ("unit", "period", "outcome", None)))
def test_load_matches_reference(case):
    data, columns = case
    got = with_file(data, lambda path: outcome(lambda: load_panel_csv(path, *columns)))
    want = with_file(data, lambda path: outcome(lambda: load_panel_csv_reference(path, *columns)))
    if isinstance(want, PanelDataset):
        assert isinstance(got, PanelDataset), got
        assert_same_columns(got, want)
    else:
        assert got == want


# schedules over the grammar's unit cells: a cell without an entry is an unknown unit
schedules = st.dictionaries(st.sampled_from(UNIT_CELLS), st.one_of(
    st.none(), st.sampled_from([-2**63, -3, 0, 1999, 2000, 2001, 2**63 - 1])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=panel_files(), entries=schedules)
def test_load_with_schedule_matches_reference(case, entries):
    data, columns = case
    schedule = AdoptionSchedule(entries)
    got = with_file(data, lambda path: outcome(lambda: load_panel_csv(path, *columns, schedule)))
    want = with_file(data, lambda path: outcome(
        lambda: load_panel_csv_reference(path, *columns, schedule)))
    if isinstance(want, PanelDataset):
        assert isinstance(got, PanelDataset), got
        assert_same_columns(got, want)
    else:
        assert got == want


def test_grammar_reaches_both_outcomes():
    """The grammar yields files that load and files that fail."""
    results = {"loaded": 0, "failed": 0}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=panel_files())
    def count(case):
        data, columns = case
        got = with_file(data, lambda path: outcome(lambda: load_panel_csv(path, *columns)))
        results["loaded" if isinstance(got, PanelDataset) else "failed"] += 1

    count()
    assert results["loaded"] >= 20 and results["failed"] >= 20, results


labels = st.text(alphabet=st.sampled_from(list('ab ,"\r\né€\t')), max_size=4)
outcomes = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    units = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    periods = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4, unique=True))
    keys = draw(st.permutations([(u, p) for u in units for p in periods]))
    keys = keys[: draw(st.integers(1, len(keys)))]
    return PanelDataset.encode(
        [u for u, _ in keys],
        [p for _, p in keys],
        [np.nan if y is None else y for y in draw(st.lists(outcomes, min_size=len(keys), max_size=len(keys)))],
        draw(st.lists(st.integers(0, 1), min_size=len(keys), max_size=len(keys))),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dataset=datasets())
@example(dataset=PanelDataset.encode(["", " a ", "a,b", 'q"q', "\r", "\n", "é€"],
                                     [2000] * 7, [1.5, np.nan, -0.0, 5e-324, 1e308, 0.1, 2.0],
                                     [0, 1, 0, 1, 0, 1, 0]))
def test_write_matches_csv_writer_and_round_trips(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write_panel_csv(dataset, got)
        write_panel_csv_reference(dataset, want)
        with open(got, "rb") as f, open(want, "rb") as g:
            assert f.read() == g.read()
        back = load_panel_csv(got, "unit", "period", "outcome", "treated")
    assert_same_columns(back, dataset)


# every kind of label the csv module must quote, or must leave as it is
HOSTILE_LABELS = ["a,b", 'q"uote', "line\nbreak", "cr\rx", "crlf\r\nx", ",\r\n", "", " sp ",
                  "é€ü", "plain"]
number_kinds = st.sampled_from([st.floats(), st.integers(-2**63, 2**63 - 1)])


@st.composite
def csv_tables(draw):
    """(header, write_csv columns, the same table as csv.writer rows)."""
    n_rows = draw(st.integers(0, 6))
    header = draw(st.lists(st.sampled_from(HOSTILE_LABELS), min_size=2, max_size=5))
    columns, cells = [], []
    for _ in header:
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(HOSTILE_LABELS), min_size=1, unique=True))
            codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n_rows, max_size=n_rows))
            columns.append((values, np.array(codes)))
            cells.append([values[c] for c in codes])
        else:
            column = draw(st.lists(draw(number_kinds), min_size=n_rows, max_size=n_rows))
            columns.append(np.array(column) if draw(st.booleans()) else column)
            cells.append(["" if x != x else repr(x) for x in column])  # a nan is missing
    return header, columns, [list(row) for row in zip(*cells)]


def same_bytes(write, write_reference):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write(got)
        write_reference(want)
        with open(got, "rb") as f, open(want, "rb") as g:
            assert f.read() == g.read()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=csv_tables())
def test_write_csv_matches_row_writer(table):
    header, columns, rows = table
    same_bytes(lambda path: write_csv(path, header, columns),
               lambda path: write_rows_reference(path, header, rows))


def test_write_csv_matches_row_writer_across_blocks():
    """More lines than one written block, so block edges fall inside each
    kind of column."""
    rng = np.random.default_rng(21)
    n_rows = 2 * panel._BLOCK + 3
    labels = rng.integers(0, len(HOSTILE_LABELS), n_rows)
    numbers = rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    numbers[rng.random(n_rows) < 0.1] = np.nan
    counts = rng.integers(-2**63, 2**63 - 1, n_rows)
    rows = ([HOSTILE_LABELS[u], "" if y != y else repr(y), c, d]
            for u, y, c, d in zip(labels.tolist(), numbers.tolist(), counts.tolist(),
                                  (labels % 2).tolist()))
    same_bytes(lambda path: write_csv(path, ["unit", "y", "count", "odd"],
                                      [(HOSTILE_LABELS, labels), numbers, counts, ((0, 1), labels % 2)]),
               lambda path: write_rows_reference(path, ["unit", "y", "count", "odd"], rows))


def hostile_panel(directory, noise_sd: float, effect: EffectModel):
    """(CLI data options, dataset): a staggered panel whose unit labels are
    HOSTILE_LABELS, about one outcome in seven missing, as write_panel_csv
    writes it (checked against the row writer)."""
    units, periods = tuple(HOSTILE_LABELS), tuple(range(2000, 2008))
    spec = SyntheticSpec(
        units=units, periods=periods,
        baselines={u: float(i) for i, u in enumerate(units)},
        shocks={p: 0.25 * i for i, p in enumerate(periods)},
        schedule=AdoptionSchedule({u: None if i % 4 == 3 else 2002 + i % 4
                                   for i, u in enumerate(units)}),
        effect=effect, noise_sd=noise_sd, seed=5,
    )
    panel = generate_panel(spec)
    outcome = panel.outcome.copy()
    outcome[::7] = np.nan
    dataset = PanelDataset(panel.units, panel.unit, panel.period, outcome, panel.treated)
    path = directory / "panel.csv"
    write_panel_csv(dataset, path)
    same_bytes(lambda got: write_panel_csv(dataset, got),
               lambda want: write_panel_csv_reference(dataset, want))
    data = ["--data", str(path), "--unit", "unit", "--time", "period", "--outcome", "outcome",
            "--treatment", "treated"]
    return data, dataset


def _sweep_rows(sweep):
    return ([p.label, repr(p.beta), repr(p.ci_low), repr(p.ci_high),
             repr(p.share_negative_treated), p.n_obs, p.n_treated] for p in sweep.points)


def assert_written_as_rows(expected: dict, tmp_path):
    """Each file holds what the row writer writes for its (header, rows)."""
    for got, (header, rows) in expected.items():
        want = str(tmp_path / "want.csv")
        write_rows_reference(want, header, rows)
        with open(got, "rb") as f, open(want, "rb") as g:
            assert f.read() == g.read(), got


def test_cli_csv_files_match_row_writer(tmp_path):
    """Every CSV file the CLI writes from a panel, as the row writer writes
    the same results: the histogram, the weight grid (every unit label in
    it), the scatter's points, lines and smooth files, and the sweeps (the
    jackknife's labels are the unit labels)."""
    data, dataset = hostile_panel(tmp_path, 1.0, EffectModel.event_time(0.3, 1.0))
    out = {name: str(tmp_path / f"{name}.csv")
           for name in ("hist", "grid", "jackknife", "endyear", "horizon")}
    assert main(["weights", *data, "--out-hist", out["hist"], "--out-grid", out["grid"]]) == 0
    assert main(["scatter", *data, "--out-prefix", str(tmp_path / "scatter")]) == 0
    assert main(["jackknife", *data, "--out", out["jackknife"]]) == 0
    assert main(["sweep-endyear", *data, "--out", out["endyear"]]) == 0
    assert main(["sweep-horizon", *data, "--horizons", "0,1,3", "--out", out["horizon"]]) == 0

    fit = fit_twfe(dataset)
    grid = weight_grid(fit, schedule_from_data(dataset))
    assert set(grid.units) == set(HOSTILE_LABELS) and (grid.status == STATUS.index("missing")).any()
    scatter = residual_scatter(fit)
    curves = (("control", scatter.control), ("treated", scatter.treated))
    expected = {
        out["hist"]: (["bin_low", "bin_high", "treated_count", "control_count"],
                      ([repr(lo), repr(hi), t, c] for lo, hi, t, c in weight_report(fit).histogram)),
        out["grid"]: (["unit", "period", "status", "weight"],
                      ([u, p, status, "" if status == "missing" else repr(weight)]
                       for (u, p), status, weight in zip(
                           ((u, p) for u in grid.units for p in grid.periods),
                           (STATUS[c] for c in grid.status.ravel().tolist()),
                           grid.weight.ravel().tolist()))),
        str(tmp_path / "scatter_points.csv"): (
            ["resid_treatment", "resid_outcome", "treated"],
            ([repr(x), repr(y), t] for x, y, t in zip(fit.residualized_treatment.tolist(),
                                                       fit.residualized_outcome.tolist(),
                                                       fit.treatment.tolist()))),
        str(tmp_path / "scatter_lines.csv"): (
            ["group", "slope", "intercept"],
            ([group, repr(c.slope), repr(c.intercept)] for group, c in curves)),
        str(tmp_path / "scatter_smooth.csv"): (
            ["group", "x", "y"],
            ([group, repr(x), repr(y)] for group, c in curves for x, y in c.smoothed)),
        out["jackknife"]: (SWEEP_HEADER, _sweep_rows(
            leave_one_unit_out(dataset, schedule_from_data(dataset)))),
        out["endyear"]: (SWEEP_HEADER, _sweep_rows(
            sweep_end_year(dataset, dataset.periods[0], dataset.periods[-1]))),
        out["horizon"]: (SWEEP_HEADER, _sweep_rows(
            sweep_post_horizon(dataset, schedule_from_data(dataset), [0, 1, 3]))),
    }
    assert_written_as_rows(expected, tmp_path)


def test_cli_sweeps_write_nan_intervals_as_the_row_writer(tmp_path):
    """A noiseless constant effect fits every sweep point exactly: se 0, so
    each interval is nan, written as repr writes it."""
    data, dataset = hostile_panel(tmp_path, 0.0, EffectModel.constant(2.0))
    out = {name: str(tmp_path / f"{name}.csv") for name in ("jackknife", "endyear")}
    assert main(["jackknife", *data, "--cluster", "none", "--out", out["jackknife"]]) == 0
    assert main(["sweep-endyear", *data, "--cluster", "none", "--out", out["endyear"]]) == 0
    jackknife = leave_one_unit_out(dataset, schedule_from_data(dataset), "classical")
    assert all(np.isnan([p.ci_low for p in jackknife.points]))
    assert_written_as_rows({
        out["jackknife"]: (SWEEP_HEADER, _sweep_rows(jackknife)),
        out["endyear"]: (SWEEP_HEADER, _sweep_rows(
            sweep_end_year(dataset, dataset.periods[0], dataset.periods[-1], "classical"))),
    }, tmp_path)


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def specs(draw):
    units = tuple(draw(st.lists(st.sampled_from("ABCDEFG"), min_size=2, max_size=6, unique=True)))
    periods = tuple(sorted(draw(st.lists(st.integers(-5, 30), min_size=2, max_size=6, unique=True))))
    # adoption before the first period, inside, after the last, or never
    adoption = st.one_of(st.none(), st.integers(periods[0] - 2, periods[-1] + 2))
    kind = draw(st.sampled_from(["constant", "by_unit", "event_time"]))
    if kind == "constant":
        effect = EffectModel.constant(draw(finite))
    elif kind == "by_unit":
        effect = EffectModel.by_unit({u: draw(finite) for u in units})
    else:
        effect = EffectModel.event_time(draw(finite), draw(finite))
    return SyntheticSpec(
        units=units,
        periods=periods,
        baselines={u: draw(finite) for u in units},
        shocks={p: (draw(st.sampled_from([0.0, -0.0])) if i == 0 else draw(finite))
                for i, p in enumerate(periods)},
        schedule=AdoptionSchedule({u: draw(adoption) for u in units}),
        effect=effect,
        noise_sd=draw(st.sampled_from([0.0, 0.0, 1.5, draw(st.floats(0, 100))])),
        seed=draw(st.integers(0, 2**64)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=specs())
def test_generate_matches_reference(spec):
    assert_same_columns(generate_panel(spec), generate_panel_reference(spec))


def fixed_spec(effect, noise_sd):
    # C is never treated, D adopts after the last period, E before the first
    units = ("A", "B", "C", "D", "E")
    return SyntheticSpec(
        units=units,
        periods=(2000, 2001, 2002, 2003),
        baselines={"A": 1.25, "B": -0.0, "C": 3.0, "D": 1e6, "E": -7.5},
        shocks={2000: 0.0, 2001: 0.1, 2002: -0.3, 2003: 2.0},
        schedule=AdoptionSchedule({"A": 2001, "B": 2003, "C": None, "D": 2010, "E": 1990}),
        effect=effect,
        noise_sd=noise_sd,
        seed=3,
    )


@pytest.mark.parametrize("noise_sd", [0.0, 0.7])
@pytest.mark.parametrize("effect", [
    EffectModel.constant(2.5),
    EffectModel.constant(2),  # an int delta adds as the float 2.0
    # no entry for C or D: neither has a treated cell, so neither is looked up
    EffectModel.by_unit({"A": 1.0, "B": -2.0, "E": 0.3}),
    EffectModel.event_time(slope=0.3, intercept=1.0),
], ids=["constant", "constant_int", "by_unit", "event_time"])
def test_generate_matches_reference_on_fixed_spec(effect, noise_sd):
    spec = fixed_spec(effect, noise_sd)
    got = generate_panel(spec)
    assert_same_columns(got, generate_panel_reference(spec))
    assert got.units == spec.units and got.is_balanced()
    assert got.treated.reshape(5, 4)[2:4].sum() == 0  # never and too late


@pytest.mark.parametrize("kind", ["by_unit", "unknown"])
def test_generate_effect_errors_match_reference(kind):
    effect = EffectModel.by_unit({"A": 1.0}) if kind == "by_unit" else EffectModel(kind="unknown")
    spec = fixed_spec(effect, 0.0)
    with pytest.raises(TwfeDiagError) as want:
        generate_panel_reference(spec)
    with pytest.raises(type(want.value)) as got:
        generate_panel(spec)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("effect", [
    EffectModel.constant(2.5),
    EffectModel.by_unit({"A": 1.0, "B": -2.0, "E": 0.3}),
    EffectModel.event_time(slope=0.3, intercept=1.0),
], ids=["constant", "by_unit", "event_time"])
def test_generate_reference_calls_nothing_of_synth(monkeypatch, effect):
    """With every method of synth's classes and every function of synth
    made to raise, the reference still gives generate_panel's columns."""
    spec = fixed_spec(effect, 0.7)
    want = generate_panel(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("the generator reference called into twfediag.synth")

    for cls in (synth.EffectModel, synth.SyntheticSpec):
        for name, value in list(vars(cls).items()):
            if callable(value) or isinstance(value, classmethod):
                monkeypatch.setattr(cls, name, refuse)
    for name, value in list(vars(synth).items()):
        if inspect.isfunction(value) and value.__module__ == synth.__name__:
            monkeypatch.setattr(synth, name, refuse)
    with pytest.raises(AssertionError, match="called into twfediag.synth"):
        generate_panel(spec)
    assert_same_columns(generate_panel_reference(spec), want)


def small_spec(effect, baselines, schedule, shocks=None):
    """Periods 1 to 3, one unit per baseline, no noise."""
    return SyntheticSpec(units=tuple(baselines), periods=(1, 2, 3), baselines=baselines,
                         shocks=shocks or {1: 0.0, 2: 0.25, 3: -1.5},
                         schedule=AdoptionSchedule(schedule), effect=effect)


def test_unknown_effect_kind_is_evaluated_only_on_a_treated_cell():
    # A never adopts and B after the last period: no cell is treated
    spec = small_spec(EffectModel(kind="unknown"), {"A": 1.5, "B": -0.0}, {"A": None, "B": 9})
    got = generate_panel(spec)
    assert_same_columns(got, generate_panel_reference(spec))
    assert got.outcome.tolist() == [1.5, 1.75, 0.25, 0.0, 0.25, -1.25]
    assert not np.signbit(got.outcome[3]) and not got.treated.any()  # -0.0 + 0.0
    treated = dataclasses.replace(spec, schedule=AdoptionSchedule({"A": None, "B": 2}))
    for generate in (generate_panel, generate_panel_reference):
        with pytest.raises(InvalidSpec, match=r"^unknown effect kind 'unknown'$"):
            generate(treated)


def test_on_grid_columns():
    """A kind other than event_time gives one float64 column, walked in
    unit order; an unknown kind is refused only when the grid has a row."""
    event_time = np.zeros((2, 3), dtype=np.int64)
    grid = EffectModel.constant(2).on_grid(["A", "B"], event_time)
    assert grid.dtype == np.float64 and grid.tolist() == [[2.0], [2.0]]
    assert EffectModel.by_unit({"B": 0.5, "A": -1.0}).on_grid(["A", "B"], event_time).tolist() == \
        [[-1.0], [0.5]]
    with pytest.raises(InvalidSpec, match=r"^no effect entry for unit 'B'$"):
        EffectModel.by_unit({"A": 1.0}).on_grid(["A", "B", "C"], np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(InvalidSpec, match=r"^unknown effect kind 'x'$"):
        EffectModel(kind="x").on_grid(["A", "B"], event_time)
    for effect in (EffectModel(kind="x"), EffectModel.constant(2), EffectModel.by_unit({})):
        empty = effect.on_grid([], np.zeros((0, 3), dtype=np.int64))
        assert empty.dtype == np.float64 and empty.shape == (0, 1)


@pytest.mark.parametrize("effect", [EffectModel.constant(-0.0), EffectModel.event_time(-0.0, -0.0)],
                         ids=["constant", "event_time"])
def test_negative_zero_baseline_and_effect(effect):
    # the first cumulative shock is 0.0 + -0.0, so every outcome is +0.0
    spec = small_spec(effect, {"A": -0.0, "B": -0.0}, {"A": None, "B": 1},
                      shocks={1: -0.0, 2: -0.0, 3: -0.0})
    got = generate_panel(spec)
    assert_same_columns(got, generate_panel_reference(spec))
    assert got.outcome.tolist() == [0.0] * 6 and not np.signbit(got.outcome).any()
    assert got.treated.tolist() == [0, 0, 0, 1, 1, 1]
