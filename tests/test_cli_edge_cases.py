"""Edge-case panels through every data subcommand, in process through main().

Each panel runs under every data subcommand, with the treatment column,
with a complete adoption schedule and with one that lacks a unit (each
schedule under both --treat-from values), under both --cluster values
where the command takes the option. Every
invocation is valid usage, so the command must exit 0 or 1 and raise
nothing else; stderr must hold no traceback, and on exit 1 exactly one
`error:` line (validate's verdict on an invalid panel is exit 1 with the
report and no error line). Where estimate succeeds, its beta must be the
dummy-variable OLS coefficient.
"""

import csv
import json

import pytest

from twfediag.cli import main
from twfediag.panel import AdoptionSchedule, load_schedule_csv

from oracles import dummy_ols_beta, load_panel_csv_reference

LOW, HIGH = -2**63, 2**63 - 1


def _rows(adoption: dict, periods, missing=()):
    """unit, period, outcome, treated cells; a unit adopts at its entry in
    adoption (None: never); (unit, period) keys in missing have no outcome."""
    rows = []
    for i, (unit, start) in enumerate(adoption.items()):
        for j, period in enumerate(periods):
            treated = int(start is not None and period >= start)
            outcome = "" if (unit, period) in missing else repr(1.5 * i + 0.25 * j + 2.0 * treated + (i * j) % 3)
            rows.append([unit, str(period), outcome, str(treated)])
    return rows


STAGGERED = {"A": 2, "B": 3, "C": None, "D": None}
BASE = _rows(STAGGERED, range(1, 5))

PANELS = {
    "header only": [],
    "one unit": _rows({"A": 2}, range(1, 5)),
    "one period": _rows(STAGGERED, [1]),
    "a unit with every outcome missing": _rows(STAGGERED, range(1, 5), {("D", t) for t in range(1, 5)}),
    "every outcome missing": [[u, p, "", d] for u, p, _, d in BASE],
    "disconnected unit-period graph": _rows({"A": 2, "B": None}, [1, 2]) + _rows({"C": 4, "D": None}, [3, 4]),
    "every row treated": [[u, p, y, "1"] for u, p, y, _ in BASE],
    "repeated key": BASE + [BASE[0]],
    "non-numeric period": BASE[:5] + [["B", "x", "1.0", "0"]] + BASE[5:],
    "non-absorbing unit": [[u, p, y, str(int(p) % 2) if u == "A" else d] for u, p, y, d in BASE],
    "periods at the int64 extremes": _rows({"A": 0, "B": HIGH, "C": None}, [LOW, LOW + 1, 0, HIGH]),
    "gapped periods": _rows(STAGGERED, [1, 2, 4, 7]),
}

COMMANDS = {
    "estimate": ["--out", "estimate.json", "--no-timestamp"],
    "weights": ["--out-hist", "hist.csv", "--out-grid", "grid.csv"],
    "scatter": ["--out-prefix", "scatter"],
    "sweep-endyear": ["--out", "sweep.csv"],
    "sweep-horizon": ["--horizons", "0,1,2", "--out", "sweep.csv"],
    "jackknife": ["--out", "sweep.csv"],
    "validate": ["--out", "validate.json"],
}
CLUSTERED = {"estimate", "sweep-endyear", "sweep-horizon", "jackknife"}  # they report inference


def _schedule(rows) -> dict:
    """unit -> first treated period (None if never) over the rows whose
    period is an integer."""
    first = {}
    for unit, period, _, treated in rows:
        if period.lstrip("-").isdigit():
            first.setdefault(unit, None)
            if treated == "1" and (first[unit] is None or int(period) < first[unit]):
                first[unit] = int(period)
    return first


def _write(path, header, rows):
    path.write_text("\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n",
                    encoding="utf-8")


def _invocations(tmp_path, panel: str, command: str):
    rows = PANELS[panel]
    _write(tmp_path / "panel.csv", ["unit", "period", "outcome", "treated"], rows)
    schedule = [[u, "never" if a is None else a] for u, a in _schedule(rows).items()]
    _write(tmp_path / "complete.csv", ["unit", "adoption_period"], schedule)
    _write(tmp_path / "incomplete.csv", ["unit", "adoption_period"], schedule[:-1])
    data = ["--data", str(tmp_path / "panel.csv"), "--unit", "unit", "--time", "period",
            "--outcome", "outcome"]
    outputs = [str(tmp_path / a) if a.endswith((".csv", ".json")) or a == "scatter" else a
               for a in COMMANDS[command]]
    clusters = [["--cluster", "unit"], ["--cluster", "none"]] if command in CLUSTERED else [[]]
    treatments = [["--treatment", "treated"]] + [
        ["--adoption", str(tmp_path / schedule), "--treat-from", treat_from]
        for schedule in ("complete.csv", "incomplete.csv")
        for treat_from in ("adoption-year", "next-year")]
    for treatment in treatments:
        for cluster in clusters:
            yield [command, *data, *treatment, *cluster, *outputs]


def _cases():
    for panel in PANELS:
        for command in COMMANDS:
            yield pytest.param(panel, command, id=f"{command} on {panel}")


def _dataset(argv):
    """The panel an invocation estimates on, loaded by the row-by-row
    reference loader: under --treat-from next-year, each adoption one period
    later (never, after the last int64 period)."""
    option = dict(zip(argv[1::2], argv[2::2]))
    schedule = None
    if "--adoption" in option:
        schedule = load_schedule_csv(option["--adoption"])
        if option.get("--treat-from") == "next-year":
            schedule = AdoptionSchedule({u: None if a is None or a == HIGH else a + 1
                                         for u, a in schedule.entries.items()})
    return load_panel_csv_reference(option["--data"], "unit", "period", "outcome",
                                    option.get("--treatment"), schedule)


@pytest.mark.parametrize("panel, command", _cases())
def test_exit_code_and_one_error_line(tmp_path, capsys, panel, command):
    for argv in _invocations(tmp_path, panel, command):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        where = " ".join(argv)
        assert code in (0, 1), where
        assert "Traceback" not in err, where
        errors = [line for line in err.splitlines() if "error:" in line]
        if code == 0:
            assert errors == [], where
            if command == "estimate":
                beta = json.loads((tmp_path / "estimate.json").read_text(encoding="utf-8"))["fit"]["beta"]
                assert beta == pytest.approx(dummy_ols_beta(_dataset(argv)), abs=1e-8), where
        elif code == 1 and command == "validate" and not errors:
            report = json.loads((tmp_path / "validate.json").read_text(encoding="utf-8"))
            assert report["is_valid"] is False, where
        else:
            assert len(errors) == 1, (where, err)


def test_sweep_endyear_points_are_the_panels_periods(tmp_path, capsys):
    _write(tmp_path / "panel.csv", ["unit", "period", "outcome", "treated"], PANELS["gapped periods"])
    data = ["--data", str(tmp_path / "panel.csv"), "--unit", "unit", "--time", "period",
            "--outcome", "outcome", "--treatment", "treated"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep-endyear", *data, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as f:
        labels = [row[0] for row in csv.reader(f)][1:]
    assert labels == ["2", "4", "7"]  # not 3, 5 or 6
    skipped = [line.split(":")[0] for line in capsys.readouterr().err.splitlines()]
    assert skipped == ["skipped 1"]  # a single period
    assert main(["sweep-endyear", *data, "--first-end", "5", "--last-end", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: the panel has no period from 5 to 6"]


@pytest.mark.parametrize("cluster", ["unit", "none"])
def test_estimate_reports_a_fit_whose_homogeneity_test_cannot_run(tmp_path, capsys, cluster):
    # each block's treated unit is treated in one period, so the treated
    # group's residualized treatment does not vary; the fit itself is exact
    _write(tmp_path / "panel.csv", ["unit", "period", "outcome", "treated"],
           PANELS["disconnected unit-period graph"])
    out = tmp_path / "estimate.json"
    argv = ["estimate", "--data", str(tmp_path / "panel.csv"), "--unit", "unit", "--time", "period",
            "--outcome", "outcome", "--treatment", "treated", "--cluster", cluster,
            "--out", str(out), "--no-timestamp"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "skipped homogeneity: DegenerateGroup: treated group has no residual-treatment variation"
    ]
    assert captured.out == "beta=1.00 se=0.00 p=nan n=8 treated=2 negative_treated=0\n"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["homogeneity"] is None
    assert report["fit"]["beta"] == pytest.approx(dummy_ols_beta(_dataset(argv)), abs=1e-8)
