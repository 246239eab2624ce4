import csv
import hashlib
import json

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    PanelDataset,
    fit_twfe,
    homogeneity_test,
    leave_one_unit_out,
    load_panel_csv,
    load_schedule_csv,
    residual_scatter,
    schedule_from_data,
    sweep_end_year,
    sweep_post_horizon,
    weight_grid,
    weight_report,
    write_panel_csv,
)
from twfediag.cli import BINS, GRID_POINTS, _digest, main
from twfediag.diagnostics import STATUS

from conftest import random_panel, write_spec
from test_synth import REPEATED_KEYS, base_spec, write_repeated_key_spec


@pytest.fixture()
def panel_files(tmp_path):
    """Synthetic panel CSV plus matching adoption-schedule CSV."""
    rng = np.random.default_rng(77)
    _, ds = random_panel(rng, missing=True, noise_sd=2.0)
    data = tmp_path / "panel.csv"
    write_panel_csv(ds, data)
    schedule = schedule_from_data(ds)
    sched_path = tmp_path / "schedule.csv"
    with sched_path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["unit", "adoption_period"])
        for unit, adoption in schedule.entries.items():
            writer.writerow([unit, "never" if adoption is None else adoption])
    return ds, data, sched_path


def data_args(data, sched=None, treatment=True):
    args = ["--data", str(data), "--unit", "unit", "--time", "period",
            "--outcome", "outcome"]
    if treatment:
        args += ["--treatment", "treated"]
    if sched is not None:
        args += ["--adoption", str(sched)]
    return args


class TestEstimate:
    def test_report_matches_library(self, panel_files, tmp_path):
        ds, data, _ = panel_files
        out = tmp_path / "report.json"
        code = main(["estimate", *data_args(data), "--out", str(out), "--no-timestamp"])
        assert code == 0
        doc = json.loads(out.read_text())
        fit = fit_twfe(ds)
        assert doc["fit"]["beta"] == fit.beta
        assert doc["fit"]["se"] == fit.se
        assert doc["fit"]["n_obs"] == fit.n_obs
        report = weight_report(fit)
        assert doc["weights"]["n_treated_negative"] == report.n_treated_negative
        homog = homogeneity_test(fit)
        assert doc["homogeneity"]["interaction"]["estimate"] == homog.b_interaction.estimate
        assert doc["input_digest"] == hashlib.sha256(data.read_bytes()).hexdigest()
        assert "timestamp" not in doc

    def test_input_digest_hashes_files_larger_than_one_block(self, tmp_path):
        big, small = tmp_path / "big.csv", tmp_path / "small.csv"
        big.write_bytes(np.random.default_rng(5).bytes(3 << 19 | 7))  # 1.5 MiB + 7 bytes
        small.write_bytes(b"unit,adoption_period\r\nu0,never\r\n")
        assert _digest(big, None) == hashlib.sha256(big.read_bytes()).hexdigest()
        assert _digest(big, small) == \
            hashlib.sha256(big.read_bytes() + small.read_bytes()).hexdigest()

    @pytest.mark.parametrize("cluster, inference", [("unit", "cluster_by_unit"), ("none", "classical")])
    def test_homogeneity_inference_follows_cluster(self, panel_files, tmp_path, cluster, inference):
        ds, data, _ = panel_files
        out = tmp_path / "report.json"
        assert main(["estimate", *data_args(data), "--cluster", cluster, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["homogeneity"]
        homog = homogeneity_test(fit_twfe(ds, inference))
        assert doc["inference"] == inference
        assert doc["interaction"]["se"] == homog.b_interaction.se
        assert doc["interaction"]["p_value"] == homog.b_interaction.p_value

    @pytest.mark.parametrize("treatment", [True, False], ids=["with treatment", "schedule only"])
    def test_empty_adoption_path_is_an_os_error(self, panel_files, tmp_path, capsys, treatment):
        # an empty path is a path that cannot be read, not an absent option
        _, data, _ = panel_files
        out = tmp_path / "report.json"
        argv = ["estimate", *data_args(data, treatment=treatment), "--adoption", "", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno ")
        assert not out.exists()

    def test_schedule_route_matches_treatment_route(self, panel_files, tmp_path):
        ds, data, sched = panel_files
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["estimate", *data_args(data), "--out", str(out1), "--no-timestamp"]) == 0
        # drop the treatment column and recode through the schedule instead
        assert main([
            "estimate", *data_args(data, sched=sched, treatment=False),
            "--out", str(out2), "--no-timestamp",
        ]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["fit"]["beta"] == b["fit"]["beta"]

    def test_rerun_byte_identical_without_timestamp(self, panel_files, tmp_path):
        _, data, _ = panel_files
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["estimate", *data_args(data), "--out", str(out1), "--no-timestamp"])
        main(["estimate", *data_args(data), "--out", str(out2), "--no-timestamp"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cluster", ["unit", "none"])
    def test_exact_fit_report_is_strict_json(self, tmp_path, capsys, cluster):
        """A noiseless 3x3 panel fits exactly: se 0, so the p-value and the
        homogeneity t statistics are nan, written as null (JSON has no nan)."""
        spec, data, out = tmp_path / "spec.json", tmp_path / "panel.csv", tmp_path / "report.json"
        write_spec(base_spec(periods=(1, 2, 3), shocks={1: 0.0, 2: 1.0, 3: -2.0},
                               schedule=AdoptionSchedule({"A": 2, "B": 3, "C": None})), spec)
        assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["estimate", *data_args(data), "--cluster", cluster, "--out", str(out)]) == 0
        assert "p=nan" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        assert doc["fit"]["se"] == 0.0 and doc["fit"]["p_value"] is None
        for name in ("resid_treatment", "treat_group", "interaction"):
            row = doc["homogeneity"][name]
            assert row["t_stat"] is None and row["p_value"] is None, name

    def test_missing_required_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--unit", "u"])
        assert exc.value.code == 2

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["estimate", "--data", str(tmp_path / "nope.csv"),
                     "--unit", "u", "--time", "t", "--outcome", "y",
                     "--treatment", "d"])
        assert code == 1

    def test_non_finite_outcome_exit_1(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        data.write_text(
            "unit,period,outcome,treated\nA,1,1.0,0\nA,2,inf,1\n"
            "B,1,2.0,0\nB,2,0.5,0\n",
            encoding="utf-8",
        )
        assert main(["estimate", *data_args(data)]) == 1
        err = capsys.readouterr().err
        assert err == "error: row 3, column 'outcome': not a finite number: 'inf'\n"

    def test_needs_treatment_or_schedule(self, panel_files):
        _, data, _ = panel_files
        assert main(["estimate", *data_args(data, treatment=False)]) == 1


class TestWeights:
    def test_csv_outputs_match_module(self, panel_files, tmp_path):
        ds, data, sched = panel_files
        hist = tmp_path / "hist.csv"
        grid_path = tmp_path / "grid.csv"
        code = main(["weights", *data_args(data, sched=sched, treatment=False),
                     "--out-hist", str(hist), "--out-grid", str(grid_path)])
        assert code == 0
        fit = fit_twfe(ds)
        report = weight_report(fit)
        with hist.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(report.histogram)
        for row, (lo, hi, t, c) in zip(rows, report.histogram):
            assert float(row["bin_low"]) == lo
            assert int(row["treated_count"]) == t
            assert int(row["control_count"]) == c
        grid = weight_grid(fit, schedule_from_data(ds))
        with grid_path.open() as f:
            cells = list(csv.DictReader(f))
        keys = [(u, p) for u in grid.units for p in grid.periods]  # rows by unit, then period
        assert [(row["unit"], int(row["period"])) for row in cells] == keys
        for row, code, weight in zip(cells, grid.status.ravel().tolist(), grid.weight.ravel()):
            status = STATUS[code]
            assert row["status"] == status
            if status == "missing":
                assert row["weight"] == ""
            else:
                assert float(row["weight"]) == weight


class TestScatter:
    def test_csv_outputs_match_module(self, panel_files, tmp_path):
        ds, data, _ = panel_files
        prefix = tmp_path / "fig3"
        code = main(["scatter", *data_args(data), "--out-prefix", str(prefix)])
        assert code == 0
        fit = fit_twfe(ds)
        scatter = residual_scatter(fit)
        with (tmp_path / "fig3_points.csv").open() as f:
            points = list(csv.DictReader(f))
        # one row per estimation-sample row, in the fit's order
        assert [float(r["resid_treatment"]) for r in points] == fit.residualized_treatment.tolist()
        assert [float(r["resid_outcome"]) for r in points] == fit.residualized_outcome.tolist()
        assert [int(r["treated"]) for r in points] == fit.treatment.tolist()
        with (tmp_path / "fig3_lines.csv").open() as f:
            lines = {r["group"]: r for r in csv.DictReader(f)}
        assert float(lines["control"]["slope"]) == scatter.control.slope
        assert float(lines["treated"]["slope"]) == scatter.treated.slope
        with (tmp_path / "fig3_smooth.csv").open() as f:
            smooth = list(csv.DictReader(f))
        expected = len(scatter.control.smoothed) + len(scatter.treated.smoothed)
        assert len(smooth) == expected


class TestSweeps:
    def test_endyear_csv_matches_module(self, panel_files, tmp_path):
        ds, data, _ = panel_files
        out = tmp_path / "sweep.csv"
        code = main(["sweep-endyear", *data_args(data), "--out", str(out)])
        assert code == 0
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        with out.open() as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == [
                "label", "beta", "ci_low", "ci_high",
                "share_negative_treated", "n_obs", "n_treated",
            ]
            rows = list(reader)
        assert len(rows) == len(sweep.points)
        for row, point in zip(rows, sweep.points):
            assert row["label"] == point.label
            assert float(row["beta"]) == point.beta
            assert float(row["ci_low"]) == point.ci_low
            assert int(row["n_obs"]) == point.n_obs

    def test_horizon_csv_matches_module(self, panel_files, tmp_path):
        ds, data, sched = panel_files
        out = tmp_path / "sweep.csv"
        code = main(["sweep-horizon", *data_args(data, sched=sched, treatment=False),
                     "--horizons", "0,1,2", "--out", str(out)])
        assert code == 0
        sweep = sweep_post_horizon(ds, schedule_from_data(ds), [0, 1, 2])
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [r["label"] for r in rows] == [p.label for p in sweep.points]
        for row, point in zip(rows, sweep.points):
            assert float(row["beta"]) == point.beta

    def test_jackknife_csv_matches_module(self, panel_files, tmp_path):
        ds, data, _ = panel_files
        out = tmp_path / "jk.csv"
        code = main(["jackknife", *data_args(data), "--out", str(out)])
        assert code == 0
        sweep = leave_one_unit_out(ds, schedule_from_data(ds))
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [r["label"] for r in rows] == [p.label for p in sweep.points]

    def test_jackknife_orders_points_by_the_adoption_file(self, tmp_path):
        # B and C adopt before the panel starts: the treated column alone
        # would date both adoptions to 2000, but the file orders C before B
        adoption = {"A": 2003, "B": 1995, "C": 1990, "D": None, "E": 2002}
        data, sched = tmp_path / "panel.csv", tmp_path / "schedule.csv"
        data.write_text("unit,period,outcome\n" + "".join(
            f"{u},{t},{1.5 * i + 0.3 * t + (i * t) % 3}\n"
            for i, u in enumerate(adoption) for t in range(2000, 2006)))
        sched.write_text("unit,adoption_period\n" + "".join(
            f"{u},{'never' if a is None else a}\n" for u, a in adoption.items()))
        args = data_args(data, sched, treatment=False)
        grid, out = tmp_path / "grid.csv", tmp_path / "jk.csv"
        assert main(["weights", *args, "--out-grid", str(grid)]) == 0
        assert main(["jackknife", *args, "--out", str(out)]) == 0
        with grid.open() as f:
            grid_units = list(dict.fromkeys(r["unit"] for r in csv.DictReader(f)))
        with out.open() as f:
            labels = [r["label"] for r in csv.DictReader(f)]
        assert grid_units == ["C", "B", "E", "A", "D"]
        assert labels == grid_units


    def test_jackknife_drops_only_units_with_an_observed_outcome(self, tmp_path, capsys):
        # D has no observed outcome: it is in no estimation sample, so
        # dropping it is no point, and it does not count towards the 3 units
        data = tmp_path / "panel.csv"

        def write(units):
            data.write_text("unit,period,outcome,treated\n" + "".join(
                f"{u},{t},{'' if u == 'D' else 1.5 * i + 0.3 * t + (i * t) % 3},"
                f"{int(i < 2 and t >= 2 + i)}\n" for i, u in enumerate(units) for t in range(1, 4)))

        write("ABCD")
        out = tmp_path / "jk.csv"
        assert main(["jackknife", *data_args(data), "--out", str(out)]) == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [(r["label"], r["n_obs"]) for r in rows] == [("A", "6"), ("B", "6"), ("C", "6")]
        write("ABD")
        capsys.readouterr()
        assert main(["jackknife", *data_args(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: leave-one-out needs at least 3 units, got 2\n"


class TestEmptyPath:
    """An empty path is a path that cannot be opened, not an absent option
    and not the current directory: exit 1 with one error line naming ''."""

    @pytest.mark.parametrize("command, option", [
        ("estimate", "--out"), ("validate", "--out"), ("weights", "--out-hist"),
        ("weights", "--out-grid"), ("sweep-endyear", "--out"), ("sweep-endyear", "--data"),
        ("sweep-endyear", "--adoption"), ("simulate", "--spec"), ("simulate", "--out"),
    ])
    def test_exit_1_naming_the_empty_path(self, panel_files, tmp_path, capsys, monkeypatch,
                                          command, option):
        _, data, sched = panel_files
        spec = tmp_path / "spec.json"
        write_spec(base_spec(), spec)
        given = {"--spec": str(spec)} if command == "simulate" else {
            "--data": str(data), "--unit": "unit", "--time": "period", "--outcome": "outcome",
            "--adoption": str(sched)}
        if command != "weights":  # weights writes only the files it is given
            given["--out"] = str(tmp_path / "out")
        given[option] = ""
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main([command, *(word for pair in given.items() for word in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
        assert sorted(tmp_path.iterdir()) == before


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-horizon", "--horizons", "1,x"],
            ["sweep-horizon", "--horizons", "-1"],
            ["sweep-horizon", "--horizons", ","],
            ["scatter", "--bandwidth", "-1"],
            ["scatter", "--grid-points", "0"],
            ["jackknife", "--level", "1.5"],
            ["jackknife", "--level", "0"],
            ["weights", "--bins", "0"],
            # too big for memory: refused before anything is allocated
            ["weights", "--bins", "1000001"],
            ["weights", "--bins", str(10**12)],
            ["weights", "--bins", str(2**62)],
            ["scatter", "--grid-points", "1000001"],
            ["scatter", "--grid-points", str(10**12)],
            ["scatter", "--grid-points", str(2**62)],
            ["sweep-endyear", "--first-end", "5", "--last-end", "3"],
            # the weights and the scatter carry no inference
            ["weights", "--cluster", "unit"],
            ["weights", "--cluster", "none"],
            ["scatter", "--cluster", "unit"],
            ["scatter", "--cluster", "none"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_value_exit_2(self, panel_files, tmp_path, capsys, argv):
        _, data, _ = panel_files
        command, *options = argv
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "out.csv"
        outputs = {
            "scatter": ["--out-prefix", str(out_dir / "s")],
            "weights": ["--out-hist", str(out)],
        }.get(command, ["--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main([command, *data_args(data), *options, *outputs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []


class TestSizeLimits:
    def test_largest_accepted_value_is_one_million(self):
        assert BINS("1000000") == GRID_POINTS("1000000") == 10**6

    @pytest.mark.parametrize("command, limit", [
        ("weights", "--bins BINS histogram bins, 1 to 1000000"),
        ("scatter", "--grid-points GRID_POINTS smoothing grid points per group, 2 to 1000000"),
    ], ids=["weights", "scatter"])
    def test_help_states_the_limit(self, capsys, command, limit):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert limit in " ".join(capsys.readouterr().out.split())


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


class TestOutOfMemory:
    """A MemoryError inside a command: exit 1 with one error line."""

    @pytest.mark.parametrize("raise_it, detail", [
        # 2**57 float64s (1 EiB): numpy refuses them without allocating
        (lambda *args: np.zeros(2**57), "Unable to allocate"),
        (_raising(MemoryError()), ""),
    ], ids=["numpy refuses an array", "bare MemoryError"])
    def test_exit_1_with_one_error_line(self, panel_files, tmp_path, capsys, monkeypatch,
                                        raise_it, detail):
        _, data, _ = panel_files
        monkeypatch.setattr("twfediag.twfe.fit_twfe", raise_it)
        out = tmp_path / "report.json"
        assert main(["estimate", *data_args(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory.")
        assert detail in err and "Traceback" not in err
        assert not out.exists()


class TestTreatFrom:
    """--treat-from next-year is the schedule shifted one period later,
    read by every command: the same as a treatment column that turns on
    the period after each adoption."""

    @staticmethod
    def _next_year_column(ds, sched, path):
        """Write ds with treated 1 strictly after each unit's adoption period."""
        on, event_time = sched.timing(ds.units, ds.unit, ds.period)
        treated = on & (event_time > 0)
        write_panel_csv(PanelDataset(ds.units, ds.unit, ds.period, ds.outcome, treated), path)

    @staticmethod
    def _outputs(argv, out, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes()

    def test_sweep_horizon_matches_treatment_route(self, panel_files, tmp_path, capsys):
        ds, data, sched = panel_files
        recoded = tmp_path / "recoded.csv"
        self._next_year_column(ds, load_schedule_csv(sched), recoded)
        out = tmp_path / "sweep.csv"
        tail = ["--horizons", "0,1,2,5,10", "--out", str(out)]
        next_year = self._outputs(
            ["sweep-horizon", *data_args(data, sched, treatment=False),
             "--treat-from", "next-year", *tail], out, capsys)
        by_column = self._outputs(["sweep-horizon", *data_args(recoded), *tail], out, capsys)
        assert next_year == by_column
        with out.open() as f:
            assert [row["label"] for row in csv.DictReader(f)][0] == "0"  # h counts from 0

    @pytest.mark.parametrize("command, tail", [
        ("estimate", ["--no-timestamp"]),
        ("weights", ["--out-grid"]),
        ("sweep-horizon", ["--horizons", "0,1,2"]),
    ])
    def test_adoption_at_the_last_int64_period_is_never(self, tmp_path, capsys, command, tail):
        # Z adopts at 2**63-1: no period follows it, so next-year never treats Z
        # and the weight grid lists Z among the never-treated units
        last = 2**63 - 1
        periods = range(last - 3, last + 1)
        adoption = {"A": last - 2, "Z": last, "C": None, "D": None}
        data, sched, recoded = (tmp_path / n for n in ("panel.csv", "schedule.csv", "recoded.csv"))
        rows = ["unit,period,outcome,treated"]
        for i, (unit, start) in enumerate(adoption.items()):
            for j, period in enumerate(periods):
                treated = int(start is not None and period >= start)
                rows.append(f"{unit},{period},{1.5 * i + 0.25 * j + 2.0 * treated + (i * j) % 3},"
                            f"{treated}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        sched.write_text("unit,adoption_period\n" + "".join(
            f"{u},{'never' if a is None else a}\n" for u, a in adoption.items()), encoding="utf-8")
        self._next_year_column(load_panel_csv(data, "unit", "period", "outcome"),
                               load_schedule_csv(sched), recoded)
        out = tmp_path / "out"
        tail = [*tail, str(out)] if command == "weights" else [*tail, "--out", str(out)]
        next_year = self._outputs([command, *data_args(data, sched, treatment=False),
                                   "--treat-from", "next-year", *tail], out, capsys)
        by_column = self._outputs([command, *data_args(recoded), *tail], out, capsys)
        assert next_year[:3] == by_column[:3]
        if command == "estimate":  # the config and the input digest name the inputs
            fit = json.loads(next_year[3])["fit"]
            assert fit == json.loads(by_column[3])["fit"] and fit["n_treated"] == 2
        else:
            assert next_year[3] == by_column[3]
        if command == "weights":
            with out.open() as f:
                units = list(dict.fromkeys(row["unit"] for row in csv.DictReader(f)))
            assert units == ["A", "C", "D", "Z"]


DATA_COMMANDS = {
    "estimate": lambda out: ["--out", str(out), "--no-timestamp"],
    "weights": lambda out: ["--out-grid", str(out)],
    "scatter": lambda out: ["--out-prefix", str(out)],
    "sweep-endyear": lambda out: ["--out", str(out)],
    "sweep-horizon": lambda out: ["--horizons", "0,1,3", "--out", str(out)],
    "jackknife": lambda out: ["--out", str(out)],
    "validate": lambda out: ["--out", str(out)],
}


class TestAdoptionLoad:
    """With --adoption the loader takes the treatment from the schedule and
    builds the one panel; a --treatment column given too is checked, and
    the schedule decides."""

    @staticmethod
    def _run(argv, out, capsys):
        """Exit code, stdout, stderr and the bytes of every file written at out."""
        code = main(argv)
        captured = capsys.readouterr()
        files = sorted(out.parent.glob(out.name + "*"))
        written = [(f.name, f.read_bytes()) for f in files]
        for f in files:
            f.unlink()
        return code, captured.out, captured.err, written

    @pytest.mark.parametrize("treat_from", ["adoption-year", "next-year"])
    @pytest.mark.parametrize("command", list(DATA_COMMANDS))
    def test_one_panel_per_command(self, panel_files, tmp_path, monkeypatch, command, treat_from):
        _, data, sched = panel_files
        post_init = PanelDataset.__post_init__
        built = []

        def counting(self):
            built.append(len(self))
            post_init(self)

        monkeypatch.setattr(PanelDataset, "__post_init__", counting)
        argv = [command, *data_args(data, sched, treatment=False), "--treat-from", treat_from,
                *DATA_COMMANDS[command](tmp_path / "out")]
        assert main(argv) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command", list(DATA_COMMANDS))
    def test_treatment_column_with_adoption(self, panel_files, tmp_path, capsys, command):
        # the column is the schedule's treatment flipped, so it is valid 0/1
        # but decides nothing: the output is --adoption's alone
        ds, _, sched = panel_files
        data = tmp_path / "flipped.csv"
        write_panel_csv(PanelDataset(ds.units, ds.unit, ds.period, ds.outcome, 1 - ds.treated), data)
        out = tmp_path / "out"
        tail = DATA_COMMANDS[command](out)
        alone = self._run([command, *data_args(data, sched, treatment=False), *tail], out, capsys)
        both = self._run([command, *data_args(data, sched), *tail], out, capsys)
        if command == "estimate":  # the config block names the options given
            (name, text), = both[3]
            both = (*both[:3], [(name, text.replace(b'"treatment": "treated"', b'"treatment": null'))])
        assert alone[0] == 0 and both == alone
        assert self._run([command, *data_args(data), *tail], out, capsys) != alone

    @pytest.mark.parametrize("command", list(DATA_COMMANDS))
    def test_bad_treatment_cell_with_adoption(self, panel_files, tmp_path, capsys, command):
        _, data, sched = panel_files
        lines = data.read_text(encoding="utf-8").splitlines()
        lines[4] = lines[4][:-1] + "2"  # row 5's treated cell
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        tail = DATA_COMMANDS[command](out)
        assert self._run([command, *data_args(data, sched, treatment=False), *tail], out,
                         capsys)[0] == 0
        code, stdout, err, written = self._run([command, *data_args(data, sched), *tail], out, capsys)
        assert (code, stdout, written) == (1, "", [])
        assert err == "error: row 5, column 'treated': treatment must be 0 or 1, got '2'\n"

    @pytest.mark.parametrize("schedule_fault, panel_fault, message", [
        ("drop a unit", "repeat a key", "has no adoption-schedule entry"),
        ("bad period", "repeat a key", "not an integer or 'never'"),
        ("bad period", "latin-1 row", "column 'adoption_period'"),
    ])
    def test_schedule_error_first(self, panel_files, tmp_path, capsys, schedule_fault,
                                  panel_fault, message):
        # the schedule file is read first, and applied before the panel is built
        _, data, sched = panel_files
        lines = sched.read_text(encoding="utf-8").splitlines()
        if schedule_fault == "drop a unit":
            del lines[1]
        else:
            lines[1] = lines[1].split(",")[0] + ",soon"
        sched.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if panel_fault == "repeat a key":
            _append(data, data.read_text(encoding="utf-8").splitlines()[1].encode() + b"\r\n")
        else:
            _append(data, "C\u00f4te,1,1.0,0\r\n".encode("latin-1"))
        out = tmp_path / "out.json"
        assert main(["estimate", *data_args(data, sched, treatment=False), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
        assert not out.exists()


class TestDataConflicts:
    """Options that clash with the data: exit 1 with one error line."""

    @pytest.mark.parametrize(
        "argv, two_units",
        [
            pytest.param(["sweep-endyear", "--first-end", "100000"], False,
                         id="sweep-endyear --first-end past the last period"),
            pytest.param(["sweep-endyear", "--last-end", "-5"], False,
                         id="sweep-endyear --last-end before the first period"),
            pytest.param(["jackknife"], True, id="jackknife on two units"),
        ],
    )
    def test_conflict_exit_1(self, panel_files, tmp_path, capsys, argv, two_units):
        _, data, _ = panel_files
        if two_units:
            data = tmp_path / "two_units.csv"
            data.write_text(
                "unit,period,outcome,treated\nA,1,1.0,0\nA,2,2.5,1\n"
                "B,1,2.0,0\nB,2,0.5,0\n",
                encoding="utf-8",
            )
        out = tmp_path / "out.csv"
        command, *options = argv
        assert main([command, *data_args(data), *options, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_endyear_default_range_on_header_only_panel(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("unit,year,y,d\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = ["sweep-endyear", "--data", str(data), "--unit", "unit", "--time", "year",
                "--outcome", "y", "--treatment", "d", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "no data rows" in err
        assert not out.exists()


def _append(path, data: bytes):
    path.write_bytes(path.read_bytes() + data)


class TestUnreadableInput:
    """Input files a loader refuses: exit 1 with one error line, no traceback."""

    @pytest.mark.parametrize("case, message", [
        ("latin-1 panel", "not UTF-8 text"),
        ("latin-1 schedule", "not UTF-8 text"),
        ("utf-16 spec", "not UTF-8 text"),
        ("oversized panel cell", "field larger than field limit"),
        ("oversized schedule cell", "field larger than field limit"),
        ("schedule row without unit", "column 'unit': missing value"),
    ])
    def test_exit_1(self, panel_files, tmp_path, capsys, case, message):
        _, data, sched = panel_files
        out = tmp_path / "out.json"
        argv = ["estimate", *data_args(data, sched), "--out", str(out)]
        if case == "latin-1 panel":
            _append(data, "C\u00f4te,1,1.0,0\r\n".encode("latin-1"))
        elif case == "latin-1 schedule":
            _append(sched, "C\u00f4te,never\r\n".encode("latin-1"))
        elif case == "utf-16 spec":
            spec = tmp_path / "spec.json"
            write_spec(base_spec(), spec)
            spec.write_bytes(spec.read_text(encoding="utf-8").encode("utf-16"))
            argv = ["simulate", "--spec", str(spec), "--out", str(out)]
        elif case == "oversized panel cell":
            _append(data, b"A," + b"9" * 200_000 + b",1.0,0\r\n")
        elif case == "oversized schedule cell":
            _append(sched, b"A," + b"9" * 200_000 + b"\r\n")
        else:  # the columns swapped, then a row with only the adoption period
            text = sched.read_text(encoding="utf-8").splitlines()
            swapped = [",".join(reversed(line.split(","))) for line in text]
            sched.write_text("\n".join(swapped) + "\n2001\n", encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(base_spec(noise_sd=1.0), spec_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--spec", str(spec_path), "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec_path), "--seed", "7",
                     "--out", str(out2)]) == 0
        assert hashlib.sha256(out1.read_bytes()).hexdigest() == \
            hashlib.sha256(out2.read_bytes()).hexdigest()

    def test_seed_changes_output(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(base_spec(noise_sd=1.0), spec_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", "--spec", str(spec_path), "--seed", "7", "--out", str(out1)])
        main(["simulate", "--spec", str(spec_path), "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_spec_exit_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}", encoding="utf-8")
        assert main(["simulate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("path, value", [
        (("baselines", "A"), "NaN"),
        (("shocks", "3"), "Infinity"),
        (("effect", "delta"), "NaN"),
        (("noise_sd",), "NaN"),
        (("seed",), "-1"),
    ], ids=["baseline NaN", "shock Infinity", "delta NaN", "noise_sd NaN", "seed -1"])
    def test_invalid_spec_value_exit_1(self, tmp_path, capsys, path, value):
        spec_path = tmp_path / "spec.json"
        write_spec(base_spec(noise_sd=1.0), spec_path)
        doc = json.loads(spec_path.read_text(encoding="utf-8"))
        *parents, key = path
        target = doc
        for name in parents:
            target = target[name]
        target[key] = json.loads(value)
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_spec_field_of_wrong_json_type_exit_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(base_spec(), spec_path)
        doc = json.loads(spec_path.read_text(encoding="utf-8"))
        doc["baselines"] = list(doc["baselines"].values())
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: baselines must be an object, got an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
    def test_repeated_key_exit_1(self, tmp_path, capsys, case):
        spec_path = tmp_path / "spec.json"
        message = write_repeated_key_spec(spec_path, case)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_adoption_span_beyond_64_bits_generates(self, tmp_path, capsys):
        # A is treated from the first int64 period to the last, at event
        # times 0, 2**63 and 2**64-1
        top = 2**63 - 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "units": ["A", "B"],
            "periods": [-top - 1, 0, top],
            "baselines": {"A": 0.0, "B": 1.0},
            "shocks": {str(-top - 1): 0.0, "0": 0.0, str(top): 0.0},
            "schedule": {"A": -top - 1, "B": "never"},
            "effect": {"kind": "event_time", "slope": 1.0},
        }), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote 6 observations to {out}\n"
        panel = load_panel_csv(out, "unit", "period", "outcome", "treated")
        assert panel.treated.tolist() == [1, 1, 1, 0, 0, 0]
        assert panel.outcome.tolist() == [0.0, float(2**63), float(2**64 - 1), 1.0, 1.0, 1.0]

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(base_spec(), spec_path)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec_path), "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestValidateCommand:
    def test_valid_dataset_exit_0(self, panel_files, tmp_path):
        _, data, _ = panel_files
        out = tmp_path / "report.json"
        code = main(["validate", *data_args(data), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["is_valid"] is True

    def test_invalid_dataset_exit_1(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text(
            "unit,period,outcome,treated\n"
            "A,1,1.0,0\nA,2,1.0,1\nA,3,1.0,0\n"
            "B,1,1.0,0\nB,2,1.0,0\nB,3,1.0,0\n",
            encoding="utf-8",
        )
        code = main(["validate", *data_args(data), "--out", str(tmp_path / "r.json")])
        assert code == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["violations"][0]["code"] == "NonAbsorbing"
