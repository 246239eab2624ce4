import csv
import hashlib
import json

import numpy as np
import pytest

from twfediag import (
    fit_twfe,
    homogeneity_test,
    leave_one_unit_out,
    residual_scatter,
    schedule_from_data,
    spec_to_json,
    sweep_end_year,
    sweep_post_horizon,
    weight_grid,
    weight_report,
    write_panel_csv,
)
from twfediag.cli import main

from conftest import random_panel
from test_synth import base_spec


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

    @pytest.mark.parametrize("cluster, inference", [("unit", "cluster_by_unit"), ("none", "classical")])
    def test_homogeneity_inference_follows_cluster(self, panel_files, tmp_path, cluster, inference):
        ds, data, _ = panel_files
        out = tmp_path / "report.json"
        assert main(["estimate", *data_args(data), "--cluster", cluster, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["homogeneity"]
        homog = homogeneity_test(fit_twfe(ds, inference), inference)
        assert doc["inference"] == inference
        assert doc["interaction"]["se"] == homog.b_interaction.se
        assert doc["interaction"]["p_value"] == homog.b_interaction.p_value

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
        for row, status, weight in zip(cells, grid.status.ravel(), grid.weight.ravel()):
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
        sweep = leave_one_unit_out(ds)
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [r["label"] for r in rows] == [p.label for p in sweep.points]


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
            ["sweep-endyear", "--first-end", "5", "--last-end", "3"],
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
            spec_to_json(base_spec(), spec)
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
        spec_to_json(base_spec(noise_sd=1.0), spec_path)
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
        spec_to_json(base_spec(noise_sd=1.0), spec_path)
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
        spec_to_json(base_spec(noise_sd=1.0), spec_path)
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

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_to_json(base_spec(), spec_path)
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
