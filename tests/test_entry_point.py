"""The process entry point, `cli.run`: what a real `python -m twfediag.cli`
process returns and prints, and the evidence for its collector policy.

`run()` switches the cyclic garbage collector off for the one command a
process runs. That is safe only while a command makes no reference cycles
whose number grows with its input; `test_cyclic_garbage_does_not_grow`
checks this for every subcommand. `main()`, which library and in-process
callers use, leaves the collector as it found it.
"""

import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twfediag
from twfediag import (
    AdoptionSchedule,
    EffectModel,
    PanelDataset,
    SyntheticSpec,
    write_panel_csv,
)
from twfediag.cli import main

from conftest import write_spec
from test_cli import data_args, panel_files  # noqa: F401 (a fixture)
from test_cli_edge_cases import PANELS as EDGE_PANELS

SRC = str(Path(twfediag.__file__).resolve().parent.parent)

PANELS = {
    "single unit": "unit,period,outcome,treated\nA,1,1.0,0\nA,2,2.0,1\nA,3,2.5,1\n",
    "non-integer period": "unit,period,outcome,treated\nA,1,1.0,0\nA,x,2.0,1\n"
                          "B,1,2.5,0\nB,2,1.0,0\n",
    "repeated key": "unit,period,outcome,treated\nA,1,1.0,0\nA,1,2.0,1\n"
                    "B,1,2.5,0\nB,2,1.0,0\n",
    "non-absorbing": "unit,period,outcome,treated\nA,1,1.0,0\nA,2,1.0,1\nA,3,1.0,0\n"
                     "B,1,1.0,0\nB,2,1.0,0\nB,3,1.0,0\n",
}


def cli_process(argv, cwd, **environ) -> subprocess.CompletedProcess:
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "twfediag.cli", *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestProcess:
    """Each case in a fresh `python -m twfediag.cli` process."""

    def test_version_exit_0(self, tmp_path):
        proc = cli_process(["--version"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == f"twfediag {twfediag.__version__}\n"
        assert proc.stderr == ""

    def test_usage_error_exit_2(self, panel_files, tmp_path):
        _, data, _ = panel_files
        proc = cli_process(["weights", *data_args(data), "--bins", "0",
                            "--out-hist", tmp_path / "h.csv"], tmp_path)
        assert proc.returncode == 2
        assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("missing file", "No such file or directory"),
        ("non-integer period", "column 'period': not an integer"),
        ("repeated key", "duplicate observation"),
        ("single unit", "needs >= 2 units"),
    ])
    def test_refused_input_exit_1(self, tmp_path, case, message):
        data = tmp_path / "panel.csv"
        if case != "missing file":
            data.write_text(PANELS[case], encoding="utf-8")
        out = tmp_path / "report.json"
        proc = cli_process(["estimate", *data_args(data), "--out", out], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert message in proc.stderr
        assert not out.exists()

    def test_overflowing_effect_exit_1(self, tmp_path):
        # the effect, not the outcome, is at fault, and numpy's overflow
        # warning must not reach stderr
        spec = SyntheticSpec(units=("A", "B"), periods=(0, 10**9), baselines={"A": 0.0, "B": 0.0},
                             shocks={0: 0.0, 10**9: 0.0}, schedule=AdoptionSchedule({"A": 0, "B": None}),
                             effect=EffectModel.event_time(slope=1e300))
        write_spec(spec, tmp_path / "spec.json")
        out = tmp_path / "panel.csv"
        proc = cli_process(["simulate", "--spec", tmp_path / "spec.json", "--out", out], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: effect inf for unit 'A', period 1000000000 is not finite\n"
        assert not out.exists()

    def test_invalid_panel_validate_exit_1(self, tmp_path):
        # a verdict, not an error: the report names the violation and
        # stderr stays empty
        data = tmp_path / "panel.csv"
        data.write_text(PANELS["non-absorbing"], encoding="utf-8")
        proc = cli_process(["validate", *data_args(data)], tmp_path)
        assert proc.returncode == 1
        assert '"code": "NonAbsorbing"' in proc.stdout
        assert proc.stderr == ""

    def test_estimate_without_homogeneity_exit_0(self, tmp_path):
        # the fit succeeds, but the homogeneity regression cannot run
        data = tmp_path / "panel.csv"
        rows = [["unit", "period", "outcome", "treated"], *EDGE_PANELS["disconnected unit-period graph"]]
        data.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        proc = cli_process(["estimate", *data_args(data), "--no-timestamp",
                            "--out", tmp_path / "report.json"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ("skipped homogeneity: DegenerateGroup: "
                               "treated group has no residual-treatment variation\n")
        assert proc.stdout == "beta=1.00 se=0.00 p=nan n=8 treated=2 negative_treated=0\n"
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["homogeneity"] is None and report["fit"]["beta"] == 1.0

    def test_estimate_bytes_match_in_process_main(self, panel_files, tmp_path):
        _, data, sched = panel_files
        argv = ["estimate", *data_args(data, sched), "--no-timestamp", "--out"]
        proc = cli_process([*argv, tmp_path / "process.json"], tmp_path)
        assert proc.returncode == 0
        assert main([*argv, str(tmp_path / "in_process.json")]) == 0
        assert (tmp_path / "process.json").read_bytes() == \
            (tmp_path / "in_process.json").read_bytes()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """OpenBLAS splits a long 1-D `@` (above 10000 elements) across threads,
    so a sum taken that way would change its last bits with
    OPENBLAS_NUM_THREADS. estimate, sweep-endyear and sweep-horizon (each
    under both inference kinds) and weights write the same bytes under 1
    and 2 threads on a panel with more rows.

    The panel is 400×40 because that is a size at which the whole program
    is thread-independent: the within core's dense Schur product and solve
    are BLAS and LAPACK calls, which OpenBLAS threads by size. With
    OpenBLAS 0.3.31 on 2 CPUs, 600×60 and 5000×40 panels, and a 110-unit
    chain, give different last bits under 1 and 2 threads (see README's
    numerical notes)."""
    rng = np.random.default_rng(5)
    n_units, n_periods = 400, 40
    start = np.where(rng.random(n_units) < 0.2, n_periods, rng.integers(3, n_periods, n_units))
    treated = np.arange(n_periods)[None, :] >= start[:, None]
    outcome = (rng.normal(0.0, 3.0, n_units)[:, None] + np.cumsum(rng.normal(0.5, 1.0, n_periods))
               + 2.0 * treated + rng.normal(size=treated.shape))
    outcome[rng.random(treated.shape) < 0.15] = np.nan
    ds = PanelDataset.encode([f"u{i}" for i in range(n_units) for _ in range(n_periods)],
                             np.tile(np.arange(1990, 1990 + n_periods), n_units),
                             outcome.ravel(), treated.ravel())
    assert int(ds.observed.sum()) > 10000
    data = data_args(tmp_path / "panel.csv")
    write_panel_csv(ds, tmp_path / "panel.csv")
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        for argv in (["estimate", *data, "--no-timestamp", "--out", out / "clustered.json"],
                     ["estimate", *data, "--cluster", "none", "--no-timestamp",
                      "--out", out / "classical.json"],
                     ["sweep-endyear", *data, "--out", out / "endyear_clustered.csv"],
                     ["sweep-endyear", *data, "--cluster", "none", "--out", out / "endyear_classical.csv"],
                     ["sweep-horizon", *data, "--horizons", "0,1,2,5,10",
                      "--out", out / "horizon_clustered.csv"],
                     ["sweep-horizon", *data, "--horizons", "0,1,2,5,10", "--cluster", "none",
                      "--out", out / "horizon_classical.csv"],
                     ["weights", *data, "--out-hist", out / "hist.csv", "--out-grid", out / "grid.csv"]):
            proc = cli_process(argv, tmp_path, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        written[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written["1"]) == 8
    assert written["1"] == written["2"]


@pytest.fixture()
def collector_state():
    """Put back the collector's enabled state after the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_main_keeps_the_callers_collector_state(panel_files, tmp_path, collector_state, enabled):
    _, data, _ = panel_files
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    assert main(["estimate", *data_args(data), "--out", str(tmp_path / "r.json")]) == 0
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


def _write_inputs(directory: Path, n_units: int) -> None:
    """A generator spec (12 periods, staggered adoption, a quarter of the
    units never treated) and its adoption-schedule CSV."""
    units = tuple(f"u{i:04d}" for i in range(n_units))
    periods = tuple(range(2000, 2012))
    schedule = {u: None if i % 4 == 3 else 2003 + i % 5 for i, u in enumerate(units)}
    spec = SyntheticSpec(
        units=units,
        periods=periods,
        baselines={u: float(i % 7) for i, u in enumerate(units)},
        shocks={p: 0.0 if p == periods[0] else 0.3 * (p % 3) for p in periods},
        schedule=AdoptionSchedule(schedule),
        effect=EffectModel.event_time(0.5, 1.0),
        noise_sd=1.0,
        seed=3,
    )
    directory.mkdir()
    write_spec(spec, directory / "spec.json")
    with (directory / "schedule.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["unit", "adoption_period"])
        writer.writerows([u, "never" if a is None else a] for u, a in schedule.items())


def _commands(d: Path) -> dict:
    """Every subcommand on the inputs in directory d; simulate writes the
    panel the others read."""
    data = data_args(d / "panel.csv")
    sched = ["--adoption", str(d / "schedule.csv")]
    return {
        "simulate": ["--spec", str(d / "spec.json"), "--out", str(d / "panel.csv")],
        "estimate": [*data, "--out", str(d / "report.json")],
        "weights": [*data, *sched, "--out-hist", str(d / "h.csv"), "--out-grid", str(d / "g.csv")],
        "scatter": [*data, "--out-prefix", str(d / "s")],
        "sweep-endyear": [*data, "--out", str(d / "e.csv")],
        "sweep-horizon": [*data, *sched, "--horizons", "0,1,2", "--out", str(d / "hz.csv")],
        "jackknife": [*data, "--out", str(d / "j.csv")],
        "validate": [*data, "--out", str(d / "v.json")],
    }


def test_cyclic_garbage_does_not_grow(tmp_path, collector_state):
    """With the collector off, as `run()` keeps it, each command leaves the
    same number of unreachable objects (the argument parser's graph) on a
    panel ten times larger: switching collection off cannot grow memory
    with the input."""
    small, large = tmp_path / "small", tmp_path / "large"
    _write_inputs(small, 8)
    _write_inputs(large, 80)
    for command, options in _commands(small).items():  # imports, first-use caches
        assert main([command, *options]) == 0
    gc.collect()
    gc.disable()
    found = {}
    for d in (small, large):
        for command, options in _commands(d).items():
            assert main([command, *options]) == 0
            found[command, d.name] = gc.collect()
    for command in _commands(small):
        assert found[command, "small"] == found[command, "large"], command
