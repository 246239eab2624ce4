"""The four workloads: inputs made from the seed, and the fixed sequence of
twfediag invocations one round runs, each with the oracle check of its
output. Why each workload exists is recorded in BENCHMARK.json ("why")
and in README.md.

Every round makes three ``--version`` calls spread through it, so that
startup_s is a median of at least three samples in every workload even
though a round of the heavy workloads fills a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle
from inputs import (
    make_panel,
    read_schedule,
    simulation_spec,
    staggered_adoption,
    unit_names,
    write_panel,
    write_schedule,
    write_spec,
)

STDOUT = "stdout.txt"


@dataclass(frozen=True)
class Step:
    """One invocation: ``twfediag <args>`` run in the work directory.

    ``outputs`` are deleted before each run, so a check never reads a file
    an earlier invocation left behind. ``check(workdir)`` returns None when
    the outputs are right, else the reason they are not.
    """

    metric: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], Optional[str]]


VERSION = Step("startup_s", ("--version",), (), lambda wd: oracle.check_version(wd / STDOUT))


def _estimate(data, o):
    return Step("estimate_s", ("estimate", *data, "--out", "estimate.json"), ("estimate.json",),
                lambda wd: oracle.check_estimate(o, wd / "estimate.json"))


def _weights(data, o):
    return Step("weights_s",
                ("weights", *data, "--out-hist", "hist.csv", "--out-grid", "grid.csv"),
                ("hist.csv", "grid.csv"),
                lambda wd: oracle.check_weights(o, wd / "hist.csv", wd / "grid.csv"))


def _scatter(data, o):
    files = tuple(f"scatter_{part}.csv" for part in ("points", "lines", "smooth"))
    return Step("scatter_s", ("scatter", *data, "--out-prefix", "scatter"), files,
                lambda wd: oracle.check_scatter(o, wd / "scatter"))


def _sweep(command, data, o, horizons=None):
    kind = {"sweep-endyear": "endyear", "jackknife": "jackknife"}.get(command, f"horizon:{horizons}")
    extra = ("--horizons", horizons) if horizons else ()
    out = f"{command}.csv"
    return Step(f"{command.replace('-', '_')}_s", (command, *data, *extra, "--out", out), (out,),
                lambda wd: oracle.check_sweep(o, kind, wd / out))


def _validate(data, panel):
    return Step("validate_s", ("validate", *data, "--out", "validate.json"), ("validate.json",),
                lambda wd: oracle.check_validate(panel, wd / "validate.json"))


def _columns(treatment: bool, adoption: bool, names=("unit", "period", "outcome")):
    data = ("--data", "panel.csv", "--unit", names[0], "--time", names[1], "--outcome", names[2])
    if treatment:
        data += ("--treatment", "treated")
    if adoption:
        data += ("--adoption", "schedule.csv")
    return data


def paper_cli(rng: np.random.Generator, root: Path, wd: Path) -> list[Step]:
    """The paper's 15 countries and adoption years, 1981-2015, ~10% missing
    cells, treatment from --adoption; every subcommand once per round."""
    schedule = read_schedule(root / "src" / "twfediag" / "data" / "fpe_adoption_years.csv")
    names = ("country", "year", "enrollment")
    panel = make_panel(rng, tuple(schedule), tuple(range(1981, 2016)), schedule, missing=0.10)
    write_panel(panel, wd / "panel.csv", names)
    write_schedule(schedule, wd / "schedule.csv")
    data = _columns(treatment=False, adoption=True, names=names)
    o = oracle.PanelOracle(panel)
    return [
        VERSION, _estimate(data, o), _weights(data, o), _scatter(data, o),
        VERSION, _sweep("sweep-endyear", data, o), _sweep("sweep-horizon", data, o, "0,1,2,5,10"),
        VERSION, _sweep("jackknife", data, o), _validate(data, panel),
    ]


def _staggered_panel(rng, wd, n_units, n_periods, missing):
    units, periods = unit_names(n_units), tuple(range(2000, 2000 + n_periods))
    panel = make_panel(rng, units, periods, staggered_adoption(rng, units, periods, 0.2), missing)
    write_panel(panel, wd / "panel.csv", treatment="treated")
    return panel


def fit_large(rng: np.random.Generator, root: Path, wd: Path) -> list[Step]:
    """One 300x40 panel, ~15% missing outcomes, ~20% never treated."""
    o = oracle.PanelOracle(_staggered_panel(rng, wd, 300, 40, 0.15))
    data = _columns(treatment=True, adoption=False)
    return [VERSION, _estimate(data, o), VERSION, _weights(data, o), VERSION]


def sweeps(rng: np.random.Generator, root: Path, wd: Path) -> list[Step]:
    """A 60x30 panel, ~15% missing outcomes; the three robustness sweeps."""
    o = oracle.PanelOracle(_staggered_panel(rng, wd, 60, 30, 0.15))
    data = _columns(treatment=True, adoption=False)
    return [
        VERSION, _sweep("jackknife", data, o), VERSION, _sweep("sweep-endyear", data, o),
        VERSION, _sweep("sweep-horizon", data, o, "0,1,2,3,5,10"),
    ]


def ingest_large(rng: np.random.Generator, root: Path, wd: Path) -> list[Step]:
    """2000x40 (80k rows): simulate writes a panel from a generated spec;
    validate --adoption reads a benchmark-written CSV with ~10% missing cells."""
    units, periods = unit_names(2000), tuple(range(2000, 2040))
    adoption = staggered_adoption(rng, units, periods, 0.2)
    panel = make_panel(rng, units, periods, adoption, missing=0.10)
    write_panel(panel, wd / "panel.csv")
    write_schedule(adoption, wd / "schedule.csv")
    spec = simulation_spec(rng, len(units), periods)
    write_spec(spec, wd / "spec.json")
    seed = str(int(rng.integers(2**31)))
    simulate = Step("simulate_s", ("simulate", "--spec", "spec.json", "--seed", seed, "--out", "simulated.csv"),
                    ("simulated.csv",),
                    lambda wd: oracle.check_simulate(spec, int(seed), wd / "simulated.csv"))
    return [VERSION, simulate, VERSION, _validate(_columns(treatment=False, adoption=True), panel), VERSION]


WORKLOADS = {f.__name__: f for f in (paper_cli, fit_large, sweeps, ingest_large)}
