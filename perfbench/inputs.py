"""Seeded input generation for the benchmark workloads.

Every panel is made from ``numpy.random.default_rng`` draws only, so the
same seed gives byte-identical files. The arrays stay in memory as a
``Panel`` so that the oracles check the program against the values that
were generated, not against a re-parse of the files the program read.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Panel:
    """Long-format panel, one row per unit and period, in file order.

    ``outcome`` is NaN where the cell is written empty (missing). ``treated``
    is 1 from the unit's adoption period on, which is what
    ``twfediag --adoption`` derives with its default ``--treat-from``.
    """

    units: tuple[str, ...]
    periods: tuple[int, ...]
    adoption: dict[str, Optional[int]]
    unit: np.ndarray     # per row: index into units
    period: np.ndarray   # per row: period value
    outcome: np.ndarray
    treated: np.ndarray

    def first_treated(self) -> dict[str, Optional[int]]:
        """unit -> first period with treated=1 among its rows, or None."""
        out: dict[str, Optional[int]] = {}
        for i, u in enumerate(self.units):
            on = self.period[(self.unit == i) & (self.treated == 1)]
            out[u] = int(on.min()) if on.size else None
        return out


def make_panel(
    rng: np.random.Generator,
    units: tuple[str, ...],
    periods: tuple[int, ...],
    adoption: dict[str, Optional[int]],
    missing: float,
    noise_sd: float = 1.0,
) -> Panel:
    """Unit levels plus a common random-walk trend plus an event-time
    effect (1 + 0.3 e at e periods after adoption) plus Gaussian noise;
    each cell's outcome is dropped with probability ``missing``."""
    n_units, n_periods = len(units), len(periods)
    level = rng.normal(50.0, 10.0, n_units)
    trend = np.cumsum(rng.normal(0.5, 1.0, n_periods))
    years = np.asarray(periods)
    start = np.array([np.inf if adoption[u] is None else adoption[u] for u in units])
    event = years[None, :] - start[:, None]
    treated = event >= 0
    effect = np.where(treated, 1.0 + 0.3 * np.where(treated, event, 0.0), 0.0)
    y = level[:, None] + trend[None, :] + effect + noise_sd * rng.normal(size=(n_units, n_periods))
    y[rng.random((n_units, n_periods)) < missing] = np.nan
    return Panel(
        units=tuple(units),
        periods=tuple(int(p) for p in periods),
        adoption=dict(adoption),
        unit=np.repeat(np.arange(n_units), n_periods),
        period=np.tile(years, n_units).astype(np.int64),
        outcome=y.ravel(),
        treated=treated.ravel().astype(np.int8),
    )


def staggered_adoption(
    rng: np.random.Generator,
    units: tuple[str, ...],
    periods: tuple[int, ...],
    never_share: float,
) -> dict[str, Optional[int]]:
    """A share of never-treated units; the rest adopt uniformly between the
    third and the last period, so every cohort has pre-periods."""
    never = rng.random(len(units)) < never_share
    start = rng.integers(periods[2], periods[-1] + 1, len(units))
    return {u: None if never[i] else int(start[i]) for i, u in enumerate(units)}


def unit_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i:04d}" for i in range(n))


def read_schedule(path: Path) -> dict[str, Optional[int]]:
    with path.open(newline="", encoding="utf-8") as f:
        return {
            row["unit"]: None if row["adoption_period"].lower() == "never" else int(row["adoption_period"])
            for row in csv.DictReader(f)
        }


def write_panel(
    panel: Panel,
    path: Path,
    columns: tuple[str, str, str] = ("unit", "period", "outcome"),
    treatment: Optional[str] = None,
) -> None:
    """Write the panel as a long CSV; floats in ``repr`` so they round-trip."""
    header = ",".join(columns + ((treatment,) if treatment else ()))
    lines = [header]
    for u, p, y, d in zip(panel.unit.tolist(), panel.period.tolist(),
                          panel.outcome.tolist(), panel.treated.tolist()):
        cell = "" if y != y else repr(y)
        row = f"{panel.units[u]},{p},{cell}"
        lines.append(f"{row},{d}" if treatment else row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_schedule(adoption: dict[str, Optional[int]], path: Path) -> None:
    lines = ["unit,adoption_period"]
    lines += [f"{u},{'never' if a is None else a}" for u, a in adoption.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def simulation_spec(rng: np.random.Generator, n_units: int, periods: tuple[int, ...]) -> dict:
    """A ``twfediag simulate`` spec document: event-time effect, noise, and
    a staggered schedule with about 20% never-treated units."""
    units = unit_names(n_units)
    shocks = np.concatenate([[0.0], rng.normal(0.5, 1.0, len(periods) - 1)])
    return {
        "units": list(units),
        "periods": list(periods),
        "baselines": {u: float(b) for u, b in zip(units, rng.normal(50.0, 10.0, n_units))},
        "shocks": {str(p): float(s) for p, s in zip(periods, shocks)},
        "schedule": {
            u: "never" if a is None else a
            for u, a in staggered_adoption(rng, units, periods, 0.2).items()
        },
        "effect": {"kind": "event_time", "slope": 0.3, "intercept": 1.0},
        "noise_sd": 1.5,
        "seed": 0,
    }


def write_spec(spec: dict, path: Path) -> None:
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
