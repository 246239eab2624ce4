"""Synthetic staggered-adoption panels: unit baselines plus cumulative
common period shocks plus a configurable treatment effect, with optional
Gaussian noise for power demonstrations.

The noiseless generator is the validation oracle used throughout the test
suite: with a constant effect and no noise, the two-way fixed-effects
coefficient recovers the effect exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidSpec
from .panel import _INT64, AdoptionSchedule, PanelDataset


@dataclass(frozen=True)
class EffectModel:
    """Treatment effect for a treated (unit, event-time) cell.

    kinds:
      constant    — one effect for every treated cell
      by_unit     — unit-specific constant effects
      event_time  — effect grows linearly with time since adoption:
                    intercept + slope * e at event time e >= 0
    """

    kind: str
    delta: float = 0.0
    per_unit: dict[str, float] = field(default_factory=dict)
    slope: float = 0.0
    intercept: float = 0.0

    @classmethod
    def constant(cls, delta: float) -> "EffectModel":
        return cls(kind="constant", delta=delta)

    @classmethod
    def by_unit(cls, per_unit: dict[str, float]) -> "EffectModel":
        return cls(kind="by_unit", per_unit=dict(per_unit))

    @classmethod
    def event_time(cls, slope: float, intercept: float = 0.0) -> "EffectModel":
        return cls(kind="event_time", slope=slope, intercept=intercept)

    def __post_init__(self):
        values = [("delta", self.delta), ("slope", self.slope), ("intercept", self.intercept)]
        values += [(f"per_unit[{u!r}]", v) for u, v in self.per_unit.items()]
        for name, value in values:
            if not math.isfinite(value):
                raise InvalidSpec(f"effect {name} must be finite, got {value}")

    def effect(self, unit: str, event_time: int) -> float:
        if self.kind == "constant":
            return self.delta
        if self.kind == "by_unit":
            if unit not in self.per_unit:
                raise InvalidSpec(f"no effect entry for unit {unit!r}")
            return self.per_unit[unit]
        if self.kind == "event_time":
            return self.intercept + self.slope * event_time
        raise InvalidSpec(f"unknown effect kind {self.kind!r}")

    def on_grid(self, units: list[str], event_time: np.ndarray) -> np.ndarray:
        """The effect on a grid of cells whose row i belongs to units[i] and
        has the event times event_time[i]; broadcasts to event_time's shape.
        Each cell's value is effect(unit, event time), computed by the same
        floating-point operations."""
        if self.kind == "event_time":
            return self.intercept + self.slope * event_time
        return np.array([self.effect(u, 0) for u in units], dtype=np.float64)[:, None]


class EffectSummary(NamedTuple):
    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True)
class SyntheticSpec:
    """Balanced-panel data-generating process.

    Outcome = unit baseline + cumulative period shock + effect * treated,
    plus optional N(0, noise_sd^2) noise. The first period's shock must be
    zero (baselines are defined as the first-period levels).
    """

    units: tuple[str, ...]
    periods: tuple[int, ...]
    baselines: dict[str, float]           # unit -> level in the first period
    shocks: dict[int, float]              # period -> common change vs. previous period
    schedule: AdoptionSchedule
    effect: EffectModel
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.units) < 2 or len(self.periods) < 2:
            raise InvalidSpec("need at least 2 units and 2 periods")
        if len(set(self.units)) != len(self.units):
            raise InvalidSpec("unit labels must be distinct")
        if any(a >= b for a, b in zip(self.periods, self.periods[1:])):
            raise InvalidSpec("periods must be strictly ascending")
        for u in self.units:
            if u not in self.baselines:
                raise InvalidSpec(f"missing baseline for unit {u!r}")
            if u not in self.schedule.entries:
                raise InvalidSpec(f"missing schedule entry for unit {u!r}")
        for p in self.periods:
            if p not in self.shocks:
                raise InvalidSpec(f"missing period shock for period {p}")
        for p in (*self.periods, *self.schedule.entries.values()):
            if p is not None and p not in _INT64:
                raise InvalidSpec(f"period {p} is not a 64-bit integer")
        if self.shocks[self.periods[0]] != 0.0:
            raise InvalidSpec("first-period shock must be zero")
        for u, value in self.baselines.items():
            if not math.isfinite(value):
                raise InvalidSpec(f"baseline for unit {u!r} must be finite, got {value}")
        for p, value in self.shocks.items():
            if not math.isfinite(value):
                raise InvalidSpec(f"shock for period {p} must be finite, got {value}")
        if not math.isfinite(self.noise_sd):
            raise InvalidSpec(f"noise_sd must be finite, got {self.noise_sd}")
        if self.noise_sd < 0:
            raise InvalidSpec("noise_sd must be non-negative")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


def _treated_effects(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unit x period grids: the treated mask, and each treated cell's effect
    (0 elsewhere, and over units with no treated cell)."""
    periods = np.array(spec.periods, dtype=np.int64)
    adoption = [spec.schedule.entries[u] for u in spec.units]
    start = np.array([0 if a is None else a for a in adoption], dtype=np.int64)[:, None]
    adopts = np.array([a is not None for a in adoption], dtype=bool)[:, None]
    on = adopts & (periods >= start)
    rows = np.flatnonzero(on.any(axis=1))  # only units with a treated cell need an effect
    effect = np.zeros(on.shape)
    effect[rows] = spec.effect.on_grid([spec.units[i] for i in rows.tolist()], periods - start[rows])
    return on, effect


def generate_panel(spec: SyntheticSpec) -> PanelDataset:
    """Materialize the spec as a balanced panel, rows by unit then period;
    deterministic given the seed."""
    cum = list(accumulate((spec.shocks[p] for p in spec.periods), initial=0.0))[1:]
    n_units, n_periods = len(spec.units), len(spec.periods)
    on, effect = _treated_effects(spec)
    # unit x period grids; each cell gets baseline + cumulative shock, then
    # its effect if treated, then its noise: the per-cell operations of
    # the unit-by-unit construction, in the same order
    outcome = np.array([spec.baselines[u] for u in spec.units], dtype=np.float64)[:, None] + np.array(cum)
    outcome[on] += effect[on]
    if spec.noise_sd > 0:
        outcome += spec.noise_sd * np.random.default_rng(spec.seed).normal(size=outcome.shape)
    return PanelDataset(
        spec.units,
        np.repeat(np.arange(n_units, dtype=np.int32), n_periods),
        np.tile(np.array(spec.periods, dtype=np.int64), n_units),
        outcome.ravel(),
        on.ravel(),
    )


def true_effect_summary(spec: SyntheticSpec) -> EffectSummary:
    """Exact min/max/mean of the effect over treated cells."""
    on, effect = _treated_effects(spec)
    effects = effect[on].tolist()  # unit by unit, periods ascending
    if not effects:
        raise InvalidSpec("schedule has no treated cells")
    return EffectSummary(
        minimum=min(effects), maximum=max(effects), mean=sum(effects) / len(effects)
    )


def _effect_from_dict(d: dict) -> EffectModel:
    kind = d.get("kind")
    if kind == "constant":
        return EffectModel.constant(float(d["delta"]))
    if kind == "by_unit":
        return EffectModel.by_unit({str(k): float(v) for k, v in d["per_unit"].items()})
    if kind == "event_time":
        return EffectModel.event_time(float(d["slope"]), float(d.get("intercept", 0.0)))
    raise InvalidSpec(f"unknown effect kind {kind!r}")


def _effect_to_dict(e: EffectModel) -> dict:
    if e.kind == "constant":
        return {"kind": "constant", "delta": e.delta}
    if e.kind == "by_unit":
        return {"kind": "by_unit", "per_unit": dict(e.per_unit)}
    return {"kind": "event_time", "slope": e.slope, "intercept": e.intercept}


def spec_from_json(path: str | Path, seed: Optional[int] = None) -> SyntheticSpec:
    """Load a generator spec from a JSON document; seed overrides the file's."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"invalid JSON: {exc}")
    try:
        units = tuple(str(u) for u in doc["units"])
        periods = tuple(int(p) for p in doc["periods"])
        baselines = {str(k): float(v) for k, v in doc["baselines"].items()}
        shocks = {int(k): float(v) for k, v in doc["shocks"].items()}
        schedule = AdoptionSchedule(
            {
                str(k): (None if v is None or str(v).lower() == "never" else int(v))
                for k, v in doc["schedule"].items()
            }
        )
        effect = _effect_from_dict(doc["effect"])
        noise_sd = float(doc.get("noise_sd", 0.0))
        file_seed = int(doc.get("seed", 0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed spec document: {exc}")
    return SyntheticSpec(
        units=units,
        periods=periods,
        baselines=baselines,
        shocks=shocks,
        schedule=schedule,
        effect=effect,
        noise_sd=noise_sd,
        seed=seed if seed is not None else file_seed,
    )


def spec_to_json(spec: SyntheticSpec, path: str | Path) -> None:
    doc = {
        "units": list(spec.units),
        "periods": list(spec.periods),
        "baselines": dict(spec.baselines),
        "shocks": {str(k): v for k, v in spec.shocks.items()},
        "schedule": {
            k: ("never" if v is None else v) for k, v in spec.schedule.entries.items()
        },
        "effect": _effect_to_dict(spec.effect),
        "noise_sd": spec.noise_sd,
        "seed": spec.seed,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
