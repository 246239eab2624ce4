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
from typing import Optional

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

    def on_grid(self, units: list[str], event_time: np.ndarray) -> np.ndarray:
        """The effect on a grid of cells whose row i belongs to units[i] and
        has the event times event_time[i]; broadcasts to event_time's shape.
        InvalidSpec names the first unit with no by_unit entry, and an
        unknown kind when the grid has a row: a spec with no treated cell
        never evaluates its effect."""
        if self.kind == "event_time":
            with np.errstate(over="ignore"):  # generate_panel refuses the inf
                return self.intercept + self.slope * event_time
        if self.kind == "by_unit":
            missing = [u for u in units if u not in self.per_unit]
            if missing:
                raise InvalidSpec(f"no effect entry for unit {missing[0]!r}")
            column = [self.per_unit[u] for u in units]
        elif self.kind == "constant" or not units:
            column = [self.delta] * len(units)
        else:
            raise InvalidSpec(f"unknown effect kind {self.kind!r}")
        return np.array(column, dtype=np.float64)[:, None]


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
        values = [(f"baseline for unit {u!r}", v) for u, v in self.baselines.items()]
        values += [(f"shock for period {p}", v) for p, v in self.shocks.items()]
        for name, value in (*values, ("noise_sd", self.noise_sd)):
            if not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
        if self.noise_sd < 0:
            raise InvalidSpec("noise_sd must be non-negative")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


def _refuse_non_finite(name: str, grid: np.ndarray, spec: SyntheticSpec) -> None:
    """InvalidSpec naming the first cell of a unit x period grid that is not finite."""
    non_finite = np.argwhere(~np.isfinite(grid))
    if non_finite.size:
        i, j = non_finite[0]
        raise InvalidSpec(f"{name} {grid[i, j]} for unit {spec.units[i]!r}, "
                          f"period {spec.periods[j]} is not finite")


def generate_panel(spec: SyntheticSpec) -> PanelDataset:
    """Materialize the spec as a balanced panel, rows by unit then period;
    deterministic given the seed. InvalidSpec names the first treated cell
    whose effect overflows, else the first cell whose outcome does (an inf,
    or the nan of opposite infinities), which is never read as missing."""
    cum = list(accumulate((spec.shocks[p] for p in spec.periods), initial=0.0))[1:]
    periods = np.array(spec.periods, dtype=np.int64)
    unit = np.arange(len(spec.units), dtype=np.int32)
    on, event_time = spec.schedule.timing(spec.units, unit[:, None], periods)
    event_time[~on] = 0  # wrapped before adoption, where an unused effect could overflow
    rows = np.flatnonzero(on.any(axis=1))  # only units with a treated cell need an effect
    effect = np.zeros(on.shape)
    effect[rows] = spec.effect.on_grid([spec.units[i] for i in rows.tolist()], event_time[rows])
    _refuse_non_finite("effect", effect, spec)
    # unit x period grids; each cell gets baseline + cumulative shock, then
    # its effect if treated, then its noise: the per-cell operations of
    # the unit-by-unit construction, in the same order
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan cell is refused below
        outcome = np.array([spec.baselines[u] for u in spec.units], dtype=np.float64)[:, None] + np.array(cum)
        outcome[on] += effect[on]
        if spec.noise_sd > 0:
            outcome += spec.noise_sd * np.random.default_rng(spec.seed).normal(size=outcome.shape)
    _refuse_non_finite("outcome", outcome, spec)
    return PanelDataset(
        spec.units,
        np.repeat(unit, len(spec.periods)),
        np.tile(periods, len(spec.units)),
        outcome.ravel(),
        on.ravel(),
    )


_KINDS = {"an object": (dict,), "an array": (list,), "a string": (str,),
          "an integer": (int,), "a number": (int, float)}  # so an integer is not true or 2.5


def _object(pairs: list):
    """A JSON object's dict, or (key,) for one that gives the key twice: no
    JSON kind is a tuple, so _expect refuses it by name."""
    seen = set()
    repeated = [k for k, _ in pairs if k in seen or seen.add(k)]
    return (repeated[0],) if repeated else dict(pairs)


def _expect(value, kind: str, name: str):
    """value (a float if kind is "a number") when it has the JSON kind
    named, else InvalidSpec naming the field."""
    if type(value) not in _KINDS[kind]:
        if type(value) is tuple:
            raise InvalidSpec(f"{name} gives the key {value[0]!r} twice")
        shown = {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value)
        raise InvalidSpec(f"{name} must be {kind}, got {shown}")
    return float(value) if kind == "a number" else value


def _effect_from_dict(d) -> EffectModel:
    kind = _expect(d, "an object", "effect").get("kind")
    if kind == "constant":
        return EffectModel.constant(_expect(d["delta"], "a number", "effect.delta"))
    if kind == "by_unit":
        per_unit = _expect(d["per_unit"], "an object", "effect.per_unit")
        return EffectModel.by_unit(
            {k: _expect(v, "a number", f"effect.per_unit[{k!r}]") for k, v in per_unit.items()})
    if kind == "event_time":
        intercept = _expect(d.get("intercept", 0.0), "a number", "effect.intercept")
        return EffectModel.event_time(_expect(d["slope"], "a number", "effect.slope"), intercept)
    raise InvalidSpec(f"unknown effect kind {kind!r}")


def spec_from_json(path: str | Path, seed: Optional[int] = None) -> SyntheticSpec:
    """Load a generator spec from a JSON document; seed overrides the file's.
    A value of the wrong JSON type (true or 2.5 for an integer, an array
    for an object), an object that gives a key twice and a shock given
    twice for one period are InvalidSpec naming the field."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_object)
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"invalid JSON: {exc}")
    _expect(doc, "an object", "the spec document")
    try:
        units = tuple(_expect(u, "a string", f"units[{i}]")
                      for i, u in enumerate(_expect(doc["units"], "an array", "units")))
        periods = tuple(_expect(p, "an integer", f"periods[{i}]")
                        for i, p in enumerate(_expect(doc["periods"], "an array", "periods")))
        baselines = {k: _expect(v, "a number", f"baselines[{k!r}]")
                     for k, v in _expect(doc["baselines"], "an object", "baselines").items()}
        shocks = {}
        for k, v in _expect(doc["shocks"], "an object", "shocks").items():
            if int(k) in shocks:  # "2001", "2_001" and " 2001" are one period
                raise InvalidSpec(f"shocks[{k!r}] gives period {int(k)} a second shock")
            shocks[int(k)] = _expect(v, "a number", f"shocks[{k!r}]")
        schedule = AdoptionSchedule({
            k: None if v is None or str(v).lower() == "never"
            else _expect(v, "an integer", f"schedule[{k!r}]")
            for k, v in _expect(doc["schedule"], "an object", "schedule").items()
        })
        effect = _effect_from_dict(doc["effect"])
        noise_sd = _expect(doc.get("noise_sd", 0.0), "a number", "noise_sd")
        file_seed = _expect(doc.get("seed", 0), "an integer", "seed")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed spec document: {exc}")
    return SyntheticSpec(units, periods, baselines, shocks, schedule, effect, noise_sd,
                         seed if seed is not None else file_seed)

