"""Synthetic staggered-adoption panels: unit baselines plus cumulative
common period shocks plus a configurable treatment effect, with optional
Gaussian noise for power demonstrations.

The noiseless generator is the validation oracle used throughout the test
suite: with a constant effect and no noise, the two-way fixed-effects
coefficient recovers the effect exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidSpec
from .panel import AdoptionSchedule, PanelDataset


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
        if tuple(sorted(self.periods)) != tuple(self.periods):
            raise InvalidSpec("periods must be sorted ascending")
        for u in self.units:
            if u not in self.baselines:
                raise InvalidSpec(f"missing baseline for unit {u!r}")
            if u not in self.schedule.entries:
                raise InvalidSpec(f"missing schedule entry for unit {u!r}")
        for p in self.periods:
            if p not in self.shocks:
                raise InvalidSpec(f"missing period shock for period {p}")
        if self.shocks[self.periods[0]] != 0.0:
            raise InvalidSpec("first-period shock must be zero")
        if self.noise_sd < 0:
            raise InvalidSpec("noise_sd must be non-negative")

    def treated_cells(self) -> list[tuple[str, int, int]]:
        """(unit, period, event_time) for every treated cell."""
        out = []
        for u in self.units:
            adoption = self.schedule.entries[u]
            if adoption is None:
                continue
            for p in self.periods:
                if p >= adoption:
                    out.append((u, p, p - adoption))
        return out


def generate_panel(spec: SyntheticSpec) -> PanelDataset:
    """Materialize the spec as a balanced panel, rows by unit then period;
    deterministic given the seed."""
    cum = []
    total = 0.0
    for p in spec.periods:
        total += spec.shocks[p]
        cum.append(total)
    cum = np.array(cum)
    periods = np.array(spec.periods, dtype=np.int64)
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(size=(len(spec.units), len(spec.periods)))
    outcome = np.empty((len(spec.units), len(spec.periods)))
    treated = np.zeros(outcome.shape, dtype=np.int8)
    for i, u in enumerate(spec.units):
        y = spec.baselines[u] + cum
        adoption = spec.schedule.entries[u]
        if adoption is not None:
            on = periods >= adoption
            if on.any():
                y[on] += spec.effect.effect(u, periods[on] - adoption)
            treated[i] = on
        if spec.noise_sd > 0:
            y += spec.noise_sd * noise[i]
        outcome[i] = y
    return PanelDataset.encode(
        [u for u in spec.units for _ in spec.periods],
        np.tile(periods, len(spec.units)),
        outcome.ravel(),
        treated.ravel(),
    )


def true_effect_summary(spec: SyntheticSpec) -> EffectSummary:
    """Exact min/max/mean of the effect over treated cells."""
    cells = spec.treated_cells()
    if not cells:
        raise InvalidSpec("schedule has no treated cells")
    effects = [spec.effect.effect(u, e) for u, _, e in cells]
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
    except (KeyError, TypeError, ValueError) as exc:
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
