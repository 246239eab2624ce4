"""Panel data model: long-format unit-by-period observations with an
absorbing binary treatment, CSV ingestion, and structural validation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

from .errors import DuplicateKey, MissingColumn, ParseError, UnknownUnit


@dataclass(frozen=True)
class Observation:
    unit: str
    period: int
    outcome: Optional[float]  # None = missing
    treated: int

    def __post_init__(self):
        if self.treated not in (0, 1):
            raise ValueError(f"treated must be 0 or 1, got {self.treated!r}")


@dataclass(frozen=True)
class PanelDataset:
    """Immutable collection of observations.

    Units are ordered by first appearance; periods are sorted ascending.
    Rows with missing outcome stay in the dataset but are excluded from
    every estimation sample (listwise deletion).
    """

    observations: tuple[Observation, ...]

    def __post_init__(self):
        seen = set()
        for obs in self.observations:
            key = (obs.unit, obs.period)
            if key in seen:
                raise DuplicateKey(obs.unit, obs.period)
            seen.add(key)

    @cached_property
    def units(self) -> tuple[str, ...]:
        out, seen = [], set()
        for obs in self.observations:
            if obs.unit not in seen:
                seen.add(obs.unit)
                out.append(obs.unit)
        return tuple(out)

    @cached_property
    def periods(self) -> tuple[int, ...]:
        return tuple(sorted({obs.period for obs in self.observations}))

    @cached_property
    def estimation_sample(self) -> tuple[Observation, ...]:
        """Observations with non-missing outcome, in dataset order."""
        return tuple(o for o in self.observations if o.outcome is not None)

    def __len__(self) -> int:
        return len(self.observations)

    def lookup(self, unit: str, period: int) -> Optional[Observation]:
        return self._index.get((unit, period))

    @cached_property
    def _index(self) -> dict[tuple[str, int], Observation]:
        return {(o.unit, o.period): o for o in self.observations}

    def is_balanced(self) -> bool:
        """True when every unit has a non-missing outcome in every period."""
        sample_keys = {(o.unit, o.period) for o in self.estimation_sample}
        return all((u, p) in sample_keys for u in self.units for p in self.periods)

    def restrict(self, keep: Callable[[Observation], bool]) -> "PanelDataset":
        """New dataset containing the observations for which keep() is true."""
        return PanelDataset(tuple(o for o in self.observations if keep(o)))

    def first_treated_periods(self) -> dict[str, Optional[int]]:
        """unit -> earliest period with treated=1, or None if never treated."""
        out: dict[str, Optional[int]] = {u: None for u in self.units}
        for obs in self.observations:
            if obs.treated == 1:
                cur = out[obs.unit]
                if cur is None or obs.period < cur:
                    out[obs.unit] = obs.period
        return out


@dataclass(frozen=True)
class AdoptionSchedule:
    """Mapping unit -> adoption period; None marks a never-treated unit."""

    entries: dict[str, Optional[int]]

    def adoption(self, unit: str) -> Optional[int]:
        if unit not in self.entries:
            raise UnknownUnit(unit)
        return self.entries[unit]


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    violations: tuple[tuple[str, str, Optional[int], str], ...]  # (code, unit, period, message)
    balance: str  # "balanced" | "unbalanced"
    timing_groups: dict[Optional[int], tuple[str, ...]]

    def to_dict(self) -> dict:
        return {
            "is_valid": self.is_valid,
            "violations": [
                {"code": c, "unit": u, "period": p, "message": m}
                for c, u, p, m in self.violations
            ],
            "balance": self.balance,
            "timing_groups": {
                ("never" if k is None else str(k)): list(v)
                for k, v in self.timing_groups.items()
            },
        }


def load_panel_csv(
    path: str | Path,
    unit_col: str,
    period_col: str,
    outcome_col: str,
    treatment_col: Optional[str] = None,
) -> PanelDataset:
    """Read a long-format panel from a UTF-8 CSV with a header row; a
    leading byte-order mark is skipped.

    Empty outcome cells are kept as missing; nan and infinite outcomes are
    rejected. Without a treatment column all rows start untreated, pending
    apply_adoption_schedule.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        needed = [unit_col, period_col, outcome_col]
        if treatment_col is not None:
            needed.append(treatment_col)
        for col in needed:
            if col not in header:
                raise MissingColumn(col)

        observations = []
        for rownum, row in enumerate(reader, start=2):  # 1-based incl. header
            unit = row[unit_col]
            try:
                period = int(row[period_col])
            except (TypeError, ValueError):
                raise ParseError(rownum, period_col, f"not an integer: {row[period_col]!r}")
            raw = (row[outcome_col] or "").strip()
            if raw == "":
                outcome = None
            else:
                try:
                    outcome = float(raw)
                except ValueError:
                    raise ParseError(rownum, outcome_col, f"not a number: {raw!r}")
                if not math.isfinite(outcome):
                    raise ParseError(rownum, outcome_col, f"not a finite number: {raw!r}")
            if treatment_col is None:
                treated = 0
            else:
                t = (row[treatment_col] or "").strip()
                if t not in ("0", "1"):
                    raise ParseError(rownum, treatment_col, f"treatment must be 0 or 1, got {t!r}")
                treated = int(t)
            observations.append(Observation(unit, period, outcome, treated))
    return PanelDataset(tuple(observations))


def write_panel_csv(
    dataset: PanelDataset,
    path: str | Path,
    unit_col: str = "unit",
    period_col: str = "period",
    outcome_col: str = "outcome",
    treatment_col: str = "treated",
) -> None:
    """Write a dataset in the standard long CSV format (full float precision)."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([unit_col, period_col, outcome_col, treatment_col])
        for o in dataset.observations:
            out = "" if o.outcome is None else repr(float(o.outcome))
            writer.writerow([o.unit, o.period, out, o.treated])


def load_schedule_csv(path: str | Path) -> AdoptionSchedule:
    """Read an adoption schedule: columns unit,adoption_period, UTF-8 with
    an optional byte-order mark.

    The token 'never' (case-insensitive) marks a never-treated unit.
    """
    path = Path(path)
    entries: dict[str, Optional[int]] = {}
    with path.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        for col in ("unit", "adoption_period"):
            if col not in header:
                raise MissingColumn(col)
        for rownum, row in enumerate(reader, start=2):
            unit = row["unit"]
            if unit in entries:
                raise ParseError(rownum, "unit", f"duplicate schedule entry for {unit!r}")
            raw = (row["adoption_period"] or "").strip()
            if raw.lower() == "never":
                entries[unit] = None
            else:
                try:
                    entries[unit] = int(raw)
                except ValueError:
                    raise ParseError(rownum, "adoption_period", f"not an integer or 'never': {raw!r}")
    return AdoptionSchedule(entries)


def apply_adoption_schedule(
    dataset: PanelDataset,
    schedule: AdoptionSchedule,
    include_adoption_period: bool = True,
) -> PanelDataset:
    """Recode treatment from an adoption schedule.

    With include_adoption_period (the default) a unit counts as treated from
    its adoption period onward; otherwise from the following period.
    Idempotent: reapplying the same schedule changes nothing.
    """
    out = []
    for obs in dataset.observations:
        adoption = schedule.adoption(obs.unit)
        if adoption is None:
            treated = 0
        elif include_adoption_period:
            treated = int(obs.period >= adoption)
        else:
            treated = int(obs.period > adoption)
        out.append(Observation(obs.unit, obs.period, obs.outcome, treated))
    return PanelDataset(tuple(out))


def schedule_from_data(dataset: PanelDataset) -> AdoptionSchedule:
    """Derive an adoption schedule from the observed treatment indicators."""
    return AdoptionSchedule(dict(dataset.first_treated_periods()))


def validate(dataset: PanelDataset) -> ValidationReport:
    """Structural checks: absorbing treatment, minimum size, balance,
    and the grouping of units by adoption period."""
    violations: list[tuple[str, str, Optional[int], str]] = []

    for unit in dataset.units:
        rows = sorted(
            (o for o in dataset.observations if o.unit == unit),
            key=lambda o: o.period,
        )
        on = False
        for o in rows:
            if on and o.treated == 0:
                violations.append(
                    ("NonAbsorbing", unit, o.period,
                     f"unit {unit!r} switches treatment off at period {o.period}")
                )
            on = on or o.treated == 1

    if len(dataset.units) < 2:
        violations.append(("TooFewUnits", "", None, "dataset has fewer than 2 units"))
    if len(dataset.periods) < 2:
        violations.append(("TooFewPeriods", "", None, "dataset has fewer than 2 periods"))

    first_treated = dataset.first_treated_periods()
    timing_groups: dict[Optional[int], tuple[str, ...]] = {}
    for adoption in sorted({v for v in first_treated.values() if v is not None}):
        timing_groups[adoption] = tuple(
            u for u in dataset.units if first_treated[u] == adoption
        )
    never = tuple(u for u in dataset.units if first_treated[u] is None)
    if never:
        timing_groups[None] = never

    return ValidationReport(
        is_valid=not violations,
        violations=tuple(violations),
        balance="balanced" if dataset.is_balanced() else "unbalanced",
        timing_groups=timing_groups,
    )
