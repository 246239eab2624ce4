"""Panel data model: long-format unit-by-period rows with an absorbing
binary treatment, held as encoded columns; CSV reading, CSV writing and
structural validation as whole-column passes."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DuplicateKey, MissingColumn, NonFiniteOutcome, ParseError, UnknownUnit


@dataclass(frozen=True)
class Observation:
    """One row as a value: builds small panels (PanelDataset.from_observations)
    and shows them row by row (PanelDataset.observations)."""

    unit: str
    period: int
    outcome: Optional[float]  # None = missing
    treated: int

    def __post_init__(self):
        if self.treated not in (0, 1):
            raise ValueError(f"treated must be 0 or 1, got {self.treated!r}")


def first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, renumbered): the distinct codes in order of first appearance,
    and `codes` renumbered to positions in that order."""
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)]
    renumber = np.zeros(int(present[-1]) + 1 if len(present) else 0, dtype=np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    return order, renumber[codes]


def _coded(labels: list) -> tuple[tuple, np.ndarray]:
    """The distinct labels in order of first appearance, and int32 codes
    of `labels` into them."""
    code = dict.fromkeys(labels)
    code = dict(zip(code, range(len(code))))
    return tuple(code), np.fromiter(map(code.__getitem__, labels), np.int32, len(labels))


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Immutable long-format panel as columns, one entry per row in file order.

    units: labels in order of first appearance in the rows, including units
      whose outcomes are all missing; `unit` holds int32 codes into it.
    period: int64. outcome: float64, NaN where missing. treated: int8, 0/1.

    Rows with a missing outcome stay in the dataset but are excluded from
    every estimation sample (listwise deletion). Outcomes are otherwise
    finite, and no (unit, period) key repeats.
    """

    units: tuple[str, ...]
    unit: np.ndarray
    period: np.ndarray
    outcome: np.ndarray
    treated: np.ndarray

    def __post_init__(self):
        for name, dtype in (("unit", np.int32), ("period", np.int64),
                            ("outcome", np.float64), ("treated", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "units", tuple(self.units))
        n = len(self.unit)
        if any(c.shape != (n,) for c in (self.unit, self.period, self.outcome, self.treated)):
            raise ValueError("panel columns must be 1-dimensional and of equal length")
        if not ((self.treated == 0) | (self.treated == 1)).all():
            raise ValueError("treated must be 0 or 1")
        if len(set(self.units)) != len(self.units):
            raise ValueError("unit labels must be distinct")
        # codes number the labels by first appearance iff the running maximum
        # starts at 0, grows by at most 1 per row and ends at the last label
        if n:
            reach = np.maximum.accumulate(self.unit)
            canonical = (self.unit[0] == 0 and self.unit.min() >= 0
                         and not (np.diff(reach) > 1).any() and reach[-1] == len(self.units) - 1)
        else:
            canonical = not self.units
        if not canonical:
            raise ValueError("unit codes must number the labels in order of first appearance")
        infinite = np.flatnonzero(np.isinf(self.outcome))
        if infinite.size:
            row = infinite[0]
            raise NonFiniteOutcome(
                f"outcome {self.outcome[row]} for unit {self.units[self.unit[row]]!r}, "
                f"period {self.period[row]} is not finite"
            )
        order = self._row_order
        u, p = self.unit[order], self.period[order]
        repeat = (u[1:] == u[:-1]) & (p[1:] == p[:-1])
        if repeat.any():
            # the sort is stable, so each run of equal keys starts at its earliest row
            row = int(order[1:][repeat].min())
            raise DuplicateKey(self.units[self.unit[row]], int(self.period[row]))

    @classmethod
    def encode(cls, labels: Iterable[str], period, outcome, treated) -> "PanelDataset":
        """A panel from one unit label per row, coded by first appearance."""
        units, unit = _coded(list(labels))
        return cls(units, unit, period, outcome, treated)

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]) -> "PanelDataset":
        """A panel from Observation rows, in the given order; a nan or
        infinite outcome raises NonFiniteOutcome (a missing one is None)."""
        rows = tuple(observations)
        for o in rows:
            if o.outcome is not None and not math.isfinite(o.outcome):
                raise NonFiniteOutcome(
                    f"outcome {float(o.outcome)} for unit {o.unit!r}, period {o.period} is not finite"
                )
        return cls.encode(
            [o.unit for o in rows],
            [o.period for o in rows],
            [math.nan if o.outcome is None else o.outcome for o in rows],
            [o.treated for o in rows],
        )

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """The rows as Observation values, built on first access."""
        labels = self.units
        return tuple(
            Observation(labels[u], p, None if math.isnan(y) else y, d)
            for u, p, y, d in zip(self.unit.tolist(), self.period.tolist(),
                                  self.outcome.tolist(), self.treated.tolist())
        )

    @cached_property
    def periods(self) -> tuple[int, ...]:
        """Distinct periods over all rows, ascending."""
        p = np.sort(self.period)  # np.unique would import numpy.ma
        return tuple(np.concatenate((p[:1], p[1:][p[1:] != p[:-1]])).tolist())

    @cached_property
    def observed(self) -> np.ndarray:
        """Row mask of non-missing outcomes: the estimation sample."""
        return ~np.isnan(self.outcome)

    @cached_property
    def _row_order(self) -> np.ndarray:
        """Row indices sorted by (unit code, period), stable."""
        return np.lexsort((self.period, self.unit))

    def __len__(self) -> int:
        return len(self.period)

    def is_balanced(self) -> bool:
        """True when every unit has a non-missing outcome in every period.

        Keys never repeat, so that is one observed row per unit-period cell.
        """
        return int(self.observed.sum()) == len(self.units) * len(self.periods)

    def restrict(self, keep: np.ndarray) -> "PanelDataset":
        """New dataset of the rows where the boolean row mask `keep` is true,
        in the same order; units left without rows are dropped."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != self.period.shape:
            raise ValueError("restrict takes a boolean mask with one entry per row")
        order, unit = first_appearance(self.unit[keep])
        return PanelDataset(
            tuple(self.units[i] for i in order.tolist()),
            unit, self.period[keep], self.outcome[keep], self.treated[keep],
        )

    def first_treated_periods(self) -> dict[str, Optional[int]]:
        """unit -> earliest period with treated=1, or None if never treated."""
        out: dict[str, Optional[int]] = dict.fromkeys(self.units)
        rows = self._row_order[self.treated[self._row_order] == 1]
        codes, first = np.unique(self.unit[rows], return_index=True)
        for code, period in zip(codes.tolist(), self.period[rows[first]].tolist()):
            out[self.units[code]] = period
        return out


@dataclass(frozen=True)
class AdoptionSchedule:
    """Mapping unit -> adoption period; None marks a never-treated unit."""

    entries: dict[str, Optional[int]]

    def adoption(self, unit: str) -> Optional[int]:
        if unit not in self.entries:
            raise UnknownUnit(unit)
        return self.entries[unit]

    def by_row(self, dataset: PanelDataset) -> tuple[np.ndarray, np.ndarray]:
        """(adopts, start) per row of dataset: whether the row's unit ever
        adopts, and its adoption period (0 if never). UnknownUnit names the
        first unit, in row order, that has no entry."""
        adoption = [self.adoption(u) for u in dataset.units]
        adopts = np.array([a is not None for a in adoption], dtype=bool)
        start = np.array([0 if a is None else a for a in adoption], dtype=np.int64)
        return adopts[dataset.unit], start[dataset.unit]


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


_INT64 = range(-2**63, 2**63)


class _BadCell(ValueError):
    """A cell that does not parse; the message names the bad value."""


# Per-cell checks: they name the first bad cell of a column whose whole-column
# pass (the _*_column functions below) failed, and never produce values.

def _check_unit(cell: Optional[str]) -> None:
    if cell is None:
        raise _BadCell("missing value")


def _check_period(cell: Optional[str]) -> None:
    if cell is None:
        raise _BadCell("missing value")
    try:
        value = int(cell)
    except ValueError:
        raise _BadCell(f"not an integer: {cell!r}") from None
    if value not in _INT64:
        raise _BadCell(f"not a 64-bit integer: {cell!r}")


def _check_outcome(cell: str) -> None:
    raw = cell.strip()
    if raw == "":
        return  # missing
    try:
        value = float(raw)
    except ValueError:
        raise _BadCell(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise _BadCell(f"not a finite number: {raw!r}")


def _check_treated(cell: str) -> None:
    t = cell.strip()
    if t not in ("0", "1"):
        raise _BadCell(f"treatment must be 0 or 1, got {t!r}")


# Whole-column passes: the column's values, or None when some cell is bad.
# Each accepts exactly the cells its _check_* function accepts.

def _unit_column(cells: list) -> Optional[tuple[tuple, np.ndarray]]:
    units, unit = _coded(cells)
    return None if None in units else (units, unit)


def _period_column(cells: list) -> Optional[np.ndarray]:
    try:  # a panel has few distinct period cells: convert each one once
        value = {cell: int(cell) for cell in set(cells)}
        np.array(list(value.values()), dtype=np.int64)  # OverflowError outside int64
    except (TypeError, ValueError, OverflowError):
        return None
    return np.fromiter(map(value.__getitem__, cells), np.int64, len(cells))


def _outcome_column(cells: list) -> Optional[np.ndarray]:
    text = list(map(str.strip, cells))
    present = np.fromiter(map(bool, text), bool, len(text))
    outcome = np.full(len(text), math.nan)
    try:
        outcome[present] = list(map(float, filter(None, text)))
    except ValueError:
        return None
    if not np.isfinite(outcome[present]).all():
        return None
    return outcome


def _treated_column(cells: list) -> Optional[np.ndarray]:
    try:
        value = {cell: ("0", "1").index(cell.strip()) for cell in set(cells)}
    except ValueError:
        return None
    return np.fromiter(map(value.__getitem__, cells), np.int8, len(cells))


def _first_bad(cells: list, check: Callable[[Optional[str]], None]) -> tuple[int, str]:
    """(index, message) of the first cell that check refuses."""
    for i, cell in enumerate(cells):
        try:
            check(cell)
        except _BadCell as exc:
            return i, str(exc)
    raise RuntimeError("a column pass refused a column whose cells all parse")


def _csv_lines(text: Iterable[str]) -> list[list[str]]:
    """The cells of text's first line and of each non-blank line after it."""
    reader = csv.reader(text)
    lines = []
    try:
        lines.append(next(reader, []))
        lines.extend(filter(None, reader))  # extend keeps the lines read before an error
    except csv.Error as exc:
        raise ParseError(len(lines) + 1, None, str(exc)) from None
    return lines


def _read_csv(path: str | Path, columns: tuple) -> tuple[dict[str, int], list[list[str]]]:
    """(header position of each name, rows): the cells of the first line of
    a UTF-8 CSV file and of each non-blank line after it, a leading
    byte-order mark skipped. MissingColumn names the first of `columns`
    (None entries ignored) not in the header. A ParseError names the first
    row (the header is row 1) with bytes that are not UTF-8 or a cell longer
    than the csv module's field limit."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as f:
            header, *rows = _csv_lines(f)
    except UnicodeDecodeError:
        text = path.read_bytes().decode("utf-8-sig", "surrogateescape")
        bad = re.search("[\udc80-\udcff]", text).start()
        # the lines before the bad bytes, then a stand-in for them in the last
        lines = _csv_lines(io.StringIO(text[:bad] + "?", newline=""))
        raise ParseError(len(lines), None, "not UTF-8 text") from None
    for col in columns:
        if col is not None and col not in header:
            raise MissingColumn(col)
    return {name: i for i, name in enumerate(header)}, rows  # a repeated name: the last


def load_panel_csv(
    path: str | Path,
    unit_col: str,
    period_col: str,
    outcome_col: str,
    treatment_col: Optional[str] = None,
) -> PanelDataset:
    """Read a long-format panel from a UTF-8 CSV with a header row; a
    leading byte-order mark is skipped, and so are blank lines.

    Empty outcome cells are kept as missing; nan and infinite outcomes are
    rejected. Without a treatment column all rows start untreated, pending
    apply_adoption_schedule. A ParseError names the first bad row, counting
    the header as row 1 and skipping blank lines. Cells a short row lacks
    read as empty; a missing unit or period cell is a ParseError.
    """
    position, rows = _read_csv(path, (unit_col, period_col, outcome_col, treatment_col))
    shortest = min(map(len, rows), default=0)

    def cells(col: str, absent: Optional[str]) -> list:
        i = position[col]
        if i < shortest:
            return [row[i] for row in rows]
        return [row[i] if i < len(row) else absent for row in rows]

    # a short row lacks its unit or period (an error), or its outcome or
    # treatment (read as empty)
    specs = [(unit_col, None, _unit_column, _check_unit),
             (period_col, None, _period_column, _check_period),
             (outcome_col, "", _outcome_column, _check_outcome)]
    if treatment_col is not None:
        specs.append((treatment_col, "", _treated_column, _check_treated))
    parsed, errors = [], []
    for order, (col, absent, column, check) in enumerate(specs):
        column_cells = cells(col, absent)
        values = column(column_cells)
        parsed.append(values)
        if values is None:
            index, message = _first_bad(column_cells, check)
            errors.append((index, order, col, message))
    if errors:  # the first bad row; within it, the first bad column of specs
        index, _, col, message = min(errors)
        raise ParseError(index + 2, col, message)
    (units, unit), period, outcome, *treated = parsed
    return PanelDataset(
        units, unit, period, outcome, treated[0] if treated else np.zeros(len(rows), dtype=np.int8)
    )


def write_panel_csv(
    dataset: PanelDataset,
    path: str | Path,
    unit_col: str = "unit",
    period_col: str = "period",
    outcome_col: str = "outcome",
    treatment_col: str = "treated",
) -> None:
    """Write a dataset in the standard long CSV format (full float precision),
    byte for byte as csv.writer writes it: minimal quoting, CRLF line ends."""
    # each distinct label quoted once by the csv module: as the first of two
    # fields it is written exactly as in a data row, then a comma and the
    # line end (which also decides what is quoted)
    buffer = io.StringIO()
    quoting = csv.writer(buffer)
    unit_text = []
    for label in dataset.units:
        quoting.writerow((label, ""))
        unit_text.append(buffer.getvalue()[:-2])  # keeps the comma
        buffer.seek(0)
        buffer.truncate()
    periods = dataset.period.tolist()
    period_text = {p: f"{p}," for p in set(periods)}
    outcomes = list(map(float.__repr__, dataset.outcome.tolist()))
    for row in np.flatnonzero(np.isnan(dataset.outcome)).tolist():
        outcomes[row] = ""  # missing
    # every line's four pieces, interleaved in one list and joined once
    pieces = [""] * (4 * len(periods))
    pieces[0::4] = [unit_text[u] for u in dataset.unit.tolist()]
    pieces[1::4] = [period_text[p] for p in periods]
    pieces[2::4] = outcomes
    pieces[3::4] = [(",0\r\n", ",1\r\n")[d] for d in dataset.treated.tolist()]
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow([unit_col, period_col, outcome_col, treatment_col])
        f.write("".join(pieces))


def load_schedule_csv(path: str | Path) -> AdoptionSchedule:
    """Read an adoption schedule: columns unit,adoption_period, UTF-8 with
    an optional byte-order mark.

    The token 'never' (case-insensitive) marks a never-treated unit.
    """
    position, rows = _read_csv(path, ("unit", "adoption_period"))
    u, a = position["unit"], position["adoption_period"]
    entries: dict[str, Optional[int]] = {}
    for rownum, row in enumerate(rows, start=2):
        if u >= len(row):
            raise ParseError(rownum, "unit", "missing value")
        unit = row[u]
        if unit in entries:
            raise ParseError(rownum, "unit", f"duplicate schedule entry for {unit!r}")
        raw = row[a].strip() if a < len(row) else ""
        if raw.lower() == "never":
            entries[unit] = None
        else:
            try:
                entries[unit] = int(raw)
            except ValueError:
                raise ParseError(rownum, "adoption_period", f"not an integer or 'never': {raw!r}")
            if entries[unit] not in _INT64:
                raise ParseError(rownum, "adoption_period", f"not a 64-bit integer: {raw!r}")
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
    adopts, start = schedule.by_row(dataset)
    on = dataset.period >= start if include_adoption_period else dataset.period > start
    return PanelDataset(
        dataset.units, dataset.unit, dataset.period, dataset.outcome, (adopts & on).astype(np.int8)
    )


def schedule_from_data(dataset: PanelDataset) -> AdoptionSchedule:
    """Derive an adoption schedule from the observed treatment indicators."""
    return AdoptionSchedule(dict(dataset.first_treated_periods()))


def validate(dataset: PanelDataset) -> ValidationReport:
    """Structural checks: absorbing treatment, minimum size, balance,
    and the grouping of units by adoption period."""
    violations: list[tuple[str, str, Optional[int], str]] = []

    # rows sorted by (unit, period); the running maximum of 2*unit + treated
    # never carries over between units, so minus 2*unit it is the unit's own
    # running maximum of treatment: 1 from its first treated row on
    order = dataset._row_order
    unit, treated = dataset.unit[order].astype(np.int64), dataset.treated[order]
    ever = np.maximum.accumulate(2 * unit + treated) - 2 * unit
    off = order[(ever == 1) & (treated == 0)]
    for code, period in zip(dataset.unit[off].tolist(), dataset.period[off].tolist()):
        label = dataset.units[code]
        violations.append(
            ("NonAbsorbing", label, period,
             f"unit {label!r} switches treatment off at period {period}")
        )

    if len(dataset.units) < 2:
        violations.append(("TooFewUnits", "", None, "dataset has fewer than 2 units"))
    if len(dataset.periods) < 2:
        violations.append(("TooFewPeriods", "", None, "dataset has fewer than 2 periods"))

    groups: dict[Optional[int], list[str]] = {}
    for unit_label, adoption in dataset.first_treated_periods().items():
        groups.setdefault(adoption, []).append(unit_label)
    timing_groups = {a: tuple(groups[a]) for a in sorted(a for a in groups if a is not None)}
    if None in groups:
        timing_groups[None] = tuple(groups[None])

    return ValidationReport(
        is_valid=not violations,
        violations=tuple(violations),
        balance="balanced" if dataset.is_balanced() else "unbalanced",
        timing_groups=timing_groups,
    )
