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
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DuplicateKey, MissingColumn, NonFiniteOutcome, ParseError, UnknownUnit


@dataclass(frozen=True)
class Observation:
    """One row as a value: PanelDataset.observations shows a panel row by row."""

    unit: str
    period: int
    outcome: Optional[float]  # None = missing
    treated: int  # 0 or 1, checked when a PanelDataset is built


def renumber(codes: np.ndarray, labels: Sequence) -> tuple[tuple, np.ndarray]:
    """(used, renumbered): the labels that codes use, in labels' order, and
    codes renumbered to positions among them: a subsample's keys."""
    present = np.bincount(codes, minlength=len(labels)) > 0
    return tuple(labels[i] for i in np.flatnonzero(present).tolist()), (np.cumsum(present) - 1)[codes]


def coded(labels: list) -> tuple[tuple, np.ndarray]:
    """The distinct labels in order of first appearance, and int32 codes
    of `labels` into them: a label column of write_csv."""
    code = dict.fromkeys(labels)
    code = dict(zip(code, range(len(code))))
    return tuple(code), np.fromiter(map(code.__getitem__, labels), np.int32, len(labels))


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Immutable long-format panel as columns, one entry per row in file order.

    units: the unit labels, each with at least one row, including units
      whose outcomes are all missing; `unit` holds int32 codes into it.
      Loading and encode number them by first appearance, and restrict
      keeps its dataset's order.
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
            raw = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # a cast of nan; refused below
                column = raw.astype(dtype, copy=False)
            if dtype is not np.float64 and not np.can_cast(raw.dtype, dtype):
                changed = np.flatnonzero(column != raw)
                if changed.size:
                    raise ValueError(f"{name} value {raw.flat[changed[0]]} is not an {np.dtype(dtype)}")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "units", tuple(self.units))
        n = len(self.unit)
        if any(c.shape != (n,) for c in (self.unit, self.period, self.outcome, self.treated)):
            raise ValueError("panel columns must be 1-dimensional and of equal length")
        if not ((self.treated == 0) | (self.treated == 1)).all():
            raise ValueError("treated must be 0 or 1")
        if len(set(self.units)) != len(self.units):
            raise ValueError("unit labels must be distinct")
        if n and not 0 <= self.unit.min() <= self.unit.max() < len(self.units):
            raise ValueError("unit codes must index the unit labels")
        if not np.bincount(self.unit, minlength=len(self.units)).all():
            raise ValueError("every unit label must have a row")
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
        units, unit = coded(list(labels))
        return cls(units, unit, period, outcome, treated)

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
    def _period_code(self) -> np.ndarray:
        """Each row's index into periods."""
        return np.searchsorted(np.array(self.periods, dtype=np.int64), self.period)

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

    def _row_mask(self, keep) -> np.ndarray:
        """keep as an array; ValueError unless it is a boolean mask with one
        entry per row."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != self.period.shape:
            raise ValueError("a row mask is a boolean array with one entry per row")
        return keep

    def restrict(self, keep: np.ndarray) -> "PanelDataset":
        """New dataset of the rows where the boolean row mask `keep` is true,
        in the same order; units left without rows are dropped, and the rest
        keep their order."""
        keep = self._row_mask(keep)
        return PanelDataset(*renumber(self.unit[keep], self.units), self.period[keep],
                            self.outcome[keep], self.treated[keep])


@dataclass(frozen=True)
class AdoptionSchedule:
    """Mapping unit -> adoption period; None marks a never-treated unit."""

    entries: dict[str, Optional[int]]

    def by_unit(self, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(adopts, start) per label: whether the unit ever adopts, and its
        adoption period (0 if never). UnknownUnit names the first label
        that has no entry."""
        for u in labels:
            if u not in self.entries:
                raise UnknownUnit(u)
        adoption = [self.entries[u] for u in labels]
        adopts = np.array([a is not None for a in adoption], dtype=bool)
        start = np.array([0 if a is None else a for a in adoption], dtype=np.int64)
        return adopts, start

    def timing(self, labels: Sequence[str], codes: np.ndarray,
               period: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(treated, event_time) of the cells of unit labels[codes] in int64
        period, codes and period broadcast together: whether each cell is at
        or after its unit's adoption period, and period less adoption period
        in uint64, exact on every treated cell. The one rule of who is
        treated when; UnknownUnit as by_unit."""
        adopts, start = (a[codes] for a in self.by_unit(labels))
        return adopts & (period >= start), period.view(np.uint64) - start.view(np.uint64)

    def ordered(self, labels: Sequence[str]) -> np.ndarray:
        """The positions of labels by adoption period, never-treated last, then by
        label. UnknownUnit names the alphabetically first label with no entry."""
        by_label = np.array(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.intp)
        adopts, start = self.by_unit([labels[i] for i in by_label.tolist()])
        return by_label[np.lexsort((start, ~adopts))]  # stable: ties stay in label order


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
_BLOCK = 1 << 16  # lines write_csv formats and joins at a time, which bounds the text it holds


class _BadCell(ValueError):
    """A cell that does not parse; the message names the bad value. A column
    pass sets index, the position of its first bad cell."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


# One converter per cell kind: the cell's value, or _BadCell.

def _period(cell: Optional[str]) -> int:
    if cell is None:
        raise _BadCell("missing value")
    try:
        value = int(cell)
    except ValueError:
        raise _BadCell(f"not an integer: {cell!r}") from None
    if value not in _INT64:
        raise _BadCell(f"not a 64-bit integer: {cell!r}")
    return value


def _outcome(cell: str) -> float:
    raw = cell.strip()
    if raw == "":
        return math.nan  # missing
    try:
        value = float(raw)
    except ValueError:
        raise _BadCell(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise _BadCell(f"not a finite number: {raw!r}")
    return value


def _treated(cell: str) -> int:
    t = cell.strip()
    if t not in ("0", "1"):
        raise _BadCell(f"treatment must be 0 or 1, got {t!r}")
    return int(t)


# Whole-column passes: the column's values, or _BadCell for its first bad cell.

def _converted(cells: list, convert: Callable, dtype) -> np.ndarray:
    """Each distinct cell converted once, in order of first appearance, so
    the first cell refused is the first bad row's."""
    value = dict.fromkeys(cells)
    for cell in value:
        try:
            value[cell] = convert(cell)
        except _BadCell as exc:
            exc.index = cells.index(cell)
            raise
    return np.fromiter(map(value.__getitem__, cells), dtype, len(cells))


def _unit_column(cells: list) -> tuple[tuple, np.ndarray]:
    units, unit = coded(cells)
    if None in units:
        raise _BadCell("missing value", cells.index(None))
    return units, unit


def _outcome_column(cells: list) -> np.ndarray:
    # most outcome cells are distinct: one builtin float pass, and the
    # converter only to name the first bad cell when that pass fails
    text = list(map(str.strip, cells))
    present = np.fromiter(map(bool, text), bool, len(text))
    outcome = np.full(len(text), math.nan)
    try:
        outcome[present] = list(map(float, filter(None, text)))
        if np.isfinite(outcome[present]).all():
            return outcome
    except ValueError:
        pass
    return _converted(cells, _outcome, np.float64)


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
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            header, *rows = _csv_lines(f)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8-sig", "surrogateescape")
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
    schedule: Optional[AdoptionSchedule] = None,
) -> PanelDataset:
    """Read a long-format panel from a UTF-8 CSV with a header row; a
    leading byte-order mark is skipped, and so are blank lines.

    Empty outcome cells are kept as missing; nan and infinite outcomes are
    rejected. The treatment is the schedule's timing when a schedule is
    given (UnknownUnit for a unit it lacks, before any DuplicateKey), else
    the treatment column, else 0 on every row; a treatment column is
    checked either way. A ParseError names the first bad row, counting
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
    specs = [(unit_col, None, _unit_column),
             (period_col, None, lambda cells: _converted(cells, _period, np.int64)),
             (outcome_col, "", _outcome_column)]
    if treatment_col is not None:
        specs.append((treatment_col, "", lambda cells: _converted(cells, _treated, np.int8)))
    parsed, errors = [], []
    for order, (col, absent, column) in enumerate(specs):
        try:
            parsed.append(column(cells(col, absent)))
        except _BadCell as exc:
            errors.append((exc.index, order, col, str(exc)))
    if errors:  # the first bad row; within it, the first bad column of specs
        index, _, col, message = min(errors)
        raise ParseError(index + 2, col, message)
    (units, unit), period, outcome, *treated = parsed
    if schedule is not None:
        treated, _ = schedule.timing(units, unit, period)
    elif treated:
        treated = treated[0]
    else:
        treated = np.zeros(len(rows), dtype=np.int8)
    return PanelDataset(units, unit, period, outcome, treated)


def _quoted(labels: Iterable) -> list[str]:
    """Each label as csv.writer writes it as one field of a row of two or
    more: quoted only when it must be."""
    rows = []  # writerow makes one write call per row
    csv.writer(SimpleNamespace(write=rows.append)).writerows((label, "") for label in labels)
    return [row[:-3] for row in rows]  # less the empty field's comma and the line end


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a UTF-8 CSV file byte for byte as csv.writer writes the header
    and then one row per entry of the columns (two or more, of equal
    length): minimal quoting, CRLF line ends. Every CSV file the program
    writes goes through here.

    A column is either numbers (an array or a list), each written as its
    repr and a nan as an empty (missing) cell, or a label column (values,
    codes), whose cell in row i is values[codes[i]], quoted as the csv
    module quotes it (see coded).
    """
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    # a label column's text carries its separator; numbers are followed by theirs
    labels = [[q + end for q in _quoted(c[0])] if isinstance(c, tuple) else None
              for c, end in zip(columns, ends)]
    columns = [c[1] if isinstance(c, tuple) else c for c in columns]  # codes or numbers
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(_quoted(header)) + "\r\n")
        for start in range(0, len(columns[0]), _BLOCK):
            slots = []
            for column, text, end in zip(columns, labels, ends):
                block = np.asarray(column[start:start + _BLOCK])
                if text is not None:
                    slots.append([text[c] for c in block.tolist()])
                    continue
                cells = list(map(repr, block.tolist()))
                for row in np.flatnonzero(np.isnan(block)).tolist():
                    cells[row] = ""
                slots += [cells, [end] * len(cells)]
            pieces = [""] * (len(slots) * len(slots[0]))  # the block's pieces, joined once
            for k, slot in enumerate(slots):
                pieces[k::len(slots)] = slot
            f.write("".join(pieces))


def write_panel_csv(dataset: PanelDataset, path: str | Path) -> None:
    """Write a dataset in the standard long CSV format (full float precision)
    under the header unit,period,outcome,treated."""
    write_csv(path, ("unit", "period", "outcome", "treated"), (
        (dataset.units, dataset.unit), (dataset.periods, dataset._period_code),
        dataset.outcome, ((0, 1), dataset.treated),
    ))


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


def schedule_from_data(dataset: PanelDataset) -> AdoptionSchedule:
    """Derive an adoption schedule from the observed treatment indicators:
    each unit's earliest period with treated=1, or None if never treated,
    with entries in the order of dataset.units."""
    entries: dict[str, Optional[int]] = dict.fromkeys(dataset.units)
    rows = dataset._row_order[dataset.treated[dataset._row_order] == 1]
    codes, first = np.unique(dataset.unit[rows], return_index=True)
    for code, period in zip(codes.tolist(), dataset.period[rows[first]].tolist()):
        entries[dataset.units[code]] = period
    return AdoptionSchedule(entries)


def validate(dataset: PanelDataset) -> ValidationReport:
    """Structural checks: absorbing treatment, minimum size, balance,
    and the grouping of units by adoption period."""
    violations: list[tuple[str, str, Optional[int], str]] = []
    schedule = schedule_from_data(dataset)
    ever, _ = schedule.timing(dataset.units, dataset.unit, dataset.period)
    order = dataset._row_order
    off = order[(ever & (dataset.treated == 0))[order]]  # by (unit, period)
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
    for unit_label, adoption in schedule.entries.items():
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
