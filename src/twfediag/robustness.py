"""Sample-restriction robustness sweeps: truncating later years, capping
post-treatment horizons, and leave-one-unit-out re-estimation.

The estimation sample is encoded once per sweep; each point is a boolean
mask over its rows, fitted as fit_twfe(dataset.restrict(mask)) would fit
it, with no new dataset."""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

from .errors import InvalidSweep, NoFeasiblePoint, TwfeDiagError
from .lsq import t_critical
from .panel import AdoptionSchedule, PanelDataset
from .twfe import EncodedSample, TwfeFit, fit_sample, negative_treated

DEFAULT_LEVEL = 0.95


@dataclass(frozen=True)
class SweepPoint:
    label: str
    beta: float
    ci_low: float
    ci_high: float
    share_negative_treated: float
    n_obs: int
    n_treated: int


@dataclass(frozen=True)
class RobustnessSweep:
    kind: str  # "end_year" | "post_horizon" | "leave_one_out"
    points: tuple[SweepPoint, ...]
    baseline: SweepPoint
    skipped: tuple[tuple[str, str], ...]  # (label, reason) for infeasible points


def _point(label: str, fit: TwfeFit, level: float) -> SweepPoint:
    """One sweep point; the interval is nan when the fit is exact (se == 0),
    as its p-value is."""
    n_treated, _, share = negative_treated(fit)
    half = t_critical(level, fit.dof) * fit.se if fit.se > 0 else nan
    return SweepPoint(
        label=label,
        beta=fit.beta,
        ci_low=fit.beta - half,
        ci_high=fit.beta + half,
        share_negative_treated=share,
        n_obs=fit.n_obs,
        n_treated=n_treated,
    )


def _run_sweep(
    kind: str, sample: EncodedSample, inference: str, level: float, masks
) -> RobustnessSweep:
    """Fit the whole sample, then each (label, row mask over the sample)."""
    baseline = _point("full_sample", fit_sample(sample, None, inference), level)
    points = []
    skipped = []
    for label, keep in masks:
        try:
            fit = fit_sample(sample, keep, inference)
        except TwfeDiagError as exc:
            skipped.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        points.append(_point(label, fit, level))
    if not points:
        raise NoFeasiblePoint(f"no feasible {kind} sweep point")
    return RobustnessSweep(
        kind=kind, points=tuple(points), baseline=baseline, skipped=tuple(skipped)
    )


def sweep_end_year(
    dataset: PanelDataset,
    first_end: int,
    last_end: int,
    inference: str = "cluster_by_unit",
    level: float = DEFAULT_LEVEL,
) -> RobustnessSweep:
    """Refit on samples truncated at each end period in [first_end, last_end]."""
    if first_end > last_end:
        raise InvalidSweep(f"first end period {first_end} is after last end period {last_end}")
    sample = EncodedSample(dataset)
    masks = ((str(end), sample.period <= end) for end in range(first_end, last_end + 1))
    return _run_sweep("end_year", sample, inference, level, masks)


def sweep_post_horizon(
    dataset: PanelDataset,
    schedule: AdoptionSchedule,
    horizons: list[int],
    inference: str = "cluster_by_unit",
    level: float = DEFAULT_LEVEL,
) -> RobustnessSweep:
    """Refit keeping at most h post-adoption periods per ever-treated unit.

    All pre-treatment periods are retained; never-treated units keep every
    period.
    """
    if not horizons:
        raise ValueError("horizons must be non-empty")
    if any(h < 0 for h in horizons):
        raise ValueError("horizons must be non-negative")
    adopts, start = schedule.by_row(dataset)  # raises UnknownUnit
    sample = EncodedSample(dataset)
    adopts, start = adopts[dataset.observed], start[dataset.observed]
    masks = ((str(h), ~adopts | (sample.period - start <= h)) for h in horizons)
    return _run_sweep("post_horizon", sample, inference, level, masks)


def leave_one_unit_out(
    dataset: PanelDataset,
    inference: str = "cluster_by_unit",
    level: float = DEFAULT_LEVEL,
) -> RobustnessSweep:
    """Refit dropping one unit at a time; points ordered by the dropped
    unit's adoption period (never-treated last), then unit name."""
    if len(dataset.units) < 3:
        raise InvalidSweep(f"leave-one-out needs at least 3 units, got {len(dataset.units)}")
    first = dataset.first_treated_periods()
    order = sorted(dataset.units, key=lambda u: (first[u] is None, first[u] or 0, u))
    code = {unit: i for i, unit in enumerate(dataset.units)}
    sample = EncodedSample(dataset)
    masks = ((unit, sample.unit != code[unit]) for unit in order)
    return _run_sweep("leave_one_out", sample, inference, level, masks)
