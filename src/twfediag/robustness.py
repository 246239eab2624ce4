"""Sample-restriction robustness sweeps: truncating later years, capping
post-treatment horizons, and leave-one-unit-out re-estimation.

Each point is a boolean mask over the dataset's rows, fitted by
fit_twfe(dataset, inference, mask) as fit_twfe(dataset.restrict(mask))
would fit it, with no new dataset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSweep, NoFeasiblePoint, TwfeDiagError
from .lsq import t_interval
from .panel import AdoptionSchedule, PanelDataset
from .twfe import TwfeFit, fit_twfe, negative_treated

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
    points: tuple[SweepPoint, ...]
    skipped: tuple[tuple[str, str], ...]  # (label, reason) for infeasible points


def _point(label: str, fit: TwfeFit, level: float) -> SweepPoint:
    _, share = negative_treated(fit)
    ci_low, ci_high = t_interval(fit.beta, fit.se, fit.dof, level)
    return SweepPoint(
        label=label,
        beta=fit.beta,
        ci_low=ci_low,
        ci_high=ci_high,
        share_negative_treated=share,
        n_obs=fit.n_obs,
        n_treated=fit.n_treated,
    )


def _run_sweep(kind: str, dataset: PanelDataset, inference: str, level: float,
               masks) -> RobustnessSweep:
    """Fit each (label, row mask over the dataset)."""
    points = []
    skipped = []
    for label, keep in masks:
        try:
            fit = fit_twfe(dataset, inference, keep)
        except TwfeDiagError as exc:
            skipped.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        points.append(_point(label, fit, level))
    if not points:
        fit_twfe(dataset, inference)  # a panel that cannot be fit at all raises its own error
        raise NoFeasiblePoint(f"no feasible {kind} sweep point")
    return RobustnessSweep(points=tuple(points), skipped=tuple(skipped))


def sweep_end_year(
    dataset: PanelDataset,
    first_end: int,
    last_end: int,
    inference: str = "cluster_by_unit",
    level: float = DEFAULT_LEVEL,
) -> RobustnessSweep:
    """Refit on samples truncated at each of the panel's periods in
    [first_end, last_end]."""
    ends = [end for end in dataset.periods if first_end <= end <= last_end]
    if not ends:
        raise InvalidSweep(f"the panel has no period from {first_end} to {last_end}")
    masks = ((str(end), dataset.period <= end) for end in ends)
    return _run_sweep("end_year", dataset, inference, level, masks)


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
    # raises UnknownUnit; event_time is exact where treated
    treated, event_time = schedule.timing(dataset.units, dataset.unit, dataset.period)
    masks = ((str(h), ~treated | (event_time <= h)) for h in horizons)
    return _run_sweep("post_horizon", dataset, inference, level, masks)


def leave_one_unit_out(
    dataset: PanelDataset,
    schedule: AdoptionSchedule,
    inference: str = "cluster_by_unit",
    level: float = DEFAULT_LEVEL,
) -> RobustnessSweep:
    """Refit dropping, one at a time, each unit with an observed outcome;
    points ordered by the dropped unit's adoption period in schedule
    (never-treated last), then unit name."""
    codes = np.flatnonzero(np.bincount(dataset.unit[dataset.observed], minlength=len(dataset.units)))
    if len(codes) < 3:
        raise InvalidSweep(f"leave-one-out needs at least 3 units, got {len(codes)}")
    codes = codes[schedule.ordered([dataset.units[c] for c in codes.tolist()])]  # raises UnknownUnit
    masks = ((dataset.units[c], dataset.unit != c) for c in codes.tolist())
    return _run_sweep("leave_one_out", dataset, inference, level, masks)
