import importlib.resources
import json
from pathlib import Path

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    EffectModel,
    Observation,
    PanelDataset,
    SyntheticSpec,
    apply_adoption_schedule,
    fit_twfe,
    generate_panel,
    load_panel_csv,
    load_schedule_csv,
)
from twfediag.errors import TwfeDiagError

from oracles import from_observations

REPLICATION_CSV = Path(__file__).resolve().parent.parent / "data" / "replication" / "enrollment.csv"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_panel(rows) -> PanelDataset:
    """rows: iterable of (unit, period, outcome, treated)."""
    return from_observations(Observation(u, p, y, d) for u, p, y, d in rows)


def canonical_2x2() -> PanelDataset:
    return make_panel([
        ("A", 1, 0.0, 0), ("A", 2, 0.0, 0),
        ("B", 1, 0.0, 0), ("B", 2, 5.0, 1),
    ])


def random_spec(rng: np.random.Generator, effect=None, noise_sd=0.0) -> SyntheticSpec:
    """Random staggered-adoption spec with at least two distinct adoption
    patterns, so treatment is never spanned by the fixed effects."""
    while True:
        n_units = int(rng.integers(3, 8))
        n_periods = int(rng.integers(5, 11))
        units = tuple(f"u{i}" for i in range(n_units))
        periods = tuple(range(1, n_periods + 1))
        entries = {}
        for u in units:
            if rng.random() < 0.2:
                entries[u] = None
            else:
                entries[u] = int(rng.integers(2, n_periods + 1))
        distinct = {v for v in entries.values()}
        if len(distinct) < 2:
            continue
        schedule = AdoptionSchedule(entries)
        baselines = {u: float(rng.normal(0, 10)) for u in units}
        shocks = {p: (0.0 if p == periods[0] else float(rng.normal(0, 2))) for p in periods}
        return SyntheticSpec(
            units=units,
            periods=periods,
            baselines=baselines,
            shocks=shocks,
            schedule=schedule,
            effect=effect if effect is not None else EffectModel.constant(float(rng.normal(0, 5))),
            noise_sd=noise_sd,
            seed=int(rng.integers(0, 2**63 - 1)),
        )


def write_spec(spec: SyntheticSpec, path) -> None:
    """Write a spec as the JSON document that spec_from_json reads: its
    fields by name, shocks keyed by the period's decimal string, a
    never-treated unit's adoption as "never" and the effect as an object
    holding its kind's fields."""
    effect = spec.effect
    fields = {"constant": {"delta": effect.delta}, "by_unit": {"per_unit": dict(effect.per_unit)},
              "event_time": {"slope": effect.slope, "intercept": effect.intercept}}[effect.kind]
    doc = {
        "units": list(spec.units),
        "periods": list(spec.periods),
        "baselines": dict(spec.baselines),
        "shocks": {str(k): v for k, v in spec.shocks.items()},
        "schedule": {k: "never" if v is None else v for k, v in spec.schedule.entries.items()},
        "effect": {"kind": effect.kind, **fields},
        "noise_sd": spec.noise_sd,
        "seed": spec.seed,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def with_missing(dataset: PanelDataset, rng: np.random.Generator, frac=0.15) -> PanelDataset:
    obs = []
    for o in dataset.observations:
        if rng.random() < frac:
            obs.append(Observation(o.unit, o.period, None, o.treated))
        else:
            obs.append(o)
    return from_observations(obs)


def random_panel(rng: np.random.Generator, missing=False, effect=None, noise_sd=0.0):
    """(spec, dataset) pair guaranteed feasible for a TWFE fit."""
    while True:
        spec = random_spec(rng, effect=effect, noise_sd=noise_sd)
        dataset = generate_panel(spec)
        if missing and rng.random() < 0.7:
            dataset = with_missing(dataset, rng)
        try:  # rejects a one-group sample and a collinear treatment
            d_resid = fit_twfe(dataset).residualized_treatment
        except TwfeDiagError:
            continue
        treated = dataset.treated[dataset.observed].astype(bool)
        # keep the homogeneity regression identified: residual-treatment
        # variation within both groups
        scale = np.abs(d_resid).max()
        if min(treated.sum(), (~treated).sum()) < 2:
            continue
        if min(np.std(d_resid[treated]), np.std(d_resid[~treated])) <= 1e-8 * scale:
            continue
        return spec, dataset


def sample_keys(fit) -> list:
    """(unit label, period) of each estimation-sample row of a fit, built
    from its unit and period codes."""
    return list(zip([fit.units[c] for c in fit.unit.tolist()],
                    [fit.periods[c] for c in fit.period.tolist()]))


def bundled_schedule() -> AdoptionSchedule:
    ref = importlib.resources.files("twfediag") / "data" / "fpe_adoption_years.csv"
    with importlib.resources.as_file(ref) as path:
        return load_schedule_csv(path)


def _load_replication(outcome_col: str) -> PanelDataset:
    dataset = load_panel_csv(REPLICATION_CSV, "country", "year", outcome_col)
    return apply_adoption_schedule(dataset, bundled_schedule())


@pytest.fixture(scope="session")
def replication_primary() -> PanelDataset:
    if not REPLICATION_CSV.exists():
        pytest.skip(f"replication snapshot not found at {REPLICATION_CSV}; see README")
    return _load_replication("primary")


@pytest.fixture(scope="session")
def replication_secondary() -> PanelDataset:
    if not REPLICATION_CSV.exists():
        pytest.skip(f"replication snapshot not found at {REPLICATION_CSV}; see README")
    return _load_replication("secondary")
