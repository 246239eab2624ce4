"""Independent checks of the program's outputs.

None of this calls twfediag. Coefficients come from a dummy-variable OLS
solved through explicitly formed normal equations; simulated panels are
re-derived from their spec; validation reports are predicted from the
generator's own schedule. Each ``check_*`` returns ``None`` when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from inputs import Panel

BETA_RTOL = 1e-8  # |beta - oracle| <= BETA_RTOL * max(1, |oracle|)


def dummy_ols_beta(unit: np.ndarray, period: np.ndarray, y: np.ndarray, d: np.ndarray) -> float:
    """Treatment coefficient of y on an intercept, unit dummies, period
    dummies and d, from the normal equations (X'X) b = X'y."""
    units = np.unique(unit)
    periods = np.unique(period)
    X = np.column_stack([
        np.ones(len(y)),
        unit[:, None] == units[None, 1:],
        period[:, None] == periods[None, 1:],
        d,
    ]).astype(float)
    return float(np.linalg.solve(X.T @ X, X.T @ y)[-1])


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= BETA_RTOL * max(1.0, abs(expected))


class PanelOracle:
    """Expected fits for the full sample and for each sweep subsample of
    one generated panel, computed once and cached."""

    def __init__(self, panel: Panel):
        self.panel = panel
        self.observed = ~np.isnan(panel.outcome)
        self._cache: dict[tuple[str, str], Optional[tuple[float, int, int]]] = {}

    def fit(self, key: tuple[str, str], keep: np.ndarray) -> Optional[tuple[float, int, int]]:
        """(beta, n_obs, n_treated) on the rows kept with an observed outcome,
        or None when the sample cannot identify a treatment effect (fewer
        than 2 units or periods, or all rows treated or untreated)."""
        if key not in self._cache:
            p = self.panel
            rows = keep & self.observed
            d = p.treated[rows].astype(float)
            n, n_treated = int(rows.sum()), int(d.sum())
            if (len(np.unique(p.unit[rows])) < 2 or len(np.unique(p.period[rows])) < 2
                    or n_treated in (0, n)):
                self._cache[key] = None
            else:
                beta = dummy_ols_beta(p.unit[rows], p.period[rows], p.outcome[rows], d)
                self._cache[key] = (beta, n, n_treated)
        return self._cache[key]

    def full(self) -> tuple[float, int, int]:
        return self.fit(("full", ""), np.ones(len(self.panel.outcome), dtype=bool))

    def sweep(self, kind: str) -> dict[str, Optional[tuple[float, int, int]]]:
        """label -> expected point for every subsample the sweep tries."""
        p = self.panel
        if kind == "endyear":
            subsets = ((str(end), p.period <= end) for end in p.periods)
        elif kind == "jackknife":
            subsets = ((u, p.unit != i) for i, u in enumerate(p.units))
        elif kind.startswith("horizon:"):
            first = p.first_treated()
            cap = np.array([np.inf if first[u] is None else first[u] for u in p.units])[p.unit]
            subsets = ((h, p.period <= cap + int(h)) for h in kind[8:].split(","))
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
        return {label: self.fit((kind, label), keep) for label, keep in subsets}


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _first_error(errors: Iterable[Optional[str]]) -> Optional[str]:
    return next((e for e in errors if e), None)


def check_point(label: str, beta: float, n_obs: int, n_treated: int,
                expected: Optional[tuple[float, int, int]]) -> Optional[str]:
    if expected is None:
        return f"{label}: reported, but the oracle finds the sample infeasible"
    want_beta, want_n, want_treated = expected
    if (n_obs, n_treated) != (want_n, want_treated):
        return f"{label}: n_obs/n_treated {n_obs}/{n_treated}, oracle {want_n}/{want_treated}"
    if not close(beta, want_beta):
        return f"{label}: beta {beta!r}, oracle {want_beta!r}"
    return None


def check_estimate(oracle: PanelOracle, path: Path) -> Optional[str]:
    fit = json.loads(path.read_text(encoding="utf-8"))["fit"]
    return check_point("estimate", fit["beta"], fit["n_obs"], fit["n_treated"], oracle.full())


def check_sweep(oracle: PanelOracle, kind: str, path: Path) -> Optional[str]:
    """Every row matches the oracle, and exactly the feasible subsamples
    are reported."""
    expected = oracle.sweep(kind)
    rows = _read_rows(path)
    got = [row["label"] for row in rows]
    want = [label for label, point in expected.items() if point is not None]
    if sorted(got) != sorted(want):
        return f"{kind}: points {sorted(got)}, oracle expects {sorted(want)}"
    return _first_error(
        check_point(r["label"], float(r["beta"]), int(r["n_obs"]), int(r["n_treated"]),
                    expected[r["label"]])
        for r in rows
    )


def check_weights(oracle: PanelOracle, hist: Path, grid: Path) -> Optional[str]:
    """Histogram counts add up to the sample; the grid's weights reproduce
    beta as sum(w * y) and are present exactly on observed cells."""
    beta, n_obs, n_treated = oracle.full()
    bins = _read_rows(hist)
    treated = sum(int(b["treated_count"]) for b in bins)
    control = sum(int(b["control_count"]) for b in bins)
    if (treated, control) != (n_treated, n_obs - n_treated):
        return f"histogram counts {treated}/{control}, expected {n_treated}/{n_obs - n_treated}"
    p = oracle.panel
    index = {u: i for i, u in enumerate(p.units)}
    periods = np.array(p.periods)
    cells = _read_rows(grid)
    if len(cells) != len(p.units) * len(p.periods):
        return f"grid has {len(cells)} cells, expected {len(p.units) * len(p.periods)}"
    total = 0.0
    for c in cells:
        row = index[c["unit"]] * len(periods) + int(np.searchsorted(periods, int(c["period"])))
        if (c["status"] == "missing") == bool(oracle.observed[row]):
            return f"grid cell {c['unit']},{c['period']} status {c['status']!r} disagrees with the data"
        if c["weight"]:
            total += float(c["weight"]) * p.outcome[row]
    if not close(total, beta):
        return f"sum(weight * outcome) {total!r}, oracle beta {beta!r}"
    return None


def check_scatter(oracle: PanelOracle, prefix: Path) -> Optional[str]:
    """Points are the residualized treatment in sample order, so
    sum(x * y) / sum(x * x) over the observed outcomes is beta."""
    beta, n_obs, _ = oracle.full()
    points = _read_rows(prefix.with_name(prefix.name + "_points.csv"))
    if len(points) != n_obs:
        return f"scatter has {len(points)} points, expected {n_obs}"
    x = np.array([float(r["resid_treatment"]) for r in points])
    y = oracle.panel.outcome[oracle.observed]
    slope = float(x @ y / (x @ x))
    if not close(slope, beta):
        return f"scatter slope {slope!r}, oracle beta {beta!r}"
    lines = _read_rows(prefix.with_name(prefix.name + "_lines.csv"))
    if [r["group"] for r in lines] != ["control", "treated"]:
        return "scatter lines file lacks the control and treated rows"
    return None


def expected_validation(panel: Panel) -> dict:
    """The report twfediag validate should give for a generated panel:
    valid, unbalanced iff a cell is missing, and units grouped by adoption
    period in file order, never-treated last."""
    first = panel.first_treated()
    groups: dict[str, list[str]] = {}
    for start in sorted({a for a in first.values() if a is not None}):
        groups[str(start)] = [u for u in panel.units if first[u] == start]
    never = [u for u in panel.units if first[u] is None]
    if never:
        groups["never"] = never
    return {
        "is_valid": True,
        "violations": [],
        "balance": "unbalanced" if np.isnan(panel.outcome).any() else "balanced",
        "timing_groups": groups,
    }


def check_validate(panel: Panel, path: Path) -> Optional[str]:
    got = json.loads(path.read_text(encoding="utf-8"))
    want = expected_validation(panel)
    for key in want:
        if got.get(key) != want[key]:
            return f"validate {key} {str(got.get(key))[:80]}, expected {str(want[key])[:80]}"
    return None


def simulated_rows(spec: dict, seed: int) -> list[tuple[str, int, float, int]]:
    """Re-derive the simulate output: baseline plus cumulative shocks plus
    the event-time effect on treated cells plus noise_sd times
    default_rng(seed).normal, added in that order."""
    units, periods = spec["units"], spec["periods"]
    cumulative, total = [], 0.0
    for p in periods:
        total += spec["shocks"][str(p)]
        cumulative.append(total)
    noise = np.random.default_rng(seed).normal(size=(len(units), len(periods)))
    effect, sd = spec["effect"], spec["noise_sd"]
    rows = []
    for i, u in enumerate(units):
        start = spec["schedule"][u]
        for j, p in enumerate(periods):
            treated = int(start != "never" and p >= start)
            y = spec["baselines"][u] + cumulative[j]
            if treated:
                y += effect["intercept"] + effect["slope"] * (p - start)
            if sd > 0:
                y += sd * noise[i, j]
            rows.append((u, p, y, treated))
    return rows


def check_simulate(spec: dict, seed: int, path: Path) -> Optional[str]:
    want = simulated_rows(spec, seed)
    got = _read_rows(path)
    if len(got) != len(want):
        return f"simulate wrote {len(got)} rows, expected {len(want)}"
    for r, (u, p, y, d) in zip(got, want):
        if (r["unit"], int(r["period"]), int(r["treated"])) != (u, p, d):
            return f"simulate row {r['unit']},{r['period']} differs from the spec's layout"
        if not math.isclose(float(r["outcome"]), y, rel_tol=1e-12, abs_tol=1e-12):
            return f"simulate outcome at {u},{p}: {r['outcome']}, re-derived {y!r}"
    return None


def check_version(path: Path) -> Optional[str]:
    text = path.read_text(encoding="utf-8")
    return None if text.startswith("twfediag ") and text.count("\n") == 1 else f"--version printed {text!r}"

