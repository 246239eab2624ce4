"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's solver paths: OLS via explicitly
formed normal equations, sandwich covariance via naive loops, and the t
p-value via numerical quadrature of the density.
"""

import math

import numpy as np
import scipy.integrate


def normal_equations_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(X.T @ X, X.T @ y)


def _normal_equations_inverse(X: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of X'X. A disconnected panel's dummy design has one
    dependent column per extra component; the treatment coefficient stays
    identified and this inverse gives it."""
    return np.linalg.pinv(X.T @ X, rcond=1e-10, hermitian=True)


def dummy_design(dataset):
    """Full dummy expansion (intercept, unit dummies, period dummies,
    treatment) over the estimation sample, built independently."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    units = list(dict.fromkeys(o.unit for o in sample))
    periods = sorted({o.period for o in sample})
    rows = []
    y = []
    for o in sample:
        row = [1.0]
        row += [1.0 if o.unit == u else 0.0 for u in units[1:]]
        row += [1.0 if o.period == p else 0.0 for p in periods[1:]]
        row.append(float(o.treated))
        rows.append(row)
        y.append(o.outcome)
    return np.array(rows), np.array(y)


def dummy_ols_beta(dataset) -> float:
    """Treatment coefficient from the dummy expansion via normal equations."""
    X, y = dummy_design(dataset)
    return float((_normal_equations_inverse(X) @ (X.T @ y))[-1])


def cluster_sandwich(dataset, inference: str = "cluster_by_unit"):
    """(standard error, dof, fitted values) of the treatment coefficient
    from the dummy expansion.

    Normal equations for the coefficients; K is the numerical rank of the
    design. Classical: RSS / (N - K) times the bread. Clustered by unit:
    the sandwich with per-cluster scores summed by a plain loop and the
    factor [G/(G-1)] * [(N-1)/(N-K)], on G - 1 degrees of freedom.
    """
    X, y = dummy_design(dataset)
    clusters = [o.unit for o in dataset.observations if o.outcome is not None]
    bread = _normal_equations_inverse(X)
    fitted = X @ (bread @ (X.T @ y))
    residuals = y - fitted
    n, k = X.shape[0], int(np.linalg.matrix_rank(X))
    G = len(set(clusters))
    dof = n - k if inference == "classical" else G - 1
    if n == k:  # saturated: the fit is exact
        return 0.0, dof, fitted
    if inference == "classical":
        rss = sum(r * r for r in residuals)
        return math.sqrt(rss / (n - k) * bread[-1, -1]), dof, fitted
    scores = {}
    for row, r, g in zip(X, residuals, clusters):
        scores[g] = scores.get(g, 0.0) + row * r
    meat = sum(np.outer(s, s) for s in scores.values())
    c = (G / (G - 1)) * ((n - 1) / (n - k))
    cov = c * bread @ meat @ bread
    return math.sqrt(max(cov[-1, -1], 0.0)), dof, fitted


def hc_sandwich(X: np.ndarray, residuals: np.ndarray, scale: float) -> np.ndarray:
    """Heteroskedasticity-robust sandwich with an explicit scale factor."""
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((X.shape[1], X.shape[1]))
    for i in range(X.shape[0]):
        xi = X[i]
        meat += residuals[i] ** 2 * np.outer(xi, xi)
    return scale * bread @ meat @ bread


def cluster_score_sandwich(X: np.ndarray, residuals: np.ndarray, clusters, scale: float) -> np.ndarray:
    """Cluster sandwich with an explicit scale factor: the normal-equations
    bread, and per-cluster scores summed by a plain loop over the rows,
    keyed by any hashable cluster label."""
    bread = np.linalg.inv(X.T @ X)
    scores = {}
    for row, r, g in zip(X, residuals, clusters):
        scores[g] = scores.get(g, 0.0) + row * r
    meat = sum(np.outer(s, s) for s in scores.values())
    return scale * bread @ meat @ bread


def naive_weight_grid(dataset, weights, schedule, tol=-1e-12):
    """(units, periods, cells) of the weight grid by plain loops over the
    estimation sample's Observation rows, which `weights` follow in order:
    units sorted by adoption period (never-treated last) then name, every
    (unit, period) of the sample's units and periods, a cell without an
    observed outcome ("missing", nan)."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    observed = {}
    for o, w in zip(sample, weights):
        if not o.treated:
            status = "untreated"
        elif w < tol:
            status = "treated_negative"
        else:
            status = "treated_positive"
        observed[(o.unit, o.period)] = (status, float(w))
    entries = schedule.entries

    def adoption_order(unit):
        start = entries[unit]
        return (start is None, 0 if start is None else start, unit)

    units = sorted({o.unit for o in sample}, key=adoption_order)
    periods = sorted({o.period for o in sample})
    cells = {}
    for u in units:
        for p in periods:
            cells[(u, p)] = observed.get((u, p), ("missing", math.nan))
    return tuple(units), tuple(periods), cells


def t_pvalue_quadrature(t: float, dof: int) -> float:
    """Two-sided p-value by integrating the Student-t density directly."""
    # log-gamma, so that large dof do not overflow math.gamma
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(dof * math.pi)

    def density(x):
        return c * (1 + x * x / dof) ** (-(dof + 1) / 2)

    tail, _ = scipy.integrate.quad(density, abs(t), np.inf)
    return 2.0 * tail


def naive_weight_counts(weights, treated, tol=-1e-12):
    """Sign counts by plain loop, mirroring the report definition."""
    n_treated = n_neg = n_ctrl_pos = 0
    for w, d in zip(weights, treated):
        if d:
            n_treated += 1
            if w < tol:
                n_neg += 1
        elif w > -tol:
            n_ctrl_pos += 1
    return n_treated, n_neg, n_ctrl_pos


def first_repeated_key(observations):
    """(unit, period) of the earliest row whose key an earlier row has, or None."""
    seen = set()
    for o in observations:
        key = (o.unit, o.period)
        if key in seen:
            return key
        seen.add(key)
    return None


def validate_reference(observations) -> dict:
    """The validation report, as ValidationReport.to_dict() gives it, by
    per-unit rescans of Observation rows: the row-object implementation
    the columnar validate replaced, kept as its oracle."""
    observations = tuple(observations)
    units = list(dict.fromkeys(o.unit for o in observations))
    periods = sorted({o.period for o in observations})

    violations = []
    for unit in units:
        rows = sorted((o for o in observations if o.unit == unit), key=lambda o: o.period)
        on = False
        for o in rows:
            if on and o.treated == 0:
                violations.append(
                    ("NonAbsorbing", unit, o.period,
                     f"unit {unit!r} switches treatment off at period {o.period}")
                )
            on = on or o.treated == 1
    if len(units) < 2:
        violations.append(("TooFewUnits", "", None, "dataset has fewer than 2 units"))
    if len(periods) < 2:
        violations.append(("TooFewPeriods", "", None, "dataset has fewer than 2 periods"))

    first_treated = {u: None for u in units}
    for o in observations:
        if o.treated == 1:
            cur = first_treated[o.unit]
            if cur is None or o.period < cur:
                first_treated[o.unit] = o.period
    timing_groups = {}
    for adoption in sorted({v for v in first_treated.values() if v is not None}):
        timing_groups[str(adoption)] = [u for u in units if first_treated[u] == adoption]
    never = [u for u in units if first_treated[u] is None]
    if never:
        timing_groups["never"] = never

    observed = {(o.unit, o.period) for o in observations if o.outcome is not None}
    balanced = all((u, p) in observed for u in units for p in periods)
    return {
        "is_valid": not violations,
        "violations": [
            {"code": c, "unit": u, "period": p, "message": m} for c, u, p, m in violations
        ],
        "balance": "balanced" if balanced else "unbalanced",
        "timing_groups": timing_groups,
    }
