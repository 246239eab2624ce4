"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's solver paths: OLS via explicitly
formed normal equations, sandwich covariance via naive loops, and the t
p-value via numerical quadrature of the density. The panel CSV reader
(with its recoding from an adoption schedule), the CSV row writer and the
synthetic generator are kept here in their row-by-row and unit-by-unit
forms, as references for the column passes,
beside a panel constructor from row objects, the effect models' formulas,
the summary of a spec's true effects and the scatter's smoother with a
separate branch for a zero-width support.
From the package they import only PanelDataset and the errors.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import scipy.integrate

from twfediag import PanelDataset
from twfediag.errors import (InvalidSpec, MissingColumn, NonFiniteOutcome, ParseError,
                             UnknownUnit)


def from_observations(rows) -> PanelDataset:
    """A panel from Observation rows (anything with unit, period, outcome
    and treated), in the given order, the unit codes numbered by first
    appearance in a plain dict. A nan or infinite outcome raises
    NonFiniteOutcome; a missing one is None."""
    rows = tuple(rows)
    for o in rows:
        if o.outcome is not None and not math.isfinite(o.outcome):
            raise NonFiniteOutcome(
                f"outcome {float(o.outcome)} for unit {o.unit!r}, period {o.period} is not finite")
    codes = {}
    unit = [codes.setdefault(o.unit, len(codes)) for o in rows]
    return PanelDataset(tuple(codes), unit, [o.period for o in rows],
                        [math.nan if o.outcome is None else o.outcome for o in rows],
                        [o.treated for o in rows])


def normal_equations_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(X.T @ X, X.T @ y)


def normal_equations_inverse(X: np.ndarray) -> np.ndarray:
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
    return float((normal_equations_inverse(X) @ (X.T @ y))[-1])


def _exact_normal_equations(X: np.ndarray, ys: list, order: list) -> tuple:
    """Gauss-Jordan elimination of the normal equations X'X b = X'y, for
    each y of ys, in exact rational arithmetic, each float an exact
    Fraction, on sparse rows, pivoting on the columns in the given order.
    Returns (rows, pivot, free): row j of the reduced [X'X | X'ys] as
    {column: value}, the right side of ys[m] at column X.shape[1] + m; the
    row each pivot column is pivot of; and the columns with no pivot, whose
    coefficients are free."""
    k = X.shape[1]
    rows = []
    for j in range(k):
        on = np.flatnonzero(X[:, j])
        row = {c: Fraction(int(n)) for c, n in enumerate(X[on].sum(axis=0).tolist()) if n}
        for m, y in enumerate(ys):
            row[k + m] = sum(map(Fraction, y[on].tolist()), Fraction(0))
        rows.append(row)
    pivot, free = {}, set()
    for col in order:
        used = set(pivot.values())
        candidates = [r for r in range(k) if r not in used and rows[r].get(col)]
        if not candidates:
            free.add(col)
            continue
        r = min(candidates, key=lambda r: len(rows[r]))
        scale = rows[r][col]
        rows[r] = {c: v / scale for c, v in rows[r].items()}
        pivot[col] = r
        for other in rows:
            factor = other.get(col)
            if factor and other is not rows[r]:
                for c, v in rows[r].items():
                    other[c] = other.get(c, 0) - factor * v
                    if not other[c]:
                        del other[c]
    return rows, pivot, free


def exact_dummy_ols_beta(dataset) -> Fraction:
    """The treatment coefficient of dummy_design's expansion in exact
    rational arithmetic, by _exact_normal_equations, the dummies pivoted
    first to keep the rows sparse. The rank is found exactly: a free column
    is set to zero (one per component after the first in a disconnected
    panel), which leaves an identified treatment coefficient unchanged.
    ValueError when the treatment coefficient is not identified."""
    X, y = dummy_design(dataset)
    k = X.shape[1]
    rows, pivot, free = _exact_normal_equations(X, [y], [*range(1, k - 1), 0, k - 1])
    if k - 1 in free or free & rows[pivot[k - 1]].keys():
        raise ValueError("the treatment coefficient is not identified")
    return rows[pivot[k - 1]].get(k, Fraction(0))


def exact_residualized(dataset) -> tuple:
    """(treatment, outcome, rank): the treatment and the outcome less their
    exact fitted values on dummy_design's intercept and unit and period
    dummies, one Fraction per sample row in row order, and the exact rank
    of those dummies. The same elimination as exact_dummy_ols_beta, with
    every free coefficient set to zero, which leaves the fitted values
    unchanged."""
    X, y = dummy_design(dataset)
    dummies, d = X[:, :-1], X[:, -1]
    k = dummies.shape[1]
    rows, pivot, _ = _exact_normal_equations(dummies, [d, y], [*range(1, k), 0])
    residualized = []
    for m, v in enumerate((d, y)):
        b = [rows[pivot[c]].get(k + m, Fraction(0)) if c in pivot else Fraction(0) for c in range(k)]
        residualized.append([
            Fraction(x) - sum((b[c] for c in np.flatnonzero(row).tolist()), Fraction(0))
            for row, x in zip(dummies, v.tolist())])
    return *residualized, len(pivot)


def exact_variances(dataset) -> dict:
    """{inference: (se**2, dof)} of the treatment coefficient in exact
    arithmetic, from exact_residualized: with d and y the residualized
    treatment and outcome, S = sum d**2, beta = sum d y / S, residuals
    e = y - beta d and K = rank + 1, classical is sum e**2 / (N - K) / S on
    N - K degrees of freedom; clustered by unit, with g_c = sum of d e over
    unit c's rows, it is [G/(G-1)] [(N-1)/(N-K)] sum g_c**2 / S**2 on G - 1.
    The row of (X'X)^-1 X' that gives the treatment coefficient of the
    full dummy regression is d / S, so these are its sandwich entries."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    d, y, rank = exact_residualized(dataset)
    ssd = sum(a * a for a in d)
    beta = sum(a * b for a, b in zip(d, y)) / ssd
    e = [b - beta * a for a, b in zip(d, y)]
    n, k = len(e), rank + 1
    scores = {}
    for o, a, r in zip(sample, d, e):
        scores[o.unit] = scores.get(o.unit, 0) + a * r
    G = len(scores)
    return {
        "classical": (sum(r * r for r in e) / (n - k) / ssd, n - k),
        "cluster_by_unit": (Fraction(G, G - 1) * Fraction(n - 1, n - k)
                            * sum(s * s for s in scores.values()) / ssd ** 2, G - 1),
    }


def _exact_inverse(A: list) -> list:
    """The inverse of a square matrix of Fractions by Gauss-Jordan
    elimination. ValueError when it is singular."""
    n = len(A)
    M = [[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(A)]
    for c in range(n):
        r = next((r for r in range(c, n) if M[r][c]), None)
        if r is None:
            raise ValueError("singular matrix")
        M[c], M[r] = M[r], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[c])]
    return [row[n:] for row in M]


def exact_homogeneity(dataset) -> tuple:
    """(beta, bread, variances) of the homogeneity regression in exact
    arithmetic, from exact_residualized: the residualized outcome y on X =
    [1, d, g, g d], d the residualized treatment and g the treatment, by
    the normal equations. beta holds the four coefficients (intercept, d,
    group, interaction) and bread the diagonal of (X'X)^-1. variances is
    {inference: (se**2 of each coefficient, dof)} with e = y - X beta and
    K = 4: classical is sum e**2 / (N - 4) times bread on N - 4 degrees of
    freedom; clustered by unit, with s_c = sum of X'e over unit c's rows,
    it is [G/(G-1)] [(N-1)/(N-4)] times the diagonal of
    (X'X)^-1 (sum s_c s_c') (X'X)^-1, on G - 1. ValueError when X'X is
    singular."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    d, y, _ = exact_residualized(dataset)
    X = [[Fraction(1), a, Fraction(o.treated), o.treated * a] for o, a in zip(sample, d)]
    inverse = _exact_inverse([[sum(r[i] * r[j] for r in X) for j in range(4)] for i in range(4)])
    xy = [sum(r[i] * b for r, b in zip(X, y)) for i in range(4)]
    beta = [sum(inverse[i][j] * xy[j] for j in range(4)) for i in range(4)]
    e = [b - sum(c * x for c, x in zip(beta, r)) for r, b in zip(X, y)]
    scores = {}
    for o, r, res in zip(sample, X, e):
        scores[o.unit] = [s + x * res for s, x in zip(scores.get(o.unit, [0] * 4), r)]
    n, G = len(e), len(scores)
    bread = [inverse[i][i] for i in range(4)]
    factor = Fraction(G, G - 1) * Fraction(n - 1, n - 4)
    return beta, bread, {
        "classical": ([sum(r * r for r in e) / (n - 4) * b for b in bread], n - 4),
        "cluster_by_unit": ([factor * sum(sum(inverse[i][j] * s[j] for j in range(4)) ** 2
                                          for s in scores.values()) for i in range(4)], G - 1),
    }


def union_find_roots(n: int, edges) -> list:
    """The root of each of n nodes under a plain union-find over the edges
    (pairs of nodes): the lowest node of its connected component, as each
    union hangs the higher root under the lower."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    return [find(x) for x in range(n)]


def unit_period_components(dataset) -> int:
    """Connected components of the graph whose nodes are the estimation
    sample's units and periods and whose edges are its Observation rows."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    units = {u: i for i, u in enumerate(dict.fromkeys(o.unit for o in sample))}
    periods = {p: len(units) + j for j, p in enumerate(sorted({o.period for o in sample}))}
    roots = union_find_roots(len(units) + len(periods),
                             ((units[o.unit], periods[o.period]) for o in sample))
    return len(set(roots))


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
    bread = normal_equations_inverse(X)
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


def balanced_residualized_treatment(dataset) -> np.ndarray:
    """Residualized treatment of a balanced panel by double demeaning,
    D - unit mean - period mean + grand mean evaluated termwise, from plain
    sums over the estimation sample's Observation rows, in row order."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    units = {o.unit for o in sample}
    periods = {o.period for o in sample}
    if len(sample) != len(units) * len(periods):
        raise ValueError("the closed form needs a balanced panel")
    unit_sum = dict.fromkeys(units, 0)
    period_sum = dict.fromkeys(periods, 0)
    for o in sample:
        unit_sum[o.unit] += o.treated
        period_sum[o.period] += o.treated
    grand_mean = sum(unit_sum.values()) / len(sample)
    return np.array([
        o.treated - unit_sum[o.unit] / len(periods) - period_sum[o.period] / len(units)
        + grand_mean
        for o in sample
    ])


def bacon_decomposition(dataset) -> list[tuple[float, float]]:
    """(weight, 2x2 DiD estimate) of each comparison in the Goodman-Bacon
    (2021, eq. 10) decomposition of the TWFE coefficient, from group means
    over the Observation rows of a balanced panel in which no unit is
    treated in the first period, with no solver.

    Timing group k adopts at period t_k; n_k is its share of the units and
    D_k the share of the periods in which it is treated; U is the
    never-treated group. The comparisons are k against U, an earlier k
    against a later l before l adopts, and l against k after k adopted. The
    weights are left unnormalized: they sum to the variance of the
    double-demeaned treatment, sum(d_resid**2) / N, and sum(weight *
    estimate) / sum(weight) is the coefficient.
    """
    sample = [o for o in dataset.observations if o.outcome is not None]
    periods = sorted({o.period for o in sample})
    units = list(dict.fromkeys(o.unit for o in sample))
    if len(sample) != len(units) * len(periods):
        raise ValueError("the decomposition needs a balanced panel")
    cell = {(o.unit, o.period): o.outcome for o in sample}
    adoption = {u: None for u in units}
    for o in sorted(sample, key=lambda o: o.period):
        if o.treated and adoption[o.unit] is None:
            adoption[o.unit] = periods.index(o.period)
    if 0 in adoption.values():
        raise ValueError("a unit treated in the first period")
    groups = {}
    for u in units:
        groups.setdefault(adoption[u], []).append(u)
    never = groups.pop(None, [])
    n_periods = len(periods)

    def mean(group, lo, hi):
        """Mean outcome of the group's units over periods[lo:hi]."""
        cells = [cell[u, q] for u in group for q in periods[lo:hi]]
        return sum(cells) / len(cells)

    def share(group):
        return len(group) / len(units)

    def treated_share(t):
        return (n_periods - t) / n_periods

    terms = []
    timings = sorted(groups)
    for k in timings if never else ():
        g = groups[k]
        pair = share(g) + share(never)
        n_kU = share(g) / pair
        d_k = treated_share(k)
        weight = pair ** 2 * n_kU * (1 - n_kU) * d_k * (1 - d_k)
        estimate = (mean(g, k, None) - mean(g, 0, k)) - (mean(never, k, None) - mean(never, 0, k))
        terms.append((weight, estimate))
    for i, k in enumerate(timings):
        for l in timings[i + 1:]:
            early, late = groups[k], groups[l]
            pair = share(early) + share(late)
            n_kl = share(early) / pair
            d_k, d_l = treated_share(k), treated_share(l)
            base = n_kl * (1 - n_kl) * (d_k - d_l)
            # early treated, late not yet treated: the periods before l adopts
            weight = (pair * (1 - d_l)) ** 2 * base / (1 - d_l) * (1 - d_k) / (1 - d_l)
            estimate = ((mean(early, k, l) - mean(early, 0, k))
                        - (mean(late, k, l) - mean(late, 0, k)))
            terms.append((weight, estimate))
            # late treated, early already treated: the periods from k on
            weight = (pair * d_k) ** 2 * base * (d_l / d_k) / d_k
            estimate = ((mean(late, l, None) - mean(late, k, l))
                        - (mean(early, l, None) - mean(early, k, l)))
            terms.append((weight, estimate))
    return terms


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


def _reference_cell(cell, kind):
    """Parse one cell the way the row-by-row loader did: the value, or a
    ValueError whose message names the bad cell."""
    if kind == "unit":
        if cell is None:
            raise ValueError("missing value")
        return cell
    if kind == "period":
        if cell is None:
            raise ValueError("missing value")
        try:
            value = int(cell)
        except ValueError:
            raise ValueError(f"not an integer: {cell!r}") from None
        if not -2**63 <= value < 2**63:
            raise ValueError(f"not a 64-bit integer: {cell!r}")
        return value
    raw = (cell or "").strip()
    if kind == "outcome":
        if raw == "":
            return math.nan
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    if raw not in ("0", "1"):
        raise ValueError(f"treatment must be 0 or 1, got {raw!r}")
    return int(raw)


def adoption_treatment_reference(labels, periods, schedule) -> list:
    """Each row's treatment under an adoption schedule, row by row from
    schedule.entries: 1 iff the row's unit label has an adoption period,
    not None, at or before the row's period. UnknownUnit names the first
    row's label that has no entry."""
    treated = []
    for label, period in zip(labels, periods):
        if label not in schedule.entries:
            raise UnknownUnit(label)
        adoption = schedule.entries[label]
        treated.append(int(adoption is not None and adoption <= period))
    return treated


def load_panel_csv_reference(path, unit_col, period_col, outcome_col, treatment_col=None,
                             schedule=None):
    """The row-by-row panel loader: every row's cells parsed one at a time
    in column order (unit, period, outcome, treatment), the first bad cell
    raising ParseError; unit codes by dict.setdefault. With a schedule, the
    treatment is adoption_treatment_reference's, worked out once every
    row has parsed."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        needed = [(unit_col, "unit"), (period_col, "period"), (outcome_col, "outcome")]
        if treatment_col is not None:
            needed.append((treatment_col, "treated"))
        for col, _ in needed:
            if col not in header:
                raise MissingColumn(col)
        rows = [row for row in reader if row]
    position = {name: i for i, name in enumerate(header)}
    codes = {}
    columns = {"unit": [], "period": [], "outcome": [], "treated": []}
    for rownum, row in enumerate(rows, start=2):
        for col, kind in needed:
            i = position[col]
            try:
                value = _reference_cell(row[i] if i < len(row) else None, kind)
            except ValueError as exc:
                raise ParseError(rownum, col, str(exc)) from None
            columns[kind].append(codes.setdefault(value, len(codes)) if kind == "unit" else value)
        if treatment_col is None:
            columns["treated"].append(0)
    if schedule is not None:
        labels = list(codes)
        columns["treated"] = adoption_treatment_reference(
            [labels[c] for c in columns["unit"]], columns["period"], schedule)
    return PanelDataset(
        tuple(codes),
        np.array(columns["unit"], dtype=np.int32),
        np.array(columns["period"], dtype=np.int64),
        np.array(columns["outcome"], dtype=np.float64),
        np.array(columns["treated"], dtype=np.int8),
    )


def write_rows_reference(path, header, rows):
    """The row writer: the header and then each row, one Python list per
    row, through csv.writer (minimal quoting, CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_panel_csv_reference(dataset, path):
    """The panel writer as csv.writer rows: label, period, repr of the
    outcome (empty when missing), treatment."""
    write_rows_reference(path, ["unit", "period", "outcome", "treated"], (
        [dataset.units[u], p, "" if math.isnan(y) else repr(y), d]
        for u, p, y, d in zip(dataset.unit.tolist(), dataset.period.tolist(),
                              dataset.outcome.tolist(), dataset.treated.tolist())))


def effect_reference(effect, unit, event_time):
    """The effect of a treated cell of the unit at event_time (a number or
    an array of them), from the kinds' definitions on the EffectModel's
    fields: delta; the unit's per_unit entry; intercept + slope * event
    time. InvalidSpec for a unit with no entry and for an unknown kind."""
    if effect.kind == "constant":
        return effect.delta
    if effect.kind == "by_unit":
        if unit not in effect.per_unit:
            raise InvalidSpec(f"no effect entry for unit {unit!r}")
        return effect.per_unit[unit]
    if effect.kind == "event_time":
        return effect.intercept + effect.slope * event_time
    raise InvalidSpec(f"unknown effect kind {effect.kind!r}")


def effect_summary_reference(spec) -> tuple:
    """(minimum, maximum, mean) of the effect over a spec's treated cells,
    each cell's effect the float of effect_reference at its event time,
    period less adoption period in Python integers, walking the units in
    spec order and each unit's periods ascending. InvalidSpec when no cell
    is treated. It reads the spec's fields and calls nothing of
    twfediag.synth."""
    effects = []
    for u in spec.units:
        adoption = spec.schedule.entries[u]
        if adoption is not None:
            effects += [float(effect_reference(spec.effect, u, p - adoption))
                        for p in spec.periods if p >= adoption]
    if not effects:
        raise InvalidSpec("schedule has no treated cells")
    return min(effects), max(effects), sum(effects) / len(effects)


def generate_panel_reference(spec):
    """The unit-by-unit synthetic generator: each unit's row of outcomes is
    baseline + cumulative shocks, plus effect_reference on its treated
    cells at their event times (period less adoption period in Python
    integers, then a float, as effect_summary_reference takes them), plus
    its row of noise; rows coded by a per-row label dictionary.
    It reads the spec's fields and calls nothing of twfediag.synth."""
    cum = []
    total = 0.0
    for p in spec.periods:
        total += spec.shocks[p]
        cum.append(total)
    cum = np.array(cum)
    periods = np.array(spec.periods, dtype=np.int64)
    noise = np.random.default_rng(spec.seed).normal(size=(len(spec.units), len(spec.periods)))
    outcome = np.empty((len(spec.units), len(spec.periods)))
    treated = np.zeros(outcome.shape, dtype=np.int8)
    for i, u in enumerate(spec.units):
        y = spec.baselines[u] + cum
        adoption = spec.schedule.entries[u]
        if adoption is not None:
            on = periods >= adoption
            if on.any():
                event_time = np.array([float(p - adoption) for p in spec.periods if p >= adoption])
                y[on] += effect_reference(spec.effect, u, event_time)
            treated[i] = on
        if spec.noise_sd > 0:
            y += spec.noise_sd * noise[i]
        outcome[i] = y
    codes = {}
    unit = [codes.setdefault(u, len(codes)) for u in spec.units for _ in spec.periods]
    return PanelDataset(tuple(codes), np.array(unit, dtype=np.int32), np.tile(periods, len(spec.units)),
                        outcome.ravel(), treated.ravel())


def local_linear_reference(x: np.ndarray, y: np.ndarray, bandwidth: float, grid_points: int):
    """The scatter's tricube local linear smoother in a two-branch form: a
    zero-width support (h == 0) takes the points at distance 0 as its
    window, with unit kernel weights, and each window's distances and
    offsets are gathered separately."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    h = bandwidth * span
    grid = np.linspace(lo, hi, grid_points)
    out = []
    for x0 in grid:
        dist = np.abs(x - x0)
        in_window = dist < h if h > 0 else dist == 0
        if in_window.sum() < 3:
            continue
        u = dist[in_window] / h if h > 0 else np.zeros(int(in_window.sum()))
        k = (1 - u**3) ** 3
        xs = x[in_window] - x0
        ys = y[in_window]
        # weighted least squares of ys on (1, xs); value at x0 is the intercept
        s0, s1, s2 = k.sum(), (k * xs).sum(), (k * xs * xs).sum()
        t0, t1 = (k * ys).sum(), (k * xs * ys).sum()
        det = s0 * s2 - s1 * s1
        if det <= 0:
            continue
        out.append((float(x0), float((s2 * t0 - s1 * t1) / det)))
    return tuple(out)
