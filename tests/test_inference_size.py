"""Size of the default clustered t-test: how often it rejects a true null.

The exact oracles check beta, se and p as arithmetic; this checks what the
p-value means. Panels have the paper's shape, 15 units x 35 periods,
balanced: unit levels drawn from N(0, 25), one shared random-walk trend, a
homogeneous effect of 1 (so TWFE is unbiased), adopters starting uniformly
in periods 5-29 and iid N(0, 1) noise. The test is fit_twfe's default
(clustered by unit) t-test of the true null beta = 1 at 5%, over 2000
seeded replications per cell.

The bands were fixed before measuring. With 12 treated units the rejection
rate lies in [0.03, 0.07] (the binomial sd at 2000 replications is 0.005).
With 2 treated units the clustered test is known to over-reject badly
(Cameron, Gelbach & Miller 2008; MacKinnon & Webb 2017), and the rate is
above 0.15. A change to the inference shows up here in either direction.
"""

import numpy as np

from twfediag import PanelDataset, fit_twfe, t_test

N_UNITS, N_PERIODS = 15, 35
REPLICATIONS = 2000


def rejection_rate(n_treated: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    unit = np.repeat(np.arange(N_UNITS, dtype=np.int32), N_PERIODS)
    period = np.tile(np.arange(N_PERIODS, dtype=np.int64), N_UNITS)
    units = tuple(f"u{i}" for i in range(N_UNITS))
    rejected = 0
    for _ in range(REPLICATIONS):
        level = rng.normal(0.0, 5.0, N_UNITS)
        trend = np.cumsum(rng.normal(0.0, 1.0, N_PERIODS))
        start = np.full(N_UNITS, N_PERIODS)  # never-treated units adopt after the panel
        start[:n_treated] = rng.integers(5, 30, n_treated)
        treated = period >= start[unit]
        outcome = level[unit] + trend[period] + treated + rng.normal(0.0, 1.0, len(unit))
        fit = fit_twfe(PanelDataset(units, unit, period, outcome, treated))
        rejected += t_test(fit.beta - 1.0, fit.se, fit.dof)[1] < 0.05
    return rejected / REPLICATIONS


def test_twelve_treated_units_reject_at_the_nominal_rate():
    rate = rejection_rate(12, seed=1812)
    assert 0.03 <= rate <= 0.07, rate


def test_two_treated_units_over_reject():
    rate = rejection_rate(2, seed=1802)
    assert rate > 0.15, rate
