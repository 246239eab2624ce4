"""The oracles agree with hand computation and flag wrong outputs."""

import json

import numpy as np

import oracle
from inputs import make_panel


def test_dummy_ols_reproduces_hand_computed_2x2_did():
    # A untreated in both periods; B treated in period 2.
    unit = np.array([0, 0, 1, 1])
    period = np.array([1, 2, 1, 2])
    y = np.array([1.0, 3.0, 2.0, 7.0])
    d = np.array([0.0, 0.0, 0.0, 1.0])
    did = (7.0 - 2.0) - (3.0 - 1.0)
    assert abs(oracle.dummy_ols_beta(unit, period, y, d) - did) < 1e-12


def test_estimate_check_flags_a_wrong_beta(tmp_path):
    rng = np.random.default_rng(0)
    units = ("a", "b", "c", "d")
    panel = make_panel(rng, units, tuple(range(2000, 2006)),
                       {"a": 2002, "b": 2004, "c": None, "d": 2003}, missing=0.0)
    o = oracle.PanelOracle(panel)
    beta, n_obs, n_treated = o.full()
    report = tmp_path / "estimate.json"
    for shift, ok in ((0.0, True), (1e-6 * max(1.0, abs(beta)), False)):
        fit = {"beta": beta + shift, "n_obs": n_obs, "n_treated": n_treated}
        report.write_text(json.dumps({"fit": fit}))
        assert (oracle.check_estimate(o, report) is None) == ok
