"""Each benchmark workload's invocations, run once in process against the
benchmark's own oracle checks: an output the benchmark would count as a
failed invocation fails here first.

The workloads are read from perfbench/, which this module only imports."""

import sys
from pathlib import Path

import numpy as np
import pytest

from twfediag.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_step_passes_its_oracle(workload, tmp_path, monkeypatch):
    steps = WORKLOADS[workload](np.random.default_rng(1), ROOT, tmp_path)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for step in steps:
        if step.args == ("--version",):
            continue
        assert main(list(step.args)) == 0, step.args
        assert step.check(tmp_path) is None, step.args
        ran += 1
    assert ran
