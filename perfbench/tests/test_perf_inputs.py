"""Generated inputs depend on the seed alone."""

from pathlib import Path

import numpy as np
import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _files(workload, seed, wd):
    wd.mkdir()
    WORKLOADS[workload](np.random.default_rng(seed), ROOT, wd)
    return {p.name: p.read_bytes() for p in sorted(wd.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    again = _files(workload, 7, tmp_path / "b")
    other = _files(workload, 8, tmp_path / "c")
    assert first and first == again
    assert first.keys() == other.keys()
    assert first["panel.csv"] != other["panel.csv"]
