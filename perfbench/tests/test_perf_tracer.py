"""Self-time attribution and alias rebinding of the tracer."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

from tracer import Tracer, instrument, self_times

HERE = Path(__file__).resolve().parents[1]


def test_self_time_of_a_toy_nested_call():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer("inv-7", clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [(s[3], s[4]) for s in tracer.spans] == [(None, "inv-7"), (0, "inv-7"), (0, "inv-7")]
    assert self_times(tracer.spans) == [6.0, 3.0, 1.0]


def _module(name, source, **names):
    module = types.ModuleType(name)
    module.__dict__.update(names)
    exec(source, module.__dict__)
    return module


def test_rebinding_finds_every_module_level_alias():
    lsq = _module("pkg.lsq", "def solve(x):\n    return x + 1\n\ndef _helper(x):\n    return x\n")
    twfe = _module("pkg.twfe", "def fit(x):\n    return solve(x) * 2\n", solve=lsq.solve)
    diag = _module("pkg.diagnostics", "", lstsq=lsq.solve, helper=lsq._helper)
    package = _module("pkg", "", solve=lsq.solve, fit=twfe.fit)
    original = lsq.solve
    tracer = Tracer()
    rebound = instrument(tracer, [package, lsq, twfe, diag], layers=("lsq", "twfe"))
    assert sorted(rebound) == sorted([
        "pkg.solve", "pkg.fit", "pkg.lsq.solve", "pkg.twfe.solve", "pkg.twfe.fit", "pkg.diagnostics.lstsq",
    ])
    assert package.solve is lsq.solve is twfe.solve is diag.lstsq is not original
    assert diag.helper is lsq._helper  # private functions stay unwrapped
    assert package.fit(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("twfe.fit", None), ("lsq.solve", 0)]
    assert tracer.counts == {"twfe.fit.calls": 1, "lsq.solve.calls": 1}


def test_traced_cli_spans_the_solver_under_every_caller(tmp_path):
    panel = tmp_path / "panel.csv"
    rows = ["unit,period,outcome,treated"]
    for u, start in (("a", 2), ("b", 3), ("c", None)):
        rows += [f"{u},{p},{p * p + ord(u) + (p == 3)},{int(start is not None and p >= start)}"
                 for p in range(1, 5)]
    panel.write_text("\n".join(rows) + "\n")
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), "inv-0", "--", "estimate",
         "--data", str(panel), "--unit", "unit", "--time", "period", "--outcome", "outcome",
         "--treatment", "treated", "--cluster", "none", "--out", str(tmp_path / "e.json")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    doc = json.loads(spans_file.read_text())
    spans = doc["spans"]
    parents = {spans[s[3]][0] for s in spans if s[0] == "lsq.solve_least_squares"}
    assert parents == {"twfe.fit_twfe", "diagnostics.homogeneity_test"}
    assert {s[4] for s in spans} == {"inv-0"}
    assert doc["counts"]["panel.rows_parsed"] == 12
    assert doc["counts"]["lsq.solve_least_squares.calls"] == 4
