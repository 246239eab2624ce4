"""What each entry point loads: `import twfediag`, --version and usage
errors load neither numpy nor a layer module, and no command loads scipy.

Each check runs in a fresh interpreter, because the test process itself
has numpy and scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twfediag

from test_cli import data_args, panel_files  # noqa: F401 (a fixture)

SRC = str(Path(twfediag.__file__).resolve().parent.parent)
LAYERS = ("panel", "synth", "twfe", "lsq", "diagnostics", "robustness")

FIT = """
from twfediag import Observation, PanelDataset, fit_twfe
rows = [("A", 1, 0.0, 0), ("A", 2, 1.0, 0), ("A", 3, 1.5, 1),
        ("B", 1, 0.5, 0), ("B", 2, 0.9, 0), ("B", 3, 1.1, 0),
        ("C", 1, 0.2, 0), ("C", 2, 1.7, 1), ("C", 3, 2.9, 1)]
fit = fit_twfe(PanelDataset.from_observations(Observation(*r) for r in rows))
assert "p_value" not in vars(fit)  # computed on first read
assert 0.0 <= fit.p_value <= 1.0
"""

VERSION = """
from twfediag.cli import main
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code in (None, 0)
"""

USAGE_ERROR = """
from twfediag.cli import main
try:
    main(["weights", "--bins", "0"])
except SystemExit as exc:
    assert exc.code == 2
"""


def modules_after(code: str) -> set[str]:
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def heavy(modules: set[str]) -> set[str]:
    """numpy, scipy and twfediag's layer modules among `modules`."""
    return {m for m in modules if m.split(".")[0] in ("numpy", "scipy")
            or m in {f"twfediag.{layer}" for layer in LAYERS}}


def scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "scipy"}


def commands(*argvs) -> str:
    return "from twfediag.cli import main\n" + "".join(
        f"assert main({list(argv)!r}) == 0\n" for argv in argvs
    )


def test_import_loads_no_numpy_or_layer():
    assert heavy(modules_after("import twfediag")) == set()


def test_cli_import_loads_no_scipy():
    assert heavy(modules_after("import twfediag.cli")) == set()


def test_version_loads_no_scipy():
    assert heavy(modules_after(VERSION)) == set()


def test_usage_error_loads_no_numpy_or_layer():
    assert heavy(modules_after(USAGE_ERROR)) == set()


def test_fit_p_value_loads_no_scipy():
    assert scipy(modules_after(FIT)) == set()


def test_weights_and_scatter_load_no_scipy(panel_files, tmp_path):
    _, data, sched = panel_files
    loaded = modules_after(commands(
        ["weights", *data_args(data, sched), "--out-hist", str(tmp_path / "h.csv"),
         "--out-grid", str(tmp_path / "g.csv")],
        ["scatter", *data_args(data), "--out-prefix", str(tmp_path / "s")],
    ))
    assert "twfediag.diagnostics" in loaded
    assert scipy(loaded) == set()


def test_estimate_and_sweeps_load_no_scipy(panel_files, tmp_path):
    _, data, sched = panel_files
    out = str(tmp_path / "out")
    loaded = modules_after(commands(
        ["estimate", *data_args(data), "--out", out],
        ["sweep-endyear", *data_args(data), "--out", out],
        ["sweep-horizon", *data_args(data, sched), "--horizons", "0,1,2", "--out", out],
        ["jackknife", *data_args(data), "--out", out],
    ))
    assert {"twfediag.studentt", "twfediag.robustness"} <= loaded
    assert scipy(loaded) == set()


def test_validate_and_sweep_endyear_load_no_numpy_ma(panel_files, tmp_path):
    # np.unique without return_* arguments imports numpy.ma
    _, data, _ = panel_files
    out = str(tmp_path / "out")
    loaded = modules_after(commands(
        ["validate", *data_args(data), "--out", out],
        ["sweep-endyear", *data_args(data), "--out", out],
    ))
    assert "twfediag.robustness" in loaded
    assert "numpy.ma" not in loaded


def test_every_public_name_resolves():
    for name in twfediag.__all__:
        assert getattr(twfediag, name).__module__.startswith("twfediag."), name
    assert set(twfediag.__all__) <= set(dir(twfediag))
    with pytest.raises(AttributeError):
        twfediag.no_such_name
