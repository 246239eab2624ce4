"""scipy stays off the import path until a p-value is computed.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import twfediag

SRC = str(Path(twfediag.__file__).resolve().parent.parent)

FIT = """
from twfediag import Observation, PanelDataset, fit_twfe
rows = [("A", 1, 0.0, 0), ("A", 2, 1.0, 0), ("A", 3, 1.5, 1),
        ("B", 1, 0.5, 0), ("B", 2, 0.9, 0), ("B", 3, 1.1, 0),
        ("C", 1, 0.2, 0), ("C", 2, 1.7, 1), ("C", 3, 2.9, 1)]
fit = fit_twfe(PanelDataset.from_observations(Observation(*r) for r in rows))
assert fit.p_value == fit.p_value  # a p-value was computed
"""

VERSION = """
from twfediag.cli import main
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code in (None, 0)
"""


def scipy_modules_after(code: str) -> set[str]:
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_loads_no_scipy():
    assert scipy_modules_after("import twfediag.cli") == set()


def test_version_loads_no_scipy():
    assert scipy_modules_after(VERSION) == set()


def test_fit_loads_only_scipy_special():
    loaded = scipy_modules_after(FIT)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
    assert "scipy.linalg" not in loaded
