"""The CI workflow runs the tier-1 command that ROADMAP.md names, and the
benchmark's oracle checks. A text match, so no YAML parser is needed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workflow_commands() -> list:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return [line.split("run:", 1)[1].strip()
            for line in text.splitlines() if line.strip().startswith("run:")]


def test_workflow_runs_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert tier1 in _workflow_commands()


def test_workflow_runs_benchmark_oracle_checks():
    assert "python3 perfbench/run.py --report --seconds 5 --seed 5" in _workflow_commands()
