"""Every demo runs to exit 0, and the demos that write CSVs write them under ``out/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: The CSV directories under the working directory that each writing demo fills.
WRITES = {
    "03_basic_reputation_curves.py": "out/basic",
    "04_end_to_end_consortiums.py": "out/end_to_end",
    "05_sleeper_agents.py": "out/attack",
}


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5
    assert set(WRITES) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name in WRITES:
        assert list((tmp_path / WRITES[demo.name]).glob("*.csv"))
