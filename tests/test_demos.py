"""Smoke test: the demos run to completion against the current API.

`entangling_ansatz.py` is left out: it takes about 30 s, against a few
seconds for the three run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["noise_channels.py", "tau_scaling.py", "h2_mitigation.py"])
def test_demo_runs(name):
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
