"""Seeded outputs hold against the record `tools/outputs.py` wrote."""

import importlib
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))  # the record's jobs live with the script that writes it
outputs = importlib.import_module("outputs")
sys.path.remove(str(TOOLS))

RECORD = json.loads(outputs.RECORD.read_text())


def test_the_record_holds_every_job():
    assert set(RECORD) == set(outputs.JOBS)


@pytest.mark.parametrize("name", list(outputs.JOBS))
def test_job_holds_its_recorded_values(name):
    assert outputs.moved(outputs.JOBS[name](), RECORD[name]) == []
