"""Every committed benchmark record ``BENCH_<label>.json`` at the repository root
parses, carries the fields a before/after record needs, and is named by its label."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("label", "what", "command", "order", "records", "summary")


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json in {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_is_complete_and_named_by_its_label(path):
    record = json.loads(path.read_text())
    missing = [field for field in FIELDS if field not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert path.name == f"BENCH_{record['label']}.json"
