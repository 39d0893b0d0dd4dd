"""Every committed benchmark record ``BENCH_<label>.json`` at the repository root
has one compact shape: a few fields that say what was run, one row per
parent/change pair with each side's medians, and a summary computed from those
rows.  The raw runs stay in git, in the commit the ``records`` field names.

Each summary row recomputes from the pairs rows of its workload, seeds and
series: medians and inclusive quartiles as ``perfbench/run.py`` prints them,
and ``change_lower_in`` as the pairs whose change side is strictly lower.
Stored numbers keep six significant digits."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("label", "what", "command", "order", "records", "summary", "pairs")
OPTIONAL = ("machine", "notes")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
GATED = tuple(m["name"] for m in BENCHMARK["end_to_end"])
SIDE = GATED + ("attempted", "failed")
MAX_BYTES = 32 * 1024
MAX_NOTES_BYTES = 2048


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=refuse)


def _sig(x):
    return float(f"{x:.6g}")


def _quartiles(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return [_sig(q1), _sig(q3)]


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json in {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_is_complete_and_named_by_its_label(path):
    text = path.read_text()
    assert len(text.encode()) <= MAX_BYTES, f"{path.name} holds {len(text.encode())} bytes"
    record = _strict_json(text)
    missing = [field for field in FIELDS if field not in record]
    assert not missing, f"{path.name} lacks {missing}"
    extra = set(record) - set(FIELDS) - set(OPTIONAL)
    assert not extra, f"{path.name} has keys outside the record shape: {sorted(extra)}"
    assert path.name == f"BENCH_{record['label']}.json"
    assert re.search(r"\b[0-9a-f]{40}\b", record["records"]), "records must name the commit of the raw runs"
    assert len(record.get("notes", "").encode()) <= MAX_NOTES_BYTES
    assert record["pairs"] and record["summary"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_pairs_rows_name_a_workload_and_carry_each_side(path):
    pairs = _strict_json(path.read_text())["pairs"]
    keys = [(row["workload"], row["seed"], row.get("series")) for row in pairs]
    assert len(keys) == len(set(keys)), "a workload, seed and series must name one pair"
    for row in pairs:
        assert row["workload"] in WORKLOADS, row
        assert row["first"] in ("parent", "change"), row
        for side in ("parent", "change"):
            missing = [name for name in SIDE if name not in row[side]]
            assert not missing, f"{row['workload']} seed {row['seed']} {side} lacks {missing}"
            assert all(isinstance(row[side][name], int) for name in ("attempted", "failed"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_summary_rows_recompute_from_their_pairs(path):
    record = _strict_json(path.read_text())
    for row in record["summary"]:
        where = f"{row['workload']} {row['metric']} series {row.get('series')}"
        pairs = [
            p
            for p in record["pairs"]
            if p["workload"] == row["workload"] and p.get("series") == row.get("series") and p["seed"] in row["seeds"]
        ]
        assert sorted(p["seed"] for p in pairs) == sorted(row["seeds"]), where
        parent = [p["parent"][row["metric"]] for p in pairs]
        change = [p["change"][row["metric"]] for p in pairs]
        assert row["parent_median"] == _sig(statistics.median(parent)), where
        assert row["change_median"] == _sig(statistics.median(change)), where
        assert row["parent_q1_q3"] == _quartiles(parent), where
        assert row["change_q1_q3"] == _quartiles(change), where
        assert row["change_lower_in"] == [sum(c < p for p, c in zip(parent, change)), len(pairs)], where


def test_every_cited_record_exists():
    cited = {
        (doc, name)
        for doc in ("CHANGES.md", "README.md", "ROADMAP.md")
        for name in re.findall(r"BENCH_[a-z0-9_]+\.json", (ROOT / doc).read_text())
    }
    assert cited
    missing = sorted(f"{doc}: {name}" for doc, name in cited if not (ROOT / name).is_file())
    assert not missing, f"cited records missing: {missing}"
