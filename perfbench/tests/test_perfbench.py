"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_wrapped_function_exists():
    found = tracing.resolve()
    assert len(found) == len(tracing.WRAPPED)


def test_workload_table_matches_benchmark_json():
    assert list(workloads.WORKLOADS) == WORKLOADS
    assert list(run.RUN_WALL_S) == WORKLOADS
    for size, table in workloads.SIZES.items():
        assert list(table) == WORKLOADS, size


def test_quartiles_stay_within_the_runs():
    summary = run._summary([2.0, 3.0])
    assert 2.0 <= summary["q1"] <= summary["median"] <= summary["q3"] <= 3.0
    assert summary["n"] == 2


def test_missing_function_fails_loudly():
    with pytest.raises(AttributeError, match="ctlab.linalg.no_such_function is gone"):
        tracing.resolve((("linalg", "no_such_function"),))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric_with_its_unit(trace):
    done = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace,
                "--size", "tiny")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(results) == sorted(WORKLOADS)
    for workload, result in results.items():
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], workload
        assert result["correct"] is True, (workload, done.stdout)
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }


def test_run_count_depends_on_seconds_only():
    assert run.planned_runs("certify", 30, False) == 4
    assert run.planned_runs("certify", 30, True) == run.MIN_RUNS
    assert run.planned_runs("distances", 0, False) == run.MIN_RUNS


def test_exact_counts_repeat():
    """Counts a later change may cite (queries, rejections, checks) repeat exactly."""
    runs = []
    for _ in range(2):
        done = _run(ROOT, "--workload", "all", "--seed", "5", "--seconds", "0", "--trace", "1",
                    "--size", "tiny")
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for workload, name in [("tomography", "tomography.queries_charged"),
                           ("certify", "hardness.certify_gamma_comb.rejected"),
                           ("certify", "hardness.certify_gamma_comb.calls")]:
        first, second = (r[workload]["metrics"][name]["value"] for r in runs)
        assert first == second > 0, (workload, name)
    for workload in WORKLOADS:
        first, second = ((r[workload]["attempted"], r[workload]["failed"]) for r in runs)
        assert first == second, workload


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, None, 1, None],
        ["tomography.channel_tomography", 1.0, 7.0, 0, 1, {"queries": 100}],
        ["tomography.isometry_tomography", 2.0, 5.0, 1, 1, {"queries": 100}],
        ["metrics.diamond_distance", 3.0, 4.0, 2, 1,
         {"iterations": 10, "unconverged": 0}],
        ["metrics.diamond_distance", 5.5, 6.5, 1, 1,
         {"iterations": 30, "unconverged": 1}],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["cli.self_s"] == pytest.approx(4.0)
    assert stats["tomography.channel_tomography.self_s"] == pytest.approx(2.0)
    assert stats["tomography.isometry_tomography.self_s"] == pytest.approx(2.0)
    assert stats["metrics.diamond_distance.self_s"] == pytest.approx(2.0)
    assert stats["metrics.diamond_distance.iterations"] == 40
    assert stats["metrics.diamond_distance.unconverged_ratio"] == 0.5
    # the nested isometry run is part of the channel run
    assert stats["tomography.queries_charged"] == 100
    assert stats["tomography.diamond_calls_per_run"] == 2.0


def test_span_stacks_are_per_thread():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def leaf():
        barrier.wait(timeout=10)
        return 1

    traced_leaf = tracer.wrap("linalg.min_eig_leaf", leaf)
    traced_outer = tracer.wrap("outer", lambda: traced_leaf())
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_index = tracer.spans()
    for name, _, _, parent, thread, _ in by_index:
        if name == "outer":
            assert parent is None
        else:
            assert by_index[parent][0] == "outer" and by_index[parent][4] == thread
