"""ctlab benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Closed loop: this one process starts runs one after another, each in a fresh
Python process (worker.py).  The number of runs is planned from --seconds and
the workload's nominal run time (at least two runs), not from the clock, so
the same seed and --seconds always give the same inputs and the same
attempted and failed counts.
Set-up time comes from dedicated probe processes started before the runs,
scaled to the reference speed by the speed probes of the runs.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json as medians
over the runs; with --trace 1 it alternates untraced and traced runs on the
same inputs and reports the per-layer metrics of the traced runs, plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
each metric's median, quartiles and run count, the error rate, and the
environment.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
MIN_RUNS = 2
# Nominal wall seconds of one run on the reference machine (NOTES.md), process
# start and speed probes included; keys are the workloads of BENCHMARK.json
RUN_WALL_S = {"distances": 3.4, "tomography": 3.2, "certify": 7.5, "haar-mc": 4.0}
SETUP_PROBES = 5  # measured, after one unmeasured probe that warms the file cache
DEADLINE_S = 170.0  # a whole invocation of one workload ends well within 180 s
# worker.speed_probe's median time on the reference machine (NOTES.md);
# run_ref_s is run_s scaled by PROBE_NOMINAL_S over the probe's time around the
# run, and setup_s is the set-up probes' time scaled by PROBE_NOMINAL_S over
# the median probe time of the invocation's runs
PROBE_NOMINAL_S = 0.18
# every metric printed per workload; BENCHMARK.json gates some of them
UNITS = {"setup_s": "s", "setup_wall_s": "s", "run_s": "s", "run_ref_s": "s", "probe_s": "s", "cpu_s": "s",
         "peak_rss_mb": "MiB", "error_rate": "1", "diamond_lower_mean": "1"}
LOAD_SHAPE = "closed loop: one client process, sequential runs, a fresh process per run"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CTL_THREADS"] = "1"
    # one BLAS thread: two-thread LAPACK spreads several times more on a
    # shared 2-vCPU machine (NOTES.md)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def _l3_bytes() -> str:
    try:
        done = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Runner:
    """Starts the runs of one workload and collects their results."""

    def __init__(self, workload: str, seed: int, size: str, env: dict, started: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.env = env
        self.started = started
        self.failures: list = []

    def spawn(self, extra: list) -> dict | None:
        """Run worker.py once; None (and a recorded failure) if it failed."""
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--spawned", repr(spawned), *extra]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(extra)}: timed out after {timeout:.0f} s")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            self.failures.append(f"{' '.join(extra)}: exit code {done.returncode}")
            return None
        return json.loads(lines[-1])

    def measure(self, seconds: float, trace: bool) -> dict:
        probes = [self.spawn(["--run", "0", "--setup-only"]) for _ in range(1 + SETUP_PROBES)]
        probes = [p for p in probes[1:] if p is not None]
        spans_dir = OUT / self.workload
        if trace:
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        untraced, traced = [], []
        for index in range(planned_runs(self.workload, seconds, trace)):
            runs = [self.spawn(["--run", str(index)])]
            if trace:
                spans = spans_dir / f"run-{index}.jsonl"
                runs.append(self.spawn(["--run", str(index), "--spans", str(spans)]))
            if None in runs:
                break
            untraced.append(runs[0])
            traced.extend(runs[1:])
        return {"probes": probes, "untraced": untraced, "traced": traced}


def planned_runs(workload: str, seconds: float, trace: bool) -> int:
    """Runs (untraced and traced pairs, with trace) that fill about `seconds`."""
    per_run = RUN_WALL_S[workload] * (2 if trace else 1)
    return max(MIN_RUNS, int(seconds // per_run))


def _run_ref_s(run: dict) -> float:
    return run["run_s"] * PROBE_NOMINAL_S / statistics.fmean(run["probe_s"])


def _speed_scale(untraced: list) -> float:
    return PROBE_NOMINAL_S / statistics.median(statistics.fmean(r["probe_s"]) for r in untraced)


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def report(workload: str, measured: dict, failures: list, trace: bool, spec: dict) -> dict:
    """Print the detail lines; return the result object of the last line."""
    untraced, traced, probes = measured["untraced"], measured["traced"], measured["probes"]
    runs = untraced + traced
    if not probes or not untraced or (trace and not traced):
        raise RuntimeError(f"{workload}: no run completed: {failures}")
    attempted = sum(r["attempted"] for r in runs) + len(failures)
    failed = sum(r["failed"] for r in runs) + len(failures)
    known = sum(r["known_defects"] for r in runs)
    unexpected = sorted({name for r in runs for name in r["unexpected"]}) + failures

    print(f"workload {workload}: {len(untraced)} untraced and {len(traced)} traced runs; {LOAD_SHAPE}")
    rows = {
        "setup_s": [p["setup_s"] * _speed_scale(untraced) for p in probes],
        "setup_wall_s": [p["setup_s"] for p in probes],
        "run_s": [r["run_s"] for r in untraced],
        "run_ref_s": [_run_ref_s(r) for r in untraced],
        "probe_s": [statistics.fmean(r["probe_s"]) for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "error_rate": [r["failed"] / r["attempted"] for r in untraced if r["attempted"]],
    }
    if untraced[0]["diamond_lower"]:
        rows["diamond_lower_mean"] = [statistics.fmean(r["diamond_lower"]) for r in untraced]
    print(f"  {'metric':<20}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'runs':>6}")
    for name, values in rows.items():
        s = _summary(values)
        print(f"  {name:<20}{UNITS[name]:>6}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>6}")
    print(f"  all runs: {failed} of {attempted} checks failed, {known} of them the known "
          "fidelity defect")
    if unexpected:
        print(f"  unexpected failures: {unexpected}")

    if trace:
        per_layer = {}
        for m in spec["per_layer"]:
            if m["name"] == "bench.trace_overhead_s":
                value = statistics.median(_run_ref_s(t) - _run_ref_s(u) for u, t in zip(untraced, traced))
            else:
                value = statistics.median(t["layers"][m["name"]] for t in traced)
            per_layer[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<48}{m['unit']:>8}{value:>14.6g}")
        metrics = per_layer
    else:
        metrics = {m["name"]: {"value": statistics.median(rows[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result


def environment(measured: dict, env: dict) -> dict:
    probe = measured["probes"][0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "l3_bytes": _l3_bytes(),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "CTL_THREADS": env["CTL_THREADS"],
        "accel_path": probe["accel_path"],
        "load": LOAD_SHAPE,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a smoke pass for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "ctlab" / "__init__.py").is_file():
        print(f"no ctlab package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    env = _child_env()
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        runner = Runner(workload, args.seed, args.size, env, time.monotonic())
        measured = runner.measure(args.seconds, bool(args.trace))
        result = report(workload, measured, runner.failures, bool(args.trace), spec)
        runs = {kind: [{k: r[k] for k in ("setup_s", "run_s", "probe_s", "cpu_s", "peak_rss_mb", "failed")}
                       for r in measured[kind]] for kind in ("untraced", "traced")}
        record = {"environment": environment(measured, env), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "setup_probes_s": [p["setup_s"] for p in measured["probes"]],
                  "runs": runs, "result": result}
        print("  environment: " + json.dumps(record["environment"]))
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        results[workload] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
