"""One benchmark run in a fresh process; prints its result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
start time of the process in argv, so set-up time covers interpreter start,
numpy and every ctlab module.  The run's inputs come from
SeedSequence([seed, run index]).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import ctlab.cli  # noqa: F401  (imports every other ctlab module)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--spawned", type=float, required=True, help="monotonic time of spawn")
    parser.add_argument("--spans", default="", help="trace to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    args = parser.parse_args()
    ready = time.monotonic()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": ready - args.spawned,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "accel_path": _accel_path(),
    }
    if args.setup_only:
        sys.stdout.write(json.dumps(result) + "\n")
        return

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, args.run]))
    checks = workloads.Checks()

    probe_before = speed_probe()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    extra = workloads.run(args.workload, rng, args.size, args.run, checks)
    run_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    probe_after = speed_probe()

    result.update({
        "run_s": run_s,
        "probe_s": [probe_before, probe_after],
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "known_defects": checks.known_defects,
        "unexpected": checks.unexpected,
        "diamond_lower": extra.get("diamond_lower", []),
    })
    if tracer is not None:
        tracer.write(args.spans)
        layers = result["layers"] = tracing.layer_stats(tracer.spans())
        # the same quantity as diamond_lower_mean: random pairs of distances only
        lowers = result["diamond_lower"]
        layers["metrics.diamond_distance.lower_mean"] = float(np.mean(lowers)) if lowers else 0.0
    sys.stdout.write(json.dumps(result) + "\n")


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of numpy work, now.

    The machine's speed drifts by tens of percent over minutes, with the
    load of other tenants; the probe, run just before and after each
    workload run, measures that drift so run.py can take it out of
    run_ref_s.  It mixes the two kinds of work the workloads do: many
    small-matrix calls driven from Python, and single-threaded LAPACK on a
    mid-size matrix.  It calls no ctlab code, so a change to the package
    moves it only by changing numpy's global state on import.
    """
    r = np.random.default_rng(0)
    small = r.standard_normal((6, 6)) + 1j * r.standard_normal((6, 6))
    small = small + small.conj().T
    big = r.standard_normal((300, 300)) + 1j * r.standard_normal((300, 300))
    big = big + big.conj().T
    start = time.perf_counter()
    for _ in range(4000):
        np.linalg.eigh(small)
    for _ in range(6):
        np.linalg.eigvalsh(big)
    return time.perf_counter() - start


def _accel_path() -> str:
    try:
        from ctlab import _accel
    except ImportError:
        return "absent"
    return _accel.active_path()


if __name__ == "__main__":
    main()
