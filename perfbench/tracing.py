"""Span tracing of ctlab's public functions, installed from outside the package.

`install` replaces each function in WRAPPED by a recording wrapper, in its
defining module and in every loaded ``ctlab`` module that imported it by
name, so internal calls are traced too and ``src/`` stays unedited.  Spans
(name, start, end, parent, thread) are kept in memory; each thread has its
own stack of open spans, so parents are right under a thread pool.
`layer_stats` turns the spans into per-layer numbers: calls, self time (span
time minus the time of its direct children) and the counts each wrapper
extracts from the call.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time

# (module, function) pairs wrapped in traced runs.  A missing name is an
# error: a refactor that renames or deletes one of these is a benchmark
# change, and must be made here too.
WRAPPED = (
    ("linalg", "min_eig"),
    ("linalg", "trace_norm"),
    ("linalg", "operator_norm"),
    ("linalg", "haar_unitaries"),
    ("linalg", "partial_trace"),
    ("channels", "random_channel"),
    ("metrics", "diamond_distance"),
    ("metrics", "choi_trace_distance"),
    ("metrics", "channel_fidelity"),
    ("combs", "link_product"),
    ("combs", "random_parallel_tester"),
    ("moments", "mc_fourth_moment_trace"),
    ("moments", "twirl2"),
    ("localtest", "verify_dilation_identity"),
    ("hardness", "certify_gamma_comb"),
    ("hardness", "gamma_vector"),
    ("hardness", "sample_packing_net"),
    ("hardness", "build_instance"),
    ("tomography", "isometry_tomography"),
    ("tomography", "channel_tomography"),
    ("tomography", "min_phase_op_error"),
    ("cli", "main"),
)

_TOMOGRAPHY_RUNS = ("tomography.isometry_tomography", "tomography.channel_tomography")


def resolve(wrapped=WRAPPED) -> list:
    """Import each module of `wrapped` and return (module, name, function).

    Raises AttributeError naming the function when one no longer exists.
    """
    found = []
    for mod_name, fn_name in wrapped:
        module = importlib.import_module(f"ctlab.{mod_name}")
        fn = getattr(module, fn_name, None)
        if not callable(fn):
            raise AttributeError(
                f"ctlab.{mod_name}.{fn_name} is gone: the traced benchmark wraps it, "
                "so update perfbench/tracing.py together with the package"
            )
        found.append((module, fn_name, fn))
    return found


def _haar_count(args, kwargs, result) -> dict:
    return {"unitaries": int(args[1] if len(args) > 1 else kwargs["count"])}


def _diamond_counts(args, kwargs, result) -> dict:
    return {
        "iterations": result.iterations,
        "unconverged": 0 if result.converged else 1,
    }


def _mc_counts(args, kwargs, result) -> dict:
    d = len(args[0])
    return {"samples": result.n_samples, "flop": 48 * d**3 * result.n_samples}


# Work counts read off a call's arguments and result, per wrapped function.
_COUNTS = {
    "linalg.min_eig": lambda args, kwargs, result: {"dim": len(args[0])},
    "linalg.haar_unitaries": _haar_count,
    "metrics.diamond_distance": _diamond_counts,
    "moments.mc_fourth_moment_trace": _mc_counts,
    "localtest.verify_dilation_identity": lambda args, kwargs, result: {"samples": result.n_samples},
    "hardness.certify_gamma_comb": lambda args, kwargs, result: {"rejected": 0 if result.ok else 1},
    "hardness.gamma_vector": lambda args, kwargs, result: {"dense_bytes": 16 * result.dim**2},
    "tomography.isometry_tomography": lambda args, kwargs, result: {"queries": result.queries_charged},
    "tomography.channel_tomography": lambda args, kwargs, result: {"queries": result.queries_charged},
}


class Tracer:
    """In-memory span recorder; each thread appends to its own list and stack."""

    def __init__(self):
        self._threads: list = []  # (thread id, that thread's span records)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> tuple:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], [])  # (records, open records)
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
            return state

    def wrap(self, name: str, fn):
        state = self._state
        counts = _COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            records, stack = state()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            records.append(record)
            stack.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self, wrapped=WRAPPED) -> None:
        """Replace every wrapped function wherever ctlab imported it by name."""
        for module, fn_name, fn in resolve(wrapped):
            name = f"{module.__name__.removeprefix('ctlab.')}.{fn_name}"
            traced = self.wrap(name, fn)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "ctlab":
                    continue
                if getattr(other, fn_name, None) is fn:
                    setattr(other, fn_name, traced)

    def spans(self) -> list:
        """All spans as [name, start, end, parent index, thread id, counts]."""
        with self._lock:
            threads = list(self._threads)
        index = {}
        for _, records in threads:
            for record in records:
                index[id(record)] = len(index)
        return [
            [name, start, end, None if parent is None else index[id(parent)], thread, counts]
            for thread, records in threads
            for name, start, end, parent, counts in records
        ]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread, counts in self.spans():
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "thread": thread, "counts": counts}
                    )
                    + "\n"
                )


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_stats(spans: list) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    per = {}
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        entry = per.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["durations"].append(end - start)
        if counts:
            # a tomography run nested in another counts its queries once
            nested = parent is not None and spans[parent][0] in _TOMOGRAPHY_RUNS
            for key, value in counts.items():
                if key == "queries" and nested:
                    continue
                sums = entry["counts"]
                if key in ("dim", "dense_bytes"):
                    sums[key] = max(sums.get(key, 0), value)
                else:
                    sums[key] = sums.get(key, 0) + value

    def get(name: str) -> dict:
        return per.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}})

    out = {}
    for module, fn in WRAPPED:
        entry = get(f"{module}.{fn}")
        out[f"{module}.{fn}.calls"] = entry["calls"]
        out[f"{module}.{fn}.self_s"] = entry["self_s"]
    out["cli.self_s"] = out.pop("cli.main.self_s")
    out["linalg.min_eig.max_dim"] = get("linalg.min_eig")["counts"].get("dim", 0)
    out["linalg.haar_unitaries.unitaries"] = get("linalg.haar_unitaries")["counts"].get("unitaries", 0)

    dd = get("metrics.diamond_distance")
    ms = [1e3 * t for t in dd["durations"]]
    out["metrics.diamond_distance.ms_p50"] = _percentile(ms, 0.50)
    out["metrics.diamond_distance.ms_p95"] = _percentile(ms, 0.95)
    out["metrics.diamond_distance.iterations"] = dd["counts"].get("iterations", 0)
    calls = max(dd["calls"], 1)
    out["metrics.diamond_distance.unconverged_ratio"] = dd["counts"].get("unconverged", 0) / calls

    mc = get("moments.mc_fourth_moment_trace")
    out["moments.mc_fourth_moment_trace.samples"] = mc["counts"].get("samples", 0)
    out["moments.mc_fourth_moment_trace.gflop_s"] = (
        mc["counts"].get("flop", 0) / mc["self_s"] / 1e9 if mc["self_s"] > 0 else 0.0
    )
    vd = get("localtest.verify_dilation_identity")
    out["localtest.verify_dilation_identity.samples"] = vd["counts"].get("samples", 0)
    out["hardness.certify_gamma_comb.rejected"] = (
        get("hardness.certify_gamma_comb")["counts"].get("rejected", 0)
    )
    out["hardness.gamma_vector.dense_mb"] = (
        get("hardness.gamma_vector")["counts"].get("dense_bytes", 0) / 2**20
    )

    # tomography runs are the top-level estimation calls; a channel run
    # nests one isometry run, which is not a run of its own
    runs = sum(
        1 for name, _, _, parent, _, _ in spans
        if name in _TOMOGRAPHY_RUNS and (parent is None or spans[parent][0] not in _TOMOGRAPHY_RUNS)
    )
    under = sum(
        1 for name, _, _, parent, _, _ in spans
        if name == "metrics.diamond_distance" and _inside(spans, parent, _TOMOGRAPHY_RUNS)
    )
    out["tomography.diamond_calls_per_run"] = under / runs if runs else 0.0
    out["tomography.queries_charged"] = sum(
        get(name)["counts"].get("queries", 0) for name in _TOMOGRAPHY_RUNS
    )
    return out


def _inside(spans: list, index, names) -> bool:
    while index is not None:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False
