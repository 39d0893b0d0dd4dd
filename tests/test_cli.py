import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import ctlab
from ctlab import cli, hardness, localtest, metrics
from ctlab.cli import main
from ctlab.linalg import MAX_BYTES, require_bytes
from ctlab.metrics import choi_trace_distances
from ctlab.tomography import MIN_EPS


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env)


def test_version_flag():
    res = _run(["--version"])
    assert res.exit_code == 0
    assert "ctlab" in res.output
    assert "0.1.0" in res.output


def test_seed_is_required():
    res = _run(["verify"])
    assert res.exit_code == 2


def test_bad_format_choice():
    res = _run(["verify", "--seed", "0", "--format", "yaml"])
    assert res.exit_code == 2


def test_verify_report_shape():
    res = _run(["verify", "--seed", "0"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["command"] == "verify"
    assert report["version"] == "0.1.0"
    assert report["config"] == {"seed": 0}
    assert report["all_passed"] is True
    assert len(report["checks"]) == 9
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "value", "detail"}
        assert check["passed"] is True


def test_version_has_one_source():
    flag = _run(["--version"])
    assert flag.exit_code == 0
    assert flag.output.strip() == f"ctlab, version {ctlab.__version__}"
    res = _run(["verify", "--seed", "0"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["version"] == ctlab.__version__


def test_verify_deterministic():
    first = _run(["verify", "--seed", "7"])
    second = _run(["verify", "--seed", "7"])
    assert first.output == second.output


def test_verify_csv_output():
    res = _run(["verify", "--seed", "0", "--format", "csv"])
    assert res.exit_code == 0
    rows = [row for row in csv.reader(io.StringIO(res.output)) if row]
    assert rows[0] == ["name", "passed", "value", "detail"]
    assert len(rows) == 10
    assert all(len(row) == 4 for row in rows)


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    res = _run(["verify", "--seed", "0", "--out", str(path)])
    assert res.exit_code == 0
    report = json.loads(path.read_text())
    assert report["all_passed"] is True


def test_json_report_is_its_indented_dump_on_stdout_and_in_a_file(tmp_path, monkeypatch):
    reports = []
    real = json.dump

    def recording(obj, fh, **kwargs):
        reports.append(obj)
        real(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", recording)
    args = ["packing-net", "--seed", "3", "--count", "2"]
    path = tmp_path / "report.json"
    printed = _run(args)
    written = _run(args + ["--out", str(path)])
    assert printed.exit_code == written.exit_code == 0
    assert len(reports) == 2 and reports[0] == reports[1]
    expected = json.dumps(reports[0], indent=2) + "\n"
    assert printed.stdout == expected
    assert path.read_text() == expected
    # the CSV report is the checks table with one newline after it, on stdout and in a file
    path = tmp_path / "report.csv"
    printed = _run(args + ["--format", "csv"])
    written = _run(args + ["--format", "csv", "--out", str(path)])
    assert printed.exit_code == written.exit_code == 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "passed", "value", "detail"])
    for c in reports[0]["checks"]:
        writer.writerow([c["name"], c["passed"], repr(c["value"]), c["detail"]])
    expected = (buf.getvalue() + "\n").encode()
    assert printed.stdout_bytes == expected
    assert path.read_bytes() == expected


def test_unwritable_out_is_a_usage_error(tmp_path):
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        res = _run(["verify", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "--out" in res.stderr
        assert "Traceback" not in res.stderr
        assert isinstance(res.exception, SystemExit)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_small_run():
    res = _run(["moments", "--seed", "1", "--d", "2", "--samples", "4000"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["config"] == {"seed": 1, "d": 2, "samples": 4000}
    names = [c["name"] for c in report["checks"]]
    assert "identity quadruple equals d" in names


def test_moments_budget_refusal():
    res = _run(["moments", "--seed", "0", "--d", "99"])
    assert res.exit_code == 3
    assert "declined" in res.stderr
    assert str(MAX_BYTES) in res.stderr


def test_moments_usage_errors():
    assert _run(["moments", "--seed", "0", "--d", "0"]).exit_code == 2
    assert _run(["moments", "--seed", "0", "--samples", "1"]).exit_code == 2


def test_moments_csv_quotes_details():
    # quadruple details contain commas, so the csv must quote them
    res = _run(["moments", "--seed", "1", "--d", "2", "--samples", "2000", "--format", "csv"])
    assert res.exit_code == 0
    rows = [row for row in csv.reader(io.StringIO(res.output)) if row]
    assert all(len(row) == 4 for row in rows)
    assert any("," in row[3] for row in rows[1:])


def test_moments_holds_no_haar_batch():
    # a (100000, 4, 4) batch would take 24.4 MiB; the stream keeps no value per sample, only
    # a workspace of a few 256 KiB chunks
    tracemalloc.start()
    try:
        res = _run(["moments", "--seed", "3", "--d", "4", "--samples", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak < 20 * 2**20, peak


# ---------------------------------------------------------------------------
# localtest
# ---------------------------------------------------------------------------


def test_localtest_single_query():
    args = [
        "localtest", "--seed", "2", "--n", "1", "--d1", "2", "--d2", "2", "--r", "2",
        "--samples", "1000", "--testers", "2", "--channels", "2",
    ]
    res = _run(args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert len(report["checks"]) == 4
    assert report["checks"][0]["name"] == "tester 0 channel 0"


def test_localtest_localizes_and_twirls_each_tester_once(monkeypatch):
    calls = {"localize_tester": 0, "average_tester": 0}
    for name in calls:
        fn = getattr(localtest, name)

        def counted(tester, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(tester)

        monkeypatch.setattr(localtest, name, counted)
    args = ["localtest", "--seed", "3", "--n", "2", "--samples", "200", "--testers", "3", "--channels", "3"]
    res = _run(args)
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["checks"]) == 9
    assert calls == {"localize_tester": 3, "average_tester": 3}


def test_localtest_usage_errors():
    assert _run(["localtest", "--seed", "0", "--n", "3"]).exit_code == 2
    assert _run(["localtest", "--seed", "0", "--d1", "0"]).exit_code == 2
    # r * d2 < d1 leaves no dilation for any channel
    assert _run(["localtest", "--seed", "0", "--d1", "4", "--d2", "1", "--r", "2"]).exit_code == 2


def test_localtest_budget_refusal():
    res = _run(["localtest", "--seed", "0", "--n", "2", "--d1", "8", "--d2", "8", "--r", "8"])
    assert res.exit_code == 3


# ---------------------------------------------------------------------------
# packing-net
# ---------------------------------------------------------------------------


def test_packing_net_report():
    args = [
        "packing-net", "--seed", "4", "--regime", "type1", "--d1", "4", "--d2", "2",
        "--r", "2", "--eps", "0.05", "--count", "4",
    ]
    res = _run(args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["all_passed"] is True
    net = report["net"]
    assert net["regime"] == "type1"
    assert net["eps"] == 0.05
    assert len(net["channels"]) == 4
    assert net["min_pairwise"] > 0.0
    assert "see-saws converged" not in [c["name"] for c in report["checks"]]


def test_packing_net_diamond_report_counts_unconverged_seesaws():
    args = ["packing-net", "--seed", "4", "--metric", "diamond_lower", "--count", "4"]
    res = _run(args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["checks"][-1] == {
        "name": "see-saws converged", "passed": True, "value": 0.0, "detail": "6 see-saws"
    }


def test_packing_net_takes_exact_distances_only_where_the_greedy_reads_them(monkeypatch):
    count, pool = 64, 8 * 64
    evaluated = []

    def counted(choi, chois, d_in):
        out = choi_trace_distances(choi, chois, d_in)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(metrics, "choi_trace_distances", counted)
    monkeypatch.setattr(hardness, "choi_trace_distances", counted)
    res = _run(["packing-net", "--seed", "3", "--count", str(count)])
    assert res.exit_code == 0, res.output
    # one exact row per kept point, and a few for the widest pair; all pool
    # pairs would be pool (pool - 1) / 2 = 130,816
    assert 0 < sum(evaluated) <= count * (pool - 1) + 64


def test_packing_net_rejects_invalid_dims():
    # type1 requires 3 r d2 <= 4 d1
    res = _run(["packing-net", "--seed", "0", "--regime", "type1", "--d1", "2", "--d2", "4", "--r", "2"])
    assert res.exit_code == 2


def test_packing_net_rejects_bad_count():
    res = _run(["packing-net", "--seed", "0", "--count", "1"])
    assert res.exit_code == 2


def test_packing_net_unknown_regime():
    res = _run(["packing-net", "--seed", "0", "--regime", "type9"])
    assert res.exit_code == 2


@pytest.mark.parametrize("eps", ["0", "0.5", "nan"])
def test_packing_net_eps_outside_open_half_interval_is_a_usage_error(eps):
    # eps 0 gives an infinite separation ratio, which strict JSON cannot carry
    res = _run(["packing-net", "--seed", "3", "--eps", eps, "--count", "4"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


def test_tomography_isometry_route():
    res = _run(["tomography", "--seed", "5", "--d1", "2", "--d2", "2", "--eps", "0.5", "--trials", "3"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    names = [c["name"] for c in report["checks"]]
    assert "query accounting matches the formula" in names
    assert report["all_passed"] is True


def test_tomography_channel_route():
    res = _run(
        ["tomography", "--seed", "6", "--d1", "2", "--d2", "2", "--eps", "0.6", "--trials", "2", "--r", "2"]
    )
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["config"]["r"] == 2
    assert report["all_passed"] is True


def test_tomography_usage_errors():
    assert _run(["tomography", "--seed", "0", "--eps", "0"]).exit_code == 2
    assert _run(["tomography", "--seed", "0", "--eps", "1.5"]).exit_code == 2
    # a float range would admit nan, which then crashes the query count
    assert _run(["tomography", "--seed", "0", "--eps", "nan"]).exit_code == 2
    # eps^2 / 64 underflows: no query charge could be counted
    assert _run(["tomography", "--seed", "0", "--eps", "1e-200"]).exit_code == 2
    assert _run(["tomography", "--seed", "0", "--trials", "0"]).exit_code == 2
    assert _run(["tomography", "--seed", "0", "--r", "-1"]).exit_code == 2
    assert _run(["tomography", "--seed", "0", "--d1", "3", "--d2", "2"]).exit_code == 2
    assert _run(["tomography", "--seed", "0", "--d1", "4", "--d2", "1", "--r", "2"]).exit_code == 2


@pytest.mark.parametrize(
    "seed,r,dims",
    [pytest.param(seed, r, [], id=f"{seed}-{r}") for seed in (1, 2, 3) for r in (0, 2)]
    # the worst channel cases of a sweep over d1, d2 <= 16 and seeds 0-9: targets that
    # missed isometry by 1.17e-10 and 3.55e-11 would hold their Choi errors there at any eps
    + [
        pytest.param(0, 2, ["--d1", "15", "--d2", "15"], id="0-2-d15"),
        pytest.param(2, 1, ["--d1", "16", "--d2", "16"], id="2-1-d16"),
    ],
)
def test_tomography_passes_at_the_least_eps(seed, r, dims):
    # below MIN_EPS the checks would compare eps with a correct run's error floor; such
    # eps values are usage errors
    args = ["tomography", "--seed", str(seed), "--r", str(r), *dims, "--eps"]
    res = _run(args + [repr(MIN_EPS)])
    assert res.exit_code == 0, res.output
    assert _run(args + [repr(MIN_EPS / 2)]).exit_code == 2


def test_tomography_draws_complete_channels_of_any_conditioning():
    # an ill-conditioned draw: the polar factor G S^-1/2 of its Ginibre matrix (S = G^dag G)
    # misses completeness by 1.01e-9, above ATOL; its Gram-Schmidt dilation is an isometry
    # to rounding
    res = _run(["tomography", "--seed", "7", "--d1", "15", "--d2", "15", "--r", "1"])
    assert res.exit_code == 0, res.output


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distances_report():
    res = _run(["distances", "--seed", "8", "--d1", "2", "--d2", "2", "--pairs", "3"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    names = [c["name"] for c in report["checks"]]
    assert "choi below diamond sandwich" in names
    assert "see-saw matches analytic unitary distance" in names
    assert report["checks"][-1] == {
        "name": "see-saws converged", "passed": True, "value": 0.0, "detail": "5 see-saws"
    }
    assert report["all_passed"] is True


def test_distances_seed_771_raises_no_false_alarm():
    # once a false alarm: one restart of a pair hit the iteration cap near the maximum of 2
    # and failed "see-saws converged" while the other attained the estimate
    res = _run(["distances", "--seed", "771", "--d1", "4", "--d2", "6", "--pairs", "2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert all(check["passed"] for check in report["checks"])
    assert report["all_passed"] is True


def test_distances_usage_error():
    assert _run(["distances", "--seed", "0", "--pairs", "0"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["distances", "--d1", "0"],
        ["distances", "--d1", "-1"],
        ["distances", "--d2", "0"],
        ["tomography", "--d1", "0"],
        ["tomography", "--d2", "0"],
        ["localtest", "--testers", "0"],
        ["localtest", "--channels", "0"],
        ["localtest", "--samples", "1"],
        ["localtest", "--samples", "0"],
    ],
    ids=" ".join,
)
def test_bad_dimensions_and_counts_are_usage_errors(args):
    res = _run(args + ["--seed", "1"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "command", ["verify", "moments", "localtest", "packing-net", "tomography", "distances"]
)
def test_negative_seed_is_a_usage_error(command):
    res = _run([command, "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify"],
        ["moments", "--d", "2", "--samples", "200"],
        ["localtest", "--samples", "200"],
        ["packing-net", "--count", "4"],
        ["tomography", "--trials", "4"],
        ["tomography", "--r", "2", "--trials", "4"],
        ["distances", "--pairs", "3"],
    ],
    ids=" ".join,
)
def test_no_two_draws_of_a_command_share_a_generator_seed(args, monkeypatch):
    # every (root seed, index) a command seeds a generator with is its own stream
    seeds = []

    def recorded(root_seed, index):
        seeds.append((root_seed, index))
        return trial_rng(root_seed, index)

    trial_rng = cli._trial_rng
    monkeypatch.setattr(cli, "_trial_rng", recorded)
    res = _run(args + ["--seed", "3"])
    assert res.exit_code == 0, res.output
    assert seeds or args[0] == "packing-net"  # which seeds its draws in sample_packing_net
    assert len(set(seeds)) == len(seeds), sorted(seeds)


@pytest.mark.parametrize("args", [["--count", "100000"], ["--d1", "-5000"]], ids=" ".join)
def test_packing_net_ranges_are_checked_before_the_byte_bound(args):
    res = _run(["packing-net", "--seed", "0", *args])
    assert res.exit_code == 2, res.output
    assert "declined" not in res.stderr


def test_config_follows_declared_order_not_command_line_order():
    first = _run(["moments", "--samples", "200", "--d", "2", "--seed", "3"])
    second = _run(["moments", "--seed", "3", "--d", "2", "--samples", "200"])
    assert first.exit_code == 0, first.output
    assert first.stdout == second.stdout
    assert list(json.loads(first.stdout)["config"]) == ["seed", "d", "samples"]


def test_gated_commands_load_no_scipy():
    # the Monte Carlo gate's t quantile is a closed form: scipy, which the package does not
    # declare, would add tens of MiB and a tenth of a second or more to each run
    code = (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "from ctlab.cli import main\n"
        "for args in (['moments', '--d', '2'], ['localtest', '--n', '1']):\n"
        "    assert CliRunner().invoke(main, args + ['--seed', '3']).exit_code == 0, args\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ctlab.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout == "[]\n"


def test_failing_check_exits_one(monkeypatch):
    # force a wrong closed-form value so the identity check fails
    monkeypatch.setattr("ctlab.cli.fourth_moment_trace", lambda *ops: 999.0)
    res = _run(["moments", "--seed", "0", "--d", "2", "--samples", "2000"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["all_passed"] is False


# ---------------------------------------------------------------------------
# memory budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        # twirl2's seven 4900 x 4900 operators, 2.7 GB (no --samples costs bytes)
        ["moments", "--d", "70"],
        # dense two-query outcomes of 4096 x 4096, 5.8 GB (no --samples costs bytes)
        ["localtest", "--n", "2", "--d1", "4", "--d2", "4", "--r", "4"],
        # up to 1024 lifted Kraus operators of 16 MiB each, per channel
        ["distances", "--d1", "32", "--d2", "32"],
        # a pool of 128 Choi matrices of 256 MiB each
        ["packing-net", "--d1", "64", "--d2", "64", "--r", "1"],
    ],
    ids=" ".join,
)
def test_over_budget_runs_are_declined_before_work(args):
    start = time.perf_counter()
    res = _run(args + ["--seed", "0"])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 3
    assert "declined" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        # 50000 Haar samples streamed in 1024-sample chunks, whose values are merged into
        # running statistics chunk by chunk: the peak is the chunk workspace alone
        ["moments", "--d", "4", "--samples", "50000"],
        # part of one chunk, one chunk nearly full, and three and a half chunks of samples: the
        # workspace is sized to the first chunk and nothing else grows with the samples
        pytest.param(["moments", "--d", "2", "--samples", "4016"], id="moments-one-chunk"),
        pytest.param(["moments", "--d", "5", "--samples", "282"], id="moments-part-chunk"),
        pytest.param(["moments", "--d", "2", "--samples", "14029"], id="moments-four-chunks"),
        # 20000 two-query samples in pieces of 4096 unitaries, their values merged piece by
        # piece: one piece and its values, the stream that draws the next, and four run arrays
        ["localtest", "--n", "2", "--samples", "20000", "--testers", "1", "--channels", "1"],
        # ten times as many one-query samples hold no more: nothing grows with --samples
        pytest.param(
            ["localtest", "--n", "1", "--samples", "200000", "--testers", "1", "--channels", "1"],
            id="localtest-many-samples",
        ),
        # 16 candidates drawn from 1 MiB 256 x 256 Haar blocks, one block at a time
        ["packing-net", "--regime", "type2-large", "--d1", "4", "--d2", "16", "--r", "32", "--count", "2"],
        # 256 candidates drawn and orthonormalised in 256 KiB runs of 37 21 x 21 Haar blocks:
        # the peak is the stacked pool's, not the net's
        pytest.param(
            ["packing-net", "--regime", "type2-large", "--d1", "1", "--d2", "10", "--r", "3", "--count", "32"],
            id="packing-net-stacked-pool",
        ),
        # one channel-mode trial through a 512 x 4 dilation: its column estimates, SVD
        # factors and 64 x 64 Choi matrices, about 0.45 MB
        ["tomography", "--d1", "4", "--d2", "16", "--r", "32", "--trials", "1"],
        # 400 isometry trials in one batch, their generators and the phase search's stacks
        pytest.param(["tomography", "--d1", "3", "--d2", "8", "--trials", "400"], id="tomography-isometry"),
        # 400 channel trials in one batch: the targets' dilations, drawn and validated, both
        # weak runs' column estimates and SVD factors, and a run's estimated and target Choi
        # matrices (no target Choi matrix or Kraus set is held per trial)
        pytest.param(
            ["tomography", "--d1", "2", "--d2", "3", "--r", "2", "--trials", "400"], id="tomography-channel"
        ),
        # 200 isometry trials whose oracle batch dominates: 1,600 columns of 64 entries, their
        # normals and their draw, projection and combination stacks, 1.6 MB each
        pytest.param(["tomography", "--d1", "4", "--d2", "64", "--trials", "200"], id="tomography-oracle"),
        # 4 MiB of lifted Kraus operators per channel
        ["distances", "--d1", "4", "--d2", "32", "--pairs", "1"],
        # the unitary check's 16 restart rows over 324 KiB pull-backs
        pytest.param(["distances", "--d1", "12", "--d2", "1", "--pairs", "1"], id="distances-unitary"),
        # 132 see-saw rows holding 27 MiB of lifted Kraus operators
        pytest.param(
            ["packing-net", "--metric", "diamond_lower", "--d1", "6", "--d2", "4", "--count", "12"],
            id="packing-net-diamond_lower",
        ),
    ],
    ids=lambda args: args[0],
)
def test_declared_bound_covers_traced_peak(args, monkeypatch):
    declared = []

    def record(nbytes, what):
        declared.append(nbytes)
        require_bytes(nbytes, what)

    monkeypatch.setattr(cli, "require_bytes", record)
    # numpy imports numpy.random on its first use: those modules (about 0.8 MB when this case
    # runs first) are the interpreter's, inside the fixed slack, not arrays the bound counts
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        res = _run(args + ["--seed", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert len(declared) == 1
    bound = declared[0] - 2**24  # without _budget_guard's fixed slack, so small cases can fail
    assert peak <= bound, (peak, bound)
    if args[0] == "moments":
        # a bound far above the peak declines runs the machine could hold
        assert bound <= 1.5 * peak, (peak, bound)
