import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctlab import cli, hardness, linalg, localtest, moments
from ctlab.linalg import dag, haar_unitaries, swap_operator
from ctlab.moments import (
    fourth_moment_trace,
    mc_fourth_moment_trace,
    mc_fourth_moment_traces,
    mc_verdict,
    twirl1,
    twirl2,
)


def _herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# Twirls
# ---------------------------------------------------------------------------


def test_twirl1_structure():
    rng = np.random.default_rng(0)
    m = _herm(6, rng)
    out = twirl1(m, (2, 3), 0)
    # target factor becomes maximally mixed, the rest keeps its marginal
    from ctlab.linalg import partial_trace

    want = np.kron(np.eye(2) / 2, partial_trace(m, (2, 3), (0,)))
    assert np.abs(out - want).max() < 1e-12


def test_twirl1_on_second_factor():
    rng = np.random.default_rng(1)
    m = _herm(6, rng)
    from ctlab.linalg import partial_trace

    out = twirl1(m, (2, 3), 1)
    want = np.kron(partial_trace(m, (2, 3), (1,)), np.eye(3) / 3)
    assert np.abs(out - want).max() < 1e-12


def test_twirl1_idempotent_and_trace_preserving():
    rng = np.random.default_rng(2)
    m = _herm(6, rng)
    once = twirl1(m, (2, 3), 0)
    assert np.abs(twirl1(once, (2, 3), 0) - once).max() < 1e-12
    assert abs(np.trace(once) - np.trace(m)) < 1e-12


def test_twirl1_unitary_invariance():
    rng = np.random.default_rng(3)
    m = _herm(6, rng)
    u = haar_unitaries(2, 1, rng)[0]
    big = np.kron(u, np.eye(3))
    assert np.abs(twirl1(big @ m @ dag(big), (2, 3), 0) - twirl1(m, (2, 3), 0)).max() < 1e-12


def test_twirl1_monte_carlo():
    rng = np.random.default_rng(4)
    m = _herm(6, rng)
    us = haar_unitaries(2, 20000, rng)
    acc = np.zeros((6, 6), dtype=complex)
    for u in us:
        big = np.kron(u, np.eye(3))
        acc += big @ m @ dag(big)
    acc /= len(us)
    assert np.abs(acc - twirl1(m, (2, 3), 0)).max() < 0.05


def test_twirl2_fixes_identity_and_swap():
    d = 2
    s = swap_operator(d)
    assert np.abs(twirl2(np.eye(d * d), (d, d), (0, 1)) - np.eye(d * d)).max() < 1e-12
    assert np.abs(twirl2(s, (d, d), (0, 1)) - s).max() < 1e-12


def test_twirl2_idempotent():
    rng = np.random.default_rng(5)
    m = _herm(8, rng)  # 2 x 2 x 2, twirl the outer pair
    once = twirl2(m, (2, 2, 2), (0, 2))
    assert np.abs(twirl2(once, (2, 2, 2), (0, 2)) - once).max() < 1e-11


@st.composite
def _twirl_inputs(draw):
    """A random Hermitian operator on 2-3 factors with a repeated dimension
    at two distinct target positions."""
    d = draw(st.integers(1, 3))
    extra = draw(st.lists(st.integers(1, 3), max_size=1))
    dims = [d, d] + extra
    order = draw(st.permutations(range(len(dims))))
    dims = tuple(dims[k] for k in order)
    targets = (order.index(0), order.index(1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _herm(int(np.prod(dims)), rng), dims, targets


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_twirl_inputs())
def test_twirls_are_idempotent(case):
    m, dims, targets = case
    once1 = twirl1(m, dims, targets[0])
    assert np.abs(twirl1(once1, dims, targets[0]) - once1).max() < 1e-12
    once2 = twirl2(m, dims, targets)
    assert np.abs(twirl2(once2, dims, targets) - once2).max() < 1e-11


def test_twirl2_monte_carlo():
    rng = np.random.default_rng(6)
    d = 2
    m = _herm(d * d, rng)
    us = haar_unitaries(d, 20000, rng)
    acc = np.zeros_like(m)
    for u in us:
        big = np.kron(u, u)
        acc += big @ m @ dag(big)
    acc /= len(us)
    assert np.abs(acc - twirl2(m, (d, d), (0, 1))).max() < 0.05


def test_twirl2_requires_matching_dims():
    rng = np.random.default_rng(7)
    m = _herm(6, rng)
    with pytest.raises(ValueError):
        twirl2(m, (2, 3), (0, 1))


def test_twirl_positions_are_checked():
    m = np.eye(4)
    with pytest.raises(ValueError, match="out of range"):
        twirl1(m, (2, 2), 2)
    with pytest.raises(ValueError, match="exactly two"):
        twirl2(m, (2, 2), (0,))
    with pytest.raises(ValueError, match="permutation"):
        twirl2(m, (2, 2), (1, 1))


# ---------------------------------------------------------------------------
# Fourth-moment traces
# ---------------------------------------------------------------------------


def test_fourth_moment_identity_case():
    for d in (2, 3, 4):
        eye = np.eye(d)
        val = fourth_moment_trace(eye, eye, eye, eye)
        assert abs(val - d) < 1e-12


def test_fourth_moment_all_z():
    z = np.diag([1.0, -1.0]).astype(complex)
    val = fourth_moment_trace(z, z, z, z)
    assert abs(val - (-2.0 / 3.0)) < 1e-12


def test_fourth_moment_linearity():
    rng = np.random.default_rng(8)
    a, b, c, e = (_herm(3, rng) for _ in range(4))
    lhs = fourth_moment_trace(2.0 * a, b, c, e)
    assert abs(lhs - 2.0 * fourth_moment_trace(a, b, c, e)) < 1e-10


def test_fourth_moment_shape_guard():
    with pytest.raises(ValueError):
        fourth_moment_trace(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


@pytest.mark.parametrize("d", [2, 3])
def test_fourth_moment_monte_carlo(d):
    rng = np.random.default_rng(20 + d)
    us = haar_unitaries(d, 60000, rng)
    for _ in range(3):
        ops = [_herm(d, rng) for _ in range(4)]
        exact = fourth_moment_trace(*ops)
        est = mc_fourth_moment_trace(*ops, unitaries=us)
        assert abs(est.mean.real - exact.real) <= 5 * est.stderr_real
        assert abs(est.mean.imag - exact.imag) <= 5 * est.stderr_imag


def _direct_traces(us, a1, b1, a2, b2):
    return np.array([np.trace(u @ a1 @ dag(u) @ b1 @ u @ a2 @ dag(u) @ b2) for u in us])


def _gathered(chunks, quads):
    """Every value the fourth-moment kernel yields over a stream of chunks, as one
    (quadruples, count) array: each chunk is copied before the next overwrites it."""
    return np.concatenate([vals.copy() for vals in moments._fourth_moment_values(chunks, quads)], axis=1)


def test_mc_fourth_moment_mean_matches_direct_traces():
    rng = np.random.default_rng(2)
    us = haar_unitaries(3, 16, rng)
    a1, b1, a2, b2 = (
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)
    )
    est = mc_fourth_moment_trace(a1, b1, a2, b2, unitaries=us)
    assert abs(est.mean - _direct_traces(us, a1, b1, a2, b2).mean()) < 1e-10
    assert est.n_samples == 16


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 4),
    per_chunk=st.integers(1, 5),
    n=st.integers(1, 18),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=4, per_chunk=3, n=10, seed=0)  # three whole chunks and a ragged tail
@example(d=2, per_chunk=4, n=4, seed=1)  # exactly one chunk
@example(d=3, per_chunk=4, n=1, seed=2)  # a batch of one
def test_mc_fourth_moment_chunks_match_direct_traces(d, per_chunk, n, seed):
    rng = np.random.default_rng(seed)
    us = haar_unitaries(d, n, rng)
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(4)]
    want = _direct_traces(us, *ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_BYTES", per_chunk * 16 * d * d)
        vals = _gathered(moments._batch_chunks(us), [ops])[0]
        est = mc_fourth_moment_trace(*ops, unitaries=us)
    assert np.abs(vals - want).max() < 1e-10
    assert abs(est.mean - want.mean()) < 1e-10
    assert est.n_samples == n
    if n == 1:
        assert est.stderr_real == est.stderr_imag == float("inf")
    else:
        assert abs(est.stderr_real - want.real.std(ddof=1) / np.sqrt(n)) < 1e-10
        assert abs(est.stderr_imag - want.imag.std(ddof=1) / np.sqrt(n)) < 1e-10


def _allocating_samples(us, a1, b1, a2, b2):
    """The fourth-moment kernel with fresh arrays for every product (the referee of the
    workspace kernel): each einsum picks its own output layout, and so its summation order."""
    n, d, _ = us.shape
    vals = np.empty(n, dtype=complex)

    def gemm(f, v):
        return (f.T @ v.reshape(d, -1)).reshape(d, d, -1)

    step = max(1, linalg._CHUNK_BYTES // (16 * d * d))
    for s in range(0, n, step):
        uk = np.ascontiguousarray(us[s : s + step].transpose(2, 1, 0))
        uc = np.conjugate(uk.transpose(1, 0, 2), order="C")
        q = np.einsum("kib,jkb->ijb", gemm(a2, uk), gemm(b2, uc))
        np.einsum("kib,jkb,jib->b", gemm(a1, uk), gemm(b1, uc), q, out=vals[s : s + step])
    return vals


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 5),
    per_chunk=st.integers(2, 7),
    count=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=4, per_chunk=3, count=1000, seed=5)  # hundreds of chunks, the last partial
def test_streamed_quadruples_equal_the_batch_kernel_bit_for_bit(d, per_chunk, count, seed):
    assume(count % per_chunk)
    rng = np.random.default_rng(seed)
    quads = [
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(4)]
        for _ in range(3)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_BYTES", per_chunk * 16 * d * d)
        stream_rng, batch_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        chunks = linalg._isometry_chunks(d, d, [(np.random.default_rng(seed + 1), count)])
        streamed = _gathered(chunks, quads)
        estimates = moments.mc_fourth_moment_traces(quads, count, stream_rng)
        us = haar_unitaries(d, count, batch_rng)
        for ops, vals, est in zip(quads, streamed, estimates):
            assert np.array_equal(vals, _gathered(moments._batch_chunks(us), [ops])[0])
            assert np.array_equal(vals, _allocating_samples(us, *ops))
            assert est == mc_fourth_moment_trace(*ops, unitaries=us)
    assert stream_rng.bit_generator.state == batch_rng.bit_generator.state


@st.composite
def _split_samples(draw):
    """Complex samples, n from 1 to 500, and cut points that split them into chunks."""
    n = draw(st.integers(1, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale, shift = draw(st.sampled_from([(1.0, 0.0), (1e-3, 1e3), (1e4, -5.0)]))
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) + shift * (1 + 2j)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 40))) if n > 1 else [])
    return x, cuts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_split_samples())
@example((np.arange(7) * (1 - 1j), [1, 2, 3, 4, 5, 6]))  # every chunk a single sample
@example((np.array([2.5 - 1j]), []))  # one sample: an infinite stderr
def test_merged_statistics_equal_the_whole_array(split):
    x, cuts = split
    bounds = [0, *cuts, x.size]
    # real rows as route (c) of localtest merges them, and a complex row's real and imaginary
    # parts stacked as moments merges them, samples along the last axis
    for rows in (x.real[None], np.stack((x.real, x.imag))[None]):
        chunks = [rows[..., a:b].copy() for a, b in zip(bounds, bounds[1:])]  # _merge overwrites
        n, mean, stderr = moments._statistics(functools.reduce(moments._merge, chunks, moments._NO_SAMPLES))
        assert n == x.size
        assert mean.shape == stderr.shape == rows.shape[:-1]
        for got_mean, got_stderr, part in zip(mean.ravel(), stderr.ravel(), rows.reshape(-1, x.size)):
            want = part.mean()
            assert abs(got_mean - want) <= 1e-12 * (1 + abs(want))
            if x.size == 1:
                assert got_stderr == np.inf
                continue
            want = part.std(ddof=1) / np.sqrt(x.size)
            assert abs(got_stderr - want) <= 1e-12 * (1 + want)


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_refuses_fewer_than_one_sample(samples):
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least 1 sample"):
        mc_fourth_moment_traces([[np.eye(2)] * 4], samples, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="at least 1 sample"):
        mc_fourth_moment_trace(*[np.eye(2)] * 4, unitaries=np.empty((0, 2, 2)))


def test_mc_fourth_moment_traces_memory_is_constant_in_samples():
    # the statistics are merged chunk by chunk, so ten times the samples hold no more memory
    rng = np.random.default_rng(16)
    quads = [
        [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
        for _ in range(3)
    ]
    peaks = []
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            mc_fourth_moment_traces(quads, samples, np.random.default_rng(17))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks


def test_mc_fourth_moment_traces_shape_guard():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="one dimension"):
        mc_fourth_moment_traces([[np.eye(2)] * 4, [np.eye(3)] * 4], 10, rng)
    with pytest.raises(ValueError, match="square and equal size"):
        mc_fourth_moment_traces([[np.eye(2), np.eye(2), np.eye(3), np.eye(2)]], 10, rng)


def test_mc_fourth_moment_memory_stays_below_one_batch():
    rng = np.random.default_rng(12)
    us = haar_unitaries(4, 50_000, rng)
    ops = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(4)]
    tracemalloc.start()
    try:
        mc_fourth_moment_trace(*ops, unitaries=us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < us.nbytes


def test_mc_fourth_moment_shape_guard():
    us = haar_unitaries(2, 5, np.random.default_rng(13))
    for ops in (
        (np.eye(2), np.eye(3), np.eye(2), np.eye(2)),
        (np.eye(2), np.eye(2), np.ones((2, 3)), np.eye(2)),
    ):
        with pytest.raises(ValueError, match="square and equal size"):
            mc_fourth_moment_trace(*ops, unitaries=us)
        with pytest.raises(ValueError, match="square and equal size"):
            fourth_moment_trace(*ops)


def test_mc_fourth_moment_batch_shape_guard():
    rng = np.random.default_rng(9)
    us = haar_unitaries(3, 5, rng)
    with pytest.raises(ValueError):
        mc_fourth_moment_trace(np.eye(2), np.eye(2), np.eye(2), np.eye(2), unitaries=us)


def test_mc_fourth_moment_identity_is_exact():
    rng = np.random.default_rng(10)
    eye = np.eye(3)
    est = mc_fourth_moment_trace(eye, eye, eye, eye, unitaries=haar_unitaries(3, 50, rng))
    assert abs(est.mean - 3.0) < 1e-10
    assert est.n_samples == 50


# ---------------------------------------------------------------------------
# The Monte Carlo gate
# ---------------------------------------------------------------------------


def test_gate_rate_is_the_two_sided_five_sigma_tail():
    assert moments._ALPHA == pytest.approx(5.733031e-7, rel=1e-6)


def test_t_quantile_is_exact_at_one_and_two_degrees_of_freedom():
    a = moments._ALPHA
    assert moments._t_quantile(1) == pytest.approx(1 / math.tan(math.pi * a / 2), rel=1e-12)
    assert moments._t_quantile(2) == pytest.approx(math.sqrt(2 / (a * (2 - a)) - 2), rel=1e-12)


def test_t_quantile_decreases_toward_five():
    nus = list(range(1, 3000)) + [int(x) for x in np.geomspace(3000, 10**8, 200)]
    q = [moments._t_quantile(nu) for nu in nus]
    assert all(a > b for a, b in zip(q, q[1:]))
    assert 5.0 < q[-1] < 5.0 + 1e-6
    # the thresholds at the commands' default sample counts sit a few thousandths above 5
    assert moments._t_quantile(4_999) == pytest.approx(5.0065, abs=1e-4)
    assert moments._t_quantile(19_999) == pytest.approx(5.0016, abs=1e-4)


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 10**7))
    @example(3)
    @example(4)
    @example(5)
    @example(10**7)
    def check(nu):
        assert moments._t_quantile(nu) == pytest.approx(stats.t.isf(moments._ALPHA / 2, nu), rel=1e-4)

    check()


@pytest.mark.parametrize("n", [1, 0, -2])
def test_gate_refuses_fewer_than_two_samples(n):
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_verdict(0.0, 1.0, n, 0.0)


def test_gate_forgives_rounding_of_a_large_exact_value():
    # every sample equal to the exact value up to rounding, as at d = 1: a stderr of 0 and
    # an excess far below 1e-10 |exact| pass, though excess / floored stderr reads 100
    z, ok = mc_verdict(1e-13, 0.0, 20_000, 1e3)
    assert ok
    assert z == pytest.approx(100.0)
    assert not mc_verdict(2e-7, 0.0, 20_000, 1e3)[1]


def test_gate_threshold_follows_the_degrees_of_freedom():
    for n in (2, 3, 10, 5_000):
        t = moments._t_quantile(n - 1)
        assert mc_verdict(0.999 * t, 1.0, n, 0.0) == (pytest.approx(0.999 * t), True)
        assert not mc_verdict(1.001 * t, 1.0, n, 0.0)[1]
    # arrays broadcast, and one excess over its gate fails them all
    z, ok = mc_verdict(np.array([0.0, 13.0]), np.array([1.0, 1.0]), 10, np.array([0.5, 0.5]))
    assert (z, ok) == (13.0, False)


def _ginibre(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _gate_quadruple(ops, mc, samples):
    exact = fourth_moment_trace(*ops)
    excess = np.abs([(mc.mean - exact).real, (mc.mean - exact).imag])
    return mc_verdict(excess, np.array([mc.stderr_real, mc.stderr_imag]), samples, exact)[1]


def test_gate_passes_correct_monte_carlo_at_few_samples():
    # at 5 standard errors, 113 of these 200 seeds failed at 2 samples
    failures = []
    for samples in (2, 3, 5, 10):
        for seed in range(200):
            rng = np.random.default_rng([seed, samples])
            quads = [[_ginibre(2, rng) for _ in range(4)] for _ in range(3)]
            for ops, mc in zip(quads, mc_fourth_moment_traces(quads, samples, rng)):
                if not _gate_quadruple(ops, mc, samples):
                    failures.append((samples, seed))
    assert failures == []


def _probe_records(samples):
    # one lower and one upper record whose means sit on their bounds
    z = np.random.default_rng(samples).standard_normal(samples)
    records = [hardness._record("lower", list(2.0 + z - z.mean()), 2.0, "lower")]
    records.append(hardness._record("upper", list(3.0 + z - z.mean()), 3.0, "upper"))
    return [rec.ok for rec in records]


_GATED = {
    "moments": (cli, ["moments", "--d", "2"]),
    "localtest": (localtest, ["localtest", "--n", "1", "--testers", "1", "--channels", "2"]),
    "moment probe": (hardness, None),
}


@pytest.mark.parametrize("samples", [5_000, 20_000])
@pytest.mark.parametrize("site", list(_GATED))
def test_a_mean_six_stderr_away_fails_every_gate(site, samples, monkeypatch):
    module, args = _GATED[site]
    verdicts = []

    def moved(excess, stderr, n, exact):
        # each mean moved 6 stderr further from its exact value (or past its bound)
        verdict = mc_verdict(excess + 6 * np.asarray(stderr), stderr, n, exact)
        verdicts.append(verdict[1])
        return verdict

    if args is None:
        assert all(_probe_records(samples))
        monkeypatch.setattr(module, "mc_verdict", moved)
        assert not any(_probe_records(samples))
    else:
        command = args + ["--samples", str(samples), "--seed", "3"]
        assert CliRunner().invoke(cli.main, command).exit_code == 0
        monkeypatch.setattr(module, "mc_verdict", moved)
        res = CliRunner().invoke(cli.main, command)
        assert res.exit_code == 1
        checks = json.loads(res.stdout)["checks"]
        gated = [c for c in checks if c["name"].startswith(("fourth moment quadruple", "tester"))]
        assert gated and not any(c["passed"] for c in gated)
    assert verdicts and not any(verdicts)
