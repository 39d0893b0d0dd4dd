import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlab import hardness, linalg
from ctlab.combs import FactoredOperator
from ctlab.hardness import (
    Regime,
    amplitude_statistic,
    build_instance,
    build_instances,
    certify_gamma_comb,
    choi_cross_statistic,
    d_statistic,
    diamond_cross_statistic,
    gamma_vector,
    instance_channels,
    kraus_partition,
    lipschitz_probe,
    moment_experiment,
    sample_packing_net,
    type1_gamma_family,
    type2_gamma_family,
)
from ctlab.channels import channel_from_json
from ctlab.linalg import ATOL, dag, min_eig, partial_trace
from ctlab.metrics import choi_trace_distance, choi_trace_distances, diamond_distance, diamond_distances

# example dimensions, one per regime
CASES = {
    Regime.TYPE1: (4, 2, 2),
    Regime.TYPE2_NEAR: (5, 2, 3),
    Regime.TYPE2_MID: (4, 3, 2),
    Regime.TYPE2_LARGE: (2, 4, 3),
}


def test_regime_values():
    assert Regime.TYPE1.value == "type1"
    assert Regime.TYPE2_NEAR.value == "type2-near"
    assert Regime.TYPE2_MID.value == "type2-mid"
    assert Regime.TYPE2_LARGE.value == "type2-large"
    assert Regime("type2-mid") is Regime.TYPE2_MID


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("regime", list(Regime))
def test_builders_produce_exact_isometries(regime):
    d1, d2, r = CASES[regime]
    rng = np.random.default_rng(0)
    for _ in range(10):
        inst = build_instance(regime, d1, d2, r, 0.1, rng)
        m = inst.matrix
        assert m.shape == (r * d2, d1)
        defect = np.abs(dag(m) @ m - np.eye(d1)).max()
        assert defect < 1e-12
        assert inst.dims == (d1, d2, r)
        assert inst.eps == 0.1
        # the center and the perturbation split the matrix exactly
        assert np.abs(inst.v0 + 0.1 * inst.direction - m).max() == 0


def test_type1_structure():
    rng = np.random.default_rng(1)
    inst = build_instance(Regime.TYPE1, 4, 2, 2, 0.2, rng)
    # diagonal center, damped on the even block
    assert np.abs(inst.v0 - np.diag([math.sqrt(0.96)] * 4)).max() < 1e-12
    # anti-hermitian template: +i on the first half, -i on the second
    want = np.diag([1j, 1j, -1j, -1j])
    assert np.abs(inst.delta - want).max() == 0
    # the direction is the conjugated template, so it shares its spectrum; the real
    # parts are rounding noise, so the eigenvalues are ordered by imaginary part alone
    evs = np.linalg.eigvals(inst.direction[:4, :4])
    assert np.abs(np.sort(evs.imag) - np.array([-1.0, -1.0, 1.0, 1.0])).max() < 1e-10
    assert np.abs(evs.real).max() < 1e-10


def test_type1_odd_dimension():
    rng = np.random.default_rng(2)
    inst = build_instance(Regime.TYPE1, 5, 2, 3, 0.1, rng)
    # odd leftover column is untouched
    assert inst.v0[4, 4] == 1.0
    assert np.abs(inst.delta[:, 4]).max() == 0
    assert np.abs(inst.direction[:, 4]).max() == 0
    assert abs(np.trace(inst.delta)) == 0


def test_type2_near_structure():
    rng = np.random.default_rng(3)
    d1, d2, r = CASES[Regime.TYPE2_NEAR]
    inst = build_instance(Regime.TYPE2_NEAR, d1, d2, r, 0.1, rng)
    # core is diagonal on r*(d2-1) columns, the tail rows are appended after
    nfull = r * (d2 - 1)
    assert np.abs(inst.v0_core[nfull:, :]).max() == 0
    eta = d1 - nfull
    for t in range(eta):
        assert inst.v0[r * d2 - eta + t, nfull + t] == 1.0
    # perturbation enters fresh rows only
    assert np.abs(inst.direction[:nfull, :]).max() == 0


def test_type2_large_uses_partition():
    rng = np.random.default_rng(4)
    d1, d2, r = CASES[Regime.TYPE2_LARGE]
    inst = build_instance(Regime.TYPE2_LARGE, d1, d2, r, 0.1, rng)
    blocks = inst.anc_blocks()
    s = sum(dag(k) @ k for k in blocks)
    # the damped partition sums to (1 - eps^2) I
    assert np.abs(s - 0.99 * np.eye(d1)).max() < 1e-12


@pytest.mark.parametrize(
    "regime,dims",
    [
        (Regime.TYPE1, (5, 2, 2)),  # d1 > r*d2
        (Regime.TYPE1, (2, 2, 4)),  # 3*r*d2 > 4*d1
        (Regime.TYPE2_NEAR, (6, 2, 3)),  # r*d2 <= d1
        (Regime.TYPE2_NEAR, (4, 3, 2)),  # r*d2 >= d1 + r
        (Regime.TYPE2_MID, (2, 3, 3)),  # r > d1
        (Regime.TYPE2_LARGE, (3, 4, 3)),  # d1 >= r
        (Regime.TYPE2_LARGE, (2, 2, 3)),  # 2r > d1*d2
    ],
)
def test_builder_dimension_guards(regime, dims):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        build_instance(regime, *dims, 0.1, rng)


def test_eps_range_guard():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        build_instance(Regime.TYPE1, 4, 2, 2, 0.5, rng)
    with pytest.raises(ValueError):
        build_instance(Regime.TYPE1, 4, 2, 2, -0.1, rng)
    inst = build_instance(Regime.TYPE1, 4, 2, 2, 0.0, rng)
    assert np.abs(inst.matrix - inst.v0).max() == 0


@pytest.mark.parametrize("regime", list(Regime))
def test_channel_and_dilation_agree(regime):
    d1, d2, r = CASES[regime]
    rng = np.random.default_rng(8)
    inst = build_instance(regime, d1, d2, r, 0.1, rng)
    dil = inst.dilation()
    assert dil.matrix.shape == (r * d2, d1)
    ch = inst.channel()
    assert ch.d_in == d1 and ch.d_out == d2
    assert abs(np.trace(ch.choi) - d1) < 1e-10
    assert np.abs(dil.channel(d2).choi - ch.choi).max() < 1e-12
    # row reshuffle only: same Gram matrix
    assert np.abs(dag(dil.matrix) @ dil.matrix - np.eye(d1)).max() < 1e-12


@pytest.mark.parametrize("regime", list(Regime))
def test_anc_blocks_invariants(regime):
    d1, d2, r = CASES[regime]
    rng = np.random.default_rng(9)
    inst = build_instance(regime, d1, d2, r, 0.1, rng)
    blocks = inst.anc_blocks()
    assert len(blocks) == r
    assert all(b.shape == (d2, d1) for b in blocks)
    cap = 2.0 * d1 / r
    for i, a in enumerate(blocks):
        assert np.trace(dag(a) @ a).real <= cap + 1e-9
        for b in blocks[i + 1 :]:
            assert abs(np.trace(dag(a) @ b)) < 1e-12
    gram = sum(dag(b) @ b for b in blocks)
    # the core never overshoots identity
    assert min_eig(np.eye(d1) - gram) > -1e-10


def test_anc_blocks_core_flag():
    rng = np.random.default_rng(10)
    d1, d2, r = CASES[Regime.TYPE2_NEAR]
    inst = build_instance(Regime.TYPE2_NEAR, d1, d2, r, 0.2, rng)
    core = np.stack(inst.anc_blocks(core=True))
    full = np.stack(inst.anc_blocks(core=False))
    assert np.abs(core - full).max() > 0.5  # the tail lives in v0 only
    d1_, d2_, r_ = CASES[Regime.TYPE2_MID]
    mid = build_instance(Regime.TYPE2_MID, d1_, d2_, r_, 0.2, rng)
    assert np.abs(
        np.stack(mid.anc_blocks(True)) - np.stack(mid.anc_blocks(False))
    ).max() == 0


# ---------------------------------------------------------------------------
# Kraus partition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d1,d2,r",
    [(2, 2, 3), (2, 2, 4), (4, 2, 5), (5, 3, 4), (2, 3, 1), (3, 3, 2), (2, 4, 6)],
)
def test_kraus_partition_invariants(d1, d2, r):
    ops = kraus_partition(d1, d2, r)
    assert len(ops) == r
    assert all(k.shape == (d2, d1) for k in ops)
    total = sum(dag(k) @ k for k in ops)
    assert np.abs(total - np.eye(d1)).max() < 1e-12
    cap = 2.0 * d1 / r
    for i, a in enumerate(ops):
        assert np.trace(dag(a) @ a).real <= cap + 1e-9
        for b in ops[i + 1 :]:
            assert abs(np.trace(dag(a) @ b)) < 1e-12


def test_kraus_partition_guards():
    with pytest.raises(ValueError):
        kraus_partition(5, 2, 2)  # d1 > r*d2
    with pytest.raises(ValueError):
        kraus_partition(2, 2, 5)  # r > d1*d2


# ---------------------------------------------------------------------------
# Separation statistics
# ---------------------------------------------------------------------------


def _trace_out_ancilla(m, n, d2, r):
    """Independent route to tr_anc(|m>><<n|) using the linalg partial trace.

    Rows of the window matrices are indexed (b, k) = b * r + k, so the
    vectorized outer product lives on factors (B, anc, A).
    """
    d1 = m.shape[1]
    outer = np.outer(m.reshape(-1), n.conj().reshape(-1))
    return partial_trace(outer, (d2, r, d1), (1,))


def test_d_statistic_matches_partial_trace():
    rng = np.random.default_rng(11)
    d1, d2, r = CASES[Regime.TYPE1]
    x = build_instance(Regime.TYPE1, d1, d2, r, 0.1, rng)
    y = build_instance(Regime.TYPE1, d1, d2, r, 0.1, rng)
    ax = _trace_out_ancilla(x.direction, x.v0, d2, r)
    ay = _trace_out_ancilla(y.direction, y.v0, d2, r)
    want = ax + dag(ax) - ay - dag(ay)
    got = d_statistic(x, y)
    assert np.abs(got - want).max() < 1e-12
    assert np.abs(got - dag(got)).max() < 1e-12


def test_amplitude_statistic_matches_partial_trace():
    rng = np.random.default_rng(12)
    d1, d2, r = CASES[Regime.TYPE1]
    x = build_instance(Regime.TYPE1, d1, d2, r, 0.15, rng)
    a = _trace_out_ancilla(x.direction, x.v0, d2, r)
    assert abs(amplitude_statistic(x) - np.sum(np.abs(a) ** 2)) < 1e-10


def test_choi_cross_statistic_matches_partial_trace():
    rng = np.random.default_rng(13)
    d1, d2, r = CASES[Regime.TYPE2_MID]
    x = build_instance(Regime.TYPE2_MID, d1, d2, r, 0.1, rng)
    y = build_instance(Regime.TYPE2_MID, d1, d2, r, 0.1, rng)
    want = _trace_out_ancilla(x.v0, x.direction - y.direction, d2, r) / d1
    assert np.abs(choi_cross_statistic(x, y) - want).max() < 1e-12


def test_statistics_regime_guards():
    rng = np.random.default_rng(14)
    t1a = build_instance(Regime.TYPE1, 4, 2, 2, 0.1, rng)
    t1b = build_instance(Regime.TYPE1, 4, 2, 2, 0.1, rng)
    mid = build_instance(Regime.TYPE2_MID, 4, 3, 2, 0.1, rng)
    mid2 = build_instance(Regime.TYPE2_MID, 4, 3, 2, 0.1, rng)
    lrg = build_instance(Regime.TYPE2_LARGE, 2, 4, 3, 0.1, rng)
    lrg2 = build_instance(Regime.TYPE2_LARGE, 2, 4, 3, 0.1, rng)
    with pytest.raises(ValueError):
        d_statistic(mid, mid2)
    with pytest.raises(ValueError):
        amplitude_statistic(mid)
    with pytest.raises(ValueError):
        choi_cross_statistic(t1a, t1b)
    with pytest.raises(ValueError):
        diamond_cross_statistic(lrg, lrg2)
    with pytest.raises(ValueError):
        d_statistic(t1a, mid)  # mixed regimes


def test_diamond_cross_statistic_shape():
    rng = np.random.default_rng(15)
    d1, d2, r = CASES[Regime.TYPE2_NEAR]
    x = build_instance(Regime.TYPE2_NEAR, d1, d2, r, 0.1, rng)
    y = build_instance(Regime.TYPE2_NEAR, d1, d2, r, 0.1, rng)
    f = diamond_cross_statistic(x, y)
    assert f.shape == (d2 * d1, d2 * d1)
    # both orders agree up to sign
    assert np.abs(f + diamond_cross_statistic(y, x)).max() < 1e-12


# ---------------------------------------------------------------------------
# Moment experiments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("regime", list(Regime))
def test_moment_experiment_bounds_hold(regime):
    d1, d2, r = CASES[regime]
    report = moment_experiment(regime, d1, d2, r, 0.1, pairs=60, rng=np.random.default_rng(16))
    assert report.all_ok, [rec for rec in report.records if not rec.ok]
    assert report.draws == 60
    # the paper's constants, in the order the probe reports them
    kappa = min((r * d2 - d1) / d1, 1.0)
    if regime == Regime.TYPE1:
        dp = 2 * (d1 // 2)
        want = [
            ("tr|D|^2", d1**2 / (20 * r), "lower"),
            ("tr|D|^4", 12288 * d1**4 / r**3, "upper"),
            ("tr(A A^dag)", (1 - 0.1**2) * (d1 // r) * dp, "lower"),
        ]
    elif regime == Regime.TYPE2_NEAR:
        m_diam = r * d2 - d1
        want = [
            ("choi tr|F|^2", kappa / (2 * r), "lower"),
            ("choi tr|F|^4", 256 / r**3, "upper"),
            ("diam tr|F|^2", 1 / m_diam, "lower"),
            ("diam tr|F|^4", 64 / m_diam**3, "upper"),
        ]
    elif regime == Regime.TYPE2_MID:
        want = [
            ("choi tr|F|^2", kappa / (4 * r), "lower"),
            ("choi tr|F|^4", 256 / r**3, "upper"),
            ("diam tr|F|^2", 1 / r, "lower"),
            ("diam tr|F|^4", 64 / r**3, "upper"),
        ]
    else:
        want = [("choi tr|F|^2", 1 / r, "lower"), ("choi tr|F|^4", 384 / r**3, "upper")]
    got = [(rec.name, rec.bound, rec.kind) for rec in report.records]
    assert got == [(name, pytest.approx(bound, rel=1e-12), kind) for name, bound, kind in want]
    for rec in report.records:
        assert rec.stderr >= 0.0


def test_moment_experiment_needs_pairs():
    with pytest.raises(ValueError):
        moment_experiment(Regime.TYPE1, 4, 2, 2, 0.1, pairs=1, rng=np.random.default_rng(17))


def test_moment_experiment_accepts_string_regime():
    report = moment_experiment("type1", 4, 2, 2, 0.1, pairs=4, rng=np.random.default_rng(17))
    assert report.regime is Regime.TYPE1


# ---------------------------------------------------------------------------
# Packing nets
# ---------------------------------------------------------------------------


def test_packing_net_basics():
    net = sample_packing_net(
        Regime.TYPE1, 4, 2, 2, 0.1, count=6, rng=np.random.default_rng(18)
    )
    assert len(net.instances) == 6
    assert len(net.channels) == 6
    assert net.distances.shape == (6, 6)
    assert np.abs(net.distances - net.distances.T).max() == 0
    assert np.abs(np.diag(net.distances)).max() == 0
    off = net.distances[np.triu_indices(6, k=1)]
    assert net.min_pairwise == pytest.approx(off.min())
    assert net.min_pairwise > 0
    assert net.separation_ratio == pytest.approx(net.min_pairwise / 0.1)


def _hermitian_trace_norm(m):
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def test_pool_rows_equal_per_pair_trace_norms():
    # near-identical candidates, as in a packing pool, where reversing the
    # subtraction can change the low bits
    rng = np.random.default_rng(3)
    pool = [build_instance(Regime.TYPE1, 4, 2, 2, 0.05, rng).channel() for _ in range(64)]
    chois = np.stack([ch.choi for ch in pool])
    for i in range(63):
        row = choi_trace_distances(chois[i], chois[i + 1 :], 4)
        assert row.tolist() == [_hermitian_trace_norm(pool[i].choi - b.choi) / 4 for b in pool[i + 1 :]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_packing_net_choi_distances_equal_per_pair_calls(seed):
    net = sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.05, count=5, seed=seed)
    for i in range(5):
        for j in range(i + 1, 5):
            a, b = net.channels[i], net.channels[j]
            assert net.distances[i, j] == choi_trace_distance(a, b)
            assert net.distances[i, j] == _hermitian_trace_norm(a.choi - b.choi) / 4


def test_packing_net_diamond_distances_equal_per_pair_calls():
    # the net's one stacked see-saw against one call per pair, in pair order,
    # from the generator state the candidate draws leave
    net = sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.05, count=5, metric="diamond_lower", seed=4)
    rng = np.random.default_rng(4)
    for _ in range(40):
        build_instance(Regime.TYPE1, 4, 2, 2, 0.05, rng)
    for i in range(5):
        for j in range(i + 1, 5):
            est = diamond_distance(net.channels[i], net.channels[j], restarts=2, rng=rng)
            assert net.distances[i, j] == net.distances[j, i] == est.lower
    assert net.unconverged == 0


def test_packing_net_diamond_dominates_choi():
    net = sample_packing_net(
        Regime.TYPE2_MID,
        4,
        3,
        2,
        0.05,
        count=3,
        metric="diamond_lower",
        rng=np.random.default_rng(19),
    )
    for i in range(3):
        for j in range(i + 1, 3):
            choi = choi_trace_distance(net.channels[i], net.channels[j])
            assert net.distances[i, j] >= choi - 1e-7


def test_packing_net_json_document():
    import json

    net = sample_packing_net(Regime.TYPE2_LARGE, 2, 4, 3, 0.05, count=2, seed=7)
    doc = json.loads(json.dumps(net.payload()))
    assert doc["regime"] == "type2-large"
    assert doc["dims"] == [2, 4, 3]
    assert doc["eps"] == 0.05
    assert doc["seed"] == 7
    assert doc["metric"] == "choi"
    assert len(doc["channels"]) == 2
    ch = channel_from_json(json.dumps(doc["channels"][0]))
    assert ch.d_in == 2 and ch.d_out == 4


def _greedy_maximin(dist, count):
    """Farthest-point subset over a full distance matrix: start from the
    widest pair, grow by max-min gap. The referee of the pruned selection."""
    start = np.unravel_index(int(np.argmax(dist)), dist.shape)
    chosen = [int(start[0]), int(start[1])]
    gaps = np.minimum(dist[chosen[0]], dist[chosen[1]])
    gaps[chosen] = -1.0
    while len(chosen) < count:
        nxt = int(np.argmax(gaps))
        chosen.append(nxt)
        gaps = np.minimum(gaps, dist[nxt])
        gaps[nxt] = -1.0
    return chosen


def _pool(regime, eps, size, rng):
    """The one-at-a-time packing pool: build_instance(...).channel() per candidate."""
    d1, d2, r = CASES[regime]
    candidates = [build_instance(regime, d1, d2, r, eps, rng) for _ in range(size)]
    return candidates, np.stack([inst.channel().choi for inst in candidates])


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    regime=st.sampled_from(list(Regime)),
    size=st.integers(1, 24),
    eps=st.floats(0.0, 0.45),
    chunk=st.sampled_from([1, 2048, linalg._CHUNK_BYTES]),
    seed=st.integers(0, 2**16),
)
def test_stacked_pool_equals_the_one_at_a_time_pool(regime, size, eps, chunk, seed):
    # chunk 1 runs the pool's QR, checks and Choi matrices one member at a time
    d1, d2, r = CASES[regime]
    rng = np.random.default_rng(seed)
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        pool = build_instances(regime, d1, d2, r, eps, [rng] * size)
        chans = instance_channels(pool)
    referee = np.random.default_rng(seed)
    candidates, chois = _pool(regime, eps, size, referee)
    assert [inst.matrix.tobytes() for inst in pool] == [inst.matrix.tobytes() for inst in candidates]
    assert [inst.direction.tobytes() for inst in pool] == [inst.direction.tobytes() for inst in candidates]
    assert [ch.choi.tobytes() for ch in chans] == [c.tobytes() for c in chois]
    assert rng.bit_generator.state == referee.bit_generator.state


def _pool_distances(chois, d1):
    """Every exact pool distance, one row of differences at a time."""
    size = len(chois)
    dist = np.zeros((size, size))
    for i in range(size - 1):
        dist[i, i + 1 :] = dist[i + 1 :, i] = choi_trace_distances(chois[i], chois[i + 1 :], d1)
    return dist


@pytest.mark.parametrize("metric", ["choi", "diamond_lower"])
@pytest.mark.parametrize("regime", list(Regime))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(count=st.integers(2, 8), eps=st.floats(1e-6, 0.45), seed=st.integers(0, 2**16))
def test_packing_net_equals_the_exhaustive_greedy(regime, metric, count, eps, seed):
    d1, d2, r = CASES[regime]
    net = sample_packing_net(regime, d1, d2, r, eps, count=count, metric=metric, seed=seed)
    rng = np.random.default_rng(seed)
    candidates, chois = _pool(regime, eps, 8 * count, rng)
    full = _pool_distances(chois, d1)
    keep = _greedy_maximin(full, count)
    assert [inst.matrix.tobytes() for inst in net.instances] == [
        candidates[k].matrix.tobytes() for k in keep
    ]
    assert [ch.choi.tobytes() for ch in net.channels] == [chois[k].tobytes() for k in keep]
    if metric == "choi":
        expected = full[np.ix_(keep, keep)]
    else:
        channels = [candidates[k].channel() for k in keep]
        pairs = list(combinations(range(count), 2))
        estimates = diamond_distances([(channels[i], channels[j]) for i, j in pairs], restarts=2, rng=rng)
        expected = np.zeros((count, count))
        for (i, j), est in zip(pairs, estimates):
            expected[i, j] = expected[j, i] = est.lower
    assert net.distances.tobytes() == expected.tobytes()
    assert net.min_pairwise == min(expected[i, j] for i, j in combinations(range(count), 2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    regime=st.sampled_from(list(Regime)),
    # near-identical pools (1e-6 and below) and coinciding ones (0) included
    eps=st.one_of(st.sampled_from([0.0, 1e-6]), st.floats(1e-9, 0.45)),
    seed=st.integers(0, 2**16),
)
def test_pool_bounds_bracket_every_exact_distance(regime, eps, seed):
    d1, _, r = CASES[regime]
    _, chois = _pool(regime, eps, 24, np.random.default_rng(seed))
    exact = _pool_distances(chois, d1)
    gaps, slack = hardness._gram_gaps(chois)
    delta = slack[:, None] + slack[None, :]
    rho = linalg._BOUND_SLACK
    lower = (1.0 - rho) * np.sqrt(np.maximum(gaps - 2.0 * delta, 0.0)) / d1
    upper = hardness._distance_upper_bounds(chois, d1, r)
    rows, cols = np.triu_indices(len(chois), k=1)
    assert np.all(lower[rows, cols] <= exact[rows, cols])
    assert np.all(exact[rows, cols] <= upper[rows, cols])
    # the lower triangle sums the same terms in another order, and bounds the same pairs
    assert np.all(lower[cols, rows] <= exact[rows, cols])
    assert np.all(exact[rows, cols] <= upper[cols, rows])


def test_packing_net_of_coinciding_candidates_starts_on_the_diagonal():
    # with all distances 0, argmax over the full matrix picks (0, 0) and the
    # greedy then takes the pool in order
    net = sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.0, count=4, seed=1)
    assert _greedy_maximin(np.zeros((32, 32)), 4) == [0, 0, 1, 2]
    assert net.instances[0] is net.instances[1]
    assert net.instances[1] is not net.instances[2]
    assert net.min_pairwise == 0.0
    assert np.all(net.distances == 0.0)


@pytest.mark.parametrize(
    "regime, eps, seed, chunk",
    [
        (Regime.TYPE1, 0.05, 0, linalg._CHUNK_BYTES),
        (Regime.TYPE1, 0.05, 1, 2048),  # passes split into runs of two differences
        (Regime.TYPE2_NEAR, 1e-6, 2, linalg._CHUNK_BYTES),  # bounds far above the distances
        (Regime.TYPE2_NEAR, 0.0, 3, linalg._CHUNK_BYTES),  # coinciding pool
    ],
)
def test_count_32_packing_net_equals_the_exhaustive_greedy(regime, eps, seed, chunk):
    d1, d2, r = CASES[regime]
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        net = sample_packing_net(regime, d1, d2, r, eps, count=32, seed=seed)
    candidates, chois = _pool(regime, eps, 256, np.random.default_rng(seed))
    full = _pool_distances(chois, d1)
    keep = _greedy_maximin(full, 32)
    assert [inst.matrix.tobytes() for inst in net.instances] == [candidates[k].matrix.tobytes() for k in keep]
    assert net.distances.tobytes() == full[np.ix_(keep, keep)].tobytes()


def test_maximin_net_breaks_gap_ties_toward_the_smaller_index():
    # every candidate four times over, in shuffled order, so each round's
    # largest gap is shared by copies: argmax over the full matrix takes the
    # smallest index among them
    _, base = _pool(Regime.TYPE1, 0.05, 6, np.random.default_rng(8))
    order = np.random.default_rng(9).permutation(np.repeat(np.arange(6), 4))
    chois = base[order]
    full = _pool_distances(chois, 4)
    keep = _greedy_maximin(full, 9)
    ties = 0
    for t in range(2, 9):
        gaps = full[keep[:t]].min(axis=0)
        gaps[keep[:t]] = -1.0
        ties += np.count_nonzero(gaps == gaps.max()) > 1
    assert ties >= 3
    got, dist = hardness._maximin_net(chois, 4, 2, 9)
    assert got == keep
    assert dist.tobytes() == full[np.ix_(keep, keep)].tobytes()


def test_maximin_round_evaluates_a_bound_equal_to_the_best_gap():
    # a designed pool: candidate k is the 1 x 1 matrix [k], and the distances
    # and bounds are looked up. After the first pass (candidates 3-6, the
    # highest bounds) the best exact gap is 5, candidate 3's. Candidate 2's
    # bound also reads 5, but its gap is 1: skipping it would let argmax take
    # it as the smaller index.
    dist, upper = np.ones((10, 10)), np.full((10, 10), 3.0)
    dist[0, 1] = upper[0, 1] = 10.0
    upper[0, 2], upper[1, 2] = 5.0, 7.0
    upper[:2, 3:7] = 9.0
    dist[:2, 3:7] = 2.0
    dist[0, 3], dist[1, 3] = 5.0, 6.0
    dist, upper = np.triu(dist, 1) + np.triu(dist, 1).T, np.triu(upper, 1) + np.triu(upper, 1).T

    def lookup(a, b, d_in):
        return dist[a[:, 0, 0].astype(int), b[:, 0, 0].astype(int)]

    with mock.patch.object(hardness, "choi_trace_distances", lookup), mock.patch.object(
        hardness, "_distance_upper_bounds", lambda *args: upper.copy()
    ):
        keep, got = hardness._maximin_net(np.arange(10.0).reshape(10, 1, 1), 1, 1, 3)
    assert keep == _greedy_maximin(dist, 3) == [0, 1, 3]
    assert got.tobytes() == dist[np.ix_(keep, keep)].tobytes()


def test_count_32_net_takes_each_exact_distance_once():
    # an exact row per kept point would take 7,907 distances per net
    for seed in range(3):
        _, chois = _pool(Regime.TYPE1, 0.05, 256, np.random.default_rng(seed))
        index = {c.tobytes(): k for k, c in enumerate(chois)}
        assert len(index) == 256
        pairs = []

        def counted(a, b, d_in):
            a, b = np.broadcast_arrays(a, b)
            for x, y in zip(a.reshape(-1, 8, 8), b.reshape(-1, 8, 8)):
                pairs.append(frozenset((index[x.tobytes()], index[y.tobytes()])))
            return choi_trace_distances(a, b, d_in)

        with mock.patch.object(hardness, "choi_trace_distances", counted):
            sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.05, count=32, seed=seed)
        assert len(pairs) == len(set(pairs))
        assert len(pairs) <= 2500


def test_packing_net_guards():
    with pytest.raises(ValueError):
        sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.1, count=1)
    with pytest.raises(ValueError):
        sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.1, count=65)
    with pytest.raises(ValueError):
        sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.1, metric="fidelity")
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="not both"):
        sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.1, rng=rng, seed=5)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# Lipschitz probes
# ---------------------------------------------------------------------------


def test_lipschitz_type1():
    report = lipschitz_probe(
        Regime.TYPE1, 4, 2, 2, 0.1, trials=40, rng=np.random.default_rng(20)
    )
    assert report.all_ok
    (rec,) = report.records
    assert rec.name == "choi distance"
    assert rec.bound == pytest.approx(0.1 * math.sqrt(32.0 / 4.0))
    assert 0 < rec.value <= rec.bound * (1 + 1e-3)
    assert (rec.stderr, rec.kind) == (0.0, "upper")
    assert report.draws == 40


def test_lipschitz_near_has_diamond_probe():
    report = lipschitz_probe(
        Regime.TYPE2_NEAR, 5, 2, 3, 0.1, trials=40, rng=np.random.default_rng(21)
    )
    assert report.all_ok
    names = [rec.name for rec in report.records]
    assert names == ["choi cross term", "diamond cross term"]
    assert report.records[0].bound == pytest.approx(math.sqrt(2.0 / 5.0))
    assert report.records[1].bound == pytest.approx(math.sqrt(2.0))  # m_diam = 1


def test_lipschitz_large():
    report = lipschitz_probe(
        Regime.TYPE2_LARGE, 2, 4, 3, 0.1, trials=40, rng=np.random.default_rng(22)
    )
    assert report.all_ok
    assert [rec.name for rec in report.records] == ["choi cross term"]


# ---------------------------------------------------------------------------
# Gamma families and certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family",
    [
        type1_gamma_family(3, 4, 0.3),
        type1_gamma_family(2, 2, 0.0),
        type2_gamma_family(3, 4, 0.2),
        type2_gamma_family(2, 3, 0.45),
    ],
    ids=["t1-3x4", "t1-2x2", "t2-3x4", "t2-2x3"],
)
def test_gamma_family_identity_sum(family):
    d, big_d = family.d, family.big_d
    assert family.g0.shape == (big_d * d,)
    g0 = np.outer(family.g0, family.g0.conj())
    g1 = np.outer(family.g1, family.g1.conj())
    total = partial_trace(g0, (big_d, d), (0,)) + partial_trace(g1, (big_d, d), (0,))
    assert np.abs(total - np.eye(d)).max() < 1e-14
    assert abs(np.vdot(family.g0, family.g1)) == 0


def test_gamma_family_guards():
    with pytest.raises(ValueError):
        type1_gamma_family(1, 4, 0.1)
    with pytest.raises(ValueError):
        type1_gamma_family(4, 3, 0.1)
    with pytest.raises(ValueError):
        type2_gamma_family(3, 3, 0.1)
    with pytest.raises(ValueError):
        type2_gamma_family(2, 3, 1.5)


def _dense(op):
    return (op.factor * op.weights) @ op.factor.conj().T


def test_gamma_vector_type1_subset():
    fam = type1_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, {0}, 2)
    v = np.kron(fam.g1, fam.g0)
    assert np.abs(_dense(op) - np.outer(v, v.conj())).max() < 1e-14
    assert op.factor.shape == (36, 1)  # rows (B_0, A_0, B_1, A_1) of dims (3, 2, 3, 2)
    with pytest.raises(ValueError):
        gamma_vector(fam, {2}, 2)  # subset outside range


def test_gamma_vector_type2_weight():
    fam = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, 1, 2)
    v = (np.kron(fam.g1, fam.g0) + np.kron(fam.g0, fam.g1)) / math.sqrt(2.0)
    assert np.abs(_dense(op) - np.outer(v, v.conj())).max() < 1e-14
    assert min_eig(_dense(op)) >= -ATOL
    with pytest.raises(ValueError):
        gamma_vector(fam, 3, 2)  # weight above n


def test_gamma_budget():
    fam = type2_gamma_family(2, 3, 0.2)
    with pytest.raises(ValueError):
        gamma_vector(fam, 1, 0)
    with pytest.raises(ValueError, match="bytes"):
        gamma_vector(fam, 1, 12)  # 16 * 6^12 bytes > MAX_BYTES
    with pytest.raises(ValueError, match="bytes"):
        certify_gamma_comb(gamma_vector(fam, 1, 2), fam, 12, index=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certify_type1_accepts(n):
    fam = type1_gamma_family(2, 3, 0.25)
    for subset in ([], [0], list(range(n))):
        op = gamma_vector(fam, subset, n)
        check = certify_gamma_comb(op, fam, n, index=subset)
        assert check, (subset, check)
    # certifying against the whole family sum also passes
    op = gamma_vector(fam, [0], n)
    assert certify_gamma_comb(op, fam, n, index=None)


@pytest.mark.parametrize("n,w", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 2)])
def test_certify_type2_accepts(n, w):
    fam = type2_gamma_family(3, 4, 0.2)
    op = gamma_vector(fam, w, n)
    check = certify_gamma_comb(op, fam, n, index=w)
    assert check, (n, w, check)
    assert check.defect < 1e-8


def test_certify_rejects_overweight():
    fam = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, 1, 2).scaled(1.5)
    check = certify_gamma_comb(op, fam, 2, index=1)
    assert not check
    assert check.failed_level == 2
    fam1 = type1_gamma_family(2, 3, 0.25)
    op1 = gamma_vector(fam1, [0], 2).scaled(1.5)
    bad = certify_gamma_comb(op1, fam1, 2, index=[0])
    assert not bad
    assert bad.failed_level == 2


def test_certify_rejects_negative():
    fam = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, 1, 2).scaled(-1.0)
    check = certify_gamma_comb(op, fam, 2, index=1)
    assert not check
    assert check.failed_level == -1


def test_certify_type1_rejects_a_subset_outside_the_slots():
    # the subset is checked before any eigensolve: a negative operator,
    # which would fail positivity, still raises
    fam = type1_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, [0], 2)
    for index in ([0, 5], [-1]):
        for scale in (1.0, -1.0):
            with pytest.raises(ValueError, match="outside range"):
                certify_gamma_comb(op.scaled(scale), fam, 2, index=index)


def test_certify_type2_needs_weight():
    fam = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, 1, 2)
    with pytest.raises(ValueError):
        certify_gamma_comb(op, fam, 2, index=None)


def test_certify_label_mismatch():
    # the factor's rows are the (B_j, A_j) pairs in order, with no labels to
    # check, so an operator on other factors shows as a factor of another width
    fam = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(fam, 1, 2)
    others = [gamma_vector(fam, 1, 1), gamma_vector(fam, 1, 3), FactoredOperator(op.factor[1:], op.weights)]
    for other in others:
        with pytest.raises(ValueError, match="rows"):
            certify_gamma_comb(other, fam, 2, index=1)
