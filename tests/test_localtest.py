import functools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlab import combs, linalg, moments
from ctlab.channels import Channel, Isometry, dilate, random_channel
from ctlab.cli import main
from ctlab.combs import apply_tester, random_parallel_tester
from ctlab.linalg import haar_unitaries, haar_unitary, random_gaussian_matrix, random_isometry
from ctlab.localtest import (
    PERP_LABEL,
    _find_anc_labels,
    _pulled_back_forms,
    _query_labels,
    _sample_coordinates,
    _sample_runs,
    average_tester,
    dilation_forms,
    localize_tester,
    verify_dilation_identity,
)
from ctlab.moments import twirl1


def test_perp_label_value():
    assert PERP_LABEL == "perp"


def test_average_tester_single_query_matches_twirl1():
    rng = np.random.default_rng(0)
    t = random_parallel_tester(1, 2, 2, 3, rng, anc_dim=2)
    avg = average_tester(t)
    for (_, raw), (_, tw) in zip(t.outcomes, avg.outcomes):
        want = twirl1(raw.op, raw.layout.dims, raw.layout.position(("anc", 0)))
        assert np.abs(tw.op - want).max() < 1e-11
    assert avg.n_queries == 1
    assert avg.outcome_names == t.outcome_names


def test_average_tester_rejects_three_queries():
    rng = np.random.default_rng(2)
    t = random_parallel_tester(3, 2, 1, 2, rng, anc_dim=2)
    with pytest.raises(ValueError, match="n <= 2"):
        average_tester(t)


def test_average_tester_missing_ancilla():
    rng = np.random.default_rng(3)
    t = random_parallel_tester(1, 2, 2, 2, rng)  # no ancilla factor
    with pytest.raises(ValueError):
        average_tester(t)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


def test_localize_single_query_identity():
    # localized stats on the channel equal twirled stats on the dilation
    rng = np.random.default_rng(5)
    t = random_parallel_tester(1, 2, 2, 3, rng, anc_dim=2)
    ch = random_channel(2, 2, 2, rng)
    loc = localize_tester(t)
    assert isinstance(loc, combs.Tester)
    # the two-dimensional ancilla is gone: outcomes act on input (x) output
    assert loc.outcomes[0][1].layout.dims == (2, 2)
    assert loc.outcome_names[-1] == PERP_LABEL
    assert len(loc.outcomes) == 4
    local = apply_tester(loc, ch)
    fixed = apply_tester(average_tester(t), dilate(ch, 2))
    assert np.abs(local[:3] - fixed).max() < 1e-10
    # one query localizes exactly: no unreachable sector
    assert abs(local[-1]) < 1e-12


def test_localize_rejects_reserved_label():
    rng = np.random.default_rng(7)
    t = random_parallel_tester(1, 2, 2, 2, rng, anc_dim=2)
    renamed = combs.Tester(
        outcomes=((PERP_LABEL, t.outcomes[0][1]), (1, t.outcomes[1][1])),
        in_labels=t.in_labels,
        out_labels=t.out_labels,
    )
    with pytest.raises(ValueError, match="reserved"):
        localize_tester(renamed)


def test_localize_two_queries_perp_mass():
    # with a one-dimensional ancilla the antisymmetric sector is unreachable:
    # a rank-1 channel never populates it, a higher-rank channel does
    rng = np.random.default_rng(8)
    t = random_parallel_tester(2, 2, 2, 2, rng, anc_dim=1)
    loc = localize_tester(t)
    u = haar_unitary(2, rng)
    unitary_probs = apply_tester(loc, Channel.from_kraus([u]))
    assert abs(unitary_probs.sum() - 1.0) < 1e-8
    assert abs(unitary_probs[-1]) < 1e-10
    noisy = random_channel(2, 2, 4, rng)
    noisy_probs = apply_tester(loc, noisy)
    assert abs(noisy_probs.sum() - 1.0) < 1e-8
    assert noisy_probs[-1] > 1e-3


def test_localized_tester_is_valid_tester():
    rng = np.random.default_rng(9)
    t = random_parallel_tester(2, 2, 2, 3, rng, anc_dim=2)
    loc = localize_tester(t)
    # constructor re-validates: psd outcomes summing to rho x identity
    assert loc.n_queries == 2
    assert len(loc.outcomes) == 4


# ---------------------------------------------------------------------------
# Three-route verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,d1,d2,r",
    [(1, 2, 2, 2), (1, 2, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2)],
)
def test_verify_dilation_identity(n, d1, d2, r):
    rng = np.random.default_rng(10 * n + d1 + d2 + r)
    t = random_parallel_tester(n, d1, d2, 3, rng, anc_dim=r)
    ch = random_channel(d1, d2, min(r, d1 * d2), rng)
    check = verify_dilation_identity(dilation_forms(t), ch, samples=4000, rng=rng)
    assert check.ok
    assert check.max_fixed_dev <= 1e-7
    assert check.max_sigma_dev <= 5.0
    assert check.n_samples == 4000
    k = len(t.outcomes)
    assert check.localized.shape == (k + 1,)
    assert check.fixed.shape == (k,)
    assert check.mc_mean.shape == (k,)
    assert check.outcome_names[-1] == PERP_LABEL
    # consistency of the recorded deviations
    assert check.max_fixed_dev == pytest.approx(
        float(np.max(np.abs(check.localized[:k] - check.fixed)))
    )


def test_route_c_passes_correct_code_at_few_samples():
    # the gate follows Student's t for samples - 1 degrees of freedom: at 5 standard
    # errors, 2 samples failed on some of these seeds
    failures = []
    for samples in (2, 3, 5, 10):
        for seed in range(200):
            rng = np.random.default_rng([seed, samples])
            forms = dilation_forms(random_parallel_tester(1, 1, 1, 2, rng, anc_dim=2))
            check = verify_dilation_identity(forms, random_channel(1, 1, 1, rng), samples=samples, rng=rng)
            if not check.ok:
                failures.append((samples, seed, check.max_sigma_dev))
    assert failures == []


def test_verify_dilation_identity_deterministic():
    rng_a = np.random.default_rng(11)
    t = random_parallel_tester(1, 2, 2, 2, rng_a, anc_dim=2)
    ch = random_channel(2, 2, 2, rng_a)
    one = verify_dilation_identity(dilation_forms(t), ch, samples=500, rng=np.random.default_rng(3))
    two = verify_dilation_identity(dilation_forms(t), ch, samples=500, rng=np.random.default_rng(3))
    assert np.abs(one.mc_mean - two.mc_mean).max() == 0


def test_verify_dilation_identity_low_rank_channel():
    # the channel rank may sit strictly below the ancilla budget
    rng = np.random.default_rng(12)
    t = random_parallel_tester(1, 2, 2, 2, rng, anc_dim=3)
    ch = random_channel(2, 2, 1, rng)
    check = verify_dilation_identity(dilation_forms(t), ch, samples=3000, rng=rng)
    assert check.ok


@pytest.mark.parametrize("n", [1, 2])
def test_dilation_average_matches_direct_evaluation(n):
    # route (c) is the mean of <v|T|v> over the drawn dilations, i.e. of the
    # raw tester's probabilities on each (U kron 1) V
    rng = np.random.default_rng(13 + n)
    t = random_parallel_tester(n, 2, 2, 3, rng, anc_dim=2)
    ch = random_channel(2, 2, 2, rng)
    check = verify_dilation_identity(dilation_forms(t), ch, samples=64, rng=np.random.default_rng(5))
    base = dilate(ch, 2)
    us = haar_unitaries(2, 64, np.random.default_rng(5))
    direct = np.mean(
        [apply_tester(t, Isometry(np.kron(u, np.eye(2)) @ base.matrix)) for u in us],
        axis=0,
    )
    assert np.abs(check.mc_mean - direct).max() < 1e-10


def _full_quad_forms(w, t, n):
    """Referee: the quadratic form of t on each m-wide vector w, or m^2-wide w (x) w for two
    queries, itself."""
    v = w if n == 1 else np.einsum("sx,sy->sxy", w, w).reshape(len(w), -1)
    return np.sum(v * (np.conj(v) @ t.T), axis=1)


def _coordinates(us, right, n):
    """The coordinates z of each sample that _pulled_back_forms reads: x = vec(U right), or
    vec(U) where right is None, for one query; x_a x_b over the np.triu_indices pairs for two."""
    x = (us if right is None else us.reshape(-1, us.shape[1]) @ right).reshape(len(us), -1)
    if n == 1:
        return x
    a, b = np.triu_indices(x.shape[1])
    return np.multiply(np.take(x, a, axis=1), np.take(x, b, axis=1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2]),
    r=st.sampled_from([1, 2, 3]),
    d1=st.integers(1, 3),
    d2=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pulled_back_quad_forms_match_the_full_forms(n, r, d1, d2, seed):
    # two outcomes side by side, each a general (not Hermitian, not swap-symmetric) form
    d1 = min(d1, r * d2)
    rng = np.random.default_rng(seed)
    base = random_isometry(r * d2, d1, rng)
    m = r * d2 * d1
    ts = [random_gaussian_matrix(m**n, m**n, rng) for _ in range(2)]
    us = haar_unitaries(r, 16, rng)
    left, right = _sample_coordinates(base.reshape(r, -1))
    pulled = _pulled_back_forms(iter(ts), left, n)
    # the narrower of vec(U) and the Choi vector carries each sample
    q = min(r * r, m)
    zdim = q if n == 1 else q * (q + 1) // 2
    assert pulled.shape == (zdim, 2 * zdim)
    z = _coordinates(us, right, n)
    w = np.einsum("skl,lba->skba", us, base.reshape(r, d2, d1)).reshape(16, m)
    for o, t in enumerate(ts):
        got = np.sum(z * (np.conj(z) @ pulled[:, o * zdim : (o + 1) * zdim]), axis=1)
        assert np.abs(got - _full_quad_forms(w, t, n)).max() <= 1e-12 * np.linalg.norm(t)


def test_localtest_two_queries_seed_3_passes_every_check():
    res = CliRunner().invoke(main, ["localtest", "--n", "2", "--seed", "3"])
    assert res.exit_code == 0, res.output
    assert [c["passed"] for c in json.loads(res.output)["checks"]] == [True] * 9


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_verify_dilation_identity_refuses_too_few_samples(samples):
    # one sample has no spread, so route (c) could not fail; fewer is no sample at all
    rng = np.random.default_rng(15)
    t = random_parallel_tester(1, 2, 2, 2, rng, anc_dim=2)
    ch = random_channel(2, 2, 2, rng)
    with pytest.raises(ValueError, match="at least 2 samples"):
        verify_dilation_identity(dilation_forms(t), ch, samples=samples, rng=rng)


def _whole_stack_route_c(forms, channel, samples, rng):
    """Referee: route (c) over one (samples, zdim) stack of every sample's coordinates z, each
    outcome's form pulled back by _pulled_back_forms, its values merged with moments._merge
    over route (c)'s pieces of unitaries.

    Each complex product x_a x_b takes its factors in the order verify_dilation_identity
    takes them, through np.multiply, so that numpy cannot swap them to write into a
    temporary: the product's rounding depends on that order."""
    tester = forms.tester
    anc_labels = _find_anc_labels(tester)
    a_labels, b_labels = _query_labels(tester, anc_labels)
    n = tester.n_queries
    order = []
    for j in range(n):
        order += [anc_labels[j], b_labels[j], a_labels[j]]
    r = tester.outcomes[0][1].layout.dim_of(anc_labels[0])
    left, right = _sample_coordinates(dilate(channel, r).matrix.reshape(r, -1))
    pulled = _pulled_back_forms((op.aligned_to(order).op for _, op in tester.outcomes), left, n)
    z = _coordinates(haar_unitaries(r, samples, rng), right, n)
    zbar = np.conj(z)
    prod = (zbar @ pulled).view(float).reshape(samples, len(tester.outcomes), -1)
    vals = np.einsum("sok,sk->os", prod, zbar.view(float))
    pieces = (vals[:, piece].copy() for piece in _sample_runs(samples, 16 * r * r))
    _, mean, stderr = moments._statistics(functools.reduce(moments._merge, pieces, moments._NO_SAMPLES))
    return mean, stderr


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2]),
    r=st.integers(1, 2),
    d1=st.integers(1, 2),
    d2=st.integers(1, 2),
    run=st.integers(2, 9),
    samples=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_route_c_in_runs_equals_the_whole_stack(n, r, d1, d2, run, samples, seed):
    # _CHUNK_BYTES lowered to `run` samples of the two outcomes' products, so the samples fall
    # below, at and across run and piece boundaries, with ragged tails (a one-sample tail
    # joins the run or piece before)
    d1 = min(d1, r * d2)
    rng = np.random.default_rng(seed)
    t = random_parallel_tester(n, d1, d2, 2, rng, anc_dim=r)
    ch = random_channel(d1, d2, min(r, d1 * d2), rng)
    forms = dilation_forms(t)
    q = min(r * r, r * d2 * d1)
    width = 2 * (q if n == 1 else q * (q + 1) // 2)
    with mock.patch.object(linalg, "_CHUNK_BYTES", 16 * width * run):
        check = verify_dilation_identity(forms, ch, samples=samples, rng=np.random.default_rng(seed))
        mean, stderr = _whole_stack_route_c(forms, ch, samples, np.random.default_rng(seed))
    assert np.all(check.mc_mean == mean)
    assert np.all(check.mc_stderr == stderr)


def test_route_c_memory_stays_below_one_stack_of_dilation_vectors():
    rng = np.random.default_rng(16)
    t = random_parallel_tester(2, 2, 2, 2, rng, anc_dim=2)
    ch = random_channel(2, 2, 2, rng)
    forms = dilation_forms(t)
    width = 8 * 9 // 2
    peaks = {}
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            verify_dilation_identity(forms, ch, samples=samples, rng=rng)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20_000] < 16 * 20_000 * width
    # nothing route (c) holds grows with the samples: ten times as many stay within 64 KiB
    assert peaks[200_000] <= peaks[20_000] + 2**16, peaks
