import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlab.channels import Channel, random_channel
from ctlab.linalg import dag, haar_unitary, hermitianize, random_pure_state, trace_norm
from ctlab.metrics import (
    _SEESAW_MAX_ITER,
    _SEESAW_TOL,
    DiamondEstimate,
    _seesaw,
    _signed_lifted_kraus,
    channel_fidelity,
    choi_trace_distance,
    choi_trace_distances,
    diamond_distance,
    diamond_distances,
    fidelity_trace_conversion,
    unitary_diamond_distance,
)


def _depolarizing(p):
    omega = np.eye(2, dtype=complex).reshape(-1)
    choi = (1 - p) * np.outer(omega, omega) + p * np.eye(4) / 2
    return Channel(choi, 2, 2)


@st.composite
def _channel_pool(draw, min_size=2, max_size=6):
    """Channels sharing d_in -> d_out, of random Kraus ranks."""
    d_in = draw(st.integers(1, 3))
    d_out = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(min_size, max_size))
    lo = -(-d_in // d_out)
    return [random_channel(d_in, d_out, int(rng.integers(lo, d_in * d_out + 1)), rng) for _ in range(size)]


def _hermitian_trace_norm(m):
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_channel_pool())
def test_stacked_choi_rows_equal_per_pair_distances(pool):
    # the row form sample_packing_net fills its distance matrix with
    chois = np.stack([ch.choi for ch in pool])
    d_in = pool[0].d_in
    for i in range(len(pool) - 1):
        row = choi_trace_distances(chois[i], chois[i + 1 :], d_in)
        assert row.tolist() == [choi_trace_distance(pool[i], b) for b in pool[i + 1 :]]
        assert row.tolist() == [_hermitian_trace_norm(pool[i].choi - b.choi) / d_in for b in pool[i + 1 :]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_channel_pool())
def test_choi_distances_by_eigvalsh_equal_singular_value_trace_norms(pool):
    # a Choi difference is Hermitian, so its singular values are its |eigenvalues|
    chois = np.stack([ch.choi for ch in pool])
    d_in = pool[0].d_in
    for i in range(len(pool) - 1):
        row = choi_trace_distances(chois[i], chois[i + 1 :], d_in)
        want = [trace_norm(pool[i].choi - b.choi) / d_in for b in pool[i + 1 :]]
        assert np.max(np.abs(row - want)) <= 1e-13


def test_choi_distance_zero_on_equal():
    rng = np.random.default_rng(0)
    ch = random_channel(2, 3, 2, rng)
    assert choi_trace_distance(ch, ch) < 1e-12


def test_choi_distance_depolarizing_closed_form():
    # Delta C = dp * (I/2 - |Omega><Omega|) with eigenvalues {1/2 x3, -3/2},
    # so (1/d1) ||Delta C||_1 = (3/2) |dp|
    a = _depolarizing(0.1)
    b = _depolarizing(0.5)
    assert abs(choi_trace_distance(a, b) - 1.5 * 0.4) < 1e-10


def test_choi_distance_shape_guard():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        choi_trace_distance(random_channel(2, 2, 1, rng), random_channel(2, 3, 1, rng))


def test_channel_fidelity_bounds():
    rng = np.random.default_rng(2)
    a = random_channel(2, 2, 2, rng)
    b = random_channel(2, 2, 2, rng)
    f = channel_fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert abs(channel_fidelity(a, a) - 1.0) < 1e-10


def test_channel_fidelity_unitary_overlap():
    # for unitary channels F = |tr(u^dag v)|^2 / d^2
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    a = Channel.from_kraus([np.eye(2, dtype=complex)])
    b = Channel.from_kraus([x])
    assert channel_fidelity(a, b) < 1e-10
    rng = np.random.default_rng(3)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    want = abs(np.trace(u.conj().T @ v)) ** 2 / 9.0
    got = channel_fidelity(Channel.from_kraus([u]), Channel.from_kraus([v]))
    assert abs(got - want) < 1e-8


def test_channel_fidelity_exact_on_pure_choi_states():
    # rank-1 Choi states: F = tr(rho sigma) exactly, and Fuchs-van de Graaf
    # holds with equality, so the 1e-9 slack of `ctlab distances` must hold
    rng = np.random.default_rng(11)
    for d_in, d_out in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(25):
            a = random_channel(d_in, d_out, 1, rng)
            b = random_channel(d_in, d_out, 1, rng)
            exact = float(np.trace(a.choi @ b.choi).real) / d_in**2
            f = channel_fidelity(a, b)
            assert abs(f - exact) < 1e-12
            assert choi_trace_distance(a, b) <= fidelity_trace_conversion(f) + 1e-9


def test_fidelity_trace_conversion():
    assert fidelity_trace_conversion(1.0) == 0.0
    assert abs(fidelity_trace_conversion(0.0) - 2.0) < 1e-14
    assert abs(fidelity_trace_conversion(0.75) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fidelity_trace_conversion(1.5)


# ---------------------------------------------------------------------------
# Diamond distance: see-saw lower bound vs trace-norm upper bound
# ---------------------------------------------------------------------------


def test_diamond_equal_channels():
    rng = np.random.default_rng(4)
    ch = random_channel(2, 2, 2, rng)
    est = diamond_distance(ch, ch, restarts=2, rng=rng)
    assert est.upper < 1e-10
    assert est.lower <= est.upper + 1e-12


def test_diamond_depolarizing_exact():
    # ||E_p - E_q||_diamond = (3/2)|p - q| for qubit depolarizing pairs,
    # attained by the maximally entangled input, so lower hits it exactly
    a = _depolarizing(0.2)
    b = _depolarizing(0.6)
    est = diamond_distance(a, b, restarts=4, rng=np.random.default_rng(5))
    assert abs(est.lower - 1.5 * 0.4) < 1e-7
    assert abs(est.upper - 3.0 * 0.4) < 1e-10
    assert est.converged


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_diamond_sandwich_random_pairs(dims):
    d_in, d_out = dims
    rng = np.random.default_rng(d_in * 7 + d_out)
    for _ in range(5):
        a = random_channel(d_in, d_out, 2, rng)
        b = random_channel(d_in, d_out, 2, rng)
        est = diamond_distance(a, b, restarts=3, rng=rng)
        choi = choi_trace_distance(a, b)
        assert est.lower >= choi - 1e-7
        assert est.lower <= est.upper + 1e-9
        assert abs(est.upper - trace_norm(a.choi - b.choi)) < 1e-12


def test_diamond_estimate_fields():
    rng = np.random.default_rng(6)
    a = random_channel(2, 2, 1, rng)
    b = random_channel(2, 2, 2, rng)
    est = diamond_distance(a, b, restarts=2, rng=rng)
    assert isinstance(est, DiamondEstimate)
    assert est.witness_state.shape == (4,)
    assert abs(np.linalg.norm(est.witness_state) - 1.0) < 1e-9
    assert est.iterations >= 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_channel_pool(max_size=2), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_batched_seesaw_properties(pair, restarts, seed):
    a, b = pair
    est = diamond_distance(a, b, restarts=restarts, rng=np.random.default_rng(seed))
    choi = choi_trace_distance(a, b)
    assert choi - 1e-9 <= est.lower <= est.upper + 1e-9
    assert abs(np.linalg.norm(est.witness_state) - 1.0) < 1e-9
    assert est.iterations >= restarts
    # the first restart ascends from the same start whatever runs beside it
    one = diamond_distance(a, b, restarts=1, rng=np.random.default_rng(seed))
    assert est.lower >= one.lower - 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_channel_pool(min_size=3, max_size=6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_seesaw_restart_does_not_depend_on_its_batch(pool, restarts, seed):
    # pairs of mixed Kraus ranks: each pair's estimate in the batch equals its
    # solo run, whose starts come from the same generator in pair order
    pairs = list(zip(pool, pool[1:]))
    batch = diamond_distances(pairs, restarts=restarts, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for (a, b), est in zip(pairs, batch):
        solo = diamond_distance(a, b, restarts=restarts, rng=rng)
        assert (est.lower, est.upper, est.iterations, est.converged) == (
            solo.lower,
            solo.upper,
            solo.iterations,
            solo.converged,
        )
        assert np.array_equal(est.witness_state, solo.witness_state)
    # every row of a stacked see-saw, of every pair of one rank, equals its solo row
    rank = pool[0].rank + pool[1].rank
    same = [(a, b) for a, b in pairs if a.rank + b.rank == rank]
    lifted, signs = _signed_lifted_kraus(same)
    owner = np.repeat(np.arange(len(same)), restarts)
    starts = np.stack([random_pure_state(pool[0].d_in ** 2, rng) for _ in owner])
    f, psi, _, it = _seesaw(starts, lifted, signs, owner, 1e-8, 1000)
    for row, k in enumerate(owner):
        f1, psi1, _, it1 = _seesaw(starts[row : row + 1], lifted[k : k + 1], signs[k : k + 1], [0], 1e-8, 1000)
        assert f[row] == f1[0]
        assert np.array_equal(psi[row], psi1[0])
        assert it[row] == it1[0]


def test_diamond_restart_guard():
    rng = np.random.default_rng(7)
    ch = random_channel(2, 2, 1, rng)
    with pytest.raises(ValueError):
        diamond_distance(ch, ch, restarts=0, rng=rng)


# the (d_in, d_out) pairs that the distances benchmark cycles through
_DISTANCES_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))


def _distances_pair(d_in, d_out, rng):
    lo = -(-d_in // d_out)
    return tuple(random_channel(d_in, d_out, int(rng.integers(lo, d_in * d_out + 1)), rng) for _ in "ab")


def _seesaw_value(a, b, psi):
    """f(psi) = || sum_k s_k (K_k kron I) psi psi^dag (K_k kron I)^dag ||_1, by np.kron."""
    eye = np.eye(a.d_in)
    rho = np.outer(psi, psi.conj())
    out = sum(np.kron(k, eye) @ rho @ np.kron(k, eye).conj().T for k in a.kraus)
    out = out - sum(np.kron(k, eye) @ rho @ np.kron(k, eye).conj().T for k in b.kraus)
    return _hermitian_trace_norm(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_DISTANCES_DIMS), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_witness_attains_the_lower_bound(dims, restarts, seed):
    rng = np.random.default_rng(seed)
    a, b = _distances_pair(*dims, rng)
    est = diamond_distance(a, b, restarts=restarts, rng=rng)
    assert abs(np.linalg.norm(est.witness_state) - 1.0) < 1e-12
    if est.lower < est.upper:
        assert abs(_seesaw_value(a, b, est.witness_state) - est.lower) <= 1e-10


def _plain_seesaw(psi, lifted, signs, owner, tol, max_iter):
    """Referee: the see-saw without over-relaxation, as it stood before it.

    Each iteration evaluates f at psi and moves to the top eigenvector of the
    pull-back; a row stops once an iteration gains less than tol.
    """
    _, n_out, r, n_in = lifted.shape
    lifted, signs = lifted[owner], signs[owner][:, None, :]
    back = (lifted.conj() * signs[..., None]).reshape(-1, n_out * r, n_in)
    count = psi.shape[0]
    f_out = np.full(count, -np.inf)
    psi_out = psi.copy()
    converged = np.zeros(count, dtype=bool)
    iterations = np.full(count, max_iter)
    rows = np.arange(count)
    f_prev = np.full(count, -np.inf)
    for it in range(1, max_iter + 1):
        p = rows.size
        forward = lifted.reshape(p, n_out * r, n_in).swapaxes(1, 2)
        xs = (psi[:, None, :] @ forward).reshape(p, n_out, r)
        omega = (xs * signs) @ dag(xs)
        w, v = np.linalg.eigh(hermitianize(omega))
        f = np.abs(w).sum(-1)
        wmat = (v * np.sign(w)[:, None, :]) @ dag(v)
        pulled = (wmat @ lifted.reshape(p, n_out, r * n_in)).reshape(p, n_out * r, n_in)
        psi = np.linalg.eigh(hermitianize(back.swapaxes(1, 2) @ pulled))[1][:, :, -1].copy()
        done = f - f_prev < tol
        f_prev = np.where(done, np.maximum(f_prev, f), f)
        if done.any():
            stop = rows[done]
            f_out[stop], psi_out[stop], converged[stop], iterations[stop] = f_prev[done], psi[done], True, it
            keep = ~done
            rows, psi, f_prev = rows[keep], psi[keep], f_prev[keep]
            if not rows.size:
                break
            lifted, back, signs = lifted[keep], back[keep], signs[keep]
    f_out[rows], psi_out[rows] = f_prev, psi
    return f_out, psi_out, converged, iterations


def test_relaxed_seesaw_against_the_plain_loop():
    # 80 pairs over the distances dimensions, two restarts each (the maximally
    # entangled start and one Haar start), the same starts for both loops
    rng = np.random.default_rng(20)
    plain, relaxed = [], []
    for k in range(80):
        d_in, d_out = _DISTANCES_DIMS[k % 4]
        a, b = _distances_pair(d_in, d_out, rng)
        lifted, signs = _signed_lifted_kraus([(a, b)])
        me = np.eye(d_in, dtype=complex).reshape(-1) / np.sqrt(d_in)
        starts = np.stack([me, random_pure_state(d_in * d_in, rng)])
        upper = trace_norm(a.choi - b.choi)
        for seesaw, out in ((_plain_seesaw, plain), (_seesaw, relaxed)):
            f, _, converged, iterations = seesaw(starts, lifted, signs, [0, 0], _SEESAW_TOL, _SEESAW_MAX_ITER)
            assert converged.all()
            out.append((min(f.max(), upper), iterations.sum()))
    plain, relaxed = np.array(plain), np.array(relaxed)
    assert relaxed[:, 1].sum() <= 0.7 * plain[:, 1].sum()
    assert np.all(relaxed[:, 0] >= plain[:, 0] - 1e-8)
    assert relaxed[:, 0].mean() >= plain[:, 0].mean()


# ---------------------------------------------------------------------------
# Unitary channels: exact closed form
# ---------------------------------------------------------------------------


def test_unitary_diamond_equal():
    rng = np.random.default_rng(8)
    u = haar_unitary(3, rng)
    assert unitary_diamond_distance(u, u) < 1e-12


def test_unitary_diamond_antipodal():
    # eig(u^dag v) = {1, -1}: hull contains the origin, distance is 2
    u = np.eye(2, dtype=complex)
    v = np.diag([1.0, -1.0]).astype(complex)
    assert abs(unitary_diamond_distance(u, v) - 2.0) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
def test_unitary_diamond_phase_pair(theta):
    # eig = {1, e^{i theta}}: nu = cos(theta/2), distance 2 sin(theta/2)
    u = np.eye(2, dtype=complex)
    v = np.diag([1.0, np.exp(1j * theta)])
    want = 2.0 * np.sin(theta / 2.0)
    assert abs(unitary_diamond_distance(u, v) - want) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_unitary_diamond_known_eigenphases(d):
    # u^dag v = q diag(e^{i theta}) q^dag, theta spanning an arc of known width w < pi:
    # the distance is 2 sin(w / 2), to rounding even for w = 1e-6
    rng = np.random.default_rng(200 + d)
    for width in np.geomspace(1e-6, 2.0, 40):
        theta = rng.uniform(0.0, width, d)
        theta[:2] = 0.0, width
        theta += rng.uniform(-np.pi, np.pi)
        q = haar_unitary(d, rng)
        u = haar_unitary(d, rng)
        v = u @ q @ np.diag(np.exp(1j * theta)) @ q.conj().T
        assert abs(unitary_diamond_distance(u, v) - 2.0 * np.sin(width / 2.0)) < 1e-12


def test_unitary_diamond_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_diamond_distance(np.ones((2, 2)), np.eye(2))


@pytest.mark.parametrize("d", [2, 3])
def test_seesaw_matches_unitary_closed_form(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        want = unitary_diamond_distance(u, v)
        est = diamond_distance(
            Channel.from_kraus([u]), Channel.from_kraus([v]), restarts=16, rng=rng
        )
        assert abs(est.lower - want) < 1e-4
        # unitary pairs: the Choi gap never exceeds the diamond value
        assert est.lower <= want + 1e-6
