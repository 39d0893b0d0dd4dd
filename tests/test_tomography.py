import copy
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctlab import tomography
from ctlab.channels import Channel, Isometry, dilate, isometries, random_channel, random_dilations
from ctlab.linalg import (
    ATOL,
    dft_matrix,
    haar_unitary,
    isometry_defect,
    operator_norm,
    random_isometries,
    random_isometry,
    random_pure_state,
)
from ctlab.metrics import choi_trace_distance, diamond_distance
from ctlab.tomography import (
    MIN_EPS,
    PureStateOracleConfig,
    TomographyBatch,
    align_phases,
    channel_tomography,
    isometry_tomography,
    min_phase_op_error,
    pure_state_oracle,
    pure_state_oracles,
    weak_isometry_tomography,
)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        PureStateOracleConfig(eps_max=-0.1)
    with pytest.raises(ValueError):
        PureStateOracleConfig(eps_max=1.5)


@pytest.mark.parametrize("eps_max", [1e-320, 1e-308])
def test_oracle_config_declines_noise_below_the_estimators_least(eps_max):
    # d / eps_max is inf here, so a charge could not be counted
    with pytest.raises(ValueError):
        PureStateOracleConfig(eps_max=eps_max)


def test_oracle_config_accepts_the_least_estimator_noise():
    cfg = PureStateOracleConfig(eps_max=MIN_EPS**2 / 64)
    charge = cfg.copies_charged(3)
    assert charge == math.ceil(3 / (MIN_EPS**2 / 64))
    assert math.isfinite(float(charge))


def test_copies_charged():
    assert PureStateOracleConfig(eps_max=0.0).copies_charged(7) == 0
    assert PureStateOracleConfig(eps_max=0.1).copies_charged(3) == 30
    # ceiling, not rounding
    assert PureStateOracleConfig(eps_max=0.07).copies_charged(2) == math.ceil(2 / 0.07)


def test_oracle_output_norm_and_overlap():
    rng = np.random.default_rng(0)
    cfg = PureStateOracleConfig(eps_max=0.2)
    v = random_pure_state(4, rng)
    for _ in range(50):
        out = pure_state_oracle(v, cfg, rng)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        assert abs(np.vdot(v, out)) ** 2 >= 1.0 - 0.2 - 1e-10


def test_oracle_noiseless_is_phase_only():
    rng = np.random.default_rng(1)
    cfg = PureStateOracleConfig(eps_max=0.0)
    v = random_pure_state(3, rng)
    out = pure_state_oracle(v, cfg, rng)
    assert abs(abs(np.vdot(v, out)) - 1.0) < 1e-12


def test_oracle_one_dimensional():
    rng = np.random.default_rng(2)
    cfg = PureStateOracleConfig(eps_max=0.3)
    out = pure_state_oracle(np.array([1.0 + 0j]), cfg, rng)
    assert abs(abs(out[0]) - 1.0) < 1e-12


def test_oracle_randomizes_phase():
    rng = np.random.default_rng(3)
    cfg = PureStateOracleConfig(eps_max=0.0)
    v = np.array([1.0, 0.0], dtype=complex)
    phases = [pure_state_oracle(v, cfg, rng)[0] for _ in range(20)]
    assert np.std([np.angle(p) for p in phases]) > 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("eps_max", [0.3, 0.0])
def test_oracle_refuses_a_non_finite_column_before_any_draw(bad, eps_max):
    # a nan orthogonal part is never accepted: the redraw loop used to spin forever
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="finite"):
        pure_state_oracle(np.array([bad, 0]), PureStateOracleConfig(eps_max), rng)
    assert rng.bit_generator.state == before


def _column_by_column_oracle(columns, cfg, rngs):
    """The oracle on the rows of columns (N, d) one column at a time, each row's
    arithmetic 1-D, and the norms of its rejected draws.

    First each column in order draws a uniform for the phase, one for e, then d
    real and d imaginary normals, each norm by np.linalg.norm; then each
    rejected column in order draws its normals again until it passes."""
    columns = np.asarray(columns, dtype=complex)
    d = columns.shape[1]
    if cfg.eps_max == 0.0 or d == 1:
        return np.stack([np.exp(2j * np.pi * rng.uniform()) * v for v, rng in zip(columns, rngs)]), []

    def orthogonal_part(v, rng):
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w = g - v * (v.conj() @ g)
        return w, np.linalg.norm(w)

    draws = [
        (np.exp(2j * np.pi * rng.uniform()), cfg.eps_max * rng.uniform(), orthogonal_part(v, rng))
        for v, rng in zip(columns, rngs)
    ]
    out, rejected = [], []
    for v, rng, (phase, e, (w, norm)) in zip(columns, rngs, draws):
        while not norm > 1e-12:
            rejected.append(norm)
            w, norm = orthogonal_part(v, rng)
        out.append(phase * (math.sqrt(1.0 - e) * v) + math.sqrt(e) * (w / norm))
    return np.stack(out), rejected


def _column_by_column_weak(targets, cfg, rngs):
    """weak_isometry_tomography with the column-by-column oracle, trial by trial."""
    count, m, n = targets.shape
    columns = targets.transpose(0, 2, 1).reshape(count * n, m)
    tilde, _ = _column_by_column_oracle(columns, cfg, [rng for rng in rngs for _ in range(n)])
    u, _, vh = np.linalg.svd(tilde.reshape(count, n, m).transpose(0, 2, 1), full_matrices=False)
    return u @ vh


@st.composite
def oracle_batches(draw):
    """T trials of (m, n) isometry targets in one of three memory layouts,
    each trial on a generator of a pool that trials may share, and an oracle
    noise of 0, 1e-30 or 0.3 (at 0, and at m = 1, only the phase is drawn)."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, min(m, 4)))
    count = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    owners = draw(st.lists(st.integers(0, count - 1), min_size=count, max_size=count))
    targets = random_isometries(m, n, [np.random.default_rng(seed)] * count)
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if layout == "transposed":
        targets = np.ascontiguousarray(targets.transpose(0, 2, 1)).transpose(0, 2, 1)
    elif layout == "strided":
        wide = np.zeros((count, 2 * m, n + 1), dtype=complex)
        wide[:, ::2, 1:] = targets
        targets = wide[:, ::2, 1:]
    eps_max = draw(st.sampled_from([0.0, 1e-30, 0.3]))
    return targets, PureStateOracleConfig(eps_max), seed, owners


def _generator_pools(seed, owners):
    """Two identical pools of generators, and each trial's generator of each.

    default_rng([seed, 0]) is the stream default_rng(seed) that drew the
    targets. No draw from these pools reaches the oracle's rejection branch;
    test_rejected_rows_redraw_after_the_stack_in_row_order covers it."""
    pools = [[np.random.default_rng([seed, k]) for k in range(max(owners) + 1)] for _ in range(2)]
    return pools, [[pool[k] for k in owners] for pool in pools]


def _states(pool):
    return [rng.bit_generator.state for rng in pool]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_batches())
def test_batch_oracle_equals_the_one_column_at_a_time_oracle(batch):
    targets, cfg, seed, owners = batch
    count, m, n = targets.shape
    (pool, referee), (rngs, referee_rngs) = _generator_pools(seed, owners)
    snapped = _column_by_column_weak(targets, cfg, referee_rngs)
    assert weak_isometry_tomography(targets, cfg, rngs).tobytes() == snapped.tobytes()
    assert _states(pool) == _states(referee)
    # the column stack alone, read through unit-stride and strided rows
    (pool, referee), (rngs, referee_rngs) = _generator_pools(seed, owners)
    columns = targets.transpose(0, 2, 1).reshape(count * n, m)
    want, _ = _column_by_column_oracle(columns, cfg, [rng for rng in referee_rngs for _ in range(n)])
    strided = np.zeros((count * n, 2 * m), dtype=complex)
    strided[:, 1::2] = columns
    got = pure_state_oracles(strided[:, 1::2], cfg, [rng for rng in rngs for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    assert _states(pool) == _states(referee)


def test_a_rejected_draw_is_redrawn_as_column_by_column():
    # row 0's first normals are g itself, so its orthogonal part is rounding and is rejected;
    # its redraw comes after the first draws of rows 1 and 3, from the same generator
    cfg = PureStateOracleConfig(0.3)
    d = 3
    rng, other = np.random.default_rng(60), np.random.default_rng(61)
    probe = copy.deepcopy(rng)
    probe.random(2)
    g = probe.standard_normal(d) + 1j * probe.standard_normal(d)
    columns = np.stack([g / np.linalg.norm(g)] + [random_pure_state(d, np.random.default_rng(k)) for k in range(3)])
    gens = [rng, rng, other, rng]
    referee = {id(gen): copy.deepcopy(gen) for gen in (rng, other)}
    want, rejected = _column_by_column_oracle(columns, cfg, [referee[id(gen)] for gen in gens])
    assert len(rejected) == 1
    got = pure_state_oracles(columns, cfg, gens)
    assert got.tobytes() == want.tobytes()
    assert _states([rng, other]) == _states(referee.values())
    # rows 1 to 3 are the stack without row 0, drawn after row 0's first draws
    rng, other = np.random.default_rng(60), np.random.default_rng(61)
    rng.random(2)
    rng.standard_normal(2 * d)
    assert pure_state_oracles(columns[1:], cfg, [rng, other, rng]).tobytes() == got[1:].tobytes()
    # the stack of one redraws in place
    rng = np.random.default_rng(60)
    referee = copy.deepcopy(rng)
    want, rejected = _column_by_column_oracle(columns[:1], cfg, [referee])
    assert len(rejected) == 1
    assert pure_state_oracle(columns[0], cfg, rng).tobytes() == want[0].tobytes()
    assert _states([rng]) == _states([referee])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 5),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_rejected_rows_redraw_after_the_stack_in_row_order(d, rows, seed):
    # rows (generator, rejected) on a pool of three generators: a rejected row's column is
    # its own first normals, read from a copy of its generator at the row's turn
    cfg = PureStateOracleConfig(0.3)
    pool = [np.random.default_rng([seed, k]) for k in range(3)]
    probes = copy.deepcopy(pool)
    columns = []
    for j, (k, rejected) in enumerate(rows):
        probes[k].random(2)
        g = probes[k].standard_normal(d) + 1j * probes[k].standard_normal(d)
        other = random_pure_state(d, np.random.default_rng([seed, 3, j]))
        columns.append(g / np.linalg.norm(g) if rejected else other)
    referee = copy.deepcopy(pool)
    want, redrawn = _column_by_column_oracle(columns, cfg, [referee[k] for k, _ in rows])
    assert len(redrawn) == sum(rejected for _, rejected in rows)
    assert pure_state_oracles(np.stack(columns), cfg, [pool[k] for k, _ in rows]).tobytes() == want.tobytes()
    assert _states(pool) == _states(referee)


# ---------------------------------------------------------------------------
# Weak estimation and phase alignment
# ---------------------------------------------------------------------------


def test_weak_tomography_noiseless_columns():
    rng = np.random.default_rng(4)
    target = Isometry(random_isometry(4, 3, rng))
    cfg = PureStateOracleConfig(eps_max=0.0)
    est = Isometry(weak_isometry_tomography(target.matrix[None], cfg, [rng])[0])
    # exact columns up to per-column phases
    overlaps = np.abs(np.diag(target.matrix.conj().T @ est.matrix))
    assert np.abs(overlaps - 1.0).max() < 1e-10


def test_weak_tomography_noisy_columns():
    rng = np.random.default_rng(5)
    target = Isometry(random_isometry(3, 2, rng))
    cfg = PureStateOracleConfig(eps_max=1e-4)
    est = Isometry(weak_isometry_tomography(target.matrix[None], cfg, [rng])[0])
    overlaps = np.abs(np.diag(target.matrix.conj().T @ est.matrix))
    assert overlaps.min() > 0.99


def test_weak_tomography_rejects_non_isometry_shapes_before_drawing():
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    cfg = PureStateOracleConfig(eps_max=0.01)
    # more columns than rows, no columns, no rows
    for shape in ((1, 2, 3), (1, 3, 0), (1, 0, 0)):
        with pytest.raises(ValueError, match="m >= n >= 1"):
            weak_isometry_tomography(np.ones(shape), cfg, [rng])
    assert rng.bit_generator.state == state


def test_align_phases_recovers_exactly():
    # feed the aligner the exact model it assumes: per-column phase freedom
    rng = np.random.default_rng(6)
    d1 = 3
    v = random_isometry(5, d1, rng)
    f = dft_matrix(d1)
    phi1 = np.exp(2j * np.pi * rng.uniform(size=d1))
    phi2 = np.exp(2j * np.pi * rng.uniform(size=d1))
    vhat1 = Isometry(v @ np.diag(phi1))
    vhat2 = Isometry(v @ f @ np.diag(phi2))
    est = Isometry(align_phases(vhat1.matrix[None], vhat2.matrix[None])[0])
    assert min_phase_op_error(v, est.matrix) < 1e-10


def test_min_phase_op_error_basics():
    rng = np.random.default_rng(7)
    a = random_isometry(4, 2, rng)
    assert min_phase_op_error(a, np.exp(0.7j) * a) < 1e-9
    alpha = 0.8
    b = np.diag([1.0, np.exp(1j * alpha)])
    got = min_phase_op_error(np.eye(2, dtype=complex), b)
    assert abs(got - 2.0 * np.sin(alpha / 4.0)) < 1e-6


def test_min_phase_op_error_rejects_mismatched_shapes():
    a = np.eye(3, 2)
    for b in (np.ones((3, 1)), np.ones((1, 2)), np.ones(2), np.ones((2, 3))):
        with pytest.raises(ValueError):
            min_phase_op_error(a, b)
    with pytest.raises(ValueError):
        min_phase_op_error(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        min_phase_op_error(np.ones((2, 3, 2)), np.ones((3, 3, 2)))
    with pytest.raises(ValueError):
        min_phase_op_error(np.ones((1, 2, 3, 2)), np.ones((1, 2, 3, 2)))
    for shape in ((3, 0), (0, 2), (2, 3, 0), (2, 0, 2)):
        with pytest.raises(ValueError, match="at least one row and column"):
            min_phase_op_error(np.ones(shape), np.ones(shape))


def _reference_min_phase_op_error(a, b):
    """The phase minimization with its grid as a stacked SVD of a - e^{i theta} b and a
    60-step golden section in the bracket of the grid's least value: its value and its
    bracket centre."""

    def val(theta):
        return operator_norm(a - np.exp(1j * theta) * b)

    grid = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    values = np.linalg.svd(a - np.exp(1j * grid)[:, None, None] * b, compute_uv=False)[:, 0]
    center = int(np.argmin(values))
    step = grid[1] - grid[0]
    lo, hi = grid[center] - step, grid[center] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = val(x1), val(x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = val(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = val(x2)
    return min(float(values.min()), f1, f2), grid[center]


PHASE_STEP = 2.0 * np.pi / 360
# the golden section's last bracket: its value is the least over the bracket up to the
# change of ||a - z b|| across it, at most ||b|| times its width
GOLDEN_WIDTH = 2.0 * PHASE_STEP * ((math.sqrt(5.0) - 1.0) / 2.0) ** 60
# each side compares computed norms (Gram eigenvalues and SVDs of matrices up to 8 x 3),
# each within a few units of rounding of its exact value, and, for subnormal entries, within
# a few multiples of 2^-1074 from rounding e^{i theta} b
NORM_ROUNDING = 2.0**-48
NORM_FLOOR = 2.0**-1060


def _assert_certified(a, b, got, scale=1.0):
    """got, the value for the pair scaled by scale (a power of two), is at most scale times
    the golden section's value plus what its last bracket leaves open, and at least scale
    times the least norm on a fine grid over the bracket, less the most ||a - z b|| can
    fall between grid points (||b|| h / 2 at spacing h).  Each bound keeps NORM_FLOOR at
    both scales: scaling down rounds entries to subnormals."""
    golden, center = _reference_min_phase_op_error(a, b)
    norm_b = operator_norm(b)
    upper = golden * (1.0 + NORM_ROUNDING) + norm_b * GOLDEN_WIDTH + NORM_FLOOR
    assert got <= scale * upper + NORM_FLOOR, (got, golden, scale)
    fine = np.linspace(center - PHASE_STEP, center + PHASE_STEP, 2001)
    least = operator_norm(a - np.exp(1j * fine)[:, None, None] * b).min()
    lipschitz = norm_b * (fine[1] - fine[0]) / 2.0
    lower = least * (1.0 - NORM_ROUNDING) - lipschitz - NORM_FLOOR
    assert got >= scale * lower - NORM_FLOOR, (got, least, scale)


def _near_isometry_pair(d2, d1, scale, rng):
    a = random_isometry(d2, d1, rng)
    noise = scale * (rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1)))
    u, _, vh = np.linalg.svd(np.exp(2j * np.pi * rng.uniform()) * a + noise, full_matrices=False)
    return a, u @ vh


@st.composite
def near_isometry_pairs(draw):
    """An isometry and a nearby isometry estimate under a global phase, or a two-column
    pair b = e^{i psi} a diag(e^{i alpha}, e^{-i alpha}), whose least difference is a kink:
    the two singular values of a - z b cross there."""
    d2 = draw(st.integers(1, 8))
    d1 = draw(st.integers(1, min(d2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if d1 == 2 and draw(st.booleans()):
        a = random_isometry(d2, d1, rng)
        alpha = draw(st.floats(1e-3, 3.0))
        return a, np.exp(2j * np.pi * rng.uniform()) * a * np.exp([1j * alpha, -1j * alpha])
    return _near_isometry_pair(d2, d1, draw(st.floats(1e-12, 0.5)), rng)


@st.composite
def near_isometry_stacks(draw):
    """One to eight near-isometry pairs of one shape."""
    d2 = draw(st.integers(1, 8))
    d1 = draw(st.integers(1, min(d2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.floats(1e-8, 0.5), min_size=1, max_size=8))
    return [_near_isometry_pair(d2, d1, scale, rng) for scale in scales]


@st.composite
def complex_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=4))
    parts = [draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0))) for _ in range(4)]
    return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]


def _assert_certified_at_scale(a, b, theta, k):
    """The certificate of the pair scaled by 2^k, and its value at most the norm at theta."""
    scale = 2.0**k
    sa, sb = scale * a, scale * b
    got = min_phase_op_error(sa, sb)
    _assert_certified(a, b, got, scale)
    assert got <= operator_norm(sa - np.exp(1j * theta) * sb) + 1e-12 * scale + NORM_FLOOR


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_isometry_pairs(), st.floats(0.0, 2.0 * np.pi), st.integers(-1000, 1000))
def test_min_phase_op_error_is_certified_on_near_isometries(pair, theta, k):
    _assert_certified_at_scale(*pair, theta, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(complex_pairs(), st.floats(0.0, 2.0 * np.pi), st.integers(-1000, 1000))
def test_min_phase_op_error_is_certified_on_complex_pairs(pair, theta, k):
    # exact ties (a = 0, real pairs) may centre the bracket on another grid point, of the
    # same least grid value
    _assert_certified_at_scale(*pair, theta, k)


def test_min_phase_op_error_is_right_from_subnormal_to_huge_entries():
    # x I against i x I for every power of two x: the pairs whose Grams would underflow or
    # overflow run scaled, and the minimum is the rounding of e^{i theta} at theta = 3 pi / 2,
    # about 1.8e-16 x
    x = np.ldexp(1.0, np.arange(-1074, 1024))
    a = x[:, None, None] * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = min_phase_op_error(a, 1j * a)
        alone = [min_phase_op_error(p, 1j * p) for p in a]
    assert (got <= 1e-15 * x).all()
    assert got.tolist() == alone


@settings(max_examples=60, deadline=None, derandomize=True)
@given(near_isometry_stacks(), st.data())
def test_min_phase_op_error_on_a_stack_equals_its_pairs(pairs, data):
    alone = [min_phase_op_error(a, b) for a, b in pairs]
    a = np.stack([a for a, _ in pairs])
    b = np.stack([b for _, b in pairs])
    assert min_phase_op_error(a, b).tolist() == alone
    # any sub-stack, in any order
    order = data.draw(st.permutations(range(len(pairs))))
    rows = order[: data.draw(st.integers(1, len(pairs)))]
    assert min_phase_op_error(a[rows], b[rows]).tolist() == [alone[k] for k in rows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * np.pi))
def test_min_phase_op_error_of_an_isometry_against_its_own_phase_is_zero(cols, extra, seed, theta):
    # every value is the norm of a formed difference a - e^{i phi} b, so no cancellation
    # floors the minimum: it is |1 - e^{i (phi + theta)}|, the golden section's last bracket
    a = random_isometry(cols + extra, cols, np.random.default_rng(seed))
    assert min_phase_op_error(a, np.exp(1j * theta) * a) <= 1e-12


GRID = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)


def _full_grid_argmin(a, b):
    """np.argmin over the top eigenvalues of all 360 pencils of one pair."""
    ah = a.conj().T
    shifted = np.exp(1j * GRID)[:, None, None] * (ah @ b)
    pencil = (ah @ a + b.conj().T @ b) - (shifted + shifted.conj().transpose(0, 2, 1))
    return int(np.argmin(np.linalg.eigvalsh(pencil)[:, -1]))


@st.composite
def grid_stacks(draw):
    """One to six pairs of one shape: near isometries, far pairs, or exact ties
    (a = 0, real pairs, b = z a with z on the grid or off it)."""
    kind = draw(st.sampled_from(["near", "far", "zero", "real", "phase"]))
    d2 = draw(st.integers(1, 8))
    d1 = draw(st.integers(1, min(d2, 3)))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near":
        pairs = [_near_isometry_pair(d2, d1, draw(st.floats(1e-8, 0.5)), rng) for _ in range(count)]
        return np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])
    a, b = rng.standard_normal((2, count, d2, d1)) + 1j * rng.standard_normal((2, count, d2, d1))
    if kind == "zero":
        a[:] = 0.0
    elif kind == "real":
        a, b = a.real + 0j, b.real + 0j
    elif kind == "phase":
        angle = draw(st.one_of(st.integers(0, 359).map(lambda k: GRID[k]), st.floats(0.0, 2.0 * np.pi)))
        b = np.exp(1j * angle) * a
    return a, b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_stacks(), st.integers(1, 7))
def test_pruned_grid_centre_equals_the_full_grid_argmin(stack, per_chunk):
    a, b = stack
    full = [_full_grid_argmin(x, y) for x, y in zip(a, b)]
    assert tomography._grid_argmin(a, b, GRID).tolist() == full
    # runs of a few pencils, so a row's kept points span several eigvalsh calls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography.linalg, "_CHUNK_BYTES", per_chunk * 16 * a.shape[-1] ** 2)
        assert tomography._grid_argmin(a, b, GRID).tolist() == full


def _phase_batch(rows=3):
    """A 60-trial batch of rows x 2 isometries at eps 0.2: the targets and their estimates."""
    rngs = [np.random.default_rng([23, k]) for k in range(60)]
    targets = np.stack([random_isometry(rows, 2, rng) for rng in rngs])
    return targets, tomography.two_run_estimates(targets, tomography._oracle_config(0.2), rngs)


def test_phase_grid_eigensolves_few_pencils_per_trial(monkeypatch):
    solved = []
    real = np.linalg.eigvalsh

    def counting(pencils):
        # the grid's pencils only: the final operator norms eigensolve Grams
        if sys._getframe(1).f_code is tomography._grid_argmin.__code__:
            solved.append(len(pencils))
        return real(pencils)

    targets, estimates = _phase_batch()
    monkeypatch.setattr(tomography.np.linalg, "eigvalsh", counting)
    batch = min_phase_op_error(targets, estimates)
    assert len(solved) == 1 and solved[0] <= 5 * 60
    for target, estimate, error in zip(targets, estimates, batch):
        solved.clear()
        assert min_phase_op_error(target, estimate) == error
        assert 1 <= sum(solved) <= 5
    # a = 0 gives every grid point the same pencil, and all 360 are kept
    solved.clear()
    min_phase_op_error(np.zeros((3, 2)), targets[0])
    assert sum(solved) == 360


@pytest.mark.parametrize("rows", [3, 2])
def test_phase_search_eigensolves_few_gram_stacks_per_batch(rows, monkeypatch):
    # every stacked Gram eigensolve after the grid: the Newton iterations' eigh and the
    # final operator norms' eigvalsh.  A fixed 60-step golden section makes 63.  Two 2 x 2
    # unitaries are nearest at a kink, where the top two singular values of a - z b cross;
    # bisecting each such row to 1e-14 rad would take 43.
    solved = []

    def counting(real):
        def solve(grams):
            if sys._getframe(1).f_code is not tomography._grid_argmin.__code__:
                solved.append(len(grams))
            return real(grams)

        return solve

    targets, estimates = _phase_batch(rows)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(tomography.np.linalg, name, counting(getattr(np.linalg, name)))
    min_phase_op_error(targets, estimates)
    assert len(solved) <= 15
    # the stack shrinks as its rows converge
    assert solved[0] == 60 and solved[-2] < 60


# ---------------------------------------------------------------------------
# Full isometry estimation
# ---------------------------------------------------------------------------


def test_isometry_tomography_eps_guard():
    rng = np.random.default_rng(8)
    target = Isometry(random_isometry(3, 2, rng))
    with pytest.raises(ValueError):
        isometry_tomography([target], 0.0, [rng])
    with pytest.raises(ValueError):
        isometry_tomography([target], 1.2, [rng])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_isometry_tomography_runs(seed):
    rng = np.random.default_rng(42)
    target = Isometry(random_isometry(3, 2, rng))
    batch = isometry_tomography([target], 0.2, [np.random.default_rng(seed)])
    assert isinstance(batch, TomographyBatch)
    assert batch.estimates.shape == (1, 3, 2)
    assert batch.success[0]
    assert 2.0 * batch.op_errors[0] <= 0.2
    # charged per the ceiling formula: two weak runs of d1 columns each
    assert batch.queries_charged == 2 * 2 * math.ceil(64 * 3 / 0.2**2)
    estimate = Isometry(batch.estimates[0])
    interval = diamond_distance(
        estimate.channel(), target.channel(), restarts=2, rng=np.random.default_rng(seed)
    )
    assert batch.choi_errors[0] <= interval.lower + 1e-7
    assert interval.lower <= interval.upper + 1e-9


def test_isometry_tomography_deterministic_via_seed():
    rng = np.random.default_rng(43)
    target = Isometry(random_isometry(2, 2, rng))
    a = isometry_tomography([target], 0.25, [np.random.default_rng(11)])
    b = isometry_tomography([target], 0.25, [np.random.default_rng(11)])
    assert a.op_errors[0] == b.op_errors[0]
    assert a.choi_errors[0] == b.choi_errors[0]
    assert np.abs(a.estimates - b.estimates).max() == 0


def test_isometry_tomography_unitary_target():
    rng = np.random.default_rng(44)
    target = Isometry(haar_unitary(2, rng))
    assert isometry_tomography([target], 0.3, [np.random.default_rng(1)]).success[0]


# ---------------------------------------------------------------------------
# Channel estimation through a dilation
# ---------------------------------------------------------------------------


def test_channel_tomography_rank_guard():
    # a target's rank is guarded where its dilation is made, and the rows of a dilation
    # must be whole blocks of d2
    rng = np.random.default_rng(9)
    ch = random_channel(2, 2, 3, rng)
    with pytest.raises(ValueError, match="below channel rank 3"):
        dilate(ch, 2)
    with pytest.raises(ValueError, match="below channel rank 3"):
        random_dilations(2, 2, [3], 2, [rng])
    target = Isometry(dilate(ch, 3).matrix)
    with pytest.raises(ValueError, match="multiple of d2"):
        channel_tomography([target], 4, 0.2, [rng])


def test_channel_tomography_runs():
    rng = np.random.default_rng(45)
    ch = random_channel(2, 2, 2, rng)
    batch = channel_tomography([Isometry(dilate(ch, 2).matrix)], 2, 0.3, [np.random.default_rng(5)])
    assert batch.success[0]
    assert batch.choi_errors[0] <= 0.3
    # the estimates are the 4 x 2 dilations, d2 = 2 rows per ancilla level
    estimate = Isometry(batch.estimates[0]).channel(2)
    assert isinstance(estimate, Channel)
    assert batch.queries_charged == 2 * 2 * math.ceil(64 * 4 / 0.3**2)
    assert batch.choi_errors[0] == pytest.approx(choi_trace_distance(estimate, ch))


def test_channel_tomography_padded_ancilla():
    # a rank-1 channel estimated through a larger dilation window
    rng = np.random.default_rng(46)
    u = haar_unitary(2, rng)
    ch = Channel.from_kraus([u])
    batch = channel_tomography([Isometry(dilate(ch, 3).matrix)], 2, 0.4, [np.random.default_rng(2)])
    assert batch.success[0]
    assert batch.queries_charged == 2 * 2 * math.ceil(64 * 6 / 0.4**2)


def test_channel_tomography_evaluates_only_its_own_channel(monkeypatch):
    from ctlab import metrics

    calls = []
    real = metrics._seesaw

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics, "_seesaw", counting)
    rng = np.random.default_rng(47)
    ch = random_channel(2, 2, 2, rng)
    target = Isometry(random_isometry(3, 2, rng))
    isometry_tomography([target], 0.3, [np.random.default_rng(6)])
    batch = channel_tomography([Isometry(dilate(ch, 2).matrix)], 2, 0.3, [np.random.default_rng(6)])
    assert calls == []
    estimate = Isometry(batch.estimates[0]).channel(2)
    interval = diamond_distance(estimate, ch, restarts=2, rng=np.random.default_rng(6))
    assert batch.choi_errors[0] <= interval.lower + 1e-9 and interval.lower <= interval.upper + 1e-9


def test_only_isometry_tomography_minimizes_the_phase(monkeypatch):
    calls = []
    real = tomography.min_phase_op_error

    def counting(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(tomography, "min_phase_op_error", counting)
    rng = np.random.default_rng(48)
    targets = [Isometry(random_isometry(3, 2, rng)) for _ in range(4)]
    rngs = [np.random.default_rng(7 + k) for k in range(4)]
    batch = isometry_tomography(targets, 0.3, rngs)
    assert calls == [(4, 3, 2)]
    for target, estimate, op_error in zip(targets, batch.estimates, batch.op_errors):
        assert op_error == real(target.matrix, estimate)
    dilations = isometries(random_dilations(2, 2, [2], 2, [rng]))
    batch = channel_tomography(dilations, 2, 0.3, [np.random.default_rng(7)])
    assert calls == [(4, 3, 2)]
    assert batch.op_errors is None


def test_isometry_tomography_batch_equals_its_trials_alone():
    # trial k draws only from rngs[k], so its row does not depend on the batch
    rng = np.random.default_rng(49)
    targets = [Isometry(random_isometry(4, 2, rng)) for _ in range(5)]
    batch = isometry_tomography(targets, 0.3, [np.random.default_rng(k) for k in range(5)])
    columns = (batch.estimates, batch.op_errors, batch.choi_errors, batch.success)
    assert [len(column) for column in columns] == [5] * 4
    charged = 0
    for k, target in enumerate(targets):
        alone = isometry_tomography([target], 0.3, [np.random.default_rng(k)])
        charged += alone.queries_charged
        assert (batch.op_errors[k], batch.choi_errors[k], batch.success[k]) == (
            alone.op_errors[0],
            alone.choi_errors[0],
            alone.success[0],
        )
        assert np.array_equal(batch.estimates[k], alone.estimates[0])
    assert batch.queries_charged == charged


def test_isometry_tomography_checks_its_batch_before_drawing():
    rng = np.random.default_rng(50)
    target = Isometry(random_isometry(3, 2, rng))
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        isometry_tomography([target, target], 0.0, [rng, rng])
    with pytest.raises(ValueError):
        isometry_tomography([target, target], 0.2, [rng])
    assert rng.bit_generator.state == state


@st.composite
def channel_batches(draw):
    """The output dimension d2 and the r-block dilations of one to five channels of one
    shape whose ranks are at most r."""
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 3))
    least = -(-d1 // d2)
    r = draw(st.integers(least, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = draw(st.lists(st.integers(least, min(r, d1 * d2)), min_size=1, max_size=5))
    return d2, isometries(random_dilations(d1, d2, ranks, r, [rng] * len(ranks)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(channel_batches(), st.sampled_from([0.05, 0.3, 1.0]), st.data())
def test_channel_tomography_batch_equals_its_trials_alone(batch, eps, data):
    d2, targets = batch
    alone = [
        channel_tomography([target], d2, eps, [np.random.default_rng(k)])
        for k, target in enumerate(targets)
    ]
    # any sub-stack, in any order
    order = data.draw(st.permutations(range(len(targets))))
    rows = order[: data.draw(st.integers(1, len(targets)))]
    got = channel_tomography([targets[k] for k in rows], d2, eps, [np.random.default_rng(k) for k in rows])
    assert [len(column) for column in (got.estimates, got.choi_errors, got.success)] == [len(rows)] * 3
    assert got.queries_charged == sum(alone[k].queries_charged for k in rows)
    assert got.op_errors is None
    for i, k in enumerate(rows):
        assert np.array_equal(got.estimates[i], alone[k].estimates[0])
        assert (got.choi_errors[i], got.success[i], alone[k].op_errors) == (
            alone[k].choi_errors[0],
            alone[k].success[0],
            None,
        )


def test_channel_tomography_checks_its_batch_before_drawing():
    rng = np.random.default_rng(51)
    low, high = isometries(random_dilations(2, 2, [1, 2], 2, [rng, rng]))
    rngs = [np.random.default_rng(k) for k in range(2)]
    states = [g.bit_generator.state for g in rngs]
    for targets, d2, eps, gens in [
        ([low, low], 2, 0.0, rngs),
        ([low, low], 2, 1.5, rngs),
        ([low, low], 2, 0.2, rngs[:1]),
        ([low, high], 3, 0.2, rngs),  # 4 rows are not whole blocks of 3
    ]:
        with pytest.raises(ValueError):
            channel_tomography(targets, d2, eps, gens)
    assert [g.bit_generator.state for g in rngs] == states


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    st.sampled_from([0.05, 0.3, 1.0]),
)
def test_isometry_tomography_is_channel_tomography_of_one_block(d1, extra, seeds, eps):
    d2 = min(d1 + extra, 4)
    # the tomography command's isometry targets: rank-1 dilations on a one-level ancilla,
    # which are the plain Haar isometries bit for bit
    drawn = random_dilations(d1, d2, [1] * len(seeds), 1, [np.random.default_rng(s) for s in seeds])
    plain = random_isometries(d2, d1, [np.random.default_rng(s) for s in seeds])
    assert drawn.tobytes() == plain.tobytes()
    targets = isometries(drawn)
    rngs = [np.random.default_rng([s, 1]) for s in seeds]
    copies = copy.deepcopy(rngs)
    iso = isometry_tomography(targets, eps, rngs)
    chan = channel_tomography(targets, d2, eps, copies)
    assert iso.estimates.tobytes() == chan.estimates.tobytes()
    assert iso.choi_errors.tobytes() == chan.choi_errors.tobytes()
    assert iso.queries_charged == chan.queries_charged
    assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in copies]
    assert chan.op_errors is None
    assert np.array_equal(iso.success, 2.0 * iso.op_errors <= eps)


def test_isometry_tomography_choi_errors_equal_the_channel_distance():
    rng = np.random.default_rng(52)
    targets = [Isometry(random_isometry(4, 3, rng)) for _ in range(4)]
    batch = isometry_tomography(targets, 0.5, [np.random.default_rng(k) for k in range(4)])
    for target, estimate, choi_error in zip(targets, batch.estimates, batch.choi_errors):
        assert choi_error == choi_trace_distance(Isometry(estimate).channel(), target.channel())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 3),
    st.floats(0.0, 1.0, exclude_min=True),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
def test_batch_columns_hold_valid_estimates(d1, d2, r, eps, seeds):
    """Every row of the columns is a valid estimate with the formula's charge:
    r = 0 runs isometry estimation, r > 0 channel estimation through r-slot
    dilations, whose contractions pass Channel validation."""
    assume(d2 >= d1 if r == 0 else r * d2 >= d1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if r == 0:
        targets = [Isometry(random_isometry(d2, d1, rng)) for rng in rngs]
    else:
        least = -(-d1 // d2)
        ranks = [int(rng.integers(least, min(r, d1 * d2) + 1)) for rng in rngs]
        targets = isometries(random_dilations(d1, d2, ranks, r, rngs))

    def run():
        if r == 0:
            return isometry_tomography(targets, eps, rngs)
        return channel_tomography(targets, d2, eps, rngs)

    if eps < MIN_EPS:
        # eps^2 / 64 would underflow to an uncharged oracle or an overflowing charge
        with pytest.raises(ValueError):
            run()
        return
    batch = run()
    rows = max(r, 1) * d2
    assert batch.estimates.shape == (len(seeds), rows, d1)
    assert batch.queries_charged == len(seeds) * 2 * d1 * math.ceil(64 * rows / (eps * eps))
    if r == 0:
        assert isometry_defect(batch.estimates) <= ATOL
        return
    for estimate, target, choi_error in zip(batch.estimates, targets, batch.choi_errors):
        channel = Isometry(estimate).channel(d2)
        assert choi_trace_distance(channel, target.channel(d2)) == choi_error


def _reference_align_phases(vhat1, vhat2):
    """One pair of weak runs aligned entry by entry: Python medians, math.hypot, complex division."""
    d1 = vhat2.shape[1]
    f = dft_matrix(d1)
    phi3 = (vhat1.conj().T @ vhat2) / f
    mags = np.abs(phi3[:, 0])
    best = int(np.argmax(mags))
    rows = []
    for k in range(d1):
        src = k if mags[k] >= 0.1 else best
        ref = phi3[src, 0]
        rows.append(np.ones(d1, dtype=complex) if abs(ref) < 1e-12 else phi3[src, :] / ref)
    ratios = np.array(rows)
    phases = np.ones(d1, dtype=complex)
    for j in range(d1):
        a = float(np.sort(ratios[:, j].real)[(d1 - 1) // 2])
        b = float(np.sort(ratios[:, j].imag)[(d1 - 1) // 2])
        mod = math.hypot(a, b)
        if mod >= 1e-12:
            phases[j] = (a + 1j * b) / mod
    return vhat2 @ np.diag(phases.conj()) @ f.conj().T


_SCALES = st.sampled_from([1.0, 1.0, 0.3, 0.05, 1e-11, 1e-13, 0.0])


@st.composite
def weak_run_stacks(draw):
    """One to six pairs of weak runs (T, m, d1).  A pair is either the exact
    model (per-column phases on the target and on target @ DFT, plus noise)
    or runs whose Phi3 has entries scaled towards zero, reference column
    included, so rows borrow the strongest row, fall back to ones, or give a
    median below the modulus cutoff."""
    d1 = draw(st.integers(1, 3))
    m = draw(st.integers(d1, 5))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = dft_matrix(d1)
    v1 = np.empty((count, m, d1), dtype=complex)
    v2 = np.empty((count, m, d1), dtype=complex)
    for t in range(count):
        if draw(st.booleans()):
            v = random_isometry(m, d1, rng)
            phi1, phi2 = np.exp(2j * np.pi * rng.uniform(size=(2, d1)))
            noise = draw(st.sampled_from([0.0, 1e-3, 0.3]))
            v1[t] = v * phi1 + noise * rng.standard_normal((m, d1))
            v2[t] = (v @ f) * phi2 + noise * rng.standard_normal((m, d1))
        else:
            # vhat1 = [I; 0], so Phi3 is the top block of vhat2 over F
            scales = np.array([[draw(_SCALES) for _ in range(d1)] for _ in range(d1)])
            phi3 = scales * (rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1)))
            v1[t] = np.eye(m, d1)
            v2[t] = np.vstack([phi3 * f, rng.standard_normal((m - d1, d1))])
    return v1, v2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weak_run_stacks(), st.data())
def test_align_phases_on_a_stack_equals_its_pairs_one_by_one(stacks, data):
    v1, v2 = stacks
    got = align_phases(v1, v2)
    assert got.shape == v2.shape
    for t in range(len(v1)):
        assert np.array_equal(got[t], align_phases(v1[t : t + 1], v2[t : t + 1])[0])
        assert np.array_equal(got[t], _reference_align_phases(v1[t], v2[t]))
    # any sub-stack, in any order
    order = data.draw(st.permutations(range(len(v1))))
    assert np.array_equal(align_phases(v1[order], v2[order]), got[order])
