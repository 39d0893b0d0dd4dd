import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctlab import linalg
from ctlab.linalg import (
    ATOL,
    FactorLayout,
    chunk_slices,
    dag,
    dft_matrix,
    haar_unitaries,
    haar_unitary,
    hermitianize,
    isometry_defect,
    isometry_defects,
    kron,
    min_eig,
    operator_norm,
    partial_trace,
    permute_factors,
    psd_inv_sqrt,
    psd_sqrt,
    random_density,
    random_gaussian_matrix,
    random_isometries,
    random_isometry,
    random_pure_state,
    swap_operator,
    trace_norm,
    unvectorize,
    vectorize,
)


def _rand_herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def _low_rank_density(d, rank, rng):
    g = random_gaussian_matrix(d, rank, rng)
    rho = g @ dag(g)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# FactorLayout
# ---------------------------------------------------------------------------


def test_factor_layout_basic():
    lay = FactorLayout((("a", 2), ("b", 3), ("c", 4)))
    assert lay.labels == ("a", "b", "c")
    assert lay.dims == (2, 3, 4)
    assert lay.dim == 24
    assert len(lay) == 3
    assert "b" in lay
    assert "z" not in lay
    assert lay.position("b") == 1
    assert list(lay.positions(("c", "a"))) == [2, 0]
    assert lay.dim_of("c") == 4


def test_factor_layout_without_and_restricted():
    lay = FactorLayout((("a", 2), ("b", 3), ("c", 4)))
    assert lay.without(("b",)).labels == ("a", "c")
    assert lay.without(("a", "c")).dims == (3,)
    sub = lay.restricted(("c", "a"))
    assert sub.labels == ("c", "a")
    assert sub.dims == (4, 2)


def test_factor_layout_rejects_duplicates():
    with pytest.raises(ValueError):
        FactorLayout((("a", 2), ("a", 3)))


def test_factor_layout_unknown_label():
    lay = FactorLayout((("a", 2),))
    with pytest.raises(KeyError):
        lay.position("b")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.tuples(st.sampled_from("ABR"), st.integers(0, 3))),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.integers(-4, 4),
)
def test_factor_layout_position_agrees_with_labels_index(labels, stray):
    # position and membership read an index built once at construction
    lay = FactorLayout(tuple((lab, 2) for lab in labels))
    assert lay.labels == tuple(labels)
    for lab in labels:
        assert lay.position(lab) == lay.labels.index(lab)
        assert lab in lay
    assert (stray in lay) == (stray in lay.labels)
    if stray not in labels:
        with pytest.raises(KeyError):
            lay.position(stray)


# ---------------------------------------------------------------------------
# Elementary helpers
# ---------------------------------------------------------------------------


def test_dag_and_hermitianize():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.abs(dag(m) - m.conj().T).max() == 0
    h = hermitianize(m)
    assert np.abs(h - h.conj().T).max() < 1e-15
    assert np.abs(h - (m + m.conj().T) / 2).max() < 1e-15


# entries with both signed zeros, both infinities and nan, so that byte equality
# sees a product that lost a zero's sign or moved a nan
_KRON_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _kron_operand(draw, ndim: int, kind: str) -> np.ndarray:
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    parts = [draw(hnp.arrays(np.float64, shape, elements=_KRON_ENTRIES)) for _ in range(2)]
    if kind == "float":
        return parts[0]
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


@st.composite
def _kron_pair(draw) -> tuple:
    ndim = draw(st.sampled_from([1, 2]))
    kinds = draw(st.sampled_from([("complex", "float"), ("complex", "complex"), ("float", "complex")]))
    return tuple(draw(_kron_operand(ndim, kind)) for kind in kinds)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kron_pair())
def test_kron_has_the_bits_of_numpy_kron(pair):
    a, b = pair
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf make nan in both
        got, want = kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "shapes",
    [((3,), (2, 2)), ((2, 2), (3,)), ((), ()), ((2,), ()), ((2, 2, 2), (2, 2, 2)), ((2, 2), (1, 2, 2))],
)
def test_kron_refuses_mixed_or_other_ndims(shapes):
    with pytest.raises(ValueError, match="two vectors or two matrices"):
        kron(*(np.ones(shape) for shape in shapes))


def test_vectorize_row_major_round_trip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v = vectorize(m)
    # row-major: entry (i, j) lands at position i * cols + j
    assert v[1 * 4 + 2] == m[1, 2]
    assert np.abs(unvectorize(v, 3, 4) - m).max() == 0
    sq = rng.standard_normal((3, 3))
    assert np.abs(unvectorize(vectorize(sq), 3, 3) - sq).max() == 0
    # a stack (..., rows, cols) is vectorized matrix by matrix
    stack = rng.standard_normal((2, 5, 3, 4))
    assert vectorize(stack).shape == (2, 5, 12)
    assert np.array_equal(vectorize(stack)[1, 3], vectorize(stack[1, 3]))


# ---------------------------------------------------------------------------
# Partial trace / transpose / permutation
# ---------------------------------------------------------------------------


def test_partial_trace_on_kron():
    rng = np.random.default_rng(3)
    a = _rand_herm(2, rng)
    b = _rand_herm(3, rng)
    m = np.kron(a, b)
    got = partial_trace(m, (2, 3), (1,))
    assert np.abs(got - np.trace(b) * a).max() < 1e-12
    got = partial_trace(m, (2, 3), (0,))
    assert np.abs(got - np.trace(a) * b).max() < 1e-12


def test_partial_trace_multiple_factors_preserves_trace():
    rng = np.random.default_rng(5)
    m = _rand_herm(12, rng)
    red = partial_trace(m, (2, 2, 3), (0, 2))
    assert red.shape == (2, 2)
    assert abs(np.trace(red) - np.trace(m)) < 1e-12


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _rand_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@st.composite
def _operators_on_factors(draw, max_dim=16):
    """A random complex operator on 1-3 factors of total dimension <= max_dim."""
    dims = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
            lambda ds: math.prod(ds) <= max_dim
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(dims), _rand_complex(math.prod(dims), rng)


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_partial_trace_of_product_property(da, db, seed):
    rng = np.random.default_rng(seed)
    x = _rand_complex(da, rng)
    y = _rand_complex(db, rng)
    got = partial_trace(np.kron(x, y), (da, db), (1,))
    assert np.abs(got - np.trace(y) * x).max() < 1e-12


def test_permute_factors_swaps_kron_order():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    m = np.kron(a, b)
    got = permute_factors(m, (2, 3), (1, 0))
    assert np.abs(got - np.kron(b, a)).max() < 1e-14


def test_permute_factors_round_trip():
    rng = np.random.default_rng(9)
    m = _rand_herm(12, rng)
    fwd = permute_factors(m, (2, 2, 3), (2, 0, 1))
    back = permute_factors(fwd, (3, 2, 2), (1, 2, 0))
    assert np.abs(back - m).max() < 1e-13


def test_factor_positions_are_checked():
    m = np.eye(6)
    with pytest.raises(ValueError, match="repeated"):
        partial_trace(m, (2, 3), (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, (2, 3), (2,))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, (2, 3), (-1,))
    with pytest.raises(ValueError, match="permutation"):
        permute_factors(m, (2, 3), (0, 0))


# ---------------------------------------------------------------------------
# Norms and spectra
# ---------------------------------------------------------------------------


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(trace_norm(m) - want) < 1e-10


def test_operator_norm_matches_top_singular_value():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 5))
    assert abs(operator_norm(m) - np.linalg.svd(m, compute_uv=False)[0]) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=2),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_operator_norm_on_a_stack_equals_its_matrices(lead, rows, cols, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, rows, cols)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = operator_norm(stack)
    assert got.shape == tuple(lead)
    assert got.reshape(-1).tolist() == [
        operator_norm(m) for m in stack.reshape(math.prod(lead), rows, cols)
    ]


@st.composite
def scaled_stacks(draw):
    """Up to four matrices of one shape (0 to 6 rows and columns), each full rank,
    rank deficient or zero, with its real and imaginary parts scaled exactly by
    its own 2^k, k from -1070 (subnormal) to 1000."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(0, 4))):
        rank = draw(st.sampled_from([min(rows, cols), 1, 0]))
        left = rng.standard_normal((2, rows, rank)) @ rng.standard_normal((2, rank, cols))
        members.append(np.ldexp(left, draw(st.integers(-1070, 1000))))
    parts = np.stack(members, axis=1) if members else np.zeros((2, 0, rows, cols))
    return parts[0] + 1j * parts[1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_stacks())
@example(np.array([[[0.0, 2.2e-311j]]]))
def test_operator_norm_is_the_top_singular_value_over_the_finite_range(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = operator_norm(stack)
        alone = [operator_norm(m) for m in stack]
    assert got.shape == stack.shape[:1] and got.tolist() == alone
    for m, norm in zip(stack, alone):
        if not m.any():
            assert norm == 0.0
            continue
        want = np.linalg.svd(m, compute_uv=False)[0]
        # a norm below 2^-1022 is subnormal, a multiple of 2^-1074 on both sides
        assert abs(norm - want) <= 1e-13 * want + 2.0**-1072


def test_min_eig():
    m = np.diag([1.0, 0.5, -0.25])
    assert abs(min_eig(m) + 0.25) < 1e-14


# ---------------------------------------------------------------------------
# PSD functional calculus
# ---------------------------------------------------------------------------


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(13)
    rho = random_density(4, rng)
    s = psd_sqrt(rho)
    assert np.abs(s @ s - rho).max() < 1e-12
    assert min_eig(s) >= -ATOL


def test_psd_inv_sqrt_on_support():
    rng = np.random.default_rng(14)
    rho = _low_rank_density(5, 3, rng)
    inv = psd_inv_sqrt(rho)
    w, v = np.linalg.eigh(rho)
    support = v[:, w > 1e-10]
    proj = support @ dag(support)
    assert np.abs(psd_sqrt(rho) @ inv - proj).max() < 1e-10


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 5), (4, 4), (4000, 3)])
def test_random_gaussian_matrix_is_the_sum_expression_in_one_array(shape):
    # bit for bit (a + 1j b) / sqrt(2) of the same two draws, filled into one complex array
    for seed in range(4):
        rng = np.random.default_rng(seed)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        got = random_gaussian_matrix(*shape, np.random.default_rng(seed))
        assert np.array_equal(got.view(float), want.view(float))
    tracemalloc.start()
    try:
        random_gaussian_matrix(*shape, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and one real draw, not three complex temporaries
    assert peak <= 24 * shape[0] * shape[1] + 4096, peak


def test_random_gaussian_matrix_moments():
    rng = np.random.default_rng(17)
    g = random_gaussian_matrix(200, 200, rng)
    # complex standard normal / sqrt(2): unit variance per entry
    var = np.mean(np.abs(g) ** 2)
    assert abs(var - 1.0) < 0.05
    assert abs(np.mean(g)) < 0.02


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(18)
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        assert np.abs(dag(u) @ u - np.eye(d)).max() < 1e-12


def test_haar_unitaries_batch():
    rng = np.random.default_rng(19)
    us = haar_unitaries(3, 7, rng)
    assert us.shape == (7, 3, 3)
    for u in us:
        assert np.abs(dag(u) @ u - np.eye(3)).max() < 1e-12


def _phase_corrected_qr(g):
    """Q of the reduced QR g = QR with diag(R) positive, for g of full column rank: one
    matrix or a stack moved to (column, row, sample), sample index last, and
    orthonormalised whole by linalg._gram_schmidt, the kernel of every Haar draw."""
    shape = g.shape
    rows, cols = shape[-2:]
    q = g.reshape((-1, rows, cols)).transpose(2, 1, 0).astype(complex, order="C")
    linalg._gram_schmidt(q, np.empty_like(q), np.empty_like(q[:-1]))
    return np.ascontiguousarray(q.transpose(2, 1, 0)).reshape(shape)


def _successive_unitaries(d, count, rng):
    """Referee of a Haar batch: count haar_unitary draws, one after another."""
    return np.array([haar_unitary(d, rng) for _ in range(count)]).reshape(count, d, d)


def test_haar_batch_outputs_unitaries():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
    us = _phase_corrected_qr(np.ascontiguousarray(g / np.sqrt(2.0)))
    assert us.shape == (64, 3, 3)
    eye = np.eye(3)
    for u in us:
        assert np.abs(u.conj().T @ u - eye).max() < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 5),
    per_chunk=st.integers(1, 7),
    count=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar_unitaries_chunks_match_whole_batch_qr(d, per_chunk, count, seed):
    want = _successive_unitaries(d, count, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_BYTES", per_chunk * 16 * d * d)
        got = haar_unitaries(d, count, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 5),
    per_chunk=st.integers(2, 7),
    count=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar_chunks_stream_the_whole_batch_qr(d, per_chunk, count, seed):
    # the stream, ending in a partial chunk, against count unitaries drawn one by one;
    # the caller's generator must end where those draws leave it
    assume(count % per_chunk)
    rng_want = np.random.default_rng(seed)
    want = _successive_unitaries(d, count, rng_want)
    rng_chunks, rng_batch = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_BYTES", per_chunk * 16 * d * d)
        chunks = linalg._isometry_chunks(d, d, [(rng_chunks, count)])
        got = [q.transpose(2, 1, 0).copy() for q in chunks]
        batch = haar_unitaries(d, count, rng_batch)
    assert [len(u) for u in got] == [min(per_chunk, count - s) for s in range(0, count, per_chunk)]
    assert np.array_equal(np.concatenate(got), want)
    assert np.array_equal(batch, want)
    state = rng_want.bit_generator.state
    assert rng_chunks.bit_generator.state == state == rng_batch.bit_generator.state


@pytest.mark.parametrize("d", [0, 1, 3])
def test_haar_unitaries_of_no_samples_draw_nothing(d):
    # no sample, or no entry in a sample (d = 0, or isometries of no column), draws nothing
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert haar_unitaries(d, 0, rng).shape == (0, d, d)
    assert list(linalg._isometry_chunks(d, d, [(rng, 0)])) == []
    assert haar_unitaries(0, 5, rng).shape == (5, 0, 0)
    assert list(linalg._isometry_chunks(0, 0, [(rng, 5)])) == []
    assert random_isometries(d, 0, [rng] * 3).shape == (3, d, 0)
    assert list(linalg._isometry_chunks(d, 0, [(rng, 3)])) == []
    assert random_isometries(0, 0, [rng]).shape == (1, 0, 0)
    assert rng.bit_generator.state == state


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    d=st.integers(0, 5),
    n=st.integers(0, 30),
    chunk=st.sampled_from([1, 200, 4096, linalg._CHUNK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar_batch_and_stream_equal_successive_draws_and_skip_no_normal(d, n, chunk, seed):
    # chunk 1 orthonormalises one unitary per chunk, 200 and 4096 bytes a few at a time
    rng_want, rng_batch, rng_stream = (np.random.default_rng(seed) for _ in range(3))
    want = _successive_unitaries(d, n, rng_want)
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        batch = haar_unitaries(d, n, rng_batch)
        chunks = linalg._isometry_chunks(d, d, [(rng_stream, n)])
        streamed = [q.transpose(2, 1, 0).copy() for q in chunks]
    assert batch.tobytes() == want.tobytes()
    assert b"".join(u.tobytes() for u in streamed) == want.tobytes()
    # the draws are the 2 n d^2 normals of n Ginibre matrices, and not one more
    fresh = np.random.default_rng(seed)
    fresh.standard_normal(2 * n * d * d)
    state = fresh.bit_generator.state
    for rng in (rng_want, rng_batch, rng_stream):
        assert rng.bit_generator.state == state


def test_haar_first_moment_twirl():
    # E[U e0 e0^dag U^dag] = I/d, checked loosely by sample mean
    rng = np.random.default_rng(20)
    d = 3
    us = haar_unitaries(d, 4000, rng)
    acc = np.einsum("sij,skj->ik", us[:, :, :1], us[:, :, :1].conj()) / us.shape[0]
    assert np.abs(acc - np.eye(d) / d).max() < 0.02


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.one_of(st.just(()), st.tuples(st.integers(1, 20))),
    st.integers(0, 2**32 - 1),
)
def test_phase_corrected_qr_properties(rows, cols, stack, seed):
    rows, cols = max(rows, cols), min(rows, cols)
    rng = np.random.default_rng(seed)
    shape = stack + (rows, cols)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    q = _phase_corrected_qr(g)
    assert q.shape == shape
    qd = np.conj(np.swapaxes(q, -1, -2))
    assert np.abs(qd @ q - np.eye(cols)).max() < 1e-12
    r = qd @ g
    assert np.abs(np.tril(r, -1)).max(initial=0.0) < 1e-12
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.abs(diag.imag).max() < 1e-12
    assert diag.real.min() > 0
    assert (np.abs(q @ r - g) <= 1e-12 * np.linalg.norm(g, axis=(-2, -1), keepdims=True)).all()
    # a sample's bits do not depend on the stack it is in
    for gi, qi in zip(g.reshape(-1, rows, cols), q.reshape(-1, rows, cols)):
        assert np.array_equal(_phase_corrected_qr(gi), qi)


def _householder_q(g):
    """Referee: LAPACK's Householder QR, each column of Q turned by the phase of r_jj."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def test_phase_corrected_qr_matches_householder(rows, cols, stack, seed):
    rows, cols = max(rows, cols), min(rows, cols)
    g = random_gaussian_matrix(stack * rows, cols, np.random.default_rng(seed)).reshape(
        stack, rows, cols
    )
    assert np.abs(_phase_corrected_qr(g) - _householder_q(g)).max() <= 1e-12


def _row_last_qr(g):
    """Referee: the same Gram-Schmidt over a (column, sample, row) stack, whose inner
    products and norms are numpy's own sums over a contiguous row."""
    q = np.moveaxis(g, -1, 0).astype(complex, order="C")
    for j in range(q.shape[0]):
        v = q[j]
        for _ in range(2 if j else 0):
            c = (q[:j].conj() * v).sum(-1)
            v = v - (c[..., None] * q[:j]).sum(0)
        q[j] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.ascontiguousarray(np.moveaxis(q, 0, -1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 160),
    st.integers(1, 6),
    st.one_of(st.just(()), st.tuples(st.integers(1, 6))),
    st.integers(0, 2**32 - 1),
)
@example(70, 3, (4,), 1)
@example(150, 2, (), 2)
@example(160, 4, (3,), 3)
def test_phase_corrected_qr_equals_the_row_last_layout_bit_for_bit(rows, cols, stack, seed):
    # rows up to 160 reach every branch of _row_sum's order, the split above 64 complex
    # and above 128 real rows included
    cols = min(rows, cols)
    rng = np.random.default_rng(seed)
    g = random_gaussian_matrix(math.prod(stack) * rows, cols, rng).reshape(stack + (rows, cols))
    assert np.array_equal(_phase_corrected_qr(g), _row_last_qr(g))


def test_phase_corrected_qr_reorthogonalises_near_parallel_columns():
    # one Gram-Schmidt pass loses orthogonality like cond(g)^2 * eps; the second restores it
    rng = np.random.default_rng(23)
    g = random_gaussian_matrix(6 * 5, 4, rng).reshape(5, 6, 4)
    g[..., 1] = g[..., 0] + 1e-7 * g[..., 1]
    g[..., 3] = g[..., 2] + 1e-7 * g[..., 3]
    q = _phase_corrected_qr(g)
    qd = np.conj(np.swapaxes(q, -1, -2))
    assert np.abs(qd @ q - np.eye(4)).max() < 1e-12
    assert np.abs(q @ (qd @ g) - g).max() < 1e-12 * np.linalg.norm(g, axis=(-2, -1)).max()


def test_random_isometry():
    rng = np.random.default_rng(21)
    v = random_isometry(6, 3, rng)
    assert np.abs(dag(v) @ v - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError):
        random_isometry(2, 4, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cols=st.integers(1, 4),
    extra=st.integers(0, 3),
    owners=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    chunk=st.sampled_from([1, 200, linalg._CHUNK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_isometries_equal_each_isometry_made_alone(cols, extra, owners, chunk, seed):
    # trial t draws from generator owners[t], a shared generator in trial order; chunk 1 runs
    # the QR one member at a time, 200 bytes in runs of a few small members
    rows = cols + extra
    stacked = [np.random.default_rng([seed, g]) for g in range(4)]
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        isometries = random_isometries(rows, cols, [stacked[g] for g in owners])
    alone = [np.random.default_rng([seed, g]) for g in range(4)]
    referee = [np.random.default_rng([seed, g]) for g in range(4)]
    assert isometries.shape == (len(owners), rows, cols)
    for m, g in zip(isometries, owners):
        assert m.tobytes() == random_isometry(rows, cols, alone[g]).tobytes()
        assert m.tobytes() == _phase_corrected_qr(random_gaussian_matrix(rows, cols, referee[g])).tobytes()
    states = [[g.bit_generator.state for g in gens] for gens in (stacked, alone, referee)]
    assert states[0] == states[1] == states[2]
    if rows == cols:
        again = np.random.default_rng([seed, owners[0]])
        assert haar_unitary(rows, again).tobytes() == isometries[0].tobytes()


def test_random_isometries_of_no_generators_draw_nothing():
    assert random_isometries(3, 2, []).shape == (0, 3, 2)
    with pytest.raises(ValueError):
        random_isometries(2, 3, [])


@pytest.mark.parametrize(
    "count,member,runs",
    [(0, 8, []), (5, 1 << 21, [1] * 5), (10, linalg._CHUNK_BYTES // 4, [4, 4, 2])],
)
def test_chunk_slices_cover_the_range_in_order(count, member, runs):
    slices = chunk_slices(count, member)
    assert [len(range(count)[s]) for s in slices] == runs
    assert [i for s in slices for i in range(count)[s]] == list(range(count))


def test_isometry_defects_per_member():
    rng = np.random.default_rng(4)
    stack = np.stack([random_isometry(4, 2, rng) for _ in range(3)])
    stack[1] *= 1.5
    defects = isometry_defects(stack)
    assert defects.shape == (3,)
    for m, d in zip(stack, defects):
        assert d == isometry_defect(m)
    assert isometry_defect(stack) == defects.max() == defects[1] > 1.0


def test_random_pure_state_and_density():
    rng = np.random.default_rng(22)
    psi = random_pure_state(5, rng)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    rho = random_density(4, rng)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert min_eig(rho) >= -ATOL
    low = _low_rank_density(5, 2, rng)
    assert np.linalg.matrix_rank(low) == 2


# ---------------------------------------------------------------------------
# Structured matrices
# ---------------------------------------------------------------------------


def test_dft_matrix():
    for d in (2, 3, 5):
        f = dft_matrix(d)
        assert np.abs(dag(f) @ f - np.eye(d)).max() < 1e-12
    f = dft_matrix(4)
    # positive-sign convention: F[k, j] = exp(+2 pi i k j / d) / sqrt(d)
    assert abs(f[1, 1] - np.exp(2j * np.pi / 4) / 2.0) < 1e-14


def test_swap_operator():
    rng = np.random.default_rng(23)
    d = 3
    s = swap_operator(d)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    assert np.abs(s @ np.kron(x, y) - np.kron(y, x)).max() < 1e-13
    assert np.abs(s @ s - np.eye(d * d)).max() < 1e-13


def test_atol_constant_is_small():
    assert 0 < ATOL <= 1e-8
