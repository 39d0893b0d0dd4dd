import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlab import channels, combs, linalg
from ctlab.channels import (
    Channel,
    Isometry,
    channel_from_json,
    channel_to_json,
    choi_from_kraus,
    contract_dilations,
    dilate,
    isometries,
    kraus_sets,
    random_channel,
    random_dilations,
)
from ctlab.combs import CombCheck, FactorLayout, FactoredOperator, LabelledOperator, is_deterministic_comb
from ctlab.hardness import (
    Regime,
    build_instance,
    certify_gamma_comb,
    gamma_vector,
    instance_channels,
    type2_gamma_family,
)
from ctlab.linalg import (
    ATOL,
    RANK_RTOL,
    dag,
    haar_unitary,
    hermitianize,
    partial_trace,
    random_density,
    random_isometries,
    random_isometry,
)
from ctlab.metrics import unitary_diamond_distance


def _random_dilation(ch, r, rng):
    """(U kron I_out) V0 for a Haar U on the ancilla and the canonical V0."""
    v = np.kron(haar_unitary(r, rng), np.eye(ch.d_out)) @ dilate(ch, r).matrix
    return Isometry(v)


def _depolarizing_choi(p):
    """Qubit depolarizing channel (1-p) rho + p I/2, Choi on out x in."""
    omega = np.eye(2, dtype=complex).reshape(-1)
    return (1 - p) * np.outer(omega, omega) + p * np.eye(4) / 2


# ---------------------------------------------------------------------------
# Channel construction and validation
# ---------------------------------------------------------------------------


def test_channel_accepts_valid_choi():
    ch = Channel(_depolarizing_choi(0.3), 2, 2)
    assert ch.d_in == 2 and ch.d_out == 2
    assert abs(np.trace(ch.choi) - 2.0) < 1e-12


def test_channel_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Channel(np.eye(3), 2, 2)


def test_channel_rejects_non_tp():
    bad = np.eye(4, dtype=complex)  # tr_out = 2 I, not I
    with pytest.raises(ValueError, match="trace preserving"):
        Channel(bad, 2, 2)


def test_channel_rejects_non_psd():
    omega = np.eye(2, dtype=complex).reshape(-1)
    bad = 2 * np.outer(omega, omega) - np.eye(4) / 2
    with pytest.raises(ValueError, match="psd"):
        Channel(bad, 2, 2)


def test_channel_rejects_non_hermitian():
    c = _depolarizing_choi(0.2).astype(complex)
    c[0, 1] += 1e-3
    with pytest.raises(ValueError, match="hermitian"):
        Channel(c, 2, 2)


def test_from_kraus_depolarizing():
    p = 0.4
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    weights = [np.sqrt(1 - 3 * p / 4)] + [np.sqrt(p / 4)] * 3
    ch = Channel.from_kraus([w * s for w, s in zip(weights, paulis)])
    assert np.abs(ch.choi - _depolarizing_choi(p)).max() < 1e-12


def test_choi_from_kraus_stack_equals_each_set_alone():
    rng = np.random.default_rng(30)
    kraus = rng.standard_normal((2, 3, 4, 3, 2)) + 1j * rng.standard_normal((2, 3, 4, 3, 2))
    chois = choi_from_kraus(kraus)
    assert chois.shape == (2, 3, 6, 6)
    for idx in np.ndindex(2, 3):
        alone = choi_from_kraus(kraus[idx])
        assert np.array_equal(chois[idx], alone)
        outer = sum(np.outer(e.reshape(-1), e.reshape(-1).conj()) for e in kraus[idx])
        assert np.abs(alone - outer).max() < 1e-12
    ch = random_channel(2, 3, 2, rng)
    assert np.array_equal(Channel.from_kraus(ch.kraus).choi, choi_from_kraus(np.stack(ch.kraus)))


def test_from_kraus_rejects_incomplete():
    with pytest.raises(ValueError, match="complete"):
        Channel.from_kraus([0.5 * np.eye(2)])


def test_from_kraus_rejects_empty():
    with pytest.raises(ValueError):
        Channel.from_kraus([])


def test_choi_is_readonly():
    ch = Channel(_depolarizing_choi(0.1), 2, 2)
    with pytest.raises(ValueError):
        ch.choi[0, 0] = 5.0


def _spoilt(matrix, value):
    """A complex copy of matrix with value at [0, 0]."""
    m = np.array(matrix, dtype=complex)
    m[0, 0] = value
    return m


def _spoilt_tester(value):
    """A prepare-and-measure qubit tester whose first outcome has value at [0, 0]."""
    rho = np.eye(2) / 2
    layout = FactorLayout((("B", 2), ("A", 2)))
    ops = [np.kron(np.diag(e), rho) for e in ([1.0, 0.0], [0.0, 1.0])]
    outcomes = ((0, LabelledOperator(_spoilt(ops[0], value), layout)), (1, LabelledOperator(ops[1], layout)))
    return combs.Tester(outcomes=outcomes, in_labels=(("A",),), out_labels=(("B",),))


def _spoilt_gamma_certificate(value, weight=False):
    """certify_gamma_comb of a type2 gamma_vector operator whose factor has value at
    [0, 0], or whose one weight is value."""
    family = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(family, 1, 2)
    if weight:
        spoilt = FactoredOperator(op.factor, [value])
    else:
        spoilt = FactoredOperator(_spoilt(op.factor, value), op.weights)
    return certify_gamma_comb(spoilt, family, 2, index=1)


NON_FINITE_ENTRIES = {
    "Channel": lambda x: Channel([[x]], 1, 1),
    # json writes nan as NaN and inf as Infinity, and reads them back
    "channel_from_json": lambda x: channel_from_json(
        json.dumps({"d_in": 1, "d_out": 1, "choi_re": [x], "choi_im": [0.0]})
    ),
    "Channel.from_kraus": lambda x: Channel.from_kraus([[[x]]]),
    "Isometry": lambda x: Isometry([[x], [0]]),
    "contract_dilations": lambda x: contract_dilations([[[x], [0]]], 2),
    "is_deterministic_comb": lambda x: is_deterministic_comb(
        LabelledOperator(np.full((2, 2), x), (("out", 2), ("in", 1))), (("in",), ("out",))
    ),
    "Tester": _spoilt_tester,
    "certify_gamma_comb": _spoilt_gamma_certificate,
    "certify_gamma_comb weight": lambda x: _spoilt_gamma_certificate(x, weight=True),
    "unitary_diamond_distance": lambda x: unitary_diamond_distance(_spoilt(np.eye(2), x), np.eye(2)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRIES))
def test_every_entry_check_fails_non_finite_input(entry, value):
    # a constructor raises ValueError; is_deterministic_comb and certify_gamma_comb return a
    # failed CombCheck
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            verdict = NON_FINITE_ENTRIES[entry](value)
        except ValueError as exc:
            # a LinAlgError is a ValueError, but from an eigensolve that met the value, not a check
            assert not isinstance(exc, np.linalg.LinAlgError)
            return
    assert isinstance(verdict, CombCheck) and not verdict


@st.composite
def _scaled_complete_kraus(draw):
    """(kraus, d_in, d_out): the R Kraus blocks of a Haar isometry of r0 <= R blocks,
    zero-padded to R and mixed by a Haar unitary on the Kraus index (so of rank r0, often
    below R), all scaled by 1 + delta, where a delta of about 5e-10 puts the
    completeness defect near ATOL."""
    d_in, d_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    least = -(-d_in // d_out)
    rank = draw(st.integers(max(least, 1), 7))
    r0 = draw(st.integers(max(least, 1), rank))
    delta = draw(st.sampled_from([0.0, 1e-12, -1e-12, 4.9e-10, -4.9e-10, 5e-10, -5e-10, 5.1e-10, -5.1e-10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = np.zeros((rank, d_out, d_in), dtype=complex)
    blocks[:r0] = random_isometry(r0 * d_out, d_in, rng).reshape(r0, d_out, d_in)
    mixed = np.einsum("kl,lij->kij", haar_unitary(rank, rng), blocks)
    return (1.0 + delta) * mixed, d_in, d_out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_scaled_complete_kraus())
def test_kraus_built_chois_pass_the_choi_check(case):
    # the reference for the Choi check that Kraus-built channels skip: choi_from_kraus is
    # PSD and Hermitian by construction, and its marginal tr_out C is sum E^dag E transposed,
    # so its trace-preservation defect is the completeness defect up to rounding
    kraus, d_in, d_out = case
    choi = choi_from_kraus(kraus)
    comp = np.abs(sum(dag(e) @ e for e in kraus) - np.eye(d_in)).max()
    marg = np.trace(choi.reshape(d_out, d_in, d_out, d_in), axis1=0, axis2=2)
    assert abs(np.abs(marg - np.eye(d_in)).max() - comp) <= 1e-15
    if comp <= ATOL - 1e-15:
        channels._validate_choi(choi, d_in, d_out)
    elif comp > ATOL + 1e-15:
        with pytest.raises(ValueError, match="trace preserving"):
            channels._validate_choi(choi, d_in, d_out)


def test_choi_check_runs_only_where_a_choi_matrix_enters():
    rng = np.random.default_rng(21)
    ch = random_channel(2, 3, 2, rng)
    mats = random_isometries(6, 2, [rng] * 3)
    inst = build_instance(Regime.TYPE1, 4, 2, 2, 0.1, rng)
    kraus_built = {
        "Channel.from_kraus": lambda: Channel.from_kraus(ch.kraus),
        "random_channel": lambda: random_channel(2, 3, 6, rng),
        "contract_dilations": lambda: contract_dilations(mats, 3),
        "Isometry.channel": lambda: Isometry(mats[0]).channel(),
        "Isometry.channel(d_out)": lambda: Isometry(mats[0]).channel(3),
        "instance_channels": lambda: instance_channels([inst, inst]),
    }
    with mock.patch.object(channels, "_validate_choi", wraps=channels._validate_choi) as check:
        for name, build in kraus_built.items():
            build()
            assert check.call_count == 0, name
        Channel(ch.choi, 2, 3)
        assert check.call_count == 1
        channel_from_json(channel_to_json(ch))
        assert check.call_count == 2


# ---------------------------------------------------------------------------
# Kraus round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d_in,d_out,rank", [(2, 2, 1), (2, 3, 2), (3, 2, 4), (3, 3, 3)])
def test_kraus_choi_round_trip(d_in, d_out, rank):
    rng = np.random.default_rng(rank * 10 + d_in)
    ch = random_channel(d_in, d_out, rank, rng)
    back = Channel.from_kraus(ch.kraus)
    assert np.abs(back.choi - ch.choi).max() < 1e-10


@st.composite
def _channels(draw):
    d_in = draw(st.integers(1, 3))
    d_out = draw(st.integers(1, 3))
    rank = draw(st.integers(-(-d_in // d_out), d_in * d_out))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channel(d_in, d_out, rank, rng), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    r=st.integers(1, 6),
    d_out=st.integers(1, 4),
    d_in=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_equals_traced_full_choi(r, d_out, d_in, seed):
    if r * d_out < d_in:
        d_in = r * d_out
    dil = Isometry(random_isometry(r * d_out, d_in, np.random.default_rng(seed)))
    want = partial_trace(choi_from_kraus(dil.matrix[None]), (r, d_out, d_in), (0,))
    assert np.array_equal(dil.channel(d_out).choi, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_channels(), st.integers(0, 2))
def test_choi_kraus_dilation_round_trips(case, pad):
    ch, rng = case
    kraus = ch.kraus
    assert np.abs(Channel.from_kraus(kraus).choi - ch.choi).max() < 1e-10
    dil = dilate(ch, ch.rank + pad)
    blocks = dil.matrix.reshape(ch.rank + pad, ch.d_out, ch.d_in)
    assert len(blocks) == ch.rank + pad
    for got, want in zip(blocks, kraus):
        assert np.abs(got - want).max() == 0
    assert np.abs(Channel.from_kraus(blocks).choi - ch.choi).max() < 1e-10
    assert np.abs(dil.channel(ch.d_out).choi - ch.choi).max() < 1e-10
    other = _random_dilation(ch, ch.rank + pad, rng)
    assert np.abs(other.channel(ch.d_out).choi - ch.choi).max() < 1e-10


def test_canonical_kraus_orthogonal():
    rng = np.random.default_rng(5)
    ch = random_channel(3, 2, 3, rng)
    ops = ch.kraus
    assert len(ops) == 3
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            overlap = np.trace(dag(a) @ b)
            if i != j:
                assert abs(overlap) < 1e-10


def test_rank_of_unitary_channel():
    rng = np.random.default_rng(6)
    u = haar_unitary(3, rng)
    ch = Channel.from_kraus([u])
    assert ch.rank == 1


def test_apply_matches_kraus_sum():
    rng = np.random.default_rng(7)
    ch = random_channel(3, 2, 2, rng)
    rho = random_density(3, rng)
    want = sum(e @ rho @ dag(e) for e in ch.kraus)
    assert np.abs(ch.apply(rho) - want).max() < 1e-12
    assert abs(np.trace(ch.apply(rho)) - 1.0) < 1e-12


def test_apply_unitary_conjugates():
    rng = np.random.default_rng(8)
    u = haar_unitary(2, rng)
    rho = random_density(2, rng)
    ch = Channel.from_kraus([u])
    assert np.abs(ch.apply(rho) - u @ rho @ dag(u)).max() < 1e-12


def test_apply_rejects_wrong_dimension():
    ch = Channel(_depolarizing_choi(0.1), 2, 2)
    with pytest.raises(ValueError):
        ch.apply(np.eye(3) / 3)


# ---------------------------------------------------------------------------
# Isometries and dilations
# ---------------------------------------------------------------------------


def test_isometry_validation():
    rng = np.random.default_rng(9)
    u = haar_unitary(3, rng)
    iso = Isometry(u[:, :2])
    assert iso.matrix.shape == (3, 2)
    with pytest.raises(ValueError):
        Isometry(np.ones((3, 2)))
    with pytest.raises(ValueError):
        Isometry(np.eye(2, 3))  # wide


def test_isometry_channel():
    rng = np.random.default_rng(10)
    u = haar_unitary(3, rng)
    iso = Isometry(u[:, :2])
    ch = iso.channel()
    assert ch.d_in == 2 and ch.d_out == 3 and ch.rank == 1


def test_dilation_block_layout():
    # ancilla-major rows: block k is the Kraus operator E_k
    rng = np.random.default_rng(11)
    ch = random_channel(2, 2, 2, rng)
    dil = dilate(ch, ch.rank)
    blocks = dil.matrix.reshape(ch.rank, ch.d_out, ch.d_in)
    assert len(blocks) == 2
    for blk, e in zip(blocks, ch.kraus):
        assert np.abs(blk - e).max() < 1e-12
    assert np.abs(dil.matrix[0:2, :] - blocks[0]).max() == 0


def test_dilation_shape_mismatch():
    with pytest.raises(ValueError):
        Isometry(np.eye(4, 2)).channel(3)


def test_dilation_requires_isometry():
    with pytest.raises(ValueError, match="orthonormal"):
        Isometry(np.ones((4, 2)))


def test_dilation_choi_is_pure():
    rng = np.random.default_rng(12)
    ch = random_channel(2, 2, 2, rng)
    dil = dilate(ch, ch.rank)
    full = choi_from_kraus(dil.matrix[None])
    assert full.shape == (8, 8)
    w = np.linalg.eigvalsh(full)
    assert w[-1] > 1.0 and np.abs(w[:-1]).max() < 1e-12


def test_dilate_contract_round_trip():
    rng = np.random.default_rng(13)
    ch = random_channel(3, 2, 3, rng)
    assert np.abs(dilate(ch, ch.rank).channel(ch.d_out).choi - ch.choi).max() < 1e-10
    # zero padding does not change the channel
    assert np.abs(dilate(ch, 5).channel(ch.d_out).choi - ch.choi).max() < 1e-10


def test_dilate_rejects_small_ancilla():
    rng = np.random.default_rng(14)
    ch = random_channel(2, 2, 3, rng)
    with pytest.raises(ValueError):
        dilate(ch, 2)


def test_random_dilation_same_channel():
    rng = np.random.default_rng(15)
    ch = random_channel(2, 3, 2, rng)
    dil = _random_dilation(ch, 4, rng)
    assert dil.matrix.shape == (4 * ch.d_out, ch.d_in)
    assert np.abs(dil.channel(ch.d_out).choi - ch.choi).max() < 1e-10


def test_partial_trace_of_dilation_choi():
    rng = np.random.default_rng(16)
    ch = random_channel(2, 2, 2, rng)
    dil = dilate(ch, 3)
    marg = partial_trace(choi_from_kraus(dil.matrix[None]), (3, 2, 2), (0,))
    assert np.abs(marg - ch.choi).max() < 1e-10


# ---------------------------------------------------------------------------
# Random channels and serialization
# ---------------------------------------------------------------------------


def test_random_channel_properties():
    rng = np.random.default_rng(20)
    ch = random_channel(3, 4, 2, rng)
    assert ch.d_in == 3 and ch.d_out == 4
    assert ch.rank == 2
    marg = partial_trace(ch.choi, (4, 3), (0,))
    assert np.abs(marg - np.eye(3)).max() < 1e-10
    with pytest.raises(ValueError):
        random_channel(2, 2, 0, rng)


def test_random_channel_rejects_infeasible_rank():
    # trace preservation needs rank * d_out >= d_in
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError, match="rank"):
        random_channel(4, 1, 3, rng)
    with pytest.raises(ValueError, match="rank"):
        random_channel(3, 2, 1, rng)
    ch = random_channel(4, 2, 2, rng)  # boundary case is fine
    assert ch.rank <= 2


def test_json_round_trip_exact():
    rng = np.random.default_rng(21)
    ch = random_channel(2, 3, 2, rng)
    back = channel_from_json(channel_to_json(ch))
    assert back.d_in == ch.d_in and back.d_out == ch.d_out
    # repr round trip of doubles is exact
    assert np.abs(back.choi - ch.choi).max() == 0


@pytest.mark.parametrize("d_in,d_out", [(0, 0), (0, 3), (3, 0), (-1, -1)])
def test_json_rejects_a_dimension_below_one(d_in, d_out):
    # a Choi matrix of the size the dimensions imply, so only the dimension check can refuse it
    n = d_in * d_out
    text = json.dumps({"d_in": d_in, "d_out": d_out, "choi_re": [0.0] * n * n, "choi_im": [0.0] * n * n})
    with pytest.raises(ValueError, match=rf"d_in={d_in}, d_out={d_out}"):
        channel_from_json(text)


# ---------------------------------------------------------------------------
# Channel stacks
# ---------------------------------------------------------------------------


def _one_at_a_time_channel(d_in, d_out, rank, rng):
    """(dilation, Choi matrix, canonical Kraus set) of a random channel built alone,
    step by step: the referee of the stacked constructors."""
    v = random_isometry(rank * d_out, d_in, rng)
    choi = choi_from_kraus(v.reshape(rank, d_out, d_in))
    w, vecs = np.linalg.eigh(hermitianize(choi))
    keep = w > RANK_RTOL * max(float(w.max(initial=0.0)), 0.0)
    kraus = [np.sqrt(w[i]) * vecs[:, i].reshape(d_out, d_in) for i in np.flatnonzero(keep)[::-1]]
    return v, choi, kraus


@st.composite
def _channel_stacks(draw):
    d_in = draw(st.integers(1, 4))
    d_out = draw(st.integers(1, 4))
    count = draw(st.integers(1, 8))
    ranks = draw(st.lists(st.integers(-(-d_in // d_out), d_in * d_out), min_size=count, max_size=count))
    # trial t draws from generator owners[t]; a generator serving several trials serves them in order
    owners = draw(st.lists(st.integers(0, count - 1), min_size=count, max_size=count))
    pad = draw(st.integers(0, 2))
    chunk = draw(st.sampled_from([1, 4096, linalg._CHUNK_BYTES]))
    return d_in, d_out, ranks, owners, pad, chunk, draw(st.integers(0, 2**32 - 1))


def _generators(seed, owners):
    pool = [np.random.default_rng([seed, g]) for g in range(max(owners) + 1)]
    return pool, [pool[g] for g in owners]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_channel_stacks())
def test_channel_stacks_equal_each_channel_made_alone(case):
    d_in, d_out, ranks, owners, pad, chunk, seed = case
    r = max(ranks) + pad
    stacked_pool, rngs = _generators(seed, owners)
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        dilations = random_dilations(d_in, d_out, ranks, r, rngs)
        stacked = contract_dilations(dilations, d_out)
        sets = kraus_sets(stacked)
    alone_pool, _ = _generators(seed, owners)
    referee_pool, _ = _generators(seed, owners)
    for t, (rank, owner) in enumerate(zip(ranks, owners)):
        alone = random_channel(d_in, d_out, rank, alone_pool[owner])
        v, choi, kraus = _one_at_a_time_channel(d_in, d_out, rank, referee_pool[owner])
        # the zero blocks that pad a member to r add +0.0 to each Choi entry: the same bits
        assert stacked[t].choi.tobytes() == alone.choi.tobytes() == choi.tobytes()
        assert [e.tobytes() for e in sets[t]] == [e.tobytes() for e in alone.kraus]
        assert [e.tobytes() for e in sets[t]] == [e.tobytes() for e in kraus]
        assert dilations[t, : rank * d_out].tobytes() == v.tobytes()
        assert not dilations[t, rank * d_out :].any()
        assert stacked[t].kraus is sets[t]
    states = [[g.bit_generator.state for g in pool] for pool in (stacked_pool, alone_pool, referee_pool)]
    assert states[0] == states[1] == states[2]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_channel_stacks())
def test_kraus_and_dilation_stacks_equal_each_set_alone(case):
    # contract_dilations on complete (isometric) Kraus stacks, against Channel.from_kraus and
    # Isometry.channel of each set alone
    d_in, d_out, ranks, owners, _, chunk, seed = case
    rank = max(ranks)
    _, rngs = _generators(seed, owners)
    mats = random_isometries(rank * d_out, d_in, rngs)
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        contracted = contract_dilations(mats, d_out)
        from_kraus = [Channel.from_kraus(list(m.reshape(rank, d_out, d_in))) for m in mats]
    for m, a, b in zip(mats, from_kraus, contracted):
        alone = Isometry(m).channel(d_out)
        assert a.choi.tobytes() == b.choi.tobytes() == alone.choi.tobytes()
        assert not a.choi.flags.writeable


def _complete_kraus(count, d_in, d_out, rank, seed):
    rng = np.random.default_rng(seed)
    return random_isometries(rank * d_out, d_in, [rng] * count).reshape(count, rank, d_out, d_in)


def _message(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


# runs of one member, and runs of 1 MiB, which hold every stack below in one run at any
# linalg._CHUNK_BYTES (the value is spelled out so that the test ids do not move with it)
@pytest.mark.parametrize("chunk", [1, 1 << 20])
@pytest.mark.parametrize("bad", [0, 3, 5])
def test_a_bad_member_raises_from_the_stack_as_alone(bad, chunk):
    d_in, d_out, rank, count = 2, 3, 2, 6
    kraus = _complete_kraus(count, d_in, d_out, rank, 11)
    chois = choi_from_kraus(kraus)
    spoilers = {
        "complete": lambda k: 0.5 * k,
        "hermitian": lambda c: c + np.eye(len(c), k=1) * 1e-3,
        # 2 C - I / d_out keeps tr_out = I, but C has rank 2 < 6, so -1 / d_out is an eigenvalue
        "psd": lambda c: 2.0 * c - np.eye(len(c)) / d_out,
        "trace preserving": lambda c: 1.5 * c,
        "isometry": lambda m: 1.01 * m,
    }
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        spoilt = kraus.copy()
        spoilt[bad] = spoilers["complete"](spoilt[bad])
        assert "complete" in _message(Channel.from_kraus, list(spoilt[bad]))
        for check in ("hermitian", "psd", "trace preserving"):
            spoilt = chois.copy()
            spoilt[bad] = spoilers[check](spoilt[bad])
            alone = _message(Channel, spoilt[bad], d_in, d_out)
            assert check in alone
        mats = kraus.reshape(count, rank * d_out, d_in).copy()
        mats[bad] = spoilers["isometry"](mats[bad])
        alone = _message(Isometry, mats[bad])
        assert "orthonormal" in alone
        assert _message(contract_dilations, mats, d_out) == alone
        # rank-1 members, and one of rank 2 above a one-level ancilla
        alone = _message(dilate, Channel.from_kraus(list(kraus[bad])), 1)
        assert "below channel rank 2" in alone
        ranks = [1] * count
        ranks[bad] = 2
        gens = [np.random.default_rng(12)] * count
        assert _message(random_dilations, d_in, d_out, ranks, 1, gens) == alone


@pytest.mark.parametrize("chunk", [1, 1 << 20])  # as above
@pytest.mark.parametrize("bad", [0, 3, 5])
def test_a_bad_isometry_raises_from_the_stack_as_alone(bad, chunk):
    mats = random_isometries(5, 3, [np.random.default_rng(13)] * 6)
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk):
        stack = isometries(mats)
        alone = [Isometry(m) for m in mats]
        assert [iso.matrix.tobytes() for iso in stack] == [iso.matrix.tobytes() for iso in alone]
        assert not any(iso.matrix.flags.writeable for iso in stack)
        spoilt = mats.copy()
        spoilt[bad] *= 1.01
        message = _message(Isometry, spoilt[bad])
        assert "not orthonormal" in message
        assert _message(isometries, spoilt) == message
    # more columns than rows
    assert _message(isometries, mats.transpose(0, 2, 1)) == _message(Isometry, mats[bad].T)


def test_random_dilations_check_every_rank_before_drawing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="rank"):
        random_dilations(3, 2, [2, 1], 2, [rng, rng])
    # a rank above the ancilla, after a feasible one
    with pytest.raises(ValueError, match="below channel rank 3"):
        random_dilations(3, 2, [2, 3], 2, [rng, rng])
    with pytest.raises(ValueError, match="generators"):
        random_dilations(3, 2, [2, 2], 2, [rng])
    assert rng.bit_generator.state == state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d_in=st.integers(1, 16),
    d_out=st.integers(1, 16),
    rank=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_channels_are_complete_to_rounding(d_in, d_out, rank, seed):
    # every feasible rank, ceil(d_in / d_out) to d_in d_out; a Gram-Schmidt dilation is an
    # isometry to a few units of rounding, where a polar factor G S^-1/2 misses by up to
    # cond(S) units, past ATOL at some draws
    least = -(-d_in // d_out)
    rank = least + round(rank * (d_in * d_out - least))
    ch = random_channel(d_in, d_out, rank, np.random.default_rng(seed))
    marg = partial_trace(ch.choi, (d_out, d_in), (0,))
    assert np.abs(marg - np.eye(d_in)).max() <= 1e-14
