import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctlab.channels import Channel, dilate, random_channel
from ctlab import cli, combs
from ctlab.combs import (
    COMB_ATOL,
    CombCheck,
    LabelledOperator,
    apply_tester,
    identity_on,
    is_deterministic_comb,
    link_product,
    random_parallel_tester,
)
from ctlab.linalg import (
    FactorLayout,
    dag,
    haar_unitary,
    min_eig,
    partial_trace,
    permute_factors,
    random_density,
    random_isometry,
)


def _herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# LabelledOperator
# ---------------------------------------------------------------------------


def test_labelled_operator_shape_guard():
    with pytest.raises(ValueError):
        LabelledOperator(np.eye(3), FactorLayout((("a", 2),)))


def test_labelled_operator_accepts_plain_factor_tuples():
    op = LabelledOperator(np.eye(6), ((("a"), 2), ("b", 3)))
    assert isinstance(op.layout, FactorLayout)
    assert op.layout.dim == 6


def test_aligned_to_round_trip():
    rng = np.random.default_rng(0)
    a = _herm(2, rng)
    b = _herm(3, rng)
    op = LabelledOperator(np.kron(a, b), (("x", 2), ("y", 3)))
    flipped = op.aligned_to(("y", "x"))
    assert np.abs(flipped.op - np.kron(b, a)).max() < 1e-13
    back = flipped.aligned_to(op.layout)
    assert np.abs(back.op - op.op).max() < 1e-13


def test_aligned_to_rejects_wrong_labels():
    op = LabelledOperator(np.eye(2), (("x", 2),))
    with pytest.raises(ValueError):
        op.aligned_to(("z",))


def test_tensor():
    rng = np.random.default_rng(1)
    a = _herm(2, rng)
    op = LabelledOperator(a, (("x", 2),))
    with pytest.raises(ValueError):
        op.tensor(op)
    other = LabelledOperator(np.eye(3), (("y", 3),))
    both = op.tensor(other)
    assert both.labels == ("x", "y")


def test_partial_trace_and_scalar():
    rng = np.random.default_rng(2)
    a = _herm(2, rng)
    b = _herm(3, rng)
    op = LabelledOperator(np.kron(a, b), (("x", 2), ("y", 3)))
    red = op.partial_trace(("y",))
    assert red.labels == ("x",)
    assert np.abs(red.op - np.trace(b) * a).max() < 1e-12
    full = red.partial_trace(("x",))
    assert abs(full.scalar - np.trace(a) * np.trace(b)) < 1e-12
    with pytest.raises(ValueError):
        op.scalar


def test_aligned_to_by_label():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2))
    op = LabelledOperator(np.kron(np.kron(a, b), c), (("p", 2), ("q", 3), ("s", 2)))
    got = op.aligned_to(("s", "p", "q"))
    assert np.abs(got.op - np.kron(np.kron(c, a), b)).max() < 1e-13


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _labelled_operators(draw, max_dim=16):
    """A random complex operator on 1-3 labelled factors of total dimension <= max_dim."""
    dims = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
            lambda ds: math.prod(ds) <= max_dim
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = math.prod(dims)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return LabelledOperator(m, tuple((("X", j), d) for j, d in enumerate(dims)))


@PROPERTY_SETTINGS
@given(_labelled_operators(), st.data())
def test_partial_trace_one_factor_at_a_time(op, data):
    traced = data.draw(st.lists(st.sampled_from(op.labels), unique=True))
    step = op
    for lab in traced:
        step = step.partial_trace((lab,))
    whole = op.partial_trace(traced)
    assert step.labels == whole.labels
    assert np.abs(step.op - whole.op).max() < 1e-12


@PROPERTY_SETTINGS
@given(_labelled_operators(), st.data())
def test_label_methods_equal_positional_primitives(op, data):
    # labels turn into positions in LabelledOperator and nowhere below it
    dims = op.layout.dims
    labels = data.draw(st.lists(st.sampled_from(op.labels), min_size=1, unique=True))
    at = op.layout.positions(labels)
    assert np.array_equal(op.partial_trace(labels).op, partial_trace(op.op, dims, at))
    order = data.draw(st.permutations(op.labels))
    aligned = op.aligned_to(order).op
    assert np.array_equal(aligned, permute_factors(op.op, dims, op.layout.positions(order)))


def test_identity_on():
    lay = FactorLayout((("a", 2), ("b", 3)))
    ident = identity_on(lay)
    assert np.abs(ident.op - np.eye(6)).max() == 0
    assert ident.layout == lay


# ---------------------------------------------------------------------------
# Link product
# ---------------------------------------------------------------------------


def test_link_product_applies_channel():
    rng = np.random.default_rng(3)
    ch = random_channel(3, 2, 2, rng)
    rho = random_density(3, rng)
    rho_op = LabelledOperator(rho, (("in", 3),))
    choi_op = LabelledOperator(ch.choi, (("out", 2), ("in", 3)))
    got = link_product(rho_op, choi_op)
    assert got.labels == ("out",)
    assert np.abs(got.op - ch.apply(rho)).max() < 1e-12


def test_link_product_full_overlap_is_trace():
    rng = np.random.default_rng(4)
    x = _herm(6, rng)
    y = _herm(6, rng)
    lay = (("a", 2), ("b", 3))
    got = link_product(LabelledOperator(x, lay), LabelledOperator(y, lay))
    assert got.labels == ()
    assert abs(got.scalar - np.trace(x.T @ y)) < 1e-10


def test_link_product_no_overlap_is_tensor():
    rng = np.random.default_rng(5)
    a = _herm(2, rng)
    b = _herm(3, rng)
    got = link_product(
        LabelledOperator(a, (("x", 2),)), LabelledOperator(b, (("y", 3),))
    )
    assert got.labels == ("x", "y")
    assert np.abs(got.op - np.kron(a, b)).max() < 1e-12


def test_link_product_chains_channels():
    # linking Choi matrices over the intermediate label composes the maps
    rng = np.random.default_rng(6)
    before = random_channel(2, 3, 2, rng)
    after = random_channel(3, 2, 2, rng)
    c1 = LabelledOperator(before.choi, (("B", 3), ("A", 2)))
    c2 = LabelledOperator(after.choi, (("C", 2), ("B", 3)))
    linked = link_product(c1, c2).aligned_to(("C", "A"))
    composed = Channel.from_kraus([a @ b for a in after.kraus for b in before.kraus])
    assert np.abs(linked.op - composed.choi).max() < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.tuples(*[st.integers(1, 4)] * 4).filter(
        lambda d: d[0] * d[1] * d[2] <= 16 and d[1] * d[2] * d[3] <= 16
    ),
    st.integers(0, 2**32 - 1),
)
def test_link_product_is_associative(dims, seed):
    # X(A,B) * Y(B,C) * Z(C,D); every intermediate operator stays <= 16 wide
    rng = np.random.default_rng(seed)
    da, db, dc, dd = dims

    def op(layout):
        n = math.prod(d for _, d in layout)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return LabelledOperator(g / np.linalg.norm(g), layout)

    x = op((("A", da), ("B", db)))
    y = op((("B", db), ("C", dc)))
    z = op((("C", dc), ("D", dd)))
    left = link_product(link_product(x, y), z)
    right = link_product(x, link_product(y, z)).aligned_to(left.labels)
    assert left.labels == ("A", "D")
    assert np.abs(left.op - right.op).max() < 1e-12


def test_link_product_dimension_mismatch():
    a = LabelledOperator(np.eye(2), (("s", 2),))
    b = LabelledOperator(np.eye(3), (("s", 3),))
    with pytest.raises(ValueError):
        link_product(a, b)


def _transposed(op: LabelledOperator, labels) -> np.ndarray:
    """op.op with the row and column indices of the given factors swapped."""
    k = len(op.labels)
    axes = list(range(2 * k))
    for p in op.layout.positions(labels):
        axes[p], axes[k + p] = k + p, p
    return op.op.reshape(op.layout.dims * 2).transpose(axes).reshape(op.op.shape)


def _textbook_link(x: LabelledOperator, y: LabelledOperator) -> np.ndarray:
    """x * y as tr_s[(x^(T_s) kron 1_b)(1_a kron y)]: both operands extended by
    identity to (a, s, b), x transposed on s, one matrix product, s traced out."""
    shared = [lab for lab in x.labels if lab in y.layout]
    a = [lab for lab in x.labels if lab not in shared]
    b = [lab for lab in y.labels if lab not in shared]
    dims = dict(x.layout.factors + y.layout.factors)
    order = a + shared + b

    def extended(m, labels):
        missing = [lab for lab in order if lab not in labels]
        big = np.kron(m, np.eye(math.prod(dims[lab] for lab in missing)))
        have = list(labels) + missing
        perm = [have.index(lab) for lab in order]
        t = big.reshape([dims[lab] for lab in have] * 2)
        return t.transpose(perm + [len(order) + p for p in perm])

    da, ds, db = (math.prod(dims[lab] for lab in g) for g in (a, shared, b))
    xe = extended(_transposed(x, shared), x.labels).reshape(da * ds * db, -1)
    ye = extended(y.op, y.labels).reshape(da * ds * db, -1)
    prod = (xe @ ye).reshape(da, ds, db, da, ds, db)
    return np.trace(prod, axis1=1, axis2=4).reshape(da * db, da * db)


_POOL = ("p", "q", "r", "s", "t")


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 3), min_size=5, max_size=5), st.data())
def test_link_product_equals_the_textbook_formula(dims, data):
    # 0-3 labels per operand from a pool of five: no, partial or full overlap, shared labels
    # in either order, dimension-1 factors, complex operands that are not Hermitian
    dim = dict(zip(_POOL, dims))
    pool = data.draw(st.permutations(_POOL))
    n_shared = data.draw(st.integers(0, 3))
    n_x = data.draw(st.integers(0, 3 - n_shared))
    n_y = data.draw(st.integers(0, min(3, 5 - n_x) - n_shared))
    shared, rest = pool[:n_shared], pool[n_shared:]
    x_labels = data.draw(st.permutations(shared + rest[:n_x]))
    y_labels = data.draw(st.permutations(shared + rest[n_x : n_x + n_y]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def op(labels):
        n = math.prod(dim[lab] for lab in labels)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return LabelledOperator(g, tuple((lab, dim[lab]) for lab in labels))

    x, y = op(x_labels), op(y_labels)
    got = link_product(x, y)
    own = [lab for lab in x_labels if lab not in y_labels] + [
        lab for lab in y_labels if lab not in x_labels
    ]
    assert got.labels == tuple(own)
    ref = _textbook_link(x, y)
    assert np.linalg.norm(got.op - ref) <= 1e-12 * np.linalg.norm(ref)


def test_link_product_guards_the_einsum_alphabet():
    # a row and a column letter per factor: 26 factors fill the 52 letters, 27 do not fit
    fits = LabelledOperator(np.eye(1), tuple((("L", j), 1) for j in range(26)))
    assert link_product(fits, fits).scalar == 1.0
    wide = LabelledOperator(np.eye(1), tuple((("L", j), 1) for j in range(27)))
    with pytest.raises(ValueError, match="too many tensor factors"):
        link_product(wide, wide)


def _link_skipping_the_transpose(x, y):
    # x[a s, a' s'] in place of x[a s', a' s]
    shared = [lab for lab in x.labels if lab in y.layout]
    return link_product(LabelledOperator(_transposed(x, shared), x.layout), y)


@pytest.mark.parametrize(
    "args, row",
    [
        (["verify"], "link product applies the channel"),
        (
            ["localtest", "--n", "1", "--samples", "2000", "--testers", "1", "--channels", "1"],
            "tester 0 channel 0",
        ),
    ],
)
def test_a_link_product_without_its_transpose_fails_its_row(args, row, monkeypatch):
    monkeypatch.setattr(combs, "link_product", _link_skipping_the_transpose)
    monkeypatch.setattr(cli, "link_product", _link_skipping_the_transpose)
    res = CliRunner().invoke(cli.main, [*args, "--seed", "3"])
    assert res.exit_code == 1, res.output
    checks = {c["name"]: c["passed"] for c in json.loads(res.output)["checks"]}
    assert checks[row] is False


# ---------------------------------------------------------------------------
# Deterministic combs
# ---------------------------------------------------------------------------


def test_channel_choi_is_one_comb():
    rng = np.random.default_rng(7)
    for _ in range(5):
        ch = random_channel(2, 3, 2, rng)
        op = LabelledOperator(ch.choi, (("out", 3), ("in", 2)))
        check = is_deterministic_comb(op, (("in",), ("out",)))
        assert check
        assert check.failed_level is None
        assert check.defect < COMB_ATOL


def test_comb_check_is_truthy():
    assert bool(CombCheck(True, None, 0.0))
    assert not bool(CombCheck(False, 1, 0.5))


def test_constant_channel_fails_reversed_ordering():
    # rho -> |0><0| is a valid comb only with the true input first
    c = np.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2))
    op = LabelledOperator(c, (("out", 2), ("in", 2)))
    assert is_deterministic_comb(op, (("in",), ("out",)))
    check = is_deterministic_comb(op, (("out",), ("in",)))
    assert not check
    assert check.failed_level == 1


def _two_comb(rng):
    """Chain A0 -> B0 (x) M through M (x) A1 -> B1 into a two-tooth comb."""
    v = random_isometry(4, 2, rng)  # A0 -> B0 (x) M, both qubits
    ch1 = Channel.from_kraus([v])
    ch2 = random_channel(4, 2, 2, rng)  # M (x) A1 -> B1
    c1 = LabelledOperator(ch1.choi, (("B0", 2), ("M", 2), ("A0", 2)))
    c2 = LabelledOperator(ch2.choi, (("B1", 2), ("M", 2), ("A1", 2)))
    return link_product(c1, c2)


def test_chained_channels_form_two_comb():
    rng = np.random.default_rng(8)
    comb = _two_comb(rng)
    assert set(comb.labels) == {"A0", "B0", "A1", "B1"}
    check = is_deterministic_comb(comb, (("A0",), ("B0",), ("A1",), ("B1",)))
    assert check
    assert check.defect < COMB_ATOL


def test_scaled_comb_fails_at_scalar():
    rng = np.random.default_rng(9)
    comb = _two_comb(rng).scaled(1.2)
    check = is_deterministic_comb(comb, (("A0",), ("B0",), ("A1",), ("B1",)))
    assert not check
    assert check.failed_level == 0


def test_negative_operator_fails_positivity():
    rng = np.random.default_rng(10)
    comb = _two_comb(rng).scaled(-1.0)
    check = is_deterministic_comb(comb, (("A0",), ("B0",), ("A1",), ("B1",)))
    assert not check
    assert check.failed_level == -1


def test_backward_signalling_fails_tooth():
    # global swap: B0 = A1, so the first output signals from the second input
    swap = np.zeros((4, 4), dtype=complex)
    swap[0b00, 0b00] = swap[0b01, 0b10] = swap[0b10, 0b01] = swap[0b11, 0b11] = 1.0
    ch = Channel.from_kraus([swap])
    op = LabelledOperator(ch.choi, (("B0", 2), ("B1", 2), ("A0", 2), ("A1", 2)))
    check = is_deterministic_comb(op, (("A0",), ("B0",), ("A1",), ("B1",)))
    assert not check
    assert check.failed_level == 2


def test_ordering_validation():
    op = LabelledOperator(np.eye(4) / 2, (("a", 2), ("b", 2)))
    with pytest.raises(ValueError):
        is_deterministic_comb(op, (("a",),))  # odd number of groups
    with pytest.raises(ValueError):
        is_deterministic_comb(op, (("a",), ("a", "b")))  # not disjoint
    with pytest.raises(ValueError):
        is_deterministic_comb(op, (("a",), ()))  # does not cover b


# ---------------------------------------------------------------------------
# Testers
# ---------------------------------------------------------------------------


def _product_tester(rho, effects):
    """Prepare rho, apply one query, measure the POVM effects."""
    lay = FactorLayout((("B", 2), ("A", 2)))
    outcomes = tuple(
        (i, LabelledOperator(np.kron(e.T, rho), lay)) for i, e in enumerate(effects)
    )
    return combs.Tester(outcomes=outcomes, in_labels=(("A",),), out_labels=(("B",),))


def _qubit_povm(rng):
    u = haar_unitary(2, rng)
    return [u @ np.diag([1.0, 0.0]) @ dag(u), u @ np.diag([0.0, 1.0]) @ dag(u)]


def test_product_tester_probabilities():
    rng = np.random.default_rng(12)
    rho = random_density(2, rng)
    effects = _qubit_povm(rng)
    t = _product_tester(rho, effects)
    ch = random_channel(2, 2, 2, rng)
    probs = apply_tester(t, ch)
    out = ch.apply(rho)
    want = np.array([np.trace(e @ out).real for e in effects])
    assert np.abs(probs - want).max() < 1e-10
    assert abs(probs.sum() - 1.0) < 1e-10


def test_tester_rejects_duplicate_outcome_names():
    rng = np.random.default_rng(13)
    rho = random_density(2, rng)
    effects = _qubit_povm(rng)
    lay = FactorLayout((("B", 2), ("A", 2)))
    outcomes = tuple(
        (0, LabelledOperator(np.kron(e.T, rho), lay)) for e in effects
    )
    with pytest.raises(ValueError, match="distinct"):
        combs.Tester(outcomes=outcomes, in_labels=(("A",),), out_labels=(("B",),))


def test_tester_rejects_non_psd_outcome():
    rng = np.random.default_rng(14)
    rho = random_density(2, rng)
    lay = FactorLayout((("B", 2), ("A", 2)))
    bad = np.kron(np.diag([1.5, -0.5]).astype(complex), rho)
    good = np.kron(np.diag([-0.5, 1.5]).astype(complex), rho)
    with pytest.raises(ValueError, match="psd"):
        combs.Tester(
            outcomes=((0, LabelledOperator(bad, lay)), (1, LabelledOperator(good, lay))),
            in_labels=(("A",),),
            out_labels=(("B",),),
        )


def test_tester_rejects_bad_normalization():
    rng = np.random.default_rng(15)
    rho = random_density(2, rng)
    effects = _qubit_povm(rng)
    lay = FactorLayout((("B", 2), ("A", 2)))
    outcomes = (
        (0, LabelledOperator(np.kron(effects[0].T, rho) * 0.7, lay)),
        (1, LabelledOperator(np.kron(effects[1].T, rho), lay)),
    )
    with pytest.raises(ValueError):
        combs.Tester(outcomes=outcomes, in_labels=(("A",),), out_labels=(("B",),))


def _referee_rejects(outcomes, out_labels) -> bool:
    """The parallel-tester check Tester ran before it went through
    is_deterministic_comb: psd outcomes, and an outcome sum equal to
    rho x identity with rho a normalized psd state."""
    if any(min_eig(op.op) < -COMB_ATOL for _, op in outcomes):
        return True
    ref = outcomes[0][1]
    s = LabelledOperator(sum(op.aligned_to(ref.layout).op for _, op in outcomes), ref.layout)
    out_flat = [lab for g in out_labels for lab in g]
    d_out = math.prod(s.layout.dim_of(lab) for lab in out_flat)
    rho = s.partial_trace(out_flat).scaled(1.0 / d_out)
    if abs(np.trace(rho.op) - 1.0) > COMB_ATOL or min_eig(rho.op) < -COMB_ATOL:
        return True
    target = rho.tensor(identity_on(s.layout.without(rho.labels))).aligned_to(s.layout)
    return float(np.max(np.abs(s.op - target.op))) > COMB_ATOL


@PROPERTY_SETTINGS
@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([None, 1, 2]),
    st.integers(2, 4),
    st.sampled_from(["none", "scale", "non-psd input", "output term"]),
    st.floats(1e-6, 1e-2),
    st.integers(0, 2**32 - 1),
)
def test_tester_check_matches_parallel_referee(n, d_in, d_out, anc, k, perturb, delta, seed):
    # the comb check and the deleted rho x identity arithmetic give the same verdicts
    rng = np.random.default_rng(seed)
    t = random_parallel_tester(n, d_in, d_out, k, rng, anc_dim=anc)
    layout = t.outcomes[0][1].layout
    d_a = d_in**n
    d_rest = layout.dim // d_a
    ops = [op.op for _, op in t.outcomes]
    if perturb == "scale":
        ops[0] = ops[0] * (1.0 + delta)
    elif perturb == "non-psd input":
        # move weight from the smallest eigenvector of rho to the largest, past zero
        assume(d_a > 1)
        w, v = np.linalg.eigh(t.input_state().op)
        shift = (w[0] + delta) * (np.outer(v[:, -1], v[:, -1].conj()) - np.outer(v[:, 0], v[:, 0].conj()))
        ops = [op + np.kron(shift, np.eye(d_rest)) / k for op in ops]
    elif perturb == "output term":
        assume(d_rest > 1)
        h = _herm(d_rest, rng)
        h -= np.trace(h) / d_rest * np.eye(d_rest)
        ops[0] = ops[0] + delta * np.kron(np.eye(d_a), h / np.abs(h).max())
    outcomes = tuple((i, LabelledOperator(op, layout)) for i, op in enumerate(ops))
    want = _referee_rejects(outcomes, t.out_labels)
    assert want == (perturb != "none")
    try:
        combs.Tester(outcomes=outcomes, in_labels=t.in_labels, out_labels=t.out_labels)
        raised = False
    except ValueError:
        raised = True
    assert raised == want


def test_sequential_comb_is_not_a_parallel_tester():
    # prepare rho on A0, measure B0, prepare psi_b on A1: a two-query sequential tester
    rng = np.random.default_rng(21)
    rho = random_density(2, rng)
    plus = np.full((2, 2), 0.5, dtype=complex)
    branch = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + np.kron(np.diag([0.0, 1.0]), plus)
    x = LabelledOperator(
        np.kron(np.kron(rho, branch), np.eye(2)), (("A0", 2), ("B0", 2), ("A1", 2), ("B1", 2))
    )
    check = is_deterministic_comb(x, ((), ("A0",), ("B0",), ("A1",), ("B1",), ()))
    assert check.ok and check.defect < COMB_ATOL
    with pytest.raises(ValueError, match="level 2"):
        combs.Tester(
            outcomes=((0, x.scaled(0.5)), (1, x.scaled(0.5))),
            in_labels=(("A0",), ("A1",)),
            out_labels=(("B0",), ("B1",)),
        )


@pytest.mark.parametrize("n_queries", [1, 2])
def test_random_parallel_tester_channel(n_queries):
    rng = np.random.default_rng(17 + n_queries)
    t = random_parallel_tester(n_queries, 2, 2, 3, rng)
    assert t.n_queries == n_queries
    assert abs(np.trace(t.input_state().op) - 1.0) < 1e-8
    ch = random_channel(2, 2, 2, rng)
    probs = apply_tester(t, ch)
    assert probs.min() > -1e-10
    assert abs(probs.sum() - 1.0) < 1e-8


def test_random_parallel_tester_dilation():
    rng = np.random.default_rng(19)
    t = random_parallel_tester(1, 2, 2, 4, rng, anc_dim=3)
    ch = random_channel(2, 2, 2, rng)
    dil = dilate(ch, 3)
    probs = apply_tester(t, dil)
    assert probs.min() > -1e-10
    assert abs(probs.sum() - 1.0) < 1e-8


def test_apply_tester_dimension_guard():
    rng = np.random.default_rng(20)
    t = random_parallel_tester(1, 2, 2, 2, rng)
    dil = dilate(random_channel(2, 2, 2, rng), 2)
    with pytest.raises(ValueError):
        apply_tester(t, dil)  # tester has no ancilla factor
    with pytest.raises(TypeError):
        apply_tester(t, np.eye(4))
