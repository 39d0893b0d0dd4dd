"""Factored operators F diag(w) F^dag against their dense counterparts.

Property tests draw random factored operators and compare scaled and
min_eig with the dense linalg result.  Two referees check the gamma comb
certificate: a dense one level by level (small dimensions only), and a
factored one, the depth-first search over (level, weight) pairs that the
certificate's one loop replaced, which must agree with it bit for bit.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlab import hardness
from ctlab.combs import COMB_ATOL, FactoredOperator
from ctlab.hardness import (
    certify_gamma_comb,
    gamma_vector,
    type1_gamma_family,
    type2_gamma_family,
)
from ctlab.linalg import min_eig, partial_trace

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def factored_operators(draw):
    """A random F diag(w) F^dag with dim 1-64 and k 1-6, so k > dim is drawn too."""
    dim = draw(st.integers(1, 64))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    f /= np.linalg.norm(f, axis=0)
    w = rng.uniform(-1.0, 1.0, k)
    return FactoredOperator(f, w)


def _dense(x):
    return (x.factor * x.weights) @ x.factor.conj().T


@PROPERTY_SETTINGS
@given(factored_operators(), st.floats(-3.0, 3.0))
def test_scaled_matches_dense(x, s):
    assert np.abs(_dense(x.scaled(s)) - s * _dense(x)).max() < 1e-12


@PROPERTY_SETTINGS
@given(factored_operators())
def test_min_eig_matches_dense(x):
    assert abs(x.min_eig() - min_eig(_dense(x))) < 1e-12


def test_shape_guards():
    with pytest.raises(ValueError):
        FactoredOperator(np.ones((2, 2)), [1.0])
    with pytest.raises(ValueError):
        FactoredOperator(np.ones(2), [1.0])


def test_constructor_makes_no_copy():
    f = np.ones((3, 2), dtype=complex)
    w = np.ones(2)
    x = FactoredOperator(f, w)
    assert x.factor is f and x.weights is w


# ---------------------------------------------------------------------------
# A gamma operator far above the dense byte budget
# ---------------------------------------------------------------------------


def test_largest_budgeted_gamma_operator_stays_factored():
    # a 2^15-wide gamma operator: its factor takes 512 KiB, its dense form
    # 16 GiB, above linalg.MAX_BYTES
    fam = type2_gamma_family(4, 8, 0.3)
    start = time.perf_counter()
    op = gamma_vector(fam, 1, 3)
    accepted = certify_gamma_comb(op, fam, 3, index=1)
    rejected = certify_gamma_comb(op.scaled(1.5), fam, 3, index=1)
    elapsed = time.perf_counter() - start
    assert accepted.ok and accepted.defect <= 1e-8
    assert not rejected.ok and rejected.failed_level == 3
    assert op.dim == 2**15 and op.factor.shape == (2**15, 1)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Dense reference certificate
# ---------------------------------------------------------------------------


def _product(family, subset, level):
    v = np.ones(1, dtype=complex)
    for j in range(level):
        v = np.kron(v, family.g1 if j in subset else family.g0)
    return v


def _weight_vector(family, w, level):
    total = sum(_product(family, set(c), level) for c in combinations(range(level), w))
    return total / math.sqrt(math.comb(level, w))


def _outer(v):
    return np.outer(v, v.conj())


def _gap(family, current, reference, level):
    """min_eig(reference kron I_d - tr_{B_level-1}(current)), all dense."""
    dims = (family.big_d, family.d) * level
    traced = partial_trace(current, dims, (2 * level - 2,))
    return min_eig(np.kron(reference, np.eye(family.d)) - traced)


def dense_certificate(op, family, n, index, tol=COMB_ATOL):
    """(ok, failed_level, defect) of the comb recursion on dense matrices."""
    assert op.shape[0] <= 200
    gap = min_eig(op)
    if gap < -tol:
        return False, -1, -gap
    worst = 0.0
    if family.kind == "type1":
        current = op
        for level in range(n, 0, -1):
            if index is None:
                chosen = [set(c) for s in range(level) for c in combinations(range(level - 1), s)]
            else:
                chosen = [set(index) & set(range(level - 1))]
            reference = sum(_outer(_product(family, c, level - 1)) for c in chosen)
            gap = _gap(family, current, reference, level)
            if gap < -tol:
                return False, level, -gap
            worst = max(worst, -gap)
            current = reference
        return True, None, worst

    seen = set()

    def check(level, w, current):
        nonlocal worst
        if (level, w) in seen:
            return None
        seen.add((level, w))
        reference = 0.0
        if w <= level - 1:
            reference = reference + math.comb(level - 1, w) / math.comb(level, w) * _outer(
                _weight_vector(family, w, level - 1)
            )
        if w >= 1:
            reference = reference + math.comb(level - 1, w - 1) / math.comb(level, w) * _outer(
                _weight_vector(family, w - 1, level - 1)
            )
        gap = _gap(family, current, reference, level)
        if gap < -tol:
            return False, level, -gap
        worst = max(worst, -gap)
        for w_next in [w, w - 1] if w >= 1 else [w]:
            if 1 <= level - 1 and w_next <= level - 1:
                failure = check(level - 1, w_next, _outer(_weight_vector(family, w_next, level - 1)))
                if failure is not None:
                    return failure
        return None

    failure = check(n, index, op)
    return failure if failure is not None else (True, None, worst)


@st.composite
def gamma_cases(draw):
    kind = draw(st.sampled_from(["type1", "type2"]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2 if kind == "type1" else 1, 3))
    lo = d if kind == "type1" else d + 1
    big_d = draw(st.integers(lo, lo + 3))
    if (big_d * d) ** n > 200:
        n = 1
    eps = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    if kind == "type1":
        family = type1_gamma_family(d, big_d, eps)
        index = frozenset(draw(st.sets(st.integers(0, n - 1))))
        cert_index = draw(st.sampled_from([index, None]))
    else:
        family = type2_gamma_family(d, big_d, eps)
        index = cert_index = draw(st.integers(0, n))
    scale = draw(st.sampled_from([1.0, 1.5, -1.0, 0.7]))
    return family, n, index, cert_index, scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gamma_cases())
def test_certificate_matches_dense_reference(case):
    family, n, index, cert_index, scale = case
    op = gamma_vector(family, index, n).scaled(scale)
    got = certify_gamma_comb(op, family, n, index=cert_index)
    ok, level, defect = dense_certificate(_dense(op), family, n, cert_index)
    assert (got.ok, got.failed_level) == (ok, level)
    assert abs(got.defect - defect) <= 1e-12


# ---------------------------------------------------------------------------
# Factored referee: the depth-first search over (level, weight) pairs
# ---------------------------------------------------------------------------


def _span(vectors, weights):
    return FactoredOperator(np.stack(vectors, axis=1), weights)


def _trace_last_output(x, family):
    """tr_B of the last (B, A) pair, with rows over the pairs (B_j, A_j), the
    first most significant: the rows with B = b become the b-th block of columns."""
    k = x.factor.shape[1]
    blocks = x.factor.reshape(-1, family.big_d * family.d, k)
    columns = [
        blocks[:, b * family.d : (b + 1) * family.d, :].reshape(-1, k) for b in range(family.big_d)
    ]
    return np.hstack(columns), np.tile(x.weights, family.big_d)


def _factored_gap(current, reference, family):
    """min_eig(reference kron I_d - tr_B(current)) as one stacked factor."""
    traced, traced_weights = _trace_last_output(current, family)
    factor = np.hstack([np.kron(reference.factor, np.eye(family.d)), traced])
    weights = np.concatenate([np.repeat(reference.weights, family.d), -traced_weights])
    return FactoredOperator(factor, weights).min_eig()


def factored_certificate(op, family, n, index, tol=COMB_ATOL):
    """(ok, failed_level, defect) of the comb recursion on FactoredOperators.

    Type1 walks its levels with each reference becoming the next current;
    type2 searches depth first from (n, index), stepping to weights w and
    w - 1 one level down and skipping pairs already seen.
    """
    gap = op.min_eig()
    if gap < -tol:
        return False, -1, float(-gap)
    worst = 0.0
    if family.kind == "type1":
        current = op
        for level in range(n, 0, -1):
            if index is None:
                chosen = [set(c) for s in range(level) for c in combinations(range(level - 1), s)]
            else:
                chosen = [set(index) & set(range(level - 1))]
            vectors = [_product(family, c, level - 1) for c in chosen]
            reference = _span(vectors, np.ones(len(vectors)))
            gap = _factored_gap(current, reference, family)
            if gap < -tol:
                return False, level, float(-gap)
            worst = max(worst, max(0.0, -gap))
            current = reference
        return True, None, worst

    seen = set()

    def check(level, w, current):
        nonlocal worst
        if (level, w) in seen:
            return None
        seen.add((level, w))
        vectors, weights = [], []
        if w <= level - 1:
            vectors.append(_weight_vector(family, w, level - 1))
            weights.append(math.comb(level - 1, w) / math.comb(level, w))
        if w >= 1:
            vectors.append(_weight_vector(family, w - 1, level - 1))
            weights.append(math.comb(level - 1, w - 1) / math.comb(level, w))
        gap = _factored_gap(current, _span(vectors, weights), family)
        if gap < -tol:
            return False, level, float(-gap)
        worst = max(worst, max(0.0, -gap))
        for w_next in [w, w - 1] if w >= 1 else [w]:
            if level > 1 and w_next <= level - 1:
                v = _weight_vector(family, w_next, level - 1)
                failure = check(level - 1, w_next, _span([v], [1.0]))
                if failure is not None:
                    return failure
        return None

    failure = check(n, index, op)
    return failure if failure is not None else (True, None, worst)


@st.composite
def factored_gamma_cases(draw):
    """Like gamma_cases, with n up to 6 and operators up to 4096 wide."""
    kind = draw(st.sampled_from(["type1", "type2"]))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(2 if kind == "type1" else 1, 3))
    lo = d if kind == "type1" else d + 1
    big_d = draw(st.integers(lo, lo + 2))
    while n > 1 and (big_d * d) ** n > 4096:
        n -= 1
    eps = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    if kind == "type1":
        family = type1_gamma_family(d, big_d, eps)
        index = frozenset(draw(st.sets(st.integers(0, n - 1))))
        cert_index = draw(st.sampled_from([index, None]))
    else:
        family = type2_gamma_family(d, big_d, eps)
        index = cert_index = draw(st.integers(0, n))
    scale = draw(st.sampled_from([1.0, 1.5, -1.0, 0.7, 1.0 + 1e-7]))
    return family, n, index, cert_index, scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(factored_gamma_cases())
def test_certificate_matches_factored_reference(case):
    family, n, index, cert_index, scale = case
    op = gamma_vector(family, index, n).scaled(scale)
    got = certify_gamma_comb(op, family, n, index=cert_index)
    want = factored_certificate(op, family, n, cert_index)
    assert (got.ok, got.failed_level, got.defect.hex()) == (want[0], want[1], want[2].hex())


def test_type2_certificate_builds_each_weight_vector_once(monkeypatch):
    # n = 6, weight 3 reaches 15 distinct (weight, level) pairs below level 6; a step's
    # references one level down are the next level's currents, so each is built once
    family = type2_gamma_family(2, 3, 0.3)
    op = gamma_vector(family, 3, 6)
    calls = []
    build = hardness._gamma_weight_vector

    def counted(fam, weight, level):
        calls.append((weight, level))
        return build(fam, weight, level)

    monkeypatch.setattr(hardness, "_gamma_weight_vector", counted)
    got = certify_gamma_comb(op, family, 6, index=3)
    assert len(calls) == len(set(calls)) == 15
    want = factored_certificate(op, family, 6, 3)
    assert (got.ok, got.failed_level, got.defect.hex()) == (want[0], want[1], want[2].hex())
