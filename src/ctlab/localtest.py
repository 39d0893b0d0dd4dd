"""Reduction of dilation testers to channel testers.

A tester that probes a fixed dilation (ancilla factors included) only sees
the dilation up to a left unitary on the ancilla. Averaging that unitary
turns the tester into an ancilla-twirled one, and the twirled tester's
statistics on any rank-r dilation can be reproduced by a tester that acts on
copies of the channel alone. This module builds that localized tester and
cross-checks the identity along three routes: localized probabilities on the
channel, twirled probabilities on the canonical dilation, and a Monte Carlo
average over random dilations. A random dilation (U (x) 1) V is linear in the
Haar unitary U, so the Monte Carlo route pulls each outcome's quadratic form
back once to U's own coordinates, and a sample then costs an amount set by the
ancilla dimension r alone (by r d1 d2 where that is smaller than r^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments
from .channels import Channel, dilate
from .combs import LabelledOperator, Tester, apply_tester, identity_on
from .linalg import chunk_slices, haar_unitaries, kron, swap_operator
from .moments import mc_verdict, twirl

__all__ = [
    "average_tester",
    "localize_tester",
    "DilationCheck",
    "DilationForms",
    "dilation_forms",
    "verify_dilation_identity",
]

PERP_LABEL = "perp"
# routes (a) and (b) of verify_dilation_identity agree to _ROUTE_ATOL; (c) passes mc_verdict
_ROUTE_ATOL = 1e-7


def _find_anc_labels(tester: Tester) -> tuple:
    """One ancilla label per query, detected by its ("anc", j) name."""
    found = []
    for j, group in enumerate(tester.out_labels):
        hits = [
            lab
            for lab in group
            if isinstance(lab, tuple) and len(lab) == 2 and lab[0] == "anc"
        ]
        if len(hits) != 1:
            raise ValueError(
                f"query {j} must carry exactly one ancilla factor (found {hits!r})"
            )
        found.append(hits[0])
    return tuple(found)


def _anc_dim(tester: Tester, anc_labels: tuple) -> int:
    ref = tester.outcomes[0][1].layout
    dims = {ref.dim_of(lab) for lab in anc_labels}
    if len(dims) != 1:
        raise ValueError("ancilla factors must share one dimension")
    return dims.pop()


def average_tester(tester: Tester) -> Tester:
    """Twirl every outcome over a shared Haar unitary on the ancilla factors.

    Supported for one or two queries (moments.twirl's first and second moment).
    """
    anc_labels = _find_anc_labels(tester)
    outcomes = tuple(
        (lab, LabelledOperator(twirl(op.op, op.layout.dims, op.layout.positions(anc_labels)), op.layout))
        for lab, op in tester.outcomes
    )
    return Tester(outcomes=outcomes, in_labels=tester.in_labels, out_labels=tester.out_labels)


def _single_label(group, what: str):
    if len(group) != 1:
        raise ValueError(f"localization expects one factor per {what} interface")
    return group[0]


def _query_labels(tester: Tester, anc_labels: tuple) -> tuple:
    """The input label and the non-ancilla output label of each query."""
    a_labels = [_single_label(g, "input") for g in tester.in_labels]
    b_labels = []
    for j, group in enumerate(tester.out_labels):
        rest = tuple(lab for lab in group if lab != anc_labels[j])
        b_labels.append(_single_label(rest, "output"))
    return a_labels, b_labels


def localize_tester(tester: Tester) -> Tester:
    """Remove the ancilla factors of a parallel dilation tester.

    The result is a channel-side tester reproducing the dilation tester's
    twirled statistics on n copies of the channel. It carries one extra
    outcome labelled "perp": the statistical weight a rank-r dilation can
    never reach.

    Each outcome splits over the ancilla-permutation sectors l: (P_AB_l,
    P_anc_l, dim Q_l) = (1, 1_r, r) for one query, ((1 +- S_AB)/2,
    (1 +- S_anc)/2, r (r +- 1)/2) over the pair swaps for two. Every sector the
    rank-r ancilla reaches (dim Q_l > 0) adds

        P_AB_l tr_anc[(1 (x) P_anc_l) T_i] P_AB_l / dim Q_l,

    which is tr_anc[(P_AB_l (x) P_anc_l) T_i (same)] / dim Q_l, as P_AB_l acts
    on the kept factors and P_anc_l is a projector: one einsum per sector, no
    tensor product of projectors. The others (only the antisymmetric sector
    at n = 2, r = 1) give "perp" = sum_l P_AB_l (rho (x) 1_out) P_AB_l, rho the
    input state, making the result a valid parallel tester.
    """
    anc_labels = _find_anc_labels(tester)
    r = _anc_dim(tester, anc_labels)
    n = tester.n_queries
    if any(lab == PERP_LABEL for lab in tester.outcome_names):
        raise ValueError(f"outcome label {PERP_LABEL!r} is reserved")
    a_labels, b_labels = _query_labels(tester, anc_labels)
    ref = tester.outcomes[0][1].layout
    d1 = ref.dim_of(a_labels[0])
    d2 = ref.dim_of(b_labels[0])
    if any(ref.dim_of(lab) != d1 for lab in a_labels):
        raise ValueError("query input dimensions must match")
    if any(ref.dim_of(lab) != d2 for lab in b_labels):
        raise ValueError("query output dimensions must match")

    v, big_r = (d1 * d2) ** n, r**n
    if n == 1:
        sectors = [(np.eye(v), np.eye(r), r)]
    elif n == 2:
        s_ab, s_anc = swap_operator(d1 * d2), swap_operator(r)
        sectors = [
            ((np.eye(v) + sign * s_ab) / 2, (np.eye(big_r) + sign * s_anc) / 2, r * (r + sign) // 2)
            for sign in (+1, -1)
        ]
    else:
        raise ValueError("localization is implemented for n <= 2 queries")

    chan = [lab for pair in zip(a_labels, b_labels) for lab in pair]
    chan_layout = ref.restricted(chan)
    outcomes = []
    for lab, op in tester.outcomes:
        # the outcome on (A0, B0, ..., anc...) as (V, R, V, R): channel row, ancilla row, ...
        t = op.aligned_to(chan + list(anc_labels)).op.reshape(v, big_r, v, big_r)
        loc = sum(p @ np.einsum("ab,vbwa->vw", q, t) @ p / dim_q for p, q, dim_q in sectors if dim_q)
        outcomes.append((lab, LabelledOperator(loc, chan_layout)))
    perp = np.zeros((v, v), dtype=complex)
    unreached = [p for p, _, dim_q in sectors if not dim_q]
    if unreached:
        base = tester.input_state().tensor(identity_on(ref.restricted(b_labels))).aligned_to(chan).op
        perp = sum(p @ base @ p for p in unreached)

    return Tester(
        outcomes=tuple(outcomes) + ((PERP_LABEL, LabelledOperator(perp, chan_layout)),),
        in_labels=tuple((lab,) for lab in a_labels),
        out_labels=tuple((lab,) for lab in b_labels),
    )


@dataclass(frozen=True)
class DilationCheck:
    """Three-route comparison of a dilation tester's twirled statistics."""

    outcome_names: tuple
    localized: np.ndarray
    fixed: np.ndarray
    mc_mean: np.ndarray
    mc_stderr: np.ndarray
    n_samples: int
    max_fixed_dev: float
    max_sigma_dev: float
    ok: bool


@dataclass(frozen=True)
class DilationForms:
    """A dilation tester with its localized and ancilla-twirled forms."""

    tester: Tester
    localized: Tester
    averaged: Tester


def dilation_forms(tester: Tester) -> DilationForms:
    """The forms verify_dilation_identity compares, made once for any number of channels."""
    return DilationForms(tester, localize_tester(tester), average_tester(tester))


def _sample_runs(samples: int, member_bytes: int) -> list:
    """Route (c)'s pieces of unitaries and runs of vectors: the linalg.chunk_slices runs of
    range(samples), stopped at samples, with a one-sample tail joined to the run before.
    numpy hands a one-row product to GEMV, which rounds otherwise than GEMM, and GEMM gives
    a row the same bits in runs of any length from two up, so every run's values are those
    of one GEMM over the whole batch (unless one sample alone outweighs _CHUNK_BYTES)."""
    runs = [slice(run.start, min(run.stop, samples)) for run in chunk_slices(samples, member_bytes)]
    if len(runs) > 1 and runs[-1].stop - runs[-1].start == 1:
        runs[-2:] = [slice(runs[-2].start, samples)]
    return runs


def _sample_coordinates(v0: np.ndarray) -> tuple:
    """How route (c) carries a sample U: as coordinates x = vec(U right), with the Choi vector
    w = vec(U v0) of (U (x) 1) V, V as v0 (r, d2 d1), equal to left @ x. x is the narrower
    of u = vec(U), r^2 wide (left = 1_r (x) v0^T, right None), and w itself, r d2 d1 wide
    (left = 1, right = v0)."""
    r, p = v0.shape
    if r <= p:
        return kron(np.eye(r), v0.T), None
    return np.eye(r * p, dtype=complex), v0


def _pulled_back_forms(ops, left: np.ndarray, n: int) -> np.ndarray:
    """The quadratic forms ops, each on the Choi vectors w = left @ x or, for two queries, on
    w (x) w, pulled back to coordinates z of x, side by side as one (zdim, outcomes zdim)
    matrix P: outcome o's value on a sample is sum_j z_j (conj(z) @ P)[o zdim + j].

    z is x for one query (zdim = q, x's width), and z_ab = x_a x_b over the
    np.triu_indices(q) pairs for two (zdim = q (q + 1)/2): w (x) w = (L (x) L)(x (x) x) = K z
    for L = left, where K's column ab is (L (x) L)(|ab> + |ba>), or (L (x) L)|aa> on the
    diagonal. A form t on w or w (x) w is K^T t conj(K) on z, so only t's swap-symmetric
    part reaches it.
    """
    k = left
    if n == 2:
        q = k.shape[1]
        a, b = np.triu_indices(q)
        kk = kron(k, k)
        k = kk[:, a * q + b] + kk[:, b * q + a]
        k[:, a == b] /= 2
    kt, kbar = k.T, k.conj()
    forms = np.stack([kt @ op @ kbar for op in ops])
    return np.ascontiguousarray(forms.transpose(2, 0, 1)).reshape(len(kt), -1)


def verify_dilation_identity(
    forms: DilationForms,
    channel: Channel,
    *,
    samples: int = 10_000,
    rng: np.random.Generator,
) -> DilationCheck:
    """Check localized = twirled-on-dilation = average-over-dilations.

    Route (a) applies the localized tester to copies of the channel, route
    (b) applies the ancilla-twirled tester to the canonical rank-r dilation
    (these must agree to 1e-7), and route (c) Monte Carlo averages the raw
    tester over random dilations (must pass the gate moments.mc_verdict).
    Route (c) first pulls every outcome's form back to the coordinates z of a sample
    (_pulled_back_forms: the q = min(r^2, r d2 d1) entries of x = vec(U), or of the Choi
    vector where that is narrower, and for two queries their q (q + 1)/2 products x_a x_b,
    a <= b), so a sample costs the same for any d1 and d2 with d1 d2 >= r. It then walks
    pieces of about linalg._CHUNK_BYTES of Haar unitaries in runs through one workspace,
    each run's values of all outcomes from one GEMM (run, zdim) @ (zdim, outcomes zdim) and
    one einsum of its real products with z, and merges them with moments._merge, so nothing
    it holds grows with samples; it needs at least 2 samples for its spread, and raises
    ValueError below.
    """
    if samples < 2:
        raise ValueError(f"route (c) needs at least 2 samples for its spread, not {samples}")
    tester = forms.tester
    anc_labels = _find_anc_labels(tester)
    r = _anc_dim(tester, anc_labels)
    n = tester.n_queries
    localized = apply_tester(forms.localized, channel)
    base = dilate(channel, r)
    fixed = apply_tester(forms.averaged, base)

    a_labels, b_labels = _query_labels(tester, anc_labels)
    order = []
    for j in range(n):
        order += [anc_labels[j], b_labels[j], a_labels[j]]
    left, right = _sample_coordinates(base.matrix.reshape(r, -1))
    pulled = _pulled_back_forms((op.aligned_to(order).op for _, op in tester.outcomes), left, n)
    zdim, width = pulled.shape
    outcomes = width // zdim
    a, b = np.triu_indices(left.shape[1])
    pieces = _sample_runs(samples, 16 * r * r)
    lengths = {piece.stop - piece.start for piece in pieces}
    size = max(run.stop - run.start for k in lengths for run in _sample_runs(k, 16 * width))
    totals = moments._NO_SAMPLES
    for piece in pieces:
        us = haar_unitaries(r, piece.stop - piece.start, rng)
        x = (us if right is None else us.reshape(-1, r) @ right).reshape(len(us), -1)
        if piece.start == 0:
            # one workspace for every run of every piece, made after the first draw: the
            # coordinates z (x itself for one query), their conjugates, products and values
            z = np.empty((size, zdim), dtype=complex) if n == 2 else None
            zbar = np.empty((size, zdim), dtype=complex)
            prod = np.empty((size, width), dtype=complex)
            vals = np.empty((outcomes, max(lengths)))
        for run in _sample_runs(len(us), 16 * width):
            count = run.stop - run.start
            if n == 1:
                zs = x[run]
            else:
                # z = x_a x_b, the factors in this order, as a complex product's rounding
                # depends on it; zbar holds x_b meanwhile
                zs = np.take(x[run], a, axis=1, out=z[:count], mode="clip")
                zs *= np.take(x[run], b, axis=1, out=zbar[:count], mode="clip")
            np.conjugate(zs, out=zbar[:count])
            np.matmul(zbar[:count], pulled, out=prod[:count])
            # Re(z_j c_j) = Re c_j Re z_j + Im c_j Im conj(z_j): the real parts of the products
            # and their row sums in one pass over the float views of c = conj(z) @ P and conj(z)
            c = prod[:count].view(float).reshape(count, outcomes, 2 * zdim)
            np.einsum("sok,sk->os", c, zbar[:count].view(float), out=vals[:, run])
        totals = moments._merge(totals, vals[:, : len(us)])
        # drop this piece (zs views it for one query) before the next is drawn
        del us, x, zs
    _, mc_mean, mc_stderr = moments._statistics(totals)

    k = len(tester.outcomes)
    max_fixed_dev = float(np.max(np.abs(localized[:k] - fixed)))
    max_sigma_dev, mc_ok = mc_verdict(np.abs(localized[:k] - mc_mean), mc_stderr, samples, localized[:k])
    ok = max_fixed_dev <= _ROUTE_ATOL and mc_ok
    return DilationCheck(
        outcome_names=forms.localized.outcome_names,
        localized=localized,
        fixed=fixed,
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        n_samples=samples,
        max_fixed_dev=max_fixed_dev,
        max_sigma_dev=max_sigma_dev,
        ok=ok,
    )
