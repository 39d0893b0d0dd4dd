"""Distances between channels: Choi trace distance, fidelity, diamond norm.

The diamond distance comes as a dual route pair: a see-saw ascent over pure
inputs gives a certified lower bound (every reported value is f at an
evaluated unit input, a feasible value of the maximization), and the Choi
trace norm gives the upper bound

    (1/d_in) ||C_a - C_b||_1  <=  ||a - b||_diamond  <=  ||C_a - C_b||_1.

Choi distances are sums of |eigenvalues| of Hermitian Choi differences, one
stacked eigvalsh for any number of pairs. Diamond estimates for many pairs
ascend as one stacked see-saw, every restart of every pair a row of it; each
row over-relaxes its plain step and falls back to it when the relaxed point
fails a certified test. An iteration decides every row's fate from the value
at its point before it pulls back the witness, which it does only for rows
that were accepted and go on, and the restarts of a single pair share that
pair's operators. For unitary channels an exact closed form is available for
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .channels import Channel, kraus_sets
from .linalg import (
    ATOL,
    dag,
    isometry_defect,
    psd_sqrt,
    random_pure_state,
    trace_norm,
)

# a see-saw restart stops once an accepted evaluation gains less than
# _SEESAW_TOL, or after _SEESAW_MAX_ITER evaluations; its relaxation factor
# grows by _SEESAW_RELAX per accepted over-relaxed point up to
# _SEESAW_RELAX_MAX, and restarts at _SEESAW_RELAX after a plain step
_SEESAW_TOL = 1e-8
_SEESAW_MAX_ITER = 1000
_SEESAW_RELAX = 1.5
_SEESAW_RELAX_MAX = 8.0

__all__ = [
    "DiamondEstimate",
    "choi_trace_distance",
    "choi_trace_distances",
    "channel_fidelity",
    "fidelity_trace_conversion",
    "diamond_distance",
    "diamond_distances",
    "unitary_diamond_distance",
]


def _check_same_shape(a: Channel, b: Channel) -> None:
    if a.d_in != b.d_in or a.d_out != b.d_out:
        raise ValueError("channels act between different spaces")


def choi_trace_distances(choi: np.ndarray, chois: np.ndarray, d_in: int) -> np.ndarray:
    """(1/d_in) || C - C_k ||_1 for every C_k of a (P, n, n) stack; choi is
    one matrix, or a (P, n, n) stack paired row by row with chois.

    Choi differences are Hermitian, so each trace norm is the sum of the
    absolute eigenvalues, all taken in one stacked eigvalsh.
    """
    return np.abs(np.linalg.eigvalsh(choi - chois)).sum(-1) / d_in


def choi_trace_distance(a: Channel, b: Channel) -> float:
    """(1/d_in) || C_a - C_b ||_1."""
    _check_same_shape(a, b)
    return float(choi_trace_distances(a.choi, b.choi[None], a.d_in)[0])


def channel_fidelity(a: Channel, b: Channel) -> float:
    """Fidelity of the normalized Choi states, squared-overlap convention.

    F = ||sqrt(rho) sqrt(sigma)||_1^2, summed from singular values: taking
    square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho) instead
    would turn its ~1e-17 noise eigenvalues into ~3e-9 each.
    """
    _check_same_shape(a, b)
    rho = a.choi / a.d_in
    sigma = b.choi / b.d_in
    s = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)
    f = float(np.sum(s) ** 2)
    return min(max(f, 0.0), 1.0)


def fidelity_trace_conversion(f: float) -> float:
    """Trace-norm level 2 sqrt(1 - F); exact for pure (isometry) Choi states."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    return 2.0 * np.sqrt(max(0.0, 1.0 - min(f, 1.0)))


@dataclass(frozen=True)
class DiamondEstimate:
    """See-saw lower bound, trace-norm upper bound, and the best witness.

    witness_state is the evaluated unit input whose value is lower (unless
    lower was capped at upper); iterations counts the see-saw's evaluations
    over all restarts, rejected over-relaxed points included.
    """

    lower: float
    upper: float
    witness_state: np.ndarray
    converged: bool
    iterations: int


def _signed_lifted_kraus(pairs) -> tuple:
    """Kraus operators of a kron id_ref then b kron id_ref (ref a copy of the
    input) for pairs (a, b) sharing their spaces and total Kraus rank R,
    stacked as (P, n_out, R, n_in) so that the see-saw's forward map and the
    first pull-back product read them as reshapes, with signs (P, R) of +1
    for a and -1 for b. The canonical Kraus sets come from one kraus_sets
    call over all pairs."""
    sets = iter(kraus_sets([ch for pair in pairs for ch in pair]))
    kraus = np.stack([np.stack(next(sets) + next(sets)) for _ in pairs]).transpose(0, 2, 1, 3)
    count, d_out, r, d = kraus.shape
    lifted = kraus[:, :, None, :, :, None] * np.eye(d)[:, None, None, :]
    signs = np.stack([np.repeat([1.0, -1.0], [a.rank, b.rank]) for a, b in pairs])
    return lifted.reshape(count, d_out * d, r, d * d), signs


def _eigh(a):
    """np.linalg.eigh of a stack of complex Hermitian matrices, read from the
    lower triangle: the gufunc it calls, with the signature it passes, so the
    same bits. On the see-saw's stacks of a few small matrices, eigh's
    per-call checks and error-state switch cost about as much as the solve,
    so _seesaw sets that error state once per ascent (_eigh_failed)."""
    return _umath_linalg.eigh_lo(a, signature="D->dD")


def _eigh_failed(err, flag):
    """np.errstate callback: a solve that did not converge returns nan and
    sets the invalid flag, which np.linalg.eigh turns into this error."""
    raise LinAlgError("Eigenvalues did not converge")


def _seesaw(psi, lifted, signs, owner, tol, max_iter):
    """Over-relaxed alternating ascent on f(psi) = || (Delta kron id)(|psi><psi|) ||_1.

    lifted (P, n_out, R, n_in) and signs (P, R) hold the signed lifted Kraus
    operators of P pairs; row k of psi starts one restart of pair owner[k],
    and all rows ascend together. The rows of a one-pair call share that
    pair's operators by broadcasting; rows of several pairs each hold a copy
    of their pair's. An evaluation at a unit vector c maps it through the
    lifted Kraus operators and takes f(c) and the trace-norm witness of the
    output from a stacked eigh; a row accepted at c that goes on then pulls
    the witness back to M_c and takes M_c's top eigenpair (lambda_c, t_c)
    from a second stacked eigh.

    Each row keeps its last accepted point b with f(b), its plain step t =
    t_b, lambda_b and a relaxation factor w, and next evaluates c =
    normalize(b + w (e^{i phi} t - b)), phi aligning t's global phase to b.
    Since f(psi) >= <psi|M_b|psi> for every unit psi, f(t) >= lambda_b >=
    f(b): c is accepted when f(c) >= lambda_b, and w then grows by
    _SEESAW_RELAX up to _SEESAW_RELAX_MAX; a rejected c sends the row to t
    itself, always accepted, after which w restarts at _SEESAW_RELAX. The
    start is the first such plain step. A row leaves the active set, with
    its operators, once an accepted evaluation gains less than tol (keeping
    the larger of the two values) or at max_iter.

    Each iteration first takes f(c) for every active row and decides accept
    and done from it; only rows that were accepted and go on are pulled
    back, since a rejected row steps to its stored t and a finished row is
    left. Every product is stacked over rows rather than folded into one
    GEMM, so a row's arithmetic, and with it its result, does not depend on
    which other rows are active or pulled back. Returns per-row values, the
    accepted points that attain them, convergence flags and evaluation
    counts, rejected ones included.
    """
    _, n_out, r, n_in = lifted.shape
    owner = np.asarray(owner)
    shared = bool((owner == owner[0]).all())
    if shared:
        lifted, signs = lifted[owner[0], None], signs[owner[0], None, None]
    else:
        lifted, signs = lifted[owner], signs[owner][:, None, :]
    back = (lifted.conj() * signs[..., None]).reshape(-1, n_out * r, n_in)
    count = psi.shape[0]
    f_out = np.full(count, -np.inf)
    psi_out = psi.copy()
    converged = np.zeros(count, dtype=bool)
    iterations = np.full(count, max_iter)
    rows = np.arange(count)
    # per-row scalars are (rows, 1) columns, so they broadcast against points
    b, t = psi.copy(), psi.copy()
    f_b = np.full((count, 1), -np.inf)
    lam_b = f_b.copy()
    plain = np.ones((count, 1), dtype=bool)
    relax = np.full((count, 1), _SEESAW_RELAX)

    def layouts(lifted, back):
        # views of the operator stacks: the forward map (n_in x n_out R), the
        # first pull-back product (n_out x R n_in) and the signed adjoint (n_in x n_out R)
        p = lifted.shape[0]
        forward = lifted.reshape(p, n_out * r, n_in).swapaxes(1, 2)
        return forward, lifted.reshape(p, n_out, r * n_in), back.swapaxes(1, 2)

    def pulled_back(w, v):
        # M_c of every row of (w, v), against the operators of as many rows or shared ones
        wmat = (v * np.sign(w)[:, None, :]) @ dag(v)
        return pullback @ (wmat @ wide).reshape(-1, n_out * r, n_in)

    def top_eigenpair(m):
        # (lambda_c, t_c) of each M_c, copied out of eigh's output, which is dropped
        # before the next evaluation
        lam, vecs = _eigh(m)
        return lam[:, -1:].copy(), vecs[:, :, -1].copy()

    forward, wide, pullback = layouts(lifted, back)
    # no step of a finite ascent but a failed eigensolve makes an invalid value
    with np.errstate(invalid="call", call=_eigh_failed):
        for it in range(1, max_iter + 1):
            # row counts by np.count_nonzero: on a few rows, .all() and .any() cost more in
            # their Python wrappers than the test itself
            if np.count_nonzero(plain) == rows.size:
                c = t
            else:
                # c = normalize(b + relax (e^{i phi} t - b)); e^{i phi} = sign(<t|b>), which
                # for complex z is z / |z| since numpy 2
                c = b + relax * (np.sign(np.vecdot(t, b, keepdims=True)) * t - b)
                c /= np.sqrt(np.vecdot(c, c, keepdims=True).real)
                np.copyto(c, t, where=plain)
            xs = (c[:, None, :] @ forward).reshape(-1, n_out, r)
            # eigh reads one triangle, so neither Hermitian operator is symmetrized
            w, v = _eigh((xs * signs) @ dag(xs))
            f = np.abs(w).sum(-1, keepdims=True)
            accept = plain | (f >= lam_b)
            done = (accept & (f - f_b < tol))[:, 0]
            if np.count_nonzero(done):
                stop = rows[done]
                f_out[stop] = np.maximum(f, f_b)[done, 0]
                psi_out[stop] = np.where((f >= f_b)[done], c[done], b[done])
                converged[stop], iterations[stop] = True, it
                keep = ~done
                rows, b, f_b = rows[keep], b[keep], f_b[keep]
                if not rows.size:
                    break
                t, c, lam_b = t[keep], c[keep], lam_b[keep]
                w, v, f, accept = w[keep], v[keep], f[keep], accept[keep]
                plain, relax = plain[keep], relax[keep]
                if not shared:
                    lifted, back, signs = lifted[keep], back[keep], signs[keep]
                    forward, wide, pullback = layouts(lifted, back)
            go = accept[:, 0]
            taken = np.count_nonzero(go)
            if taken == rows.size:
                lam_b, t = top_eigenpair(pulled_back(w, v))
                b, f_b = c, f
            elif taken:
                # a rejected row steps to its stored t: only accepted rows are pulled
                # back, and of several pairs' rows only the n_in x n_in results are gathered
                lam_b[go], t[go] = top_eigenpair(
                    pulled_back(w[go], v[go]) if shared else pulled_back(w, v)[go]
                )
                b[go], f_b[go] = c[go], f[go]
            grown = np.minimum(_SEESAW_RELAX * relax, _SEESAW_RELAX_MAX)
            relax = np.where(plain, _SEESAW_RELAX, grown)
            plain = ~accept
    f_out[rows], psi_out[rows] = f_b[:, 0], b
    return f_out, psi_out, converged, iterations


def diamond_distances(pairs, *, restarts: int = 16, rng: np.random.Generator) -> list:
    """Dual-route diamond distance estimates, one DiamondEstimate per pair.

    The lower route runs a see-saw over pure inputs on in kron ref (ref a copy
    of the input): the plain step takes the optimal trace-norm witness of the
    output and the top eigenvector of its pull-back, and each restart
    over-relaxes that step while a certified test accepts the relaxed point
    (see _seesaw). Each pair's maximally entangled start is always included,
    so lower >= (1/d_in)||C_a - C_b||_1 up to the ascent tolerance; its
    remaining restarts are Haar random, drawn pair by pair. Pairs acting
    between the same spaces ascend as one stacked see-saw when they also
    share a total Kraus rank: zero-padded ranks would change the length of
    the see-saw's inner products, and with it the low bits of a pair's
    result. The upper route is the Choi trace norm.
    """
    pairs = list(pairs)
    if restarts < 1:
        raise ValueError("need at least one restart")
    for a, b in pairs:
        _check_same_shape(a, b)
    starts = []
    for a, _ in pairs:
        d = a.d_in
        me = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
        starts.append([me] + [random_pure_state(d * d, rng) for _ in range(restarts - 1)])
    # one kraus_sets pass caches every canonical Kraus set, so neither the ranks below nor
    # _signed_lifted_kraus solves a channel alone
    kraus_sets([ch for pair in pairs for ch in pair])
    groups: dict = {}
    for k, (a, b) in enumerate(pairs):
        groups.setdefault((a.d_in, a.d_out, a.rank + b.rank), []).append(k)
    estimates = [None] * len(pairs)
    for members in groups.values():
        f, psi, converged, iterations = _seesaw(
            np.stack([s for k in members for s in starts[k]]),
            *_signed_lifted_kraus([pairs[k] for k in members]),
            np.repeat(np.arange(len(members)), restarts),
            _SEESAW_TOL,
            _SEESAW_MAX_ITER,
        )
        for slot, k in enumerate(members):
            a, b = pairs[k]
            rows = slice(slot * restarts, (slot + 1) * restarts)
            best = slot * restarts + int(np.argmax(f[rows]))
            upper = trace_norm(a.choi - b.choi)
            estimates[k] = DiamondEstimate(
                lower=float(min(f[best], upper)),
                upper=float(upper),
                witness_state=psi[best],
                converged=bool(converged[rows].all()),
                iterations=int(iterations[rows].sum()),
            )
    return estimates


def diamond_distance(
    a: Channel,
    b: Channel,
    *,
    restarts: int = 16,
    rng: np.random.Generator,
) -> DiamondEstimate:
    """Dual-route diamond distance estimate of one pair: diamond_distances
    of [(a, b)]."""
    return diamond_distances([(a, b)], restarts=restarts, rng=rng)[0]


def unitary_diamond_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Exact diamond distance between unitary channels, from the eigenphases of U^dag V.

    w = 2 pi minus the largest gap between sorted eigenphases is the width of the
    shortest arc holding them all; the distance is 2 sin(w / 2) below w = pi, else 2.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("need two square matrices of equal dimension")
    for name, m in (("u", u), ("v", v)):
        defect = isometry_defect(m)
        if not defect <= ATOL * 10:
            raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    phases = np.sort(np.angle(np.linalg.eigvals(dag(u) @ v)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    width = 2.0 * np.pi - float(gaps.max())
    return 2.0 * float(np.sin(min(width, np.pi) / 2.0))
