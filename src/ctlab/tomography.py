"""Isometry and channel estimation from a noisy pure-state preparation oracle.

The oracle hands out approximate copies of the columns of a target isometry,
each damaged by an adversarial-strength perturbation and an unknown global
phase.  Column estimates are snapped to the nearest isometry by SVD; running
the procedure twice, the second time against the target precomposed with a
DFT, pins down the relative column phases.  Channel estimation runs this on
each target's dilation; an isometry is its own dilation of one Kraus block.
A batch runs its trials, each on its own generator.  The oracle is
one batch function, pure_state_oracles, over a stack of columns: its draws go
trial by trial and column by column, two generator calls per column, and its
arithmetic runs once over the stack; a column whose draw is rejected then
redraws from its own generator, after the stack's first draws.
pure_state_oracle is its stack of one.
Every later stage runs once per batch.
A batch returns columns, one row per trial: the stack of estimated
isometries (in channel mode, of the dilations) and arrays of errors and
successes, with the batch's total query charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import choi_from_kraus
from .linalg import dag, dft_matrix, operator_norm
from .metrics import choi_trace_distances

# The least target accuracy accepted: below it the checks would compare eps with a
# correct run's error floor, float64 rounding.  Correct runs failed at eps up to
# 1.33e-14 (both modes, d1, d2 <= 16, seeds 0-9); MIN_EPS is the least power of ten
# at least 100 times that.
MIN_EPS = 1e-11
# The least positive per-column noise accepted, eps^2 / 64 at eps = 1e-100: from it up
# the charge ceil(d / eps_max) stays finite for any dimension d below 1e100.
_MIN_EPS_MAX = 1e-100 * 1e-100 / 64.0
# The phase search's stopping width in radians: min_phase_op_error's minimizer is pinned
# this closely, the width a 60-step golden section reaches from the grid's bracket.
_PHASE_WIDTH = 1e-14
# The Gram traces ||a||_F^2 + ||b||_F^2 of the pairs the phase search runs unscaled: its
# curvature squares couplings of up to 8 times a trace, which stay finite and normal there.
_PHASE_RANGE = (2.0**-500, 2.0**500)

__all__ = [
    "MIN_EPS",
    "PureStateOracleConfig",
    "pure_state_oracle",
    "pure_state_oracles",
    "weak_isometry_tomography",
    "align_phases",
    "min_phase_op_error",
    "two_run_estimates",
    "TomographyBatch",
    "isometry_tomography",
    "channel_tomography",
]


@dataclass(frozen=True)
class PureStateOracleConfig:
    """Noise budget of the preparation oracle.

    Each prepared state deviates from the target column by at most eps_max
    in squared overlap; producing one column estimate of a d-dimensional
    state is charged ceil(d / eps_max) oracle queries.
    """

    eps_max: float

    def __post_init__(self):
        if not 0.0 <= self.eps_max <= 1.0:
            raise ValueError(f"eps_max must lie in [0, 1], got {self.eps_max}")
        if 0.0 < self.eps_max < _MIN_EPS_MAX:
            raise ValueError(f"a positive eps_max must be at least {_MIN_EPS_MAX:g}, got {self.eps_max}")

    def copies_charged(self, d: int) -> int:
        """Query cost of one column estimate in dimension d (0 when exact)."""
        if self.eps_max == 0.0:
            return 0
        return math.ceil(d / self.eps_max)


def _rows_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (N, 1) sums a[j] @ b[j] of two (N, d) stacks, each the BLAS dot of
    the 1-D product a[j] @ b[j] (a stacked (1, d) @ (d, 1) matmul is one), so
    with its bits."""
    return (a[:, None, :] @ b[:, :, None])[:, :, 0]


def _orthogonal_parts(v: np.ndarray, g: np.ndarray) -> tuple:
    """The parts w = g - v (v^dag g) of the complex normals in g (N, 2d: real
    parts, then imaginary parts) orthogonal to the rows of v (N, d), and
    their norms (N, 1), each sqrt(re . re + im . im) as np.linalg.norm takes
    it."""
    d = v.shape[1]
    w = g[:, :d] + 1j * g[:, d:]
    w -= v * _rows_dot(v.conj(), w)
    return w, np.sqrt(_rows_dot(w.real, w.real) + _rows_dot(w.imag, w.imag))


def pure_state_oracles(columns, cfg: PureStateOracleConfig, rngs) -> np.ndarray:
    """Noisy copies of the unit vectors stacked as the rows of columns (N, d),
    each with a uniformly random phase.

    Row j is phase * (sqrt(1 - e) v + sqrt(e) w) with e drawn uniformly from
    [0, eps_max] and w Haar random in the complement of v.  Row j draws from
    rngs[j], the rows in order (a generator listed again draws again, in
    turn), in two generator calls: two uniforms (the phase, then e) and 2d
    normals (the real parts of g, then the imaginary parts); with eps_max = 0
    or d = 1 only the phase is drawn.  Every later step runs once over the
    stack: the projection, the norms, the normalisation and the combination,
    each row with the bits of its own 1-D arithmetic.  A row whose
    orthogonal part has norm at most 1e-12 then draws its normals again from
    its own generator, after the stack's first draws, the rejected rows in
    order and each until it passes; only that row is recomputed, with the
    bits it has in any stack.  A stack with a non-finite entry raises
    ValueError before any draw.
    """
    v = np.ascontiguousarray(columns, dtype=complex)  # the BLAS dots need unit-stride rows
    rngs = list(rngs)
    if v.ndim != 2 or not v.shape[1] or len(rngs) != len(v):
        raise ValueError(f"need an (N, d) stack with d >= 1 and N generators, got {v.shape} and {len(rngs)}")
    if not np.isfinite(v).all():
        # a nan or inf row has a nan orthogonal part, which every redraw would reject
        raise ValueError("columns must be finite")
    count, d = v.shape
    noisy = cfg.eps_max != 0.0 and d > 1
    u = np.empty((count, 2 if noisy else 1))
    if not noisy:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        return np.exp(2j * np.pi * u) * v
    g = np.empty((count, 2 * d))
    for rng, row, normals in zip(rngs, u, g):
        rng.random(out=row)
        rng.standard_normal(out=normals)
    w, norm = _orthogonal_parts(v, g)
    for j in np.flatnonzero(~(norm[:, 0] > 1e-12)):
        row = slice(j, j + 1)
        while not norm[j, 0] > 1e-12:
            rngs[j].standard_normal(out=g[j])
            w[row], norm[row] = _orthogonal_parts(v[row], g[row])
    # the per-row factors multiply from the left, as the 1-D arithmetic's scalars do: numpy's
    # complex product with the broadcast operand second takes another path, with other bits
    e = cfg.eps_max * u[:, 1:]
    out = np.sqrt(1.0 - e).astype(complex) * v
    np.multiply(np.exp(2j * np.pi * u[:, :1]), out, out=out)
    w /= norm
    np.multiply(np.sqrt(e).astype(complex), w, out=w)
    out += w
    return out


def pure_state_oracle(
    v: np.ndarray, cfg: PureStateOracleConfig, rng: np.random.Generator
) -> np.ndarray:
    """A noisy copy of the unit vector v: pure_state_oracles of the stack of one."""
    return pure_state_oracles(np.reshape(v, (1, -1)), cfg, [rng])[0]


def weak_isometry_tomography(targets, cfg: PureStateOracleConfig, rngs) -> np.ndarray:
    """Estimate each isometry of a (T, m, n) stack column by column, then
    snap every estimate to its nearest isometry.

    All T n columns go through one pure_state_oracles call, as the rows of a
    (T n, m) stack with trial t's generator listed for its n columns: trial t
    draws only from rngs[t], column by column, and the trials draw in stack
    order.  One stacked SVD then snaps all T column estimates, each to the
    same bits as alone.  Each returned column carries an unknown phase, so
    an estimate is only meaningful up to a diagonal unitary on the right;
    align_phases removes that freedom using a second run.  The query cost
    per trial is n * cfg.copies_charged(m).
    """
    targets = np.asarray(targets, dtype=complex)
    rngs = list(rngs)
    shape_ok = targets.ndim == 3 and targets.shape[1] >= targets.shape[2] >= 1
    if not shape_ok or len(rngs) != len(targets):
        raise ValueError(
            f"need a (T, m, n) stack with m >= n >= 1 and T generators, "
            f"got {targets.shape} and {len(rngs)}"
        )
    count, m, n = targets.shape
    columns = targets.transpose(0, 2, 1).reshape(count * n, m)
    tilde = pure_state_oracles(columns, cfg, [rng for rng in rngs for _ in range(n)])
    u, _, vh = np.linalg.svd(tilde.reshape(count, n, m).transpose(0, 2, 1), full_matrices=False)
    return u @ vh


def align_phases(vhat1, vhat2) -> np.ndarray:
    """Combine two (T, m, d1) stacks of weak runs (plain target, target @ DFT)
    into T estimates.

    With column phases phi1, phi2 on the two runs, the matrix
    Phi3 = (vhat1^dag vhat2) / F is rank one with entries
    conj(phi1_k) phi2_j, so the ratios Phi3[k, j] / Phi3[k, 0] recover
    phi2_j / phi2_0 independently of k.  Rows whose reference entry is small
    (magnitude below 0.1) borrow the strongest row; real and imaginary
    parts are combined by lower medians for outlier robustness.  The result
    vhat2 Phi^dag F^dag matches the target up to one global phase.  All
    trials are aligned at once, each to the same bits as alone: the phase
    modulus is math.hypot and the phase its real and imaginary parts each
    divided by it, as in complex-by-real division.
    """
    vhat1 = np.asarray(vhat1, dtype=complex)
    vhat2 = np.asarray(vhat2, dtype=complex)
    count, _, d1 = vhat2.shape
    f = dft_matrix(d1)
    phi3 = (dag(vhat1) @ vhat2) / f
    mags = np.abs(phi3[:, :, 0])
    src = np.where(mags >= 0.1, np.arange(d1), np.argmax(mags, axis=1)[:, None])
    rows = np.take_along_axis(phi3, src[:, :, None], axis=1)
    ref = rows[:, :, :1]
    ratios = np.divide(rows, ref, out=np.ones_like(rows), where=np.abs(ref) >= 1e-12)
    # lower medians over the rows k, per trial and column j
    a = np.sort(ratios.real, axis=1)[:, (d1 - 1) // 2]
    b = np.sort(ratios.imag, axis=1)[:, (d1 - 1) // 2]
    mod = np.frompyfunc(math.hypot, 2, 1)(a, b).astype(float)
    ok = mod >= 1e-12
    phases = np.ones((count, d1), dtype=complex)
    phases.real[ok] = a[ok] / mod[ok]
    phases.imag[ok] = b[ok] / mod[ok]
    diag = np.zeros((count, d1, d1), dtype=complex)
    diag[:, np.arange(d1), np.arange(d1)] = phases.conj()
    return vhat2 @ diag @ dag(f)


def _grid_argmin(a: np.ndarray, b: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per pair of the (T, m, n) stacks, the index of the grid angle with the
    least ||a - z b||, z = e^{i theta}: np.argmin over the top eigenvalues of
    the n x n pencils P(z) = G - z C - conj(z) C^dag (G = a^dag a + b^dag b,
    C = a^dag b), eigensolving only the pencils that can hold the minimum.

    P(z) = (a - z b)^dag (a - z b) is PSD with trace F(z) = tr G - 2 Re(z
    tr C) = ||a - z b||_F^2, so F / n <= lambda_max <= F.  A grid point k
    can hold a row's least computed top eigenvalue only if F_k <= n (min_j
    F_j + s) with s = (4 (m n + m + 6 n + 17) u + rho) tr G (u = 2^-53, rho =
    2^-16), and only those pencils are formed and eigensolved, all pairs' in
    one stacked eigvalsh run _CHUNK_BYTES at a time.  A kept pencil and its
    eigenvalues have the same bits as in the full grid, and the least index
    attaining the least value is the full grid's np.argmin, since the pruned
    points, set to inf, are never below it.

    Rounding: the stored G, C and z (|z|^2 = 1 + eta, |eta| <= 4 u) make
    the exact G - z C - conj(z) C^dag = P + D, P PSD and ||D||_2 <= (2 m +
    10) u tr G, from the m-term dot products of G and C and from eta
    ||b||_F^2.  The formed pencil differs from G - z C - conj(z) C^dag by at
    most 18 u tr G in Frobenius norm (a complex product, one conjugate sum
    and one difference per entry), and eigvalsh's backward error is p(n) u
    ||P||_2 <= 2 p(n) u tr G for a modest p(n).  The computed F, from n-term
    diagonal sums, is within (2 n + 6) u tr G of tr(P + D), itself within
    n ||D||_2 of tr P.  So the computed top eigenvalue lies within e = (2 m
    + 28 + 2 p(n)) u tr G of lambda_max(P), and the computed F within e_F =
    (2 m n + 12 n + 6) u tr G of tr P.  Point k holds the least computed
    value only if F_k / n - e_F / n - e <= F_j + e_F + e for every j, which
    implies F_k <= n (min_j F_j + 2 (e + e_F)).  The first term of s is 2 (e
    + e_F) without the eigensolver's 4 p(n) u tr G, and rho = 2^37 u covers
    that and the test's own few roundings for any p(n) below 2^34.
    """
    count, rows, n = a.shape
    z = np.exp(1j * grid)
    gram = dag(a) @ a + dag(b) @ b
    cross = dag(a) @ b
    norms = np.trace(gram, axis1=1, axis2=2).real
    trace = np.trace(cross, axis1=1, axis2=2)
    frob = np.stack([trace.real, -trace.imag], axis=1) @ np.stack([z.real, z.imag])
    frob *= -2.0
    frob += norms[:, None]
    rounding = 4.0 * (rows * n + rows + 6 * n + 17) * linalg._UNIT_ROUNDOFF
    slack = (rounding + linalg._BOUND_SLACK) * norms
    kept = np.flatnonzero(frob <= n * (frob.min(axis=1) + slack)[:, None])
    tops = frob.reshape(-1)  # the bracket is spent: its entries now take the top eigenvalues
    tops.fill(np.inf)
    for run in linalg.chunk_slices(kept.size, 16 * n * n):
        pair, k = np.divmod(kept[run], len(grid))
        shifted = z[k, None, None] * cross[pair]
        pencil = gram[pair] - (shifted + dag(shifted))
        tops[kept[run]] = np.linalg.eigvalsh(pencil)[:, -1]
    return np.argmin(tops.reshape(count, len(grid)), axis=1)


def _phase_newton(a: np.ndarray, b: np.ndarray, center: np.ndarray, step: float) -> np.ndarray:
    """Per pair of the (T, m, n) stacks, the angle in [center - step, center
    + step] of the least lambda(theta) = lambda_max(D^dag D), D = a - e^{i
    theta} b, by a safeguarded Newton iteration on lambda'.

    With z = e^{i theta}, eigenpairs (lambda_k, v_k) of D^dag D and top pair
    (lambda, v): lambda' = 2 Im <D v, z b v> and lambda'' = 2 Re <z b v, D
    v> + 2 ||b v||^2 + 2 sum_k |v_k^dag s|^2 / (lambda - lambda_k), s =
    D^dag z b v - (z b)^dag D v.  Terms whose gap is at most 2^-40 lambda
    are left out, which only lengthens a step: there eigh's eigenvectors are
    off by up to about u / 2^-40 = 1e-4, and at a crossing the coupling is
    rounding noise whose square over the gap could pass for curvature.  The
    sign of lambda' halves the bracket.  Where the top two eigenvalues slope
    opposite ways, they cross downhill at about (lambda - lambda_2) /
    (lambda_2' - lambda'), and the row steps the shorter of that and the
    Newton step -lambda' / lambda'': so a kink at the minimum, where the two
    cross, is found as a root of their difference.  A step of at most
    _PHASE_WIDTH ends the row at the iterate plus that step; this test comes
    first, as the safeguard would send a converged row, whose lambda' is
    rounding noise, across the bracket.  Otherwise the row takes the step if
    it lands inside the bracket and is at most half the row's previous step,
    and bisects if not, as it does where lambda'' <= 0 and no crossing lies
    ahead; a bracket of _PHASE_WIDTH ends the row at its midpoint.
    """
    theta = np.empty_like(center)
    rows = np.arange(len(center))
    x, lo, hi = center, center - step, center + step
    last = np.full_like(center, 2.0 * step)
    while rows.size:
        zb = np.exp(1j * x)[:, None, None] * b
        d = a - zb
        lam, vecs = np.linalg.eigh(dag(d) @ d)
        # D v and z b v for the top two eigenvectors (top last), and their eigenvalues' slopes
        pair = vecs[:, None, :, -2:].conj()
        dv, bv = np.vecdot(pair, d[..., None], axis=2), np.vecdot(pair, zb[..., None], axis=2)
        slopes = 2.0 * np.vecdot(dv, bv, axis=1).imag
        dv, bv, slope = dv[:, :, -1], bv[:, :, -1], slopes[:, -1]
        curv = 2.0 * np.vecdot(bv, dv + bv).real
        # |<D v_k, -i z b v> + <-i z b v_k, D v>| = |v_k^dag s|
        s = np.vecdot(d, bv[:, :, None], axis=1) - np.vecdot(zb, dv[:, :, None], axis=1)
        coupling = np.vecdot(vecs[:, :, :-1], s[:, :, None], axis=1)
        gap = lam[:, -1:] - lam[:, :-1]
        resolved = gap > 2.0**-40 * lam[:, -1:]
        terms = np.divide(coupling.real**2 + coupling.imag**2, gap, out=np.zeros(gap.shape), where=resolved)
        curv += 2.0 * terms.sum(axis=1)
        up = slope > 0.0
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        sound = (curv > 0.0) & np.isfinite(curv)
        newton = np.divide(-slope, curv, out=np.full_like(x, np.inf), where=sound)
        # the top two eigenvalues' crossing (one column when n = 1: never kinked)
        kinked = slope * slopes[:, 0] < 0.0
        rise = slopes[:, 0] - slope
        kink = np.divide(lam[:, -1] - lam[:, -2:][:, 0], rise, out=np.full_like(x, np.inf), where=kinked)
        move = np.where(np.abs(kink) < np.abs(newton), kink, newton)
        converged = np.abs(move) <= _PHASE_WIDTH
        done = converged | (hi - lo <= _PHASE_WIDTH)
        mid = 0.5 * (lo + hi)
        nxt = x + move
        if done.any():
            theta[rows[done]] = np.where(converged, np.clip(nxt, lo, hi), mid)[done]
            keep = ~done
            rows, a, b = rows[keep], a[keep], b[keep]
            x, lo, hi, last, nxt, mid, move = (arr[keep] for arr in (x, lo, hi, last, nxt, mid, move))
        take = (lo < nxt) & (nxt < hi) & (np.abs(move) <= 0.5 * last)
        nxt = np.where(take, nxt, mid)
        last, x = np.abs(nxt - x), nxt
    return theta


def min_phase_op_error(a: np.ndarray, b: np.ndarray):
    """min over theta of the operator norm of a - e^{i theta} b.

    a and b are one pair of matrices, or two stacks (T, m, n) of pairs; a
    stack returns the T minima as an array, each equal bit for bit to its
    pair's minimum alone.  Per pair, a 360-point grid picks the bracket of a
    safeguarded Newton iteration.  For |z| = 1, ||a - z b||^2 is the largest
    eigenvalue of the n x n pencil a^dag a + b^dag b - z a^dag b -
    conj(z) b^dag a.  Its trace ||a - z b||_F^2 is a closed form, and the
    Frobenius bracket trace / n <= ||a - z b||^2 <= trace, with a rounding
    slack of about 2^-16 (||a||_F^2 + ||b||_F^2), prunes the grid: only the
    kept pencils of all pairs are eigensolved, as one stacked eigvalsh (see
    _grid_argmin).  In 60-pair tomography batches at eps 0.05 to 0.2 and
    d1 = 1 to 4, a pair keeps 1 to 4 of the 360 points in the median and at
    most 6; a = 0 keeps all 360.  The bracket centre is bit for bit the full
    grid's np.argmin.

    A safeguarded Newton iteration (_phase_newton) then runs all pairs at
    once on the top eigenvalue of the formed difference's Gram matrix, its
    first and second derivatives from the same stacked eigh, until the
    minimizer is pinned to _PHASE_WIDTH = 1e-14 rad, the width a 60-step
    golden section reaches from the same bracket.  A smooth minimum takes
    about 5 iterations, and so does a kink, where the top two singular
    values cross (for two unitaries whose a^dag b has distinct eigenvalues,
    the minimum is one), found as a root of their difference; where neither
    step serves, the bracket is bisected down to that width, in about 41
    iterations.  Pairs leave the stack as they converge and every product is
    per pair, which keeps each pair's bits.  The value is the lesser
    linalg.operator_norm of the differences at the found angle and at the
    bracket centre, one stacked call, so it is the norm of a formed
    difference, with no cancellation: an isometry against itself under any
    phase gives about 1e-15, where a pencil's top eigenvalue would floor
    near sqrt(u) = 1e-8.

    Range: the grid and the search form Grams, and the search squares
    Gram-sized numbers, so a pair whose trace ||a||_F^2 + ||b||_F^2 lies
    outside _PHASE_RANGE = [2^-500, 2^500], or is nan, runs both on a and b
    scaled exactly by one power of two (linalg._power_of_two_scaled, the
    rescale of linalg.operator_norm), with its largest real or imaginary
    part in [1/2, 1).  The value is still the norm of the pair's own
    differences, so a pair in range keeps its bits, and the minimum is right
    from subnormal entries up to about 1e300.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim not in (2, 3) or a.shape != b.shape or 0 in a.shape[-2:]:
        raise ValueError(
            "a and b must be matrices or stacks of one shape with at least one row and "
            f"column, got {a.shape} and {b.shape}"
        )
    pair = a.ndim == 2
    if pair:
        a, b = a[None], b[None]
    both = np.stack([a, b], axis=1)
    with np.errstate(over="ignore"):  # an overflowed trace is out of range, as it should be
        trace = np.square(both.view(float)).sum(axis=(1, 2, 3))
    scaled = linalg._power_of_two_scaled(both, trace, *_PHASE_RANGE)
    if scaled is not None:
        redo, _, parts = scaled
        both[redo] = parts
    grid = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    center = grid[_grid_argmin(both[:, 0], both[:, 1], grid)]
    theta = _phase_newton(both[:, 0], both[:, 1], center, grid[1] - grid[0])
    phases = np.exp(1j * np.stack([theta, center]))[:, :, None, None]
    best = operator_norm(a - phases * b).min(axis=0)
    return float(best[0]) if pair else best


def _oracle_config(eps: float) -> PureStateOracleConfig:
    """Per-column noise eps_max = eps^2 / 64 of a run to accuracy eps in [MIN_EPS, 1]."""
    eps = float(eps)
    if not MIN_EPS <= eps <= 1.0:
        raise ValueError(f"eps must lie in [{MIN_EPS:g}, 1], got {eps}")
    return PureStateOracleConfig(eps_max=eps * eps / 64.0)


def two_run_estimates(targets: np.ndarray, cfg: PureStateOracleConfig, rngs: list) -> np.ndarray:
    """Each isometry of a (T, m, d1) stack estimated by two weak runs (plain
    target, then target @ DFT, from the trial's one generator) aligned into
    one estimate.

    Both runs of every trial make one weak_isometry_tomography stack, run k
    of trial t at row 2t + k, so a generator serves its trial's runs in
    order.
    """
    count, rows, d1 = targets.shape
    runs = np.stack([targets, targets @ dft_matrix(d1)], axis=1).reshape(2 * count, rows, d1)
    vhat = weak_isometry_tomography(runs, cfg, [rng for rng in rngs for _ in range(2)])
    vhat = vhat.reshape(count, 2, rows, d1)
    return align_phases(vhat[:, 0], vhat[:, 1])


class TomographyBatch(NamedTuple):
    """Outcome of one isometry_tomography or channel_tomography call, one row
    per target in target order.

    estimates is the (T, rows, d1) stack of estimated isometries, one per
    target: in channel_tomography the targets are (r d2, d1) dilations, and
    Isometry(estimates[k]).channel(d2) is trial k's channel estimate,
    its Choi matrix bit for bit the one the batch measured.  op_errors are
    the operator-norm errors minimized over a global phase, or None from
    channel_tomography, whose success is judged on choi_errors alone;
    choi_errors are the normalized Choi trace distances of the induced
    channels.  queries_charged is the total over the trials, each charged
    alike.  Further distances, such as a diamond bracket, are for the caller
    to ask of metrics.  A NamedTuple, which costs less to create at import
    than a frozen dataclass.
    """

    estimates: np.ndarray
    op_errors: np.ndarray | None
    choi_errors: np.ndarray
    success: np.ndarray
    queries_charged: int


def isometry_tomography(targets, eps: float, rngs) -> TomographyBatch:
    """Full isometry estimation of each target to operator-norm error eps/2.

    An isometry is its own dilation of one Kraus block: the batch is
    channel_tomography(targets, rows, eps, rngs), plus one stacked
    min_phase_op_error of all trials, and success is twice that error at
    most eps.  The success guarantee is derived for eps <= 1/8; larger values
    (up to 1) run the same procedure with extra slack.
    """
    targets = list(targets)
    matrices = np.stack([target.matrix for target in targets])
    batch = channel_tomography(targets, matrices.shape[1], eps, rngs)
    op_errors = min_phase_op_error(matrices, batch.estimates)
    return batch._replace(op_errors=op_errors, success=2.0 * op_errors <= float(eps))


def channel_tomography(targets, d2: int, eps: float, rngs) -> TomographyBatch:
    """Estimate each channel of a batch through its own dilation.

    targets is a sequence of Isometry objects of one shape (r d2, d1): the
    dilations the channels are the contractions of, ancilla first (as from
    channels.random_dilations, or dilate(ch, r)), with r = rows // d2.  rngs
    holds one generator per target: trial k draws only from rngs[k].  eps,
    the list lengths and d2 dividing the rows are checked before any draw.
    Each trial runs the weak column procedure twice (second time against
    dilation @ DFT) with per-column noise eps_max = eps^2 / 64 and aligns
    the phases, each stage once for the batch.  An estimate is the
    contraction of its estimated dilation, and the Choi error is taken
    against the target's, in stacked eigvalsh runs of about
    linalg._CHUNK_BYTES each.  Success means the normalized Choi trace
    distance is at most eps, and op_errors is None.  A row equals that of
    its trial run alone.
    """
    cfg = _oracle_config(eps)
    targets, rngs = list(targets), list(rngs)
    if len(targets) != len(rngs):
        raise ValueError(f"{len(targets)} targets but {len(rngs)} generators")
    dilations = np.stack([target.matrix for target in targets])
    count, rows, d1 = dilations.shape
    if d2 < 1 or rows % d2:
        raise ValueError(f"dilation rows {rows} are not a multiple of d2 = {d2}")
    r = rows // d2
    estimates = two_run_estimates(dilations, cfg, rngs)
    kraus = [v.reshape(count, r, d2, d1) for v in (estimates, dilations)]
    runs = linalg.chunk_slices(count, 16 * (d1 * d2) ** 2)
    choi_errors = np.concatenate(
        [choi_trace_distances(*(choi_from_kraus(k[run]) for k in kraus), d1) for run in runs]
    )
    queries = 2 * d1 * cfg.copies_charged(rows) * count
    return TomographyBatch(estimates, None, choi_errors, choi_errors <= eps, queries)
