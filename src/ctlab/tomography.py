"""Isometry and channel estimation from a noisy pure-state preparation oracle.

The oracle hands out approximate copies of the columns of a target isometry,
each damaged by an adversarial-strength perturbation and an unknown global
phase.  Column estimates are snapped to the nearest isometry by SVD; running
the procedure twice, the second time against the target precomposed with a
DFT, pins down the relative column phases.  Channel estimation reuses the
same machinery on a fixed dilation of the target channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Channel, Dilation, Isometry, dilate
from .linalg import dft_matrix, operator_norm
from .metrics import choi_trace_distance

__all__ = [
    "PureStateOracleConfig",
    "pure_state_oracle",
    "weak_isometry_tomography",
    "align_phases",
    "min_phase_op_error",
    "TomographyReport",
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

    def copies_charged(self, d: int) -> int:
        """Query cost of one column estimate in dimension d (0 when exact)."""
        if self.eps_max == 0.0:
            return 0
        return math.ceil(d / self.eps_max)


def pure_state_oracle(
    v: np.ndarray, cfg: PureStateOracleConfig, rng: np.random.Generator
) -> np.ndarray:
    """A noisy copy of the unit vector v, with a uniformly random phase.

    The output is phase * (sqrt(1 - e) v + ...) with e drawn uniformly from
    [0, eps_max] and the orthogonal part Haar random in the complement of v.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = v.shape[0]
    phase = np.exp(2j * np.pi * rng.uniform())
    if cfg.eps_max == 0.0 or d == 1:
        return phase * v
    e = cfg.eps_max * rng.uniform()
    while True:
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w = g - v * (v.conj() @ g)
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            break
    w /= norm
    return phase * (math.sqrt(1.0 - e) * v) + math.sqrt(e) * w


def weak_isometry_tomography(
    target: Isometry, cfg: PureStateOracleConfig, rng: np.random.Generator
) -> Isometry:
    """Estimate target column by column, then snap to the nearest isometry.

    Each returned column carries an unknown phase, so the estimate is only
    meaningful up to a diagonal unitary on the right; align_phases removes
    that freedom using a second run.  The query cost is
    target.d_in * cfg.copies_charged(target.d_out).
    """
    cols = [pure_state_oracle(target.matrix[:, k], cfg, rng) for k in range(target.d_in)]
    tilde = np.column_stack(cols)
    u, _, vh = np.linalg.svd(tilde, full_matrices=False)
    return Isometry(u @ vh)


def _lower_median(values: np.ndarray) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[(len(v) - 1) // 2])


def align_phases(vhat1: Isometry, vhat2: Isometry, d1: int) -> Isometry:
    """Combine two weak runs (plain target, target @ DFT) into one estimate.

    With column phases phi1, phi2 on the two runs, the matrix
    Phi3 = (vhat1^dag vhat2) / F is rank one with entries
    conj(phi1_k) phi2_j, so the ratios Phi3[k, j] / Phi3[k, 0] recover
    phi2_j / phi2_0 independently of k.  Rows whose reference entry is small
    (magnitude below 0.1) borrow the strongest row; real and imaginary
    parts are combined by lower medians for outlier robustness.  The result
    vhat2 Phi^dag F^dag matches the target up to one global phase.
    """
    d1 = int(d1)
    f = dft_matrix(d1)
    phi3 = (vhat1.matrix.conj().T @ vhat2.matrix) / f
    mags = np.abs(phi3[:, 0])
    best = int(np.argmax(mags))
    rows = []
    for k in range(d1):
        src = k if mags[k] >= 0.1 else best
        ref = phi3[src, 0]
        if abs(ref) < 1e-12:
            rows.append(np.ones(d1, dtype=complex))
        else:
            rows.append(phi3[src, :] / ref)
    ratios = np.array(rows)
    phases = np.ones(d1, dtype=complex)
    for j in range(d1):
        a = _lower_median(ratios[:, j].real)
        b = _lower_median(ratios[:, j].imag)
        mod = math.hypot(a, b)
        if mod >= 1e-12:
            phases[j] = (a + 1j * b) / mod
    aligned = vhat2.matrix @ np.diag(phases.conj()) @ f.conj().T
    return Isometry(aligned)


@dataclass(frozen=True)
class TomographyReport:
    """Outcome of one estimation run: a trial of an isometry_tomography
    batch, or a channel_tomography call.

    op_error is the operator-norm error of the isometry estimate minimized
    over a global phase (one row of the batch's stacked
    min_phase_op_error), or None from channel_tomography, whose success is
    judged on choi_error alone; choi_error is the normalized Choi trace
    distance of the induced channels.  Further distances, such as a diamond
    bracket, are for the caller to ask of metrics.
    """

    estimate: object
    queries_charged: int
    op_error: float | None
    choi_error: float
    success: bool


def _grid_argmin(a: np.ndarray, b: np.ndarray, grid: np.ndarray) -> int:
    """Index of the grid angle with the least ||a - e^{i theta} b||, from the n x n pencils."""
    ah = a.conj().T
    shifted = np.exp(1j * grid)[:, None, None] * (ah @ b)
    pencil = (ah @ a + b.conj().T @ b) - (shifted + shifted.conj().transpose(0, 2, 1))
    return int(np.argmin(np.linalg.eigvalsh(pencil)[:, -1]))


def min_phase_op_error(a: np.ndarray, b: np.ndarray):
    """min over theta of the operator norm of a - e^{i theta} b.

    a and b are one pair of matrices, or two stacks (T, m, n) of pairs; a
    stack returns the T minima as an array, each equal bit for bit to its
    pair's minimum alone.  Per pair, a 360-point grid picks the bracket of a
    golden-section search.  For |z| = 1, ||a - z b||^2 is the largest
    eigenvalue of the n x n pencil a^dag a + b^dag b - z a^dag b -
    conj(z) b^dag a, so the grid is one stacked eigvalsh of n x n matrices
    per pair.  The golden section (60 steps) runs all pairs at once: each
    of its 63 evaluations is one stacked SVD of the a - e^{i theta} b, so
    every reported value is such an SVD, and each pair keeps its own bracket.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim not in (2, 3) or a.shape != b.shape:
        raise ValueError(
            f"a and b must be matrices or stacks of one shape, got {a.shape} and {b.shape}"
        )
    pair = a.ndim == 2
    if pair:
        a, b = a[None], b[None]

    def val(theta: np.ndarray) -> np.ndarray:
        return operator_norm(a - np.exp(1j * theta)[:, None, None] * b)

    grid = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    center = grid[[_grid_argmin(ak, bk, grid) for ak, bk in zip(a, b)]]
    step = grid[1] - grid[0]
    lo, hi = center - step, center + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = val(x1), val(x2)
    for _ in range(60):
        # rows with f1 <= f2 keep [lo, x2] and probe a new x1, the others keep [x1, hi]
        left = f1 <= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x1, x2 = (
            np.where(left, hi - invphi * (hi - lo), x2),
            np.where(left, x1, lo + invphi * (hi - lo)),
        )
        probed = val(np.where(left, x1, x2))
        f1, f2 = np.where(left, probed, f2), np.where(left, f1, probed)
    best = np.minimum(np.minimum(val(center), f1), f2)
    return float(best[0]) if pair else best


def _oracle_config(eps: float) -> PureStateOracleConfig:
    """Per-column noise eps_max = eps^2 / 64 of a run to accuracy eps in (0, 1]."""
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return PureStateOracleConfig(eps_max=eps * eps / 64.0)


def _estimate_isometry(
    target: Isometry, cfg: PureStateOracleConfig, rng: np.random.Generator
) -> tuple:
    """Two weak runs (plain target, target @ DFT) aligned into one estimate.

    Returns (estimate, queries charged); the caller measures the error it
    reports.
    """
    d1 = target.d_in
    vhat1 = weak_isometry_tomography(target, cfg, rng)
    rotated = Isometry(target.matrix @ dft_matrix(d1))
    vhat2 = weak_isometry_tomography(rotated, cfg, rng)
    estimate = align_phases(vhat1, vhat2, d1)
    queries = 2 * d1 * cfg.copies_charged(target.d_out)
    return estimate, queries


class TomographyBatch(NamedTuple):
    """Outcome of one isometry_tomography call: a report per target, in
    target order, and the sum of their query charges.  A NamedTuple, which
    costs less to create at import than a frozen dataclass."""

    reports: tuple
    queries_charged: int


def isometry_tomography(targets, eps: float, rngs) -> TomographyBatch:
    """Full isometry estimation of each target to operator-norm error eps/2.

    targets is a sequence of isometries of one shape, and rngs one generator
    per target: trial k draws only from rngs[k].  Each trial runs the weak
    column procedure twice (second time against target @ DFT) with
    per-column noise eps_max = eps^2 / 64 and aligns the phases; then one
    stacked min_phase_op_error verifies all trials.  A report equals that
    of its trial run alone.  The success guarantee is derived for
    eps <= 1/8; larger values (up to 1) run the same procedure with extra
    slack.
    """
    cfg = _oracle_config(eps)
    targets, rngs = list(targets), list(rngs)
    if len(targets) != len(rngs):
        raise ValueError(f"{len(targets)} targets but {len(rngs)} generators")
    runs = [_estimate_isometry(target, cfg, rng) for target, rng in zip(targets, rngs)]
    op_errors = min_phase_op_error(
        np.stack([target.matrix for target in targets]),
        np.stack([estimate.matrix for estimate, _ in runs]),
    ).tolist()
    reports = tuple(
        TomographyReport(
            estimate=estimate,
            queries_charged=queries,
            op_error=op_error,
            choi_error=choi_trace_distance(estimate.channel(), target.channel()),
            success=2.0 * op_error <= float(eps),
        )
        for target, (estimate, queries), op_error in zip(targets, runs, op_errors)
    )
    return TomographyBatch(reports, sum(rep.queries_charged for rep in reports))


def channel_tomography(
    target: Channel, r: int, eps: float, rng: np.random.Generator
) -> TomographyReport:
    """Estimate a channel through a fixed r-slot dilation.

    The query model fixes one dilation isometry of the target (zero padded
    to ancilla dimension r) and runs isometry estimation against it; the
    returned channel is the contraction of the estimated dilation.  Success
    means the normalized Choi trace distance is at most eps, so no
    phase-minimized operator error is computed and op_error is None.
    """
    if r < target.rank:
        raise ValueError(f"ancilla budget r={r} below the target rank {target.rank}")
    cfg = _oracle_config(eps)
    dil = dilate(target, r)
    est_iso, queries = _estimate_isometry(Isometry(dil.matrix), cfg, rng)
    est_channel = Dilation(est_iso.matrix, r, target.d_out).contract()
    choi_error = choi_trace_distance(est_channel, target)
    return TomographyReport(
        estimate=est_channel,
        queries_charged=queries,
        op_error=None,
        choi_error=choi_error,
        success=choi_error <= eps,
    )
