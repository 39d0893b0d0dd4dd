"""Distances between channels: Choi trace distance, fidelity, diamond norm.

The diamond distance comes as a dual route pair: a see-saw ascent over pure
inputs gives a certified lower bound (every iterate is a feasible value of
the maximization), and the Choi trace norm gives the upper bound

    (1/d_in) ||C_a - C_b||_1  <=  ||a - b||_diamond  <=  ||C_a - C_b||_1.

For unitary channels an exact closed form is available for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import (
    ATOL,
    dag,
    hermitianize,
    psd_sqrt,
    random_pure_state,
    trace_norm,
)

__all__ = [
    "DiamondEstimate",
    "choi_trace_distance",
    "channel_fidelity",
    "fidelity_trace_conversion",
    "diamond_distance",
    "unitary_diamond_distance",
]


def _check_same_shape(a: Channel, b: Channel) -> None:
    if a.d_in != b.d_in or a.d_out != b.d_out:
        raise ValueError("channels act between different spaces")


def choi_trace_distance(a: Channel, b: Channel) -> float:
    """(1/d_in) || C_a - C_b ||_1."""
    _check_same_shape(a, b)
    return trace_norm(a.choi - b.choi) / a.d_in


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
    """See-saw lower bound, trace-norm upper bound, and the best witness."""

    lower: float
    upper: float
    witness_state: np.ndarray
    converged: bool
    iterations: int


def _lifted_kraus(ch: Channel) -> list:
    """Kraus operators of ch kron id_ref with ref a copy of the input."""
    d = ch.d_in
    return [np.kron(e, np.eye(d)) for e in ch.kraus]


def _seesaw_from(psi, ka, kb, tol, max_iter):
    """Alternating ascent on f(psi) = || (Delta kron id)(|psi><psi|) ||_1."""
    f_prev = -np.inf
    iterations = 0
    converged = False
    while iterations < max_iter:
        xs = np.stack([k @ psi for k in ka])
        ys = np.stack([k @ psi for k in kb])
        omega = xs.T @ xs.conj() - ys.T @ ys.conj()
        w, v = np.linalg.eigh(hermitianize(omega))
        f = float(np.sum(np.abs(w)))
        sign = np.sign(w)
        wmat = (v * sign) @ dag(v)
        m = sum(dag(k) @ wmat @ k for k in ka) - sum(dag(k) @ wmat @ k for k in kb)
        mw, mv = np.linalg.eigh(hermitianize(m))
        psi = mv[:, -1]
        iterations += 1
        if f - f_prev < tol:
            converged = True
            f_prev = max(f_prev, f)
            break
        f_prev = f
    return f_prev, psi, converged, iterations


def diamond_distance(
    a: Channel,
    b: Channel,
    *,
    restarts: int = 16,
    rng: np.random.Generator | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> DiamondEstimate:
    """Dual-route diamond distance estimate.

    The lower route runs a see-saw over pure inputs on in kron ref (ref a copy
    of the input): alternately take the optimal trace-norm witness of the
    output and the top eigenvector of its pull-back. The maximally entangled
    start is always included, so lower >= (1/d_in)||C_a - C_b||_1 up to the
    ascent tolerance; the remaining restarts are Haar random. The upper route
    is the Choi trace norm.
    """
    _check_same_shape(a, b)
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(0) if rng is None else rng
    d = a.d_in
    ka = _lifted_kraus(a)
    kb = _lifted_kraus(b)
    me = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    inits = [me] + [random_pure_state(d * d, rng) for _ in range(restarts - 1)]
    best = (-np.inf, me, False, 0)
    total_iter = 0
    all_converged = True
    for psi0 in inits:
        f, psi, conv, iters = _seesaw_from(psi0, ka, kb, tol, max_iter)
        total_iter += iters
        all_converged = all_converged and conv
        if f > best[0]:
            best = (f, psi, conv, iters)
    upper = trace_norm(a.choi - b.choi)
    lower = min(best[0], upper)
    return DiamondEstimate(
        lower=float(lower),
        upper=float(upper),
        witness_state=best[1],
        converged=all_converged,
        iterations=total_iter,
    )


def _hull_distance(points: np.ndarray) -> float:
    """Distance from the origin to the convex hull of points in the plane.

    Exact for finitely many points: the support function max over candidate
    directions (each point's own direction and each pair's segment normals)
    of the minimal projection; clipped at zero when the origin is inside.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if pts.size == 1:
        return float(abs(pts[0]))
    best = 0.0
    dirs = []
    for p in pts:
        if abs(p) > 0:
            dirs.append(p / abs(p))
    n = pts.size
    for i in range(n):
        for j in range(i + 1, n):
            seg = pts[j] - pts[i]
            if abs(seg) > 0:
                nrm = 1j * seg / abs(seg)
                dirs.append(nrm)
                dirs.append(-nrm)
    for u in dirs:
        m = float(np.min((pts * np.conj(u)).real))
        if m > best:
            best = m
    return best


def unitary_diamond_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Exact diamond distance 2 sqrt(1 - nu^2) between unitary channels.

    nu is the distance from the origin to the convex hull of eig(U^dag V).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("need two square matrices of equal dimension")
    for name, m in (("u", u), ("v", v)):
        defect = float(np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))))
        if defect > ATOL * 10:
            raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    evs = np.linalg.eigvals(dag(u) @ v)
    nu = min(_hull_distance(evs), 1.0)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - nu * nu)))
