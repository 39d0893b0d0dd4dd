"""Low-order Haar moments: the one- and two-fold twirl and fourth moments.

Everything here is restricted to first and second moments (plus the fourth
moment of matrix elements, which is what the closed-form trace formula below
resolves), which is all the rest of the package needs. Closed forms are
paired with Monte Carlo estimators so each can certify the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import partial_trace

__all__ = [
    "twirl",
    "twirl1",
    "twirl2",
    "fourth_moment_trace",
    "MonteCarloEstimate",
    "mc_fourth_moment_trace",
    "mc_fourth_moment_traces",
    "mc_verdict",
]

_ALPHA = math.erfc(5 / math.sqrt(2))  # one Monte Carlo gate's false-alarm rate: the 5-sigma normal tails


def twirl(m: np.ndarray, dims, positions) -> np.ndarray:
    """Average of U^(x n) M (U^dag)^(x n) over Haar U on the n = 1 or 2 target
    factors at positions, which share one dimension d.

    The closed form (Weingarten calculus) expands in the permutations of the
    targets; with M_I = tr_t(M) and M_S = tr_t((S (x) I) M), S their swap,

        one target:   twirl(M) = I (x) X_I,            X_I = M_I / d,
        two targets:  twirl(M) = I (x) X_I + S (x) X_S,
                      X_I = (d M_I - M_S) / (d (d^2 - 1)),
                      X_S = (d M_S - M_I) / (d (d^2 - 1)).

    Both traces are partial traces of M's tensor, the second with its two target
    row axes swapped, and each X term is written onto the diagonal of the target
    axes of the result, the swap term's with its two target column axes
    exchanged: no permutation matrix or tensor product is formed.
    """
    dims = tuple(int(d) for d in dims)
    pos = sorted(int(p) for p in positions)
    if not 1 <= len(pos) <= 2:
        raise ValueError(f"twirls are implemented for n <= 2 target factors, not {len(pos)}")
    if len(set(pos)) < len(pos):
        raise ValueError("the swap permutation needs two distinct target factors")
    m_i = partial_trace(m, dims, pos)
    d = dims[pos[0]]
    if dims[pos[-1]] != d:
        raise ValueError("twirl targets must share one dimension")
    m = np.asarray(m, dtype=complex)
    if d == 1:
        return m.copy()
    k = len(dims)
    if len(pos) == 1:
        terms = [(pos, m_i / d)]
    else:
        p, q = pos
        m_s = partial_trace(m.reshape(dims + dims).swapaxes(p, q).reshape(m.shape), dims, pos)
        denom = d * (d * d - 1.0)
        terms = [(pos, (d * m_i - m_s) / denom), ([q, p], (d * m_s - m_i) / denom)]
    # each term's X lands where the target row axes equal its target column axes
    out = np.zeros(dims + dims, dtype=complex)
    diagonal = np.ix_(*[range(d)] * len(pos)) * 2
    rest = [dims[i] for i in range(k) if i not in pos] * 2
    for cols, x in terms:
        axes = pos + [k + c for c in cols]
        np.moveaxis(out, axes, range(len(axes)))[diagonal] += x.reshape(rest)
    return out.reshape(m.shape)


def twirl1(m: np.ndarray, dims, position: int) -> np.ndarray:
    """The twirl over the one factor at position: identity/d tensor the partial trace."""
    return twirl(m, dims, [position])


def twirl2(m: np.ndarray, dims, positions) -> np.ndarray:
    """The twirl over exactly two target factors: (U tensor U) M (U tensor U)^dag averaged."""
    positions = list(positions)
    if len(positions) != 2:
        raise ValueError("twirl2 needs exactly two target factors")
    return twirl(m, dims, positions)


def _square_operators(a1, b1, a2, b2) -> list[np.ndarray]:
    """The four operators as complex arrays, all square and of one size."""
    ops = [np.asarray(x, dtype=complex) for x in (a1, b1, a2, b2)]
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(x.shape != shape for x in ops):
        raise ValueError("all four operators must be square and equal size")
    return ops


def fourth_moment_trace(a1, b1, a2, b2) -> complex:
    """Closed form of E_U tr(U A1 U^dag B1 U A2 U^dag B2) over Haar U(d)."""
    a1, b1, a2, b2 = _square_operators(a1, b1, a2, b2)
    d = a1.shape[0]
    ta1, ta2 = np.trace(a1), np.trace(a2)
    tb1, tb2 = np.trace(b1), np.trace(b2)
    ta12 = np.trace(a1 @ a2)
    tb12 = np.trace(b1 @ b2)
    if d == 1:
        return complex(ta1 * ta2 * tb1 * tb2)
    c1 = 1.0 / (d * d - 1.0)
    c2 = 1.0 / (d * (d * d - 1.0))
    val = c1 * (tb1 * tb2 * ta12 + tb12 * ta1 * ta2)
    val -= c2 * (tb12 * ta12 + tb1 * tb2 * ta1 * ta2)
    return complex(val)


class MonteCarloEstimate(NamedTuple):
    mean: complex
    stderr_real: float
    stderr_imag: float
    n_samples: int


def mc_fourth_moment_trace(a1, b1, a2, b2, *, unitaries: np.ndarray) -> MonteCarloEstimate:
    """Monte Carlo twin of fourth_moment_trace over a (count, d, d) Haar batch, count >= 1."""
    a1, b1, a2, b2 = _square_operators(a1, b1, a2, b2)
    d = a1.shape[0]
    us = np.asarray(unitaries, dtype=complex)
    if us.ndim != 3 or us.shape[1:] != (d, d):
        raise ValueError("unitary batch shape does not match the operators")
    return _monte_carlo(_batch_chunks(us), [(a1, b1, a2, b2)])[0]


def mc_fourth_moment_traces(quadruples, samples: int, rng: np.random.Generator) -> list:
    """Monte Carlo twins of fourth_moment_trace for several quadruples over one Haar sample.

    The unitaries are those of linalg.haar_unitaries(d, samples, rng), that is
    samples successive linalg.haar_unitary draws, and rng ends where they leave
    it, but they arrive straight from the Haar sampler (linalg._isometry_chunks
    with one (rng, samples) run) as chunks that every quadruple reads while they
    are in cache, and each chunk's values are merged into running statistics, so
    nothing grows with samples. samples must be at least 1.
    """
    quads = [_square_operators(*ops) for ops in quadruples]
    d = quads[0][0].shape[0]
    if any(ops[0].shape[0] != d for ops in quads):
        raise ValueError("all quadruples must share one dimension")
    return _monte_carlo(linalg._isometry_chunks(d, d, [(rng, samples)]), quads)


# the totals of no samples, from which _merge starts
_NO_SAMPLES = (0, 0.0, 0.0)


def _monte_carlo(chunks, quads) -> list:
    """Each quadruple's estimate over a stream of unitary chunks, merged chunk by chunk."""
    totals = _NO_SAMPLES
    for vals in _fourth_moment_values(chunks, quads):
        totals = _merge(totals, np.stack((vals.real, vals.imag), axis=1))
    n, mean, stderr = _statistics(totals)
    return [MonteCarloEstimate(complex(*mu), *map(float, se), n) for mu, se in zip(mean, stderr)]


def _merge(totals: tuple, vals: np.ndarray) -> tuple:
    """Fold vals, a chunk of real samples along its last axis, into running totals.

    The totals are (count, mean, M2), mean and M2 having vals' shape without its last
    axis and M2 being the sum of squared deviations from the mean. The chunk's count,
    mean and M2 join them by the pairwise update of Chan, Golub and LeVeque (1983), so
    no sample outlives its chunk; vals is overwritten with its squared deviations.
    """
    count, mean, m2 = totals
    n = vals.shape[-1]
    chunk_mean = vals.mean(axis=-1)
    vals -= chunk_mean[..., None]
    chunk_m2 = np.square(vals, out=vals).sum(axis=-1)
    delta = chunk_mean - mean
    total = count + n
    return total, mean + delta * (n / total), m2 + chunk_m2 + delta * delta * (count * n / total)


def _statistics(totals: tuple) -> tuple:
    """(n, mean, stderr) of merged totals; one sample has an infinite stderr, and none
    raises ValueError."""
    n, mean, m2 = totals
    if n < 1:
        raise ValueError("the Monte Carlo needs at least 1 sample")
    if n > 1:
        return n, mean, np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return n, mean, np.full_like(m2, float("inf"))


def mc_verdict(excess, stderr, n: int, exact) -> tuple:
    """The one Monte Carlo gate for means over n >= 2 samples (ValueError below): each excess,
    |mean - exact| or a shortfall against a bound exact, passes at most the two-sided _ALPHA
    Student-t quantile for n - 1 degrees of freedom times its stderr, plus 1e-10 max(1, |exact|)
    of rounding. Arrays broadcast. Returns (max of excess / max(stderr, 1e-15), ok)."""
    if n < 2:
        raise ValueError(f"the Monte Carlo gate needs at least 2 samples, not {n}")
    ok = np.all(excess <= _t_quantile(n - 1) * stderr + 1e-10 * np.maximum(1.0, np.abs(exact)))
    return float(np.max(excess / np.maximum(stderr, 1e-15))), bool(ok)


def _t_quantile(nu: int) -> float:
    """The two-sided _ALPHA quantile of Student's t with nu >= 1 degrees of freedom.

    Hill's closed form (1970, CACM Algorithm 396): exact at nu = 1 and 2, and within
    5e-7 relative up to nu = 1e8. The normal deviate it expands about, that of the lower
    tail _ALPHA / 2, is -5 by the choice of _ALPHA.
    """
    p = _ALPHA
    if nu == 1:
        return 1 / math.tan(p * math.pi / 2)
    if nu == 2:
        return math.sqrt(2 / (p * (2 - p)) - 2)
    a = 1 / (nu - 0.5)
    b = 48 / (a * a)
    c = ((20700 * a / b - 98) * a - 16) * a + 96.36
    d = ((94.5 / (b + c) - 3) / b + 1) * math.sqrt(a * math.pi / 2) * nu
    y = (d * p) ** (2 / nu)
    if y > 0.05 + a:
        x = -5.0
        y = x * x
        if nu < 5:
            c += 0.3 * (nu - 4.5) * (x + 0.6)
        c += (((0.05 * d * x - 5) * x - 7) * x - 2) * x + b
        y = (((((0.4 * y + 6.3) * y + 36) * y + 94.5) / c - y - 3) / b + 1) * x
        y = math.expm1(a * y * y)
    else:
        e = 1 / (((nu + 6) / (nu * y) - 0.089 * d - 0.822) * (nu + 2) * 3) + 0.5 / (nu + 4)
        y = (e * y - 1) * (nu + 1) / (nu + 2) + 1 / y
    return math.sqrt(nu * y)


def _batch_chunks(us: np.ndarray):
    """The batch us in chunks of linalg._CHUNK_BYTES moved to the (column, row, sample)
    layout of the chunks of linalg._isometry_chunks, and over the same chunk boundaries."""
    n, d, _ = us.shape
    for run in linalg.chunk_slices(n, 16 * d * d):
        yield np.ascontiguousarray(us[run].transpose(2, 1, 0))


def _fourth_moment_values(chunks, quads):
    """Yield each quadruple's tr(X1 Y1 X2 Y2), Xk = U Ak and Yk = U^dag Bk, for the
    unitaries of each chunk uk[k, i, :] = U[i, k] of a stream, as a (quadruples, n)
    view into one buffer that the next chunk overwrites.

    A fixed operator is one GEMM on a (d, d m) reshape, a batched d x d product one
    einsum, and all of them write into one workspace of four arrays the size of the
    first chunk, made once and reused by every chunk, as is the values buffer.
    """
    work = values = None
    for uk in chunks:
        d, _, n = uk.shape
        if work is None:
            work = np.empty((4, uk.size), dtype=complex)
            values = np.empty((len(quads), n), dtype=complex)
        uc, x, y, q = (w[: uk.size].reshape(d, d, n) for w in work)
        # X2 Y2 in the (j, i, sample) memory order einsum gives its own output, which fixes
        # the order in which the trace below sums, and so its bits
        q = q.transpose(1, 0, 2)
        np.conjugate(uk.transpose(1, 0, 2), out=uc)
        for (a1, b1, a2, b2), out in zip(quads, values[:, :n]):
            np.einsum("kib,jkb->ijb", _gemm(a2, uk, x), _gemm(b2, uc, y), out=q)
            np.einsum("kib,jkb,jib->b", _gemm(a1, uk, x), _gemm(b1, uc, y), q, out=out)
        yield values[:, :n]


def _gemm(f: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(V F)^T into out, for v[k, i, :] = V[i, k] (V = U or U^dag) over a chunk."""
    d = f.shape[0]
    np.matmul(f.T, v.reshape(d, -1), out=out.reshape(d, -1))
    return out
