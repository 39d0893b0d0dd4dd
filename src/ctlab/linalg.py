"""Shared dense linear algebra and conventions.

Conventions used throughout the package:

* operators are ``complex128`` numpy arrays in C (row-major) order;
* vectorization is row-major, so ``vec(X Y Z) = (X kron Z^T) vec(Y)`` and
  ``<<X|Y>> = tr(X^dag Y)``; for a dyad, ``vec(|psi><phi|) = psi kron conj(phi)``;
* in tensor products the first factor carries the most significant index,
  matching ``numpy.kron``;
* ``ATOL = 1e-9`` is the default absolute tolerance on unit-normalized
  operators and ``RANK_RTOL = 1e-10`` the rank cutoff relative to the largest
  singular value.

Nothing here mutates its inputs; random sampling always takes an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

ATOL = 1e-9
RANK_RTOL = 1e-10
# Most array memory one run may hold: a quarter of an 8 GB machine, for headroom.
MAX_BYTES = 2**31
# bytes per chunk of the batch kernels: the Haar sampler (_isometry_chunks), which moments'
# fourth-moment Monte Carlo and localtest's route (c) read, tomography's phase-grid pencils
# and Choi errors, and the stacked validation and eigensolves of channel and isometry stacks
# (chunk_slices); 256 KiB, so that the few arrays of a chunk's workspace stay in L2 cache
_CHUNK_BYTES = 1 << 18
# float64 unit roundoff, and the relative slack rho of the certified bounds that
# prune exact work (the packing pool's distances, the phase-error grid)
_UNIT_ROUNDOFF = 2.0**-53
_BOUND_SLACK = 2.0**-16

__all__ = [
    "ATOL",
    "RANK_RTOL",
    "MAX_BYTES",
    "require_bytes",
    "chunk_slices",
    "FactorLayout",
    "dag",
    "kron",
    "hermitianize",
    "vectorize",
    "unvectorize",
    "partial_trace",
    "permute_factors",
    "trace_norm",
    "operator_norm",
    "isometry_defect",
    "isometry_defects",
    "min_eig",
    "psd_sqrt",
    "psd_inv_sqrt",
    "haar_unitary",
    "haar_unitaries",
    "fill_ginibre",
    "random_gaussian_matrix",
    "random_isometry",
    "random_isometries",
    "random_pure_state",
    "random_density",
    "dft_matrix",
    "swap_operator",
]


def require_bytes(nbytes: int, what: str) -> None:
    """Raise ValueError when what needs more than MAX_BYTES of arrays."""
    if nbytes > MAX_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, above the limit of {MAX_BYTES}")


def chunk_slices(count: int, member_bytes: int) -> list:
    """Slices of range(count) in runs of about _CHUNK_BYTES of members of
    member_bytes each, one member per run where a member alone is larger."""
    step = max(1, _CHUNK_BYTES // max(1, member_bytes))
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass(frozen=True)
class FactorLayout:
    """Ordered labelled tensor factors of a composite space.

    Labels are arbitrary hashable values (the rest of the package uses
    ``(role, index)`` tuples such as ``("A", 0)``). The first factor is the
    most significant index of the composite space. The labels, the factor
    dimensions, their product and a label-to-position index are built once,
    at construction.
    """

    factors: tuple
    labels: tuple = field(init=False, repr=False, compare=False)
    dims: tuple = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple((lab, int(dim)) for lab, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = tuple(lab for lab, _ in factors)
        dims = tuple(d for _, d in factors)
        index = {lab: k for k, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate factor labels in layout")
        if any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.factors)

    def __contains__(self, label) -> bool:
        return label in self._index

    def position(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in layout") from None

    def positions(self, labels: Iterable) -> list:
        return [self.position(lab) for lab in labels]

    def dim_of(self, label) -> int:
        return self.factors[self.position(label)][1]

    def without(self, labels: Iterable) -> "FactorLayout":
        drop = set(labels)
        missing = drop - set(self.labels)
        if missing:
            raise KeyError(f"labels {missing!r} not in layout")
        return FactorLayout(tuple(f for f in self.factors if f[0] not in drop))

    def restricted(self, labels: Iterable) -> "FactorLayout":
        keep = list(labels)
        return FactorLayout(tuple((lab, self.dim_of(lab)) for lab in keep))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(a).swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.kron of two vectors or of two matrices, a's index the more significant.

    One broadcast multiply and a reshape: the products numpy.kron forms, in
    the dtypes it forms them, so the same bits, without its shape handling.
    """
    if a.ndim == b.ndim == 2:
        (m, n), (p, q) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    raise ValueError(f"kron takes two vectors or two matrices, got shapes {a.shape} and {b.shape}")


def hermitianize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dag(a))


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major |X>> of a matrix, or of each matrix in a stack (..., rows, cols)."""
    x = np.asarray(x, dtype=complex)
    return x.reshape(x.shape[:-2] + (-1,))


def unvectorize(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The matrix of a row-major |X>>, or of each vector in a stack (..., rows * cols)."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(v.shape[:-1] + (rows, cols))


def _resolve(dims, positions) -> tuple:
    """The dims as ints and the positions sorted, each in range and distinct."""
    dims = tuple(int(d) for d in dims)
    pos = sorted(int(p) for p in positions)
    if len(set(pos)) != len(pos):
        raise ValueError("repeated factors")
    if pos and (pos[0] < 0 or pos[-1] >= len(dims)):
        raise ValueError("factor position out of range")
    return dims, pos


def _check_square(m: np.ndarray, dims: tuple) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    n = 1
    for d in dims:
        n *= d
    if m.shape != (n, n):
        raise ValueError(f"operator shape {m.shape} does not match factors {dims}")
    return m


def partial_trace(m: np.ndarray, dims, positions) -> np.ndarray:
    """Trace out the factors at the given positions."""
    dims, pos = _resolve(dims, positions)
    m = _check_square(m, dims)
    if not pos:
        return m.copy()
    k = len(dims)
    t = m.reshape(dims + dims)
    letters = string.ascii_letters
    if 2 * k > len(letters):
        raise ValueError("too many tensor factors")
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    for p in pos:
        col[p] = row[p]
    keep = [i for i in range(k) if i not in pos]
    sub = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in keep) + "".join(
        col[i] for i in keep
    )
    res = np.einsum(sub, t)
    nk = 1
    for i in keep:
        nk *= dims[i]
    return res.reshape(nk, nk)


def permute_factors(m: np.ndarray, dims, positions) -> np.ndarray:
    """Reorder tensor factors; positions lists the input positions in the
    desired output order."""
    dims = tuple(int(d) for d in dims)
    perm = [int(p) for p in positions]
    if sorted(perm) != list(range(len(dims))):
        raise ValueError("positions must be a permutation of the factors")
    m = _check_square(m, dims)
    k = len(dims)
    t = m.reshape(dims + dims)
    axes = perm + [k + p for p in perm]
    n = m.shape[0]
    return t.transpose(axes).reshape(n, n)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def _grams(m: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of each matrix of a stack: M^dag M (cols x cols) for a
    tall or square M, M M^dag when wide; one GEMM per matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf, and inf - inf
        return dag(m) @ m if m.shape[-2] >= m.shape[-1] else m @ dag(m)


def _power_of_two_scaled(stack: np.ndarray, trace: np.ndarray, lo: float, hi: float):
    """The members of a complex stack whose Gram trace, their squared Frobenius
    norm given in trace (one per member, over the stack's leading axes), lies
    outside [lo, hi] or is nan, each scaled exactly by 2^-e with its largest
    real or imaginary part in [1/2, 1).

    None when every trace is in range; else the mask over the leading axes,
    the exponents e and the scaled members, stacked along one axis.  np.ldexp
    scales the parts, since the factor 2^-e itself overflows for subnormal
    entries; a zero member has e = 0.
    """
    redo = ~((trace >= lo) & (trace <= hi))
    if not redo.any():
        return None
    parts = stack[redo].view(float)  # a fresh C-ordered copy of the redone members
    _, e = np.frexp(np.abs(parts).max(axis=tuple(range(1, parts.ndim))))
    return redo, e, np.ldexp(parts, -e.reshape((-1,) + (1,) * (parts.ndim - 1))).view(complex)


def operator_norm(m: np.ndarray):
    """Largest singular value of a matrix, or the array of them for a stack (..., rows, cols).

    It is sqrt(lambda_max) of the smaller Gram matrix, M^dag M or M M^dag
    (n = min(rows, cols) wide), by one stacked eigvalsh in place of an SVD;
    a matrix with no rows or columns has norm 0.  The top eigenvalue keeps
    its relative accuracy: the formed Gram is within (m n + O(1)) u ||M||^2
    of the exact one, with m = max(rows, cols) and u = 2^-53, and
    eigvalsh's backward error is p(n) u ||G||, both relative to lambda_max =
    ||M||^2 itself (only the small eigenvalues of a Gram lose digits), so the
    norm is within about (m n + p(n)) u / 2 of the top singular value.

    Range guard: a Gram overflows for entries near 2^512 and underflows,
    losing the bits of the norm, below 2^-480.  So before the eigensolve,
    the Grams whose trace ||M||_F^2 (at most n lambda_max, at least
    lambda_max) lies outside [2^-960, 2^1020], or is nan, are formed again
    from M scaled exactly by 2^-e, its largest real or imaginary part in
    [1/2, 1) (_power_of_two_scaled), and their norms scaled back by 2^e.
    Every eigensolved Gram is then finite, the norm is right from subnormal
    entries up to about 1e300, and a zero matrix has norm exactly 0.

    Each matrix has its own GEMM and eigensolve, so each value of a stack
    equals the value of that matrix alone.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"operator_norm needs a matrix or a stack of them, got shape {m.shape}")
    stack = m if m.ndim > 2 else m[None]
    if 0 in m.shape[-2:]:
        norms = np.zeros(stack.shape[:-2])
    else:
        gram = _grams(stack)
        scaled = _power_of_two_scaled(stack, np.einsum("...ii->...", gram).real, 2.0**-960, 2.0**1020)
        if scaled is not None:
            redo, e, parts = scaled
            gram[redo] = _grams(parts)
        norms = np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
        if scaled is not None:
            norms[redo] = np.ldexp(norms[redo], e)
    return norms if m.ndim > 2 else float(norms[0])


def isometry_defects(m: np.ndarray) -> np.ndarray:
    """Largest entry of |M^dag M - I| of each matrix of a stack (..., rows,
    cols), as an array over the leading axes, taken in chunk_slices runs.

    Each Gram product is its own GEMM, so a matrix has the same defect in any
    stack.
    """
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape[-2:]
    flat = m.reshape((-1, rows, cols))
    eye = np.eye(cols)
    out = np.empty(len(flat))
    for run in chunk_slices(len(flat), 16 * max(rows, cols) * cols):
        out[run] = np.abs(dag(flat[run]) @ flat[run] - eye).max(axis=(-2, -1))
    return out.reshape(m.shape[:-2])


def isometry_defect(m: np.ndarray) -> float:
    """Largest entry of |M^dag M - I| over a matrix, or over every matrix of a
    stack (..., rows, cols)."""
    return float(np.max(isometry_defects(m)))


def min_eig(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(hermitianize(np.asarray(m, dtype=complex)))
    return float(w[0]) if w.size else 0.0


def _eigh_clipped(m: np.ndarray) -> tuple:
    w, v = np.linalg.eigh(hermitianize(np.asarray(m, dtype=complex)))
    return np.clip(w, 0.0, None), v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = _eigh_clipped(m)
    return (v * np.sqrt(w)) @ dag(v)


def psd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root on the numeric support (RANK_RTOL cutoff) of
    a matrix, or of each matrix of a stack, each one eigh and GEMM of its own."""
    w, v = _eigh_clipped(m)
    wmax = w.max(axis=-1, keepdims=True, initial=0.0)
    inv = np.where(w > RANK_RTOL * wmax, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    return (v * inv[..., None, :]) @ dag(v)


def fill_ginibre(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the complex array out in place with standard complex Ginibre
    entries (unit variance) and return it: the real parts are drawn first,
    then the imaginary parts."""
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    out *= 1.0 / np.sqrt(2.0)
    return out


def random_gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Ginibre matrix (entries of unit variance), by fill_ginibre."""
    return fill_ginibre(np.empty((rows, cols), dtype=complex), rng)


def _row_sum(x: np.ndarray, lanes: int) -> np.ndarray:
    """x.sum(-2), with the rows added in the order numpy adds a contiguous axis.

    np.add.reduce over a contiguous run of n values (its pairwise sum) adds
    them one by one when n < lanes, runs `lanes` interleaved accumulators and
    folds them as a balanced tree when n <= 16 * lanes, and else splits the run
    at a multiple of lanes near its middle; lanes is 8 for float64 and 4 for
    complex128. Here each value is a row of samples, so the order does not
    depend on how many samples there are. A lone sample's row axis is
    contiguous, and numpy reduces it in this very order.
    """
    n = x.shape[-2]
    if n < lanes or x.shape[-1] == 1:
        return x.sum(-2)
    if n > 16 * lanes:
        half = n // 2 - n // 2 % lanes
        return _row_sum(x[..., :half, :], lanes) + _row_sum(x[..., half:, :], lanes)
    m = n - n % lanes
    acc = x[..., :m, :]
    if m > lanes:
        acc = acc.reshape(x.shape[:-2] + (m // lanes, lanes, x.shape[-1])).sum(-3)
    while acc.shape[-2] > 1:
        acc = acc[..., ::2, :] + acc[..., 1::2, :]
    out = acc[..., 0, :]
    for i in range(m, n):
        out = out + x[..., i, :]
    return out


def _gram_schmidt(q: np.ndarray, qbar: np.ndarray, work: np.ndarray) -> None:
    """Orthonormalise in place the columns of a (column, row, sample) stack q.

    Classical Gram-Schmidt run twice per column ("twice is enough": Giraud,
    Langou and Rozloznik, Numer. Math. 2005): each pass subtracts the projection
    onto all earlier columns at once, and the column is then scaled by the
    inverse of its norm, which is r_jj, so diag(R) is positive without a phase
    correction. Every inner product and norm is a _row_sum of contiguous sample
    vectors and every projection a sum over earlier columns, both elementwise
    across samples, so a sample's bits do not depend on the stack it is in.
    qbar (q's shape) and work (one column fewer) are scratch; qbar ends as conj(q).
    """
    for j in range(q.shape[0]):
        v = q[j]
        for _ in range(2 if j else 0):
            c = _row_sum(np.multiply(qbar[:j], v, out=work[:j]), 4)
            v -= np.multiply(c[:, None, :], q[:j], out=work[:j]).sum(0)
        v *= 1.0 / np.sqrt(_row_sum((v.conj() * v).real, 8))
        np.conjugate(v, out=qbar[j])


def _isometry_chunks(rows: int, cols: int, draws):
    """Yield Haar isometries (rows >= cols) as orthonormalised (column, row, sample)
    chunks of at most _CHUNK_BYTES, each a view into a workspace that the next
    chunk overwrites.

    draws lists (generator, count) runs in order. Each member draws its Ginibre
    matrix as fill_ginibre does, its rows * cols real parts and then its imaginary
    parts, and the members of one run that fall in one chunk draw in one
    standard_normal call, which is the same stream. The normals land in the
    memory of the conjugate stack, which _gram_schmidt fills only after they are
    read. A complex Ginibre matrix with diag(R) > 0 in its QR gives a Haar Q
    (Mezzadri, arXiv:math-ph/0609050), and _gram_schmidt's bits per member do not
    depend on the chunk, so a member has the bits of random_isometry alone. No
    member, or none with an entry, draws nothing and yields nothing.
    """
    size = rows * cols
    total = sum(count for _, count in draws)
    if size < 1 or total < 1:
        return
    step = min(total, max(1, _CHUNK_BYTES // (16 * size)))
    stacks = np.empty((2, step * size), dtype=complex)
    normals = stacks[1].view(float)
    work = np.empty(step * rows * (cols - 1), dtype=complex)

    def orthonormalised(n: int) -> np.ndarray:
        q, qbar = (a[: n * size].reshape(cols, rows, n) for a in stacks)
        g = normals[: 2 * n * size].reshape(n, 2, rows, cols).transpose(1, 3, 2, 0)
        q.real = g[0]
        q.imag = g[1]
        q *= 1.0 / np.sqrt(2.0)
        _gram_schmidt(q, qbar, work[: n * rows * (cols - 1)].reshape(cols - 1, rows, n))
        return q

    filled = 0
    for rng, count in draws:
        while count > 0:
            k = min(count, step - filled)
            rng.standard_normal(out=normals[2 * size * filled : 2 * size * (filled + k)])
            filled, count = filled + k, count - k
            if filled == step:
                yield orthonormalised(step)
                filled = 0
    if filled:
        yield orthonormalised(filled)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: the QR of a Ginibre matrix with diag(R) positive."""
    return random_isometry(d, d, rng)


def _gather(rows: int, cols: int, draws) -> np.ndarray:
    """The members of _isometry_chunks(rows, cols, draws), stacked (count, rows, cols)."""
    out = np.empty((sum(count for _, count in draws), rows, cols), dtype=complex)
    s = 0
    for q in _isometry_chunks(rows, cols, draws):
        n = q.shape[-1]
        out[s : s + n] = q.transpose(2, 1, 0)
        s += n
    return out


def haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of Haar unitaries, shape (count, d, d): the bits of count successive
    haar_unitary(d, rng) draws, and rng ends where they leave it."""
    return _gather(d, d, [(rng, count)])


def random_isometries(rows: int, cols: int, rngs) -> np.ndarray:
    """Haar-random isometries (rows >= cols), one per generator, stacked (T, rows, cols).

    Each generator draws one member in list order (a generator listed twice
    draws twice, in turn), so member t has the bits of random_isometry(rows,
    cols, rngs[t]) alone; _isometry_chunks draws and orthonormalises them one
    chunk at a time.
    """
    if rows < cols:
        raise ValueError("an isometry needs rows >= cols")
    return _gather(rows, cols, [(rng, 1) for rng in rngs])


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (rows >= cols) with orthonormal columns."""
    return random_isometries(rows, cols, [rng])[0]


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = random_gaussian_matrix(d, 1, rng).reshape(-1)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = random_gaussian_matrix(d, d, rng)
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def dft_matrix(d: int) -> np.ndarray:
    """Unitary Fourier matrix, F[k, j] = omega^(k j) / sqrt(d)."""
    idx = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    return omega ** np.outer(idx, idx) / np.sqrt(d)


def swap_operator(d: int) -> np.ndarray:
    """SWAP on C^d tensor C^d."""
    e = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return e.transpose(0, 1, 3, 2).reshape(d * d, d * d)
