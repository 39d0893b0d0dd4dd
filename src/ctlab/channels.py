"""Channels in Choi form, Kraus decompositions, Stinespring dilations.

A channel ``E: L(H_in) -> L(H_out)`` is stored canonically by its Choi matrix

    C = sum_i |E_i>><<E_i|        on  H_out kron H_in   (output factor first),

with ``tr(C) = d_in`` and ``tr_out(C) = I_in``. Dilation isometries map
``H_in -> H_anc kron H_out`` with the ancilla factor first, so the i-th Kraus
operator is the i-th ``d_out``-row block of the isometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    RANK_RTOL,
    dag,
    hermitianize,
    isometry_defect,
    partial_trace,
    psd_inv_sqrt,
    random_gaussian_matrix,
    unvectorize,
    vectorize,
)

__all__ = [
    "Channel",
    "Isometry",
    "Dilation",
    "dilate",
    "choi_from_kraus",
    "random_channel",
    "channel_payload",
    "channel_to_json",
    "channel_from_json",
]


class Channel:
    """A CPTP map held by its Choi matrix on H_out kron H_in."""

    def __init__(self, choi, d_in: int, d_out: int):
        choi = np.array(choi, dtype=complex)
        d_in = int(d_in)
        d_out = int(d_out)
        n = d_in * d_out
        if choi.shape != (n, n):
            raise ValueError(f"choi shape {choi.shape} does not match d_out*d_in = {n}")
        choi.setflags(write=False)
        self.choi = choi
        self.d_in = d_in
        self.d_out = d_out
        self._kraus: tuple | None = None
        self._validate()

    def _validate(self) -> None:
        herm_defect = float(np.max(np.abs(self.choi - dag(self.choi))))
        if herm_defect > ATOL:
            raise ValueError(f"choi is not hermitian (defect {herm_defect:.3e})")
        w = np.linalg.eigvalsh(hermitianize(self.choi))
        if w.size and float(w[0]) < -ATOL:
            raise ValueError(f"choi is not psd (min eigenvalue {float(w[0]):.3e})")
        marg = partial_trace(self.choi, (self.d_out, self.d_in), (0,))
        defect = float(np.max(np.abs(marg - np.eye(self.d_in))))
        if defect > ATOL:
            raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")

    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        """Build the Choi matrix of sum_i E_i rho E_i^dag.

        The Kraus list need not be orthogonal; completeness sum E^dag E = I is
        required. The canonical (orthogonal) Kraus set is recomputed lazily.
        """
        kraus = [np.asarray(e, dtype=complex) for e in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        d_out, d_in = kraus[0].shape
        if any(e.shape != (d_out, d_in) for e in kraus):
            raise ValueError("inconsistent Kraus shapes")
        comp = sum(dag(e) @ e for e in kraus)
        defect = float(np.max(np.abs(comp - np.eye(d_in))))
        if defect > ATOL:
            raise ValueError(f"Kraus set is not complete (defect {defect:.3e})")
        return cls(choi_from_kraus(np.stack(kraus)), d_in, d_out)

    @property
    def kraus(self) -> tuple:
        """Canonical Kraus set from the Choi eigendecomposition.

        Pairwise Hilbert-Schmidt orthogonal; eigenvalues below
        ``RANK_RTOL * lambda_max`` are dropped.
        """
        if self._kraus is None:
            w, v = np.linalg.eigh(hermitianize(self.choi))
            wmax = float(w.max(initial=0.0))
            keep = w > RANK_RTOL * max(wmax, 0.0)
            ops = []
            for i in np.flatnonzero(keep)[::-1]:
                ops.append(np.sqrt(w[i]) * unvectorize(v[:, i], self.d_out, self.d_in))
            self._kraus = tuple(ops)
        return self._kraus

    @property
    def rank(self) -> int:
        return len(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) = tr_in[C (I kron rho^T)]."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ValueError("state dimension mismatch")
        c4 = self.choi.reshape(self.d_out, self.d_in, self.d_out, self.d_in)
        return np.einsum("oapc,ac->op", c4, rho)

    def __repr__(self) -> str:
        return f"Channel(d_in={self.d_in}, d_out={self.d_out}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class Isometry:
    """A matrix with orthonormal columns (d_out x d_in, d_out >= d_in)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] < m.shape[1]:
            raise ValueError(f"isometry needs rows >= cols, got shape {m.shape}")
        defect = isometry_defect(m)
        if defect > ATOL:
            raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def channel(self) -> Channel:
        return Channel.from_kraus([self.matrix])


@dataclass(frozen=True, eq=False)
class Dilation:
    """Stinespring isometry V: H_in -> H_anc kron H_out, ancilla first.

    Row index (k, b) = k * d_out + b; the Kraus operator E_k is the k-th
    d_out-row block, E_k = (<k|_anc kron I) V.
    """

    matrix: np.ndarray
    anc_dim: int
    d_out: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        r = int(self.anc_dim)
        d_out = int(self.d_out)
        object.__setattr__(self, "anc_dim", r)
        object.__setattr__(self, "d_out", d_out)
        if m.ndim != 2 or m.shape[0] != r * d_out:
            raise ValueError(f"matrix shape {m.shape} does not match anc*out = {r * d_out}")
        defect = isometry_defect(m)
        if defect > ATOL:
            raise ValueError(f"dilation is not an isometry (defect {defect:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1]

    def kraus_blocks(self) -> tuple:
        d2 = self.d_out
        return tuple(self.matrix[k * d2 : (k + 1) * d2, :] for k in range(self.anc_dim))

    def contract(self) -> Channel:
        """Trace out the ancilla: the channel of the Kraus blocks."""
        return Channel.from_kraus(self.kraus_blocks())


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi matrices sum_i |E_i>><<E_i| of Kraus sets stacked (..., R, d_out, d_in).

    Returns (..., d_out d_in, d_out d_in), built from the row-major |E_i>>
    of linalg.vectorize and summed in Kraus order, so a set's Choi matrix is
    the same bit for bit in any stack.  Completeness is not checked.
    """
    v = vectorize(kraus)
    n = v.shape[-1]
    choi = np.zeros(v.shape[:-2] + (n, n), dtype=complex)
    for k in range(v.shape[-2]):
        choi += v[..., k, :, None] * v[..., k, None, :].conj()
    return choi


def dilate(ch: Channel, r: int) -> Dilation:
    """Canonical dilation from the eigen-Kraus set, zero-padded to rank r."""
    kraus = ch.kraus
    r = int(r)
    if r < len(kraus):
        raise ValueError(f"requested ancilla dimension {r} below channel rank {len(kraus)}")
    v = np.zeros((r * ch.d_out, ch.d_in), dtype=complex)
    for k, e in enumerate(kraus):
        v[k * ch.d_out : (k + 1) * ch.d_out, :] = e
    return Dilation(v, r, ch.d_out)


def random_channel(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> Channel:
    """Random channel of Kraus rank <= rank (generically exactly rank)."""
    rank = int(rank)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank * d_out < d_in:
        # trace preservation forces rank(choi) * d_out >= d_in
        raise ValueError(
            f"no channel of Kraus rank {rank} exists for {d_in} -> {d_out}; "
            f"need rank >= ceil(d_in / d_out)"
        )
    gs = [random_gaussian_matrix(d_out, d_in, rng) for _ in range(rank)]
    s = sum(dag(g) @ g for g in gs)
    norm = psd_inv_sqrt(s)
    return Channel.from_kraus([g @ norm for g in gs])


def channel_payload(ch: Channel) -> dict:
    """The JSON document of a channel as a dict: {d_in, d_out, choi_re,
    choi_im}, the Choi matrix as row-major flat lists of floats."""
    return {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "choi_re": [float(x) for x in ch.choi.real.reshape(-1)],
        "choi_im": [float(x) for x in ch.choi.imag.reshape(-1)],
    }


def channel_to_json(ch: Channel) -> str:
    """Serialize channel_payload(ch).

    Python's shortest round-trip float repr makes the encoding exact at
    double precision.
    """
    return json.dumps(channel_payload(ch))


def channel_from_json(text: str) -> Channel:
    data = json.loads(text)
    d_in = int(data["d_in"])
    d_out = int(data["d_out"])
    n = d_in * d_out
    re = np.array(data["choi_re"], dtype=float).reshape(n, n)
    im = np.array(data["choi_im"], dtype=float).reshape(n, n)
    return Channel(re + 1j * im, d_in, d_out)
