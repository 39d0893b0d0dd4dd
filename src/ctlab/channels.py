"""Channels in Choi form, Kraus decompositions, Stinespring dilations.

A channel ``E: L(H_in) -> L(H_out)`` is stored canonically by its Choi matrix

    C = sum_i |E_i>><<E_i|        on  H_out kron H_in   (output factor first),

with ``tr(C) = d_in`` and ``tr_out(C) = I_in``. A dilation is an Isometry
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
    chunk_slices,
    dag,
    hermitianize,
    isometry_defects,
    random_isometries,
    unvectorize,
    vectorize,
)

__all__ = [
    "Channel",
    "Isometry",
    "isometries",
    "dilate",
    "contract_dilations",
    "kraus_sets",
    "choi_from_kraus",
    "random_dilations",
    "random_channel",
    "channel_payload",
    "channel_to_json",
    "channel_from_json",
]


class Channel:
    """A CPTP map held by its Choi matrix on H_out kron H_in.

    Channel(choi, ...) checks its Choi matrix (_validate_choi).  Every other
    build path takes Kraus sets checked once where they entered (complete, or
    blocks of an isometry) and holds read-only views into the Choi stack of
    their linalg.chunk_slices run (_channels_of); a channel built alone is
    the stack of one.
    """

    def __init__(self, choi, d_in: int, d_out: int):
        choi = np.array(choi, dtype=complex)
        d_in = int(d_in)
        d_out = int(d_out)
        if d_in < 1 or d_out < 1:
            raise ValueError(f"channel dimensions must be at least 1, got d_in={d_in}, d_out={d_out}")
        n = d_in * d_out
        if choi.shape != (n, n):
            raise ValueError(f"choi shape {choi.shape} does not match d_out*d_in = {n}")
        _validate_choi(choi, d_in, d_out)
        self._hold(choi, d_in, d_out)

    def _hold(self, choi: np.ndarray, d_in: int, d_out: int) -> None:
        choi.setflags(write=False)
        self.choi = choi
        self.d_in = d_in
        self.d_out = d_out
        self._kraus: tuple | None = None

    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        """Build the Choi matrix of sum_i E_i rho E_i^dag.

        The Kraus list need not be orthogonal; completeness sum E^dag E = I is
        required, and checked once, as V^dag V = I of the operators stacked
        into one column V.  The canonical (orthogonal) Kraus set is recomputed
        lazily.  np.stack declines an empty list or unequal shapes, and the
        shape unpacking a stack that is not (R, d_out, d_in).
        """
        kraus = np.stack([np.asarray(e, dtype=complex) for e in kraus])
        rank, d_out, d_in = kraus.shape
        _check_defects(isometry_defects(kraus.reshape(1, rank * d_out, d_in)), "Kraus set is not complete")
        return _channels_of(kraus[None])[0]

    @property
    def kraus(self) -> tuple:
        """Canonical Kraus set from the Choi eigendecomposition (see kraus_sets).

        Pairwise Hilbert-Schmidt orthogonal; eigenvalues below
        ``RANK_RTOL * lambda_max`` are dropped.
        """
        return kraus_sets([self])[0]

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


def _validate_choi(choi: np.ndarray, d_in: int, d_out: int) -> None:
    """Raise ValueError unless the (n, n) Choi matrix is Hermitian, PSD and
    trace preserving (its marginal tr_out C is I), each within ATOL.

    Each comparison is written to fail on nan, so a non-finite entry fails
    the Hermitian check before any eigensolve.
    """
    herm = np.abs(choi - dag(choi)).max(initial=0.0)
    if not herm <= ATOL:
        raise ValueError(f"choi is not hermitian (defect {herm:.3e})")
    low = np.linalg.eigvalsh(hermitianize(choi)).min(initial=0.0)
    if not low >= -ATOL:
        raise ValueError(f"choi is not psd (min eigenvalue {low:.3e})")
    marg = np.trace(choi.reshape(d_out, d_in, d_out, d_in), axis1=0, axis2=2)
    tp = np.abs(marg - np.eye(d_in)).max(initial=0.0)
    if not tp <= ATOL:
        raise ValueError(f"channel is not trace preserving (defect {tp:.3e})")


def _channels_of(kraus: np.ndarray) -> list:
    """The channels of a (T, R, d_out, d_in) stack of complete Kraus sets,
    unchecked: such a Choi matrix is PSD by construction, Hermitian up to one
    rounding, and its marginal tr_out C is sum E^dag E, transposed.  Each
    chunk_slices run's choi_from_kraus stack is made read-only, and each
    channel holds a view of its matrix."""
    count, rank, d_out, d_in = kraus.shape
    n = d_out * d_in
    out = []
    for run in chunk_slices(count, 16 * max(rank * n, n * n)):
        chois = choi_from_kraus(kraus[run])
        chois.setflags(write=False)
        for choi in chois:
            ch = Channel.__new__(Channel)
            ch._hold(choi, d_in, d_out)
            out.append(ch)
    return out


def _check_defects(defects: np.ndarray, what: str) -> None:
    """Raise ValueError(what and the defect) for the first defect of a stack
    that is not at most ATOL, nan included."""
    bad = np.flatnonzero(~(defects <= ATOL))
    if bad.size:
        raise ValueError(f"{what} (defect {defects[bad[0]]:.3e})")


@dataclass(frozen=True, eq=False)
class Isometry:
    """A matrix with orthonormal columns (rows >= cols): an isometry, or the
    Stinespring dilation of the channel that channel(d_out) contracts.

    Isometries built by isometries hold read-only views into one validated
    stack; an isometry built alone is the stack of one.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"isometry needs rows >= cols, got shape {m.shape}")
        _check_isometric(m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def channel(self, d_out: int | None = None) -> Channel:
        """The contraction of the d_out-row Kraus blocks, ancilla first (by
        default the whole matrix is one block), unchecked past V^dag V = I."""
        d_out = len(self.matrix) if d_out is None else d_out
        return _channels_of(_kraus_blocks(self.matrix[None], d_out))[0]


def _check_isometric(m: np.ndarray) -> None:
    """One shape check and one isometry check of a (T, rows, cols) stack."""
    if m.shape[-2] < m.shape[-1]:
        raise ValueError(f"isometry needs rows >= cols, got shape {m.shape[-2:]}")
    _check_defects(isometry_defects(m), "columns are not orthonormal")


def _kraus_blocks(m: np.ndarray, d_out: int) -> np.ndarray:
    """The (T, rows / d_out, d_out, cols) Kraus blocks of a (T, rows, cols)
    stack of dilations, ancilla first."""
    count, rows, d_in = m.shape
    if d_out < 1 or rows % d_out:
        raise ValueError(f"dilation rows {rows} are not a multiple of d_out = {d_out}")
    return m.reshape(count, rows // d_out, d_out, d_in)


def isometries(matrices) -> list:
    """The Isometry of each matrix of a (T, rows, cols) stack, in stack order.

    The stack is copied and validated once (one isometry_defects run per
    linalg.chunk_slices run); each isometry holds a read-only view of its
    matrix.  A defect is per matrix, so a member has the bits of Isometry(m)
    alone, and a bad member raises the message it raises alone.
    """
    m = np.array(matrices, dtype=complex)
    if m.ndim != 3:
        raise ValueError(f"need a (T, rows, cols) stack, got shape {m.shape}")
    _check_isometric(m)
    m.setflags(write=False)
    out = []
    for matrix in m:
        iso = Isometry.__new__(Isometry)
        object.__setattr__(iso, "matrix", matrix)
        out.append(iso)
    return out


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


def kraus_sets(channels) -> list:
    """The canonical Kraus sets of channels of one shape, in order.

    A channel's set is computed once and kept: the channels that lack one get
    it from a stacked eigh of their Choi matrices, run in chunk_slices runs.
    A set holds sqrt(w_i) times the eigenvector of each eigenvalue w_i above
    RANK_RTOL * max(w, 0), as a d_out x d_in matrix, largest first; each is
    its channel's own eigh and products, so the same bits as alone.
    """
    channels = list(channels)
    todo = list({id(ch): ch for ch in channels if ch._kraus is None}.values())
    if todo:
        d_in, d_out = todo[0].d_in, todo[0].d_out
        n = d_in * d_out
        for run in chunk_slices(len(todo), 16 * n * n):
            group = todo[run]
            w, v = np.linalg.eigh(hermitianize(np.stack([ch.choi for ch in group])))
            for ch, wt, vt in zip(group, w, v):
                wmax = float(wt.max(initial=0.0))
                keep = np.flatnonzero(wt > RANK_RTOL * max(wmax, 0.0))[::-1]
                ch._kraus = tuple(unvectorize((np.sqrt(wt[keep]) * vt[:, keep]).T, d_out, d_in))
    return [ch._kraus for ch in channels]


def dilate(ch: Channel, r: int) -> Isometry:
    """Canonical dilation from the eigen-Kraus set, zero-padded to r blocks:
    the (r d_out, d_in) isometry whose channel(ch.d_out) is ch."""
    kraus = ch.kraus
    r = int(r)
    if r < len(kraus):
        raise ValueError(f"requested ancilla dimension {r} below channel rank {len(kraus)}")
    v = np.zeros((r, ch.d_out, ch.d_in), dtype=complex)
    v[: len(kraus)] = kraus
    return Isometry(v.reshape(r * ch.d_out, ch.d_in))


def contract_dilations(matrices, d_out: int) -> list:
    """Isometry(m).channel(d_out) of each matrix of a (T, rows, d_in) stack,
    from one stacked Isometry check (V^dag V = I, the Kraus blocks'
    completeness) and _channels_of: a bad member raises what it raises alone."""
    matrices = np.asarray(matrices, dtype=complex)
    blocks = _kraus_blocks(matrices, d_out)
    _check_isometric(matrices)
    return _channels_of(blocks)


def random_dilations(d_in: int, d_out: int, ranks, anc_dim: int, rngs) -> np.ndarray:
    """Haar-random dilations d_in -> anc_dim d_out, stacked (T, anc_dim d_out, d_in).

    Member t is random_isometry(ranks[t] d_out, d_in, rngs[t]) zero-padded to
    anc_dim blocks: the dilation of a random channel of Kraus rank <= ranks[t]
    (generically exactly), whose Kraus operators are its d_out-row blocks.  The
    isometry is the Gram-Schmidt factor of a Ginibre matrix, whose law is that
    of its polar factor, so the channel is the one of Kraus operators
    G_k (sum G^dag G)^-1/2 with G_k Ginibre.

    Every rank is checked first (feasibility, and rank <= anc_dim).  Then each
    generator draws its members in list order (a generator listed twice draws
    twice, in turn), in rounds: round k holds every generator's k-th member,
    and the members of one round and rank are one random_isometries stack.  So
    member t has the bits of random_isometry drawn alone, in list order.
    """
    ranks = [int(rank) for rank in ranks]
    rngs = list(rngs)
    if len(ranks) != len(rngs):
        raise ValueError(f"{len(ranks)} ranks but {len(rngs)} generators")
    for rank in ranks:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank * d_out < d_in:
            # trace preservation forces rank(choi) * d_out >= d_in
            raise ValueError(
                f"no channel of Kraus rank {rank} exists for {d_in} -> {d_out}; "
                f"need rank >= ceil(d_in / d_out)"
            )
        if rank > anc_dim:
            raise ValueError(f"requested ancilla dimension {anc_dim} below channel rank {rank}")
    rounds: dict = {}
    keys = []
    for rank, rng in zip(ranks, rngs):
        k = rounds.get(id(rng), 0)
        rounds[id(rng)] = k + 1
        keys.append((k, rank))
    out = np.zeros((len(ranks), anc_dim * d_out, d_in), dtype=complex)
    for key in sorted(set(keys)):
        members = [t for t, k in enumerate(keys) if k == key]
        rows = key[1] * d_out
        out[members, :rows] = random_isometries(rows, d_in, [rngs[t] for t in members])
    return out


def random_channel(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> Channel:
    """Random channel of Kraus rank <= rank (generically exactly rank): the
    contraction of its random_dilations member."""
    return contract_dilations(random_dilations(d_in, d_out, [rank], rank, [rng]), d_out)[0]


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
