"""Hard instance families for channel discrimination, and packing nets.

Four constructions of isometry families V = V0 + eps * (rotated direction),
one per parameter regime, together with the Monte Carlo moment experiments,
Lipschitz probes, and sampled packing nets that certify their separation
properties numerically.  Matrices built here keep the visible output factor
most significant in the row index (row = b * r + k for output level b and
ancilla level k); use HardInstance.dilation() to convert to the package's
ancilla-major convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import Channel, Isometry, channel_payload, contract_dilations
from .combs import COMB_ATOL, CombCheck, FactoredOperator
from .linalg import haar_unitary, random_isometries, require_bytes, trace_norm
from .metrics import choi_trace_distances, diamond_distances
from .moments import mc_verdict

__all__ = [
    "Regime",
    "HardInstance",
    "build_instance",
    "build_instances",
    "instance_channels",
    "kraus_partition",
    "GammaFamily",
    "type1_gamma_family",
    "type2_gamma_family",
    "gamma_vector",
    "certify_gamma_comb",
    "d_statistic",
    "amplitude_statistic",
    "choi_cross_statistic",
    "diamond_cross_statistic",
    "BoundRecord",
    "ProbeReport",
    "moment_experiment",
    "PackingNet",
    "sample_packing_net",
    "lipschitz_probe",
]


class Regime(str, Enum):
    """Parameter regime of a hard instance family."""

    TYPE1 = "type1"
    TYPE2_NEAR = "type2-near"
    TYPE2_MID = "type2-mid"
    TYPE2_LARGE = "type2-large"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    _require(0.0 <= eps < 0.5, f"eps must lie in [0, 1/2), got {eps}")
    return eps


def _regime_params(regime: Regime, d1: int, d2: int, r: int) -> dict:
    """Validate the regime inequalities and derive the window geometry.

    Returns a dict with the embedding parameters used by the builders and
    the statistics: 'haar_dim' (size of the Haar-rotated block), 'base'
    (first row of that block), 'm' (number of perturbed input columns) and
    regime-specific extras.
    """
    d1, d2, r = int(d1), int(d2), int(r)
    _require(d1 >= 1 and d2 >= 1 and r >= 1, "dimensions must be positive")
    big = r * d2
    if regime == Regime.TYPE1:
        _require(d1 >= 2, "type1 needs d1 >= 2")
        _require(d1 <= big, f"type1 needs d1 <= r*d2, got {d1} > {big}")
        _require(3 * big <= 4 * d1, f"type1 needs 3*r*d2 <= 4*d1, got 3*{big} > 4*{d1}")
        _require(2 * r <= d1 * d2, f"needs 2*r <= d1*d2, got 2*{r} > {d1 * d2}")
        dp = 2 * (d1 // 2)
        return {"haar_dim": dp, "base": 0, "m": d1, "dp": dp}
    _require(d2 >= 2, "type2 needs d2 >= 2")
    _require(2 * r <= d1 * d2, f"needs 2*r <= d1*d2, got 2*{r} > {d1 * d2}")
    if regime == Regime.TYPE2_NEAR:
        _require(big > d1, f"near-boundary needs r*d2 > d1, got {big} <= {d1}")
        _require(big < d1 + r, f"near-boundary needs r*d2 < d1 + r, got {big} >= {d1 + r}")
        eta = d1 - r * (d2 - 1)
        m = big - d1
        return {
            "haar_dim": m,
            "base": r * (d2 - 1),
            "m": m,
            "eta": eta,
            "m_diam": m,
            "kappa": min((big - d1) / d1, 1.0),
        }
    if regime == Regime.TYPE2_MID:
        _require(d1 + r <= big, f"mid regime needs d1 + r <= r*d2, got {d1 + r} > {big}")
        _require(r <= d1, f"mid regime needs r <= d1, got {r} > {d1}")
        chi_lo = d1 // r
        chi_hi = -(-d1 // r)
        zeta = min(chi_lo, d2 - chi_hi)
        return {
            "haar_dim": r * (d2 - chi_hi),
            "base": r * chi_hi,
            "m": r * zeta,
            "m_diam": r * zeta,
            "kappa": min((big - d1) / d1, 1.0),
        }
    if regime == Regime.TYPE2_LARGE:
        _require(d1 + r <= big, f"large-rank regime needs d1 + r <= r*d2, got {d1 + r} > {big}")
        _require(d1 < r, f"large-rank regime needs d1 < r, got {d1} >= {r}")
        chi = -(-r // d1)
        return {"haar_dim": r * (d2 - chi), "base": r * chi, "m": d1, "chi": chi}
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# Orthogonal unitary families and the Kraus partition lemma
# ---------------------------------------------------------------------------


def _weyl(dim: int, a: int, b: int) -> np.ndarray:
    """Clock-and-shift unitary X^a Z^b on `dim` levels."""
    omega = np.exp(2j * np.pi / dim)
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[(k + a) % dim, k] = omega ** (b * k)
    return u


def kraus_partition(d1: int, d2: int, r: int) -> list:
    """A trace-orthogonal Kraus set spreading identity evenly over r slots.

    Returns r operators K_i of shape (d2, d1) with sum K_i^dag K_i = I,
    tr(K_i^dag K_j) = 0 for i != j, and tr(K_i^dag K_i) <= 2*d1/r; trailing
    operators may be zero.
    """
    d1, d2, r = int(d1), int(d2), int(r)
    _require(d1 >= 1 and d2 >= 1 and r >= 1, "dimensions must be positive")
    _require(d1 <= r * d2, f"needs d1/d2 <= r, got d1={d1}, d2={d2}, r={r}")
    _require(r <= d1 * d2, f"needs r <= d1*d2, got r={r}, d1*d2={d1 * d2}")
    ops: list = []
    if d1 <= d2:
        blocks = d2 // d1
        want = -(-r // 2)
        assert want <= blocks * d1 * d1, "not enough orthogonal unitaries"
        scale = 1.0 / math.sqrt(want)
        for idx in range(want):
            block, pauli = divmod(idx, d1 * d1)
            a, b = divmod(pauli, d1)
            k = np.zeros((d2, d1), dtype=complex)
            k[block * d1 : (block + 1) * d1, :] = scale * _weyl(d1, a, b)
            ops.append(k)
    else:
        blocks = d1 // d2
        d3 = d1 - blocks * d2
        per_block = -(-r // (2 * blocks))
        assert per_block <= d2 * d2, "per-block unitary budget exceeded"
        scale = 1.0 / math.sqrt(per_block)
        for block in range(blocks):
            for j in range(per_block):
                a, b = divmod(j, d2)
                k = np.zeros((d2, d1), dtype=complex)
                k[:, block * d2 : (block + 1) * d2] = scale * _weyl(d2, a, b)
                ops.append(k)
        if d3 > 0:
            rows = d2 // d3
            extra = -(-(r * d3) // (2 * d1))
            assert extra <= rows * d3 * d3, "remainder isometry budget exceeded"
            scale3 = 1.0 / math.sqrt(extra)
            for idx in range(extra):
                row, pauli = divmod(idx, d3 * d3)
                a, b = divmod(pauli, d3)
                k = np.zeros((d2, d1), dtype=complex)
                k[row * d3 : (row + 1) * d3, d1 - d3 :] = scale3 * _weyl(d3, a, b)
                ops.append(k)
    assert len(ops) <= r, f"partition produced {len(ops)} operators for r={r}"
    while len(ops) < r:
        ops.append(np.zeros((d2, d1), dtype=complex))
    return ops


# ---------------------------------------------------------------------------
# Hard instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HardInstance:
    """One sampled member V = v0 + eps * direction of a hard family.

    All matrices are (r*d2) x d1 with the visible output factor most
    significant in the row index.  `delta` is the fixed perturbation
    template and `direction` the Haar-rotated copy actually added (both
    without the eps factor).  `v0_core` is the sub-center whose ancilla row
    blocks satisfy the trace-orthogonality bounds (it differs from v0 only
    in the near-boundary regime, where the center carries an extra tail).
    v0, v0_core and delta are read-only, and the members built by one
    build_instances call share them; direction and matrix are views into
    the stacks of the members' run.
    """

    regime: Regime
    d1: int
    d2: int
    r: int
    eps: float
    v0: np.ndarray
    v0_core: np.ndarray
    delta: np.ndarray
    direction: np.ndarray
    matrix: np.ndarray

    @property
    def dims(self) -> tuple:
        return (self.d1, self.d2, self.r)

    def dilation(self) -> Isometry:
        """Reorder rows to the ancilla-major convention and wrap."""
        return Isometry(_ancilla_major([self])[0])

    def channel(self) -> Channel:
        """self.dilation().channel(d2), as the stack of one of instance_channels."""
        return instance_channels([self])[0]

    def anc_blocks(self, core: bool = True) -> tuple:
        """The d2 x d1 row blocks K_i of the center, one per ancilla level."""
        src = self.v0_core if core else self.v0
        return tuple(src[np.arange(self.d2) * self.r + i, :] for i in range(self.r))


def _damped_diagonal(rows: int, cols: int, count: int, damped: int, eps: float) -> np.ndarray:
    """Center with a unit diagonal on its first count entries, the first
    damped of them scaled by sqrt(1 - eps^2)."""
    damp = math.sqrt(1.0 - eps * eps)
    v0 = np.zeros((rows, cols), dtype=complex)
    for i in range(count):
        v0[i, i] = damp if i < damped else 1.0
    return v0


def _plus_minus_i_diagonal(rows: int, cols: int, dp: int) -> np.ndarray:
    """Anti-Hermitian direction diag(i, ..., i, -i, ..., -i) on the first dp
    (even) diagonal entries, zero elsewhere."""
    delta = np.zeros((rows, cols), dtype=complex)
    for i in range(dp):
        delta[i, i] = 1j if i < dp // 2 else -1j
    return delta


class _Family(NamedTuple):
    """The fixed parts of one hard family, shared by all its members: the
    first eight fields of HardInstance (the center v0, sub-center v0_core
    and template delta read-only, eps checked), then its _regime_params."""

    regime: Regime
    d1: int
    d2: int
    r: int
    eps: float
    v0: np.ndarray
    v0_core: np.ndarray
    delta: np.ndarray
    params: dict


def _family(regime: Regime, d1: int, d2: int, r: int, eps: float) -> _Family:
    """Check a family's regime inequalities and eps and build its fixed parts once."""
    params = _regime_params(regime, d1, d2, r)
    eps = _check_eps(eps)
    big = r * d2
    m = params["m"]
    if regime == Regime.TYPE1:
        v0 = _damped_diagonal(big, d1, d1, params["dp"], eps)
        delta = _plus_minus_i_diagonal(big, d1, params["dp"])
        v0_core = v0
    else:
        if regime == Regime.TYPE2_NEAR:
            eta = params["eta"]
            nfull = r * (d2 - 1)
            v0 = _damped_diagonal(big, d1, nfull, m, eps)
            v0_core = v0.copy()
            for t in range(eta):
                v0[big - eta + t, nfull + t] = 1.0
        elif regime == Regime.TYPE2_MID:
            v0 = _damped_diagonal(big, d1, d1, m, eps)
            v0_core = v0
        else:
            chi = params["chi"]
            damp = math.sqrt(1.0 - eps * eps)
            v0 = np.zeros((big, d1), dtype=complex)
            for i, k in enumerate(kraus_partition(d1, chi, r)):
                v0[np.arange(chi) * r + i, :] = damp * k
            v0_core = v0
        delta = np.zeros((big, d1), dtype=complex)
        for t in range(m):
            delta[params["base"] + t, t] = 1.0
    for fixed in (v0, v0_core, delta):
        fixed.setflags(write=False)
    return _Family(regime, d1, d2, r, eps, v0, v0_core, delta, params)


def _assemble(family: _Family, us: np.ndarray) -> list:
    """The members of family rotated by a (T, k, k) stack of Haar blocks,
    sharing the family's fixed parts and holding views into one stack of
    directions and one of matrices."""
    params = family.params
    directions = np.zeros((len(us),) + family.v0.shape, dtype=complex)
    if family.regime == Regime.TYPE1:
        dp = params["dp"]
        directions[:, :dp, :dp] = us @ family.delta[:dp, :dp] @ us.conj().transpose(0, 2, 1)
    else:
        base = params["base"]
        directions[:, base : base + params["haar_dim"], : params["m"]] = us[:, :, : params["m"]]
    matrices = family.v0 + family.eps * directions
    return [HardInstance(*family[:-1], d, v) for d, v in zip(directions, matrices)]


def build_instances(regime: Regime | str, d1: int, d2: int, r: int, eps: float, rngs) -> list:
    """Sample one member of a hard family per generator, in list order.

    The Haar rotations are drawn in list order (a generator listed again
    draws again, in turn) by linalg.random_isometries, one call per
    linalg.chunk_slices run of members, so only one run of rotations is held
    at a time; each run's members are assembled as one stack. Member t has
    the bits of build_instance(regime, d1, d2, r, eps, rngs[t]).
    """
    family = _family(Regime(regime), d1, d2, r, eps)
    hd = family.params["haar_dim"]
    rngs = list(rngs)
    out = []
    for run in linalg.chunk_slices(len(rngs), 16 * hd * hd):
        out += _assemble(family, random_isometries(hd, hd, rngs[run]))
    return out


def build_instance(
    regime: Regime | str, d1: int, d2: int, r: int, eps: float, rng: np.random.Generator
) -> HardInstance:
    """Sample one member of a hard family: V = V0 + eps * U Delta U^dag in the
    near-square (type1) regime, V = center + eps * U Delta in the type2 ones."""
    return build_instances(regime, d1, d2, r, eps, [rng])[0]


def _ancilla_major(instances) -> np.ndarray:
    """The matrices of instances of one family with rows reordered to the
    ancilla-major convention, stacked (T, r d2, d1)."""
    d1, d2, r = instances[0].dims
    v = np.stack([inst.matrix for inst in instances]).reshape(-1, d2, r, d1)
    return v.transpose(0, 2, 1, 3).reshape(-1, r * d2, d1)


def instance_channels(instances) -> list:
    """inst.dilation().channel(d2) of each hard instance of one family, from
    one channels.contract_dilations of their stacked dilation matrices."""
    return contract_dilations(_ancilla_major(instances), instances[0].d2)


# ---------------------------------------------------------------------------
# Cross-term statistics
# ---------------------------------------------------------------------------


def _tr_anc_outer(m_op: np.ndarray, n_op: np.ndarray, d2: int, r: int) -> np.ndarray:
    """tr_anc(|m_op>><<n_op|) as an operator on the output x input factors."""
    cols = m_op.shape[1]
    mm = m_op.reshape(d2, r, cols)
    nn = n_op.conj().reshape(d2, r, n_op.shape[1])
    out = np.einsum("bka,cke->bace", mm, nn)
    return out.reshape(d2 * cols, d2 * n_op.shape[1])


def _pair_guard(x: HardInstance, y: HardInstance) -> None:
    if x.regime != y.regime or x.dims != y.dims or x.eps != y.eps:
        raise ValueError("instances must share regime, dimensions and eps")


def d_statistic(x: HardInstance, y: HardInstance) -> np.ndarray:
    """Hermitian overlap statistic D = A_x + A_x^dag - A_y - A_y^dag."""
    _pair_guard(x, y)
    _require(x.regime == Regime.TYPE1, "d_statistic applies to type1 instances")
    ax = _tr_anc_outer(x.direction, x.v0, x.d2, x.r)
    ay = _tr_anc_outer(y.direction, y.v0, y.d2, y.r)
    return ax + ax.conj().T - ay - ay.conj().T


def amplitude_statistic(x: HardInstance) -> float:
    """tr(A A^dag) for the type1 overlap matrix A = tr_anc(|U Delta U^dag>><<V0|)."""
    _require(x.regime == Regime.TYPE1, "amplitude_statistic applies to type1 instances")
    a = _tr_anc_outer(x.direction, x.v0, x.d2, x.r)
    return float(np.sum(np.abs(a) ** 2))


def choi_cross_statistic(x: HardInstance, y: HardInstance) -> np.ndarray:
    """The normalized cross term F driving the Choi trace-norm separation."""
    _pair_guard(x, y)
    _require(x.regime != Regime.TYPE1, "type1 uses d_statistic instead")
    center = x.v0
    if x.regime == Regime.TYPE2_LARGE:
        center = x.v0 / math.sqrt(1.0 - x.eps * x.eps)
    diff = x.direction - y.direction
    return _tr_anc_outer(center, diff, x.d2, x.r) / x.d1


def diamond_cross_statistic(x: HardInstance, y: HardInstance) -> np.ndarray:
    """The cross term built from the entangled-input witness W0."""
    _pair_guard(x, y)
    _require(
        x.regime in (Regime.TYPE2_NEAR, Regime.TYPE2_MID),
        "diamond witness exists for the near-boundary and mid regimes only",
    )
    params = _regime_params(x.regime, x.d1, x.d2, x.r)
    m_diam = params["m_diam"]
    w0 = _damped_diagonal(x.r * x.d2, x.d1, m_diam, m_diam, x.eps)
    diff = x.direction - y.direction
    return _tr_anc_outer(w0, diff, x.d2, x.r) / m_diam


# ---------------------------------------------------------------------------
# Moment experiments
# ---------------------------------------------------------------------------


class BoundRecord(NamedTuple):
    """One statistic checked against a one-sided bound from the paper.

    value is a Monte Carlo mean (with its standard error) or, for a
    Lipschitz probe, the largest observed ratio (stderr 0); kind is "lower"
    or "upper".
    """

    name: str
    value: float
    stderr: float
    bound: float
    kind: str
    ok: bool


class ProbeReport(NamedTuple):
    """The records of one moment or Lipschitz probe; draws counts its pairs or trials."""

    regime: Regime
    d1: int
    d2: int
    r: int
    eps: float
    draws: int
    records: tuple

    @property
    def all_ok(self) -> bool:
        return all(rec.ok for rec in self.records)


def _record(name: str, values: list, bound: float, kind: str) -> BoundRecord:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    shortfall = bound - mean if kind == "lower" else mean - bound
    return BoundRecord(name, mean, stderr, bound, kind, mc_verdict(shortfall, stderr, len(values), bound)[1])


def moment_experiment(
    regime: Regime | str,
    d1: int,
    d2: int,
    r: int,
    eps: float,
    *,
    pairs: int = 200,
    rng: np.random.Generator,
) -> ProbeReport:
    """Estimate the second and fourth moments of the separation statistics.

    Draws `pairs` independent (U_x, U_y) couples and compares the sample
    means of tr|D|^2 / tr|D|^4 (type1) or tr|F|^2 / tr|F|^4 (type2, Choi
    and, where defined, diamond witness variants) against the stated lower/upper
    bounds, each through the gate moments.mc_verdict on its one-sided shortfall.
    No command runs this; tests/test_acceptance.py does.
    """
    regime = Regime(regime)
    _require(pairs >= 2, "need at least two pairs for a standard error")
    family = _family(regime, d1, d2, r, eps)
    params, eps = family.params, family.eps

    columns: dict = {}

    def push(name: str, value: float) -> None:
        columns.setdefault(name, []).append(value)

    for _ in range(int(pairs)):
        x, y = _assemble(family, np.stack([haar_unitary(params["haar_dim"], rng) for _ in range(2)]))
        if regime == Regime.TYPE1:
            dmat = d_statistic(x, y)
            push("tr|D|^2", float(np.sum(np.abs(dmat) ** 2)))
            d2mat = dmat @ dmat
            push("tr|D|^4", float(np.sum(np.abs(d2mat) ** 2)))
            push("tr(A A^dag)", amplitude_statistic(x))
        else:
            f = choi_cross_statistic(x, y)
            push("choi tr|F|^2", float(np.sum(np.abs(f) ** 2)))
            gram = f.conj().T @ f
            push("choi tr|F|^4", float(np.sum(np.abs(gram) ** 2)))
            if regime in (Regime.TYPE2_NEAR, Regime.TYPE2_MID):
                fd = diamond_cross_statistic(x, y)
                push("diam tr|F|^2", float(np.sum(np.abs(fd) ** 2)))
                gram_d = fd.conj().T @ fd
                push("diam tr|F|^4", float(np.sum(np.abs(gram_d) ** 2)))

    if regime == Regime.TYPE1:
        table = {
            "tr|D|^2": (d1 * d1 / (20.0 * r), "lower"),
            "tr|D|^4": (12288.0 * d1**4 / r**3, "upper"),
            "tr(A A^dag)": ((1.0 - eps * eps) * (d1 // r) * params["dp"], "lower"),
        }
    elif regime == Regime.TYPE2_NEAR:
        md = params["m_diam"]
        table = {
            "choi tr|F|^2": (params["kappa"] / (2.0 * r), "lower"),
            "choi tr|F|^4": (256.0 / r**3, "upper"),
            "diam tr|F|^2": (1.0 / md, "lower"),
            "diam tr|F|^4": (64.0 / md**3, "upper"),
        }
    elif regime == Regime.TYPE2_MID:
        table = {
            "choi tr|F|^2": (params["kappa"] / (4.0 * r), "lower"),
            "choi tr|F|^4": (256.0 / r**3, "upper"),
            "diam tr|F|^2": (1.0 / r, "lower"),
            "diam tr|F|^4": (64.0 / r**3, "upper"),
        }
    else:
        table = {"choi tr|F|^2": (1.0 / r, "lower"), "choi tr|F|^4": (384.0 / r**3, "upper")}
    records = tuple(_record(name, columns[name], bound, kind) for name, (bound, kind) in table.items())
    return ProbeReport(regime, d1, d2, r, eps, int(pairs), records)


# ---------------------------------------------------------------------------
# Packing nets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PackingNet:
    """A sampled family of channels with its pairwise distance matrix."""

    regime: Regime
    d1: int
    d2: int
    r: int
    eps: float
    metric: str
    instances: tuple
    channels: tuple
    distances: np.ndarray
    min_pairwise: float
    seed: int | None = None
    unconverged: int = 0  # diamond_lower pairs whose see-saw hit its iteration cap

    @property
    def separation_ratio(self) -> float:
        return self.min_pairwise / self.eps if self.eps > 0 else math.inf

    def payload(self) -> dict:
        """The net's JSON document as a dict, each channel as channel_payload gives it."""
        return {
            "regime": self.regime.value,
            "dims": [self.d1, self.d2, self.r],
            "eps": self.eps,
            "metric": self.metric,
            "seed": self.seed,
            "min_pairwise": self.min_pairwise,
            "channels": [channel_payload(ch) for ch in self.channels],
        }


def _gram_gaps(chois: np.ndarray) -> tuple:
    """(F, s) for a (P, n, n) pool: F[i, j] = g_ii + g_jj - 2 g_ij, one (P, P)
    matrix built in place from the Gram matrix g_ij = Re <C_i, C_j> = x_i . x_j
    (x_i: the m = 2 n^2 interleaved real and imaginary parts of C_i; one real
    GEMM), and slacks s with |F[i, j] - ||C_i - C_j||_F^2| <= s_i + s_j.

    Rounding (u = 2^-53, gamma_m = m u / (1 - m u)): in any summation order a
    computed dot product is off by at most gamma_m sum_t |x_it x_jt| <=
    gamma_m (g_ii + g_jj) / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1). So -2 g_ij and the two norms carry 2 gamma_m
    (g_ii + g_jj), and the two additions round sums below 2 (1 + gamma_m)
    (g_ii + g_jj) once each: (2 m + 5) u (g_ii + g_jj) in all. s_i =
    4 (m + 3) u g_ii doubles that, which also covers rounding s and adding it.
    The slack is absolute: for near-identical candidates (tiny eps) it
    outweighs F, and the bounds merely loosen.
    """
    x = chois.reshape(len(chois), -1).view(np.float64)
    gaps = x @ x.T
    norms = gaps.diagonal().copy()
    gaps *= -2.0
    gaps += norms[:, None]
    gaps += norms
    return gaps, 4.0 * (x.shape[1] + 3) * linalg._UNIT_ROUNDOFF * norms


def _distance_upper_bounds(chois: np.ndarray, d_in: int, rank: int) -> np.ndarray:
    """U[i, j] >= the computed choi_trace_distances of each pool pair i < j,
    in one (P, P) matrix built in place. U[j, i] bounds the same pair: it
    sums the same terms in another order, which the analysis below allows.

    A Choi matrix here sums `rank` rank-one Kraus terms, so a difference D has
    rank at most k = min(2 rank, n) and ||D||_F <= ||D||_1 <= sqrt(k) ||D||_F.
    With delta = s_i + s_j from _gram_gaps and rho = 2^-16,

        U = (1 + rho) sqrt(k (F + 2 delta)) / d_in,
        L = (1 - rho) sqrt(max(F - 2 delta, 0)) / d_in

    bracket the computed value (only U is built; tests check both). That value
    is the trace norm of D0 + E: D0 the exact rank-k difference, E the Choi
    matrices' own rounding (which lifts their rank), the subtraction's and the
    eigensolver's backward error, ||E||_F <= c n u (||C_i||_F + ||C_j||_F) for
    a modest c. So it lies below sqrt(k) ||D||_F + (sqrt(k) + sqrt(n)) ||E||_F
    and above ||D||_F - sqrt(n) ||E||_F. As delta >= (2 n)^2 u (||C_i||_F +
    ||C_j||_F)^2, ||E||_F <= c sqrt(u) sqrt(delta) / 2, and the extra delta
    makes these terms relative ones below (1 + sqrt(n)) c sqrt(u) / 2, about
    5e-9 (1 + sqrt(n)) c; rho covers that, with the roundings of the sum and
    of U, for (1 + sqrt(n)) c up to about 2800.
    """
    bounds, slack = _gram_gaps(chois)
    slack *= 2.0
    bounds += slack[:, None]
    bounds += slack
    np.sqrt(bounds, out=bounds)
    n = chois.shape[-1]
    bounds *= (1.0 + linalg._BOUND_SLACK) * math.sqrt(min(2 * rank, n)) / d_in
    return bounds


_FIRST_PASS = 4  # candidates in a greedy round's first pass, before any gap is exact


def _maximin_net(chois: np.ndarray, d_in: int, rank: int, count: int) -> tuple:
    """The farthest-point subset of a pool, in pick order, and its
    choi_trace_distances: bit for bit those of the greedy over the full pool
    matrix (the widest pair first, by argmax's tie rule the smallest (i, j)
    with i < j; then the largest minimum distance to the points kept, the
    smallest index on ties).

    Exact distances are taken only where that greedy reads them, and each
    pool pair at most once: exact values overwrite the certified bounds of
    one (P, P) table, and a boolean mask marks them. For the widest pair,
    rows go in descending order of their top bound, and only pairs whose
    bound reaches the best exact distance so far are evaluated. Each later
    round keeps, per candidate, an upper bound on its gap (the minimum of
    the table over the points kept), and evaluates in passes: first the few
    candidates with the highest bounds, then every candidate whose bound
    reaches the best exact gap so far, each pass's unknown pairs stacked
    (in linalg.chunk_slices runs). Then no unevaluated candidate can win,
    nor tie with a smaller index. Differences are taken lower index first
    (C_i - C_j, i < j), so a distance has the same bits in any pass.
    """
    pool = len(chois)
    table = _distance_upper_bounds(chois, d_in, rank)
    np.fill_diagonal(table, 0.0)
    known = np.eye(pool, dtype=bool)

    def exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dists = np.concatenate(
            [
                choi_trace_distances(chois[lo[run]], chois[hi[run]], d_in)
                for run in linalg.chunk_slices(len(lo), chois[0].nbytes)
            ]
        )
        table[lo, hi] = table[hi, lo] = dists
        known[lo, hi] = known[hi, lo] = True
        return dists

    tops = np.array([table[i, i + 1 :].max() for i in range(pool - 1)])
    order = np.argsort(-tops, kind="stable")
    i = int(order[0])
    j = i + 1 + int(np.argmax(table[i, i + 1 :]))
    best, start = float(exact(np.array([i]), np.array([j]))[0]), (i, j)
    for i in order.tolist():
        if tops[i] < best:
            break
        js = i + 1 + np.flatnonzero((table[i, i + 1 :] >= best) & ~known[i, i + 1 :])
        if js.size:
            dists = exact(np.full(js.size, i), js)
            k = int(np.argmax(dists))
            if dists[k] > best or (dists[k] == best and (i, int(js[k])) < start):
                best, start = float(dists[k]), (i, int(js[k]))
    if best == 0.0:
        start = (0, 0)  # all candidates coincide: argmax over the full matrix lands on the diagonal

    keep = list(start)
    gaps = np.minimum(table[keep[0]], table[keep[1]])
    gaps[keep] = -1.0
    while len(keep) < count:
        kept = np.array(sorted(set(keep)))
        live, best = np.argsort(-gaps, kind="stable")[:_FIRST_PASS], -1.0
        while live.size:
            rows, cols = np.nonzero(~known[np.ix_(kept, live)])
            if rows.size:
                exact(kept[rows], live[cols])
            gaps[live] = table[np.ix_(kept, live)].min(axis=0)
            best = max(best, float(gaps[live].max()))
            live = np.flatnonzero((gaps >= best) & ~known[kept].all(axis=0))
        keep.append(int(np.argmax(gaps)))
        gaps = np.minimum(gaps, table[keep[-1]])
        gaps[keep[-1]] = -1.0
    return keep, table[np.ix_(keep, keep)]


def sample_packing_net(
    regime: Regime | str,
    d1: int,
    d2: int,
    r: int,
    eps: float,
    *,
    count: int = 16,
    metric: str = "choi",
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> PackingNet:
    """Sample a packing of `count` well-separated perturbed channels.

    Draws an oversampled cloud of 8 count candidates around the shared
    center (build_instances from rng, then instance_channels: stacked QR,
    dilation checks and Choi matrices, each candidate with the bits of
    build_instance(...).channel() alone) and keeps a greedy maximin
    (farthest point) subset, the numerical stand-in for a maximal separated
    family. Selection always uses the cheap Choi metric, and takes exact
    distances only where the greedy reads them (see _maximin_net): certified
    bounds from the pool's Gram matrix prune the search for the widest pair
    and each greedy round, so a pool pair is evaluated only while it can
    still decide a pick, and at most once.
    The net is the same, bit for bit, as a greedy over all pool distances.
    The reported pairwise distances use the requested metric: "choi"
    records the normalized Choi trace norm; "diamond_lower" the see-saw
    lower bound on the diamond distance (never below the Choi value, since
    the see-saw starts from the maximally entangled input), all pairs'
    restarts ascending as one stacked see-saw.
    Draws come from `rng`, else from default_rng(seed); the net records
    `seed`, so passing both raises before any draw.
    """
    regime = Regime(regime)
    count = int(count)
    _require(2 <= count <= 64, f"count must lie in [2, 64], got {count}")
    _require(metric in ("choi", "diamond_lower"), f"unknown metric {metric!r}")
    _require(rng is None or seed is None, "pass rng or seed, not both")
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    candidates = build_instances(regime, d1, d2, r, eps, [rng] * (8 * count))
    cand_channels = instance_channels(candidates)
    keep, choi_dist = _maximin_net(np.stack([ch.choi for ch in cand_channels]), d1, r, count)
    instances = tuple(candidates[k] for k in keep)
    channels = tuple(cand_channels[k] for k in keep)
    unconverged = 0
    if metric == "choi":
        dist = choi_dist
    else:
        pairs = list(combinations(range(count), 2))
        estimates = diamond_distances(
            [(channels[i], channels[j]) for i, j in pairs], restarts=2, rng=rng
        )
        dist = np.zeros((count, count))
        for (i, j), est in zip(pairs, estimates):
            dist[i, j] = dist[j, i] = est.lower
        unconverged = sum(not est.converged for est in estimates)
    min_pairwise = float(min(dist[i, j] for i, j in combinations(range(count), 2)))
    return PackingNet(
        regime=regime,
        d1=d1,
        d2=d2,
        r=r,
        eps=eps,
        metric=metric,
        instances=instances,
        channels=channels,
        distances=dist,
        min_pairwise=min_pairwise,
        seed=seed,
        unconverged=unconverged,
    )


# ---------------------------------------------------------------------------
# Lipschitz probes
# ---------------------------------------------------------------------------


def _unitary_step(u: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Move u a Frobenius distance of order `scale` along the unitary group."""
    dim = u.shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h *= scale / max(np.linalg.norm(h), 1e-30)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T @ u


def lipschitz_probe(
    regime: Regime | str,
    d1: int,
    d2: int,
    r: int,
    eps: float,
    *,
    trials: int = 200,
    rng: np.random.Generator,
) -> ProbeReport:
    """Finite-difference check of the stated Lipschitz constants.

    Each trial evaluates the separation statistic at a random pair of
    unitaries and at a perturbed pair (alternating geodesic steps of
    Frobenius size about 1e-3 and independent redraws), and records
    |delta f| over the Frobenius distance of the pair.  The ratio must stay
    below the stated constant. No command runs this; tests/test_acceptance.py
    does.
    """
    regime = Regime(regime)
    family = _family(regime, d1, d2, r, eps)
    params, eps = family.params, family.eps
    hd = params["haar_dim"]

    def make(u: np.ndarray) -> HardInstance:
        return _assemble(family, u[None])[0]

    probes: list = []
    if regime == Regime.TYPE1:

        def f_choi(ux: np.ndarray, uy: np.ndarray) -> float:
            x, y = make(ux), make(uy)
            cx = _tr_anc_outer(x.matrix, x.matrix, d2, r)
            cy = _tr_anc_outer(y.matrix, y.matrix, d2, r)
            return trace_norm(cx - cy) / d1

        probes.append(("choi distance", eps * math.sqrt(32.0 / d1), f_choi))
    else:

        def f_choi(ux: np.ndarray, uy: np.ndarray) -> float:
            return trace_norm(choi_cross_statistic(make(ux), make(uy)))

        probes.append(("choi cross term", math.sqrt(2.0 / d1), f_choi))
        if regime in (Regime.TYPE2_NEAR, Regime.TYPE2_MID):
            md = params["m_diam"]

            def f_diam(ux: np.ndarray, uy: np.ndarray) -> float:
                return trace_norm(diamond_cross_statistic(make(ux), make(uy)))

            probes.append(("diamond cross term", math.sqrt(2.0 / md), f_diam))

    maxima = [0.0 for _ in probes]
    for trial in range(int(trials)):
        ux, uy = haar_unitary(hd, rng), haar_unitary(hd, rng)
        if trial % 2 == 0:
            scale = 1e-3 * rng.uniform(0.2, 1.0)
            ux2 = _unitary_step(ux, scale, rng)
            uy2 = _unitary_step(uy, scale, rng)
        else:
            ux2, uy2 = haar_unitary(hd, rng), haar_unitary(hd, rng)
        denom = math.sqrt(
            np.linalg.norm(ux - ux2) ** 2 + np.linalg.norm(uy - uy2) ** 2
        )
        for idx, (_, _, fn) in enumerate(probes):
            if denom < 1e-12:
                continue
            ratio = abs(fn(ux2, uy2) - fn(ux, uy)) / denom
            maxima[idx] = max(maxima[idx], ratio)

    records = tuple(
        BoundRecord(name, top, 0.0, const, "upper", top <= const * (1.0 + 1e-3))
        for (name, const, _), top in zip(probes, maxima)
    )
    return ProbeReport(regime, d1, d2, r, eps, int(trials), records)


# ---------------------------------------------------------------------------
# Gamma vector families and their comb certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaFamily:
    """Building blocks g0 = vec(center), g1 = vec(eps * direction).

    Vectors live on an output factor of dimension big_d (most significant)
    and an input factor of dimension d.  The two family kinds differ in the
    direction: an anti-Hermitian diagonal inside the embedded square block
    ("type1") or a shift into fresh output rows ("type2").  Both satisfy
    tr_out(g0 g0^dag) + tr_out(g1 g1^dag) = I exactly.
    """

    kind: str
    d: int
    big_d: int
    eps: float
    g0: np.ndarray
    g1: np.ndarray


def type1_gamma_family(d: int, big_d: int, eps: float) -> GammaFamily:
    d, big_d = int(d), int(big_d)
    _require(d >= 2, "type1 family needs d >= 2")
    _require(big_d >= d, "type1 family needs big_d >= d")
    eps = float(eps)
    _require(0.0 <= eps <= 1.0, f"eps must lie in [0, 1], got {eps}")
    dp = 2 * (d // 2)
    v0 = _damped_diagonal(big_d, d, d, dp, eps)
    delta = _plus_minus_i_diagonal(big_d, d, dp)
    return GammaFamily(
        kind="type1", d=d, big_d=big_d, eps=eps, g0=v0.reshape(-1), g1=eps * delta.reshape(-1)
    )


def type2_gamma_family(d: int, big_d: int, eps: float) -> GammaFamily:
    d, big_d = int(d), int(big_d)
    _require(d >= 1, "type2 family needs d >= 1")
    _require(big_d > d, "type2 family needs big_d > d")
    eps = float(eps)
    _require(0.0 <= eps <= 1.0, f"eps must lie in [0, 1], got {eps}")
    dp = min(d, big_d - d)
    v0 = _damped_diagonal(big_d, d, d, dp, eps)
    delta = np.zeros((big_d, d), dtype=complex)
    for i in range(dp):
        delta[d + i, i] = 1.0
    return GammaFamily(
        kind="type2", d=d, big_d=big_d, eps=eps, g0=v0.reshape(-1), g1=eps * delta.reshape(-1)
    )


def _gamma_budget(family: GammaFamily, n: int, columns: int = 1) -> None:
    _require(n >= 1, f"n must be at least 1, got {n}")
    dim = (family.big_d * family.d) ** n
    # a level holds a few dim-row factors: the operator's columns and up to
    # 2^n reference vectors, each traced, extended and stacked
    require_bytes(64 * dim * (columns + 2**n), f"a {dim}-wide gamma certificate")


def _gamma_product(family: GammaFamily, subset: frozenset, n: int) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for j in range(n):
        vec = linalg.kron(vec, family.g1 if j in subset else family.g0)
    return vec


def _gamma_weight_vector(family: GammaFamily, weight: int, n: int) -> np.ndarray:
    _require(0 <= weight <= n, f"weight must lie in [0, {n}], got {weight}")
    total = np.zeros((family.big_d * family.d) ** n, dtype=complex)
    for subset in combinations(range(n), weight):
        total += _gamma_product(family, frozenset(subset), n)
    return total / math.sqrt(math.comb(n, weight))


def _span(vectors: list, weights) -> FactoredOperator:
    """sum_i weights[i] |v_i><v_i|, one column per vector."""
    return FactoredOperator(np.stack(vectors, axis=1), weights)


def _type1_subset(index, n: int) -> frozenset:
    subset = frozenset(int(i) for i in index)
    _require(subset <= set(range(n)), f"subset {sorted(subset)} outside range({n})")
    return subset


def gamma_vector(family: GammaFamily, index, n: int) -> FactoredOperator:
    """|gamma><gamma| over n (output, input) factor pairs, as a rank-one factor.

    For a type1 family `index` is the subset of perturbed slots; for a
    type2 family it is the total perturbation weight (the vector is the
    normalized sum over subsets of that size).
    """
    _gamma_budget(family, n)
    if family.kind == "type1":
        vec = _gamma_product(family, _type1_subset(index, n), n)
    else:
        vec = _gamma_weight_vector(family, int(index), n)
    return _span([vec], [1.0])


def _level_gap(
    current: FactoredOperator, reference: FactoredOperator, family: GammaFamily
) -> float:
    """min_eig(P kron I_d - tr_B(current)) for the last (output, input) pair.

    Rows run over the pairs (B_j, A_j) of dims (D, d), the first most
    significant. Tracing the last B moves its index into the columns, as G,
    so the check is on the stacked factor [P kron I_d | G] with weights
    [repeat(s, d) | -tile(w, D)], for reference P diag(s) P^dag and current
    F diag(w) F^dag.
    """
    big_d, d = family.big_d, family.d
    k = current.factor.shape[1]
    g = current.factor.reshape(-1, big_d, d, k).transpose(0, 2, 1, 3).reshape(-1, big_d * k)
    factor = np.hstack([linalg.kron(reference.factor, np.eye(d)), g])
    weights = np.concatenate([np.repeat(reference.weights, d), -np.tile(current.weights, big_d)])
    return FactoredOperator(factor, weights).min_eig()


def _type1_steps(op: FactoredOperator, family: GammaFamily, n: int, subset):
    """(level, current, reference) steps of a type1 certificate, level n first.

    A level's reference spans the subset's product vectors one level down
    (every subset's for None: the full family sum) and is the next level's
    current.
    """
    current = op
    for level in range(n, 0, -1):
        if subset is None:
            chosen = [
                frozenset(c) for size in range(level) for c in combinations(range(level - 1), size)
            ]
        else:
            chosen = [subset & set(range(level - 1))]
        vectors = [_gamma_product(family, c, level - 1) for c in chosen]
        reference = _span(vectors, np.ones(len(vectors)))
        yield level, current, reference
        current = reference


def _type2_steps(op: FactoredOperator, family: GammaFamily, n: int, weight: int):
    """(level, current, reference) steps of a type2 certificate, level n first.

    Level l takes every weight w that `weight` reaches by dropping at most
    one per level, min(weight, l) down to max(0, weight - (n - l)).  The
    reference mixes the weight vectors w and w - 1 one level down,
    binomially weighted.  Each (weight, level) vector is built once: the
    references of one level are the currents of the next.
    """
    built = {}

    def vector(w: int, level: int) -> np.ndarray:
        if (w, level) not in built:
            built[w, level] = _gamma_weight_vector(family, w, level)
        return built[w, level]

    for level in range(n, 0, -1):
        for w in range(min(weight, level), max(0, weight - (n - level)) - 1, -1):
            if level == n:
                current = op
            else:
                current = _span([vector(w, level)], [1.0])
            vectors, weights = [], []
            if w <= level - 1:
                vectors.append(vector(w, level - 1))
                weights.append(math.comb(level - 1, w) / math.comb(level, w))
            if w >= 1:
                vectors.append(vector(w - 1, level - 1))
                weights.append(math.comb(level - 1, w - 1) / math.comb(level, w))
            yield level, current, _span(vectors, weights)


def certify_gamma_comb(op: FactoredOperator, family: GammaFamily, n: int, index=None) -> CombCheck:
    """Run the recursive partial-trace certificate on a gamma operator.

    Checks positivity, then walks the teeth from the last to the first,
    verifying at each level that tracing the output factor is dominated by
    the appropriate lower-level family operator tensored with identity
    (for type2 families, the binomially weighted mixture of the two
    adjacent weights).  `index` selects the branch: a subset for type1
    (None certifies against the full family sum), the weight for type2;
    it is checked before any eigensolve.  Both families run one loop over
    their steps and report the first level whose gap is not at least
    -COMB_ATOL, nan included; below level n a step compares family vectors
    only.

    Every level is an eigenproblem on the span of the factor columns, not
    on a dense matrix.  A `gamma_vector` operator has one column, so the
    span stays about 2^n wide at any dimension.
    """
    _gamma_budget(family, n, op.factor.shape[1])
    rows = (family.big_d * family.d) ** n
    _require(op.dim == rows, f"operator has {op.dim} rows, not the {rows} of {n} factor pairs")
    if family.kind == "type1":
        steps = _type1_steps(op, family, n, None if index is None else _type1_subset(index, n))
    else:
        _require(index is not None, "type2 certification needs the weight index")
        weight = int(index)
        _require(0 <= weight <= n, f"weight must lie in [0, {n}], got {weight}")
        steps = _type2_steps(op, family, n, weight)
    # a non-finite factor fails positivity with a nan gap, before an eigensolve meets it
    gap = op.min_eig() if np.isfinite(op.factor).all() else np.nan
    if not gap >= -COMB_ATOL:
        return CombCheck(False, -1, float(-gap))
    worst = 0.0
    for level, current, reference in steps:
        gap = _level_gap(current, reference, family)
        if not gap >= -COMB_ATOL:
            return CombCheck(False, level, float(-gap))
        worst = max(worst, max(0.0, -gap))
    return CombCheck(True, None, worst)
