"""Labelled operators, the link product, comb constraints, and testers.

Multi-round strategies are operators on labelled tensor factors. Keeping the
labels attached to the arrays lets the link product, causality recursions and
tester contractions align factors by name instead of by error-prone position
bookkeeping. Labels become positions only in LabelledOperator, at the numpy
boundary; a FactoredOperator carries no labels. The link product is one
einsum over the operands' factor indices, so it never builds an operator on
the union of their factors.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import Channel, Isometry, choi_from_kraus
from .linalg import (
    FactorLayout,
    kron,
    min_eig,
    partial_trace,
    permute_factors,
    psd_inv_sqrt,
    psd_sqrt,
    random_density,
    random_gaussian_matrix,
)

COMB_ATOL = 1e-8

__all__ = [
    "COMB_ATOL",
    "LabelledOperator",
    "FactoredOperator",
    "identity_on",
    "link_product",
    "CombCheck",
    "is_deterministic_comb",
    "Tester",
    "apply_tester",
    "random_parallel_tester",
]


@dataclass(frozen=True)
class LabelledOperator:
    """A square operator together with the layout of its tensor factors."""

    op: np.ndarray
    layout: FactorLayout

    def __post_init__(self):
        if not isinstance(self.layout, FactorLayout):
            object.__setattr__(self, "layout", FactorLayout(tuple(self.layout)))
        op = np.array(self.op, dtype=complex)
        d = self.layout.dim
        if op.shape != (d, d):
            raise ValueError(
                f"operator shape {op.shape} does not match layout dimension {d}"
            )
        op.setflags(write=False)
        object.__setattr__(self, "op", op)

    @property
    def labels(self) -> tuple:
        return self.layout.labels

    @property
    def scalar(self) -> complex:
        if len(self.layout) != 0:
            raise ValueError("operator still carries tensor factors")
        return complex(self.op[0, 0])

    def scaled(self, factor: complex) -> "LabelledOperator":
        return LabelledOperator(self.op * factor, self.layout)

    def aligned_to(self, target) -> "LabelledOperator":
        """Permute factors into the order of target (labels or a layout)."""
        labels = target.labels if isinstance(target, FactorLayout) else tuple(target)
        if set(labels) != set(self.labels) or len(labels) != len(self.labels):
            raise ValueError("alignment target must carry the same labels")
        if labels == self.labels:
            return self
        op = permute_factors(self.op, self.layout.dims, self.layout.positions(labels))
        return LabelledOperator(op, self.layout.restricted(labels))

    def tensor(self, other: "LabelledOperator") -> "LabelledOperator":
        if set(self.labels) & set(other.labels):
            raise ValueError("tensor factors must carry distinct labels")
        return LabelledOperator(
            kron(self.op, other.op),
            FactorLayout(self.layout.factors + other.layout.factors),
        )

    def partial_trace(self, labels: Sequence) -> "LabelledOperator":
        labels = tuple(labels)
        if not labels:
            return self
        op = partial_trace(self.op, self.layout.dims, self.layout.positions(labels))
        return LabelledOperator(op, self.layout.without(labels))


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """A Hermitian operator F diag(w) F^dag on plain positions.

    factor is a dim x k matrix and weights holds k reals, so the operator
    costs O(dim k) memory, and the smallest eigenvalue comes from a k x k
    problem on the span of the columns, so no dense matrix is ever built.
    The constructor takes the arrays as they are (np.asarray, no copy) and
    checks only that their shapes agree; callers order the rows themselves.
    """

    factor: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        factor = np.asarray(self.factor, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if factor.ndim != 2 or weights.shape != (factor.shape[1],):
            raise ValueError(
                f"factor shape {factor.shape} does not match weights shape {weights.shape}"
            )
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def scaled(self, factor: float) -> "FactoredOperator":
        return FactoredOperator(self.factor, self.weights * float(factor))

    def min_eig(self) -> float:
        """Smallest eigenvalue, from R diag(w) R^dag with F = QR.

        F diag(w) F^dag has the eigenvalues of that min(k, dim)-wide matrix,
        plus zeros when the k columns cannot span the whole space.
        """
        r = np.linalg.qr(self.factor, mode="r")
        low = min_eig((r * self.weights) @ r.conj().T)
        return min(low, 0.0) if self.factor.shape[1] < self.dim else low


def identity_on(layout: FactorLayout) -> LabelledOperator:
    return LabelledOperator(np.eye(layout.dim, dtype=complex), layout)


def link_product(x: LabelledOperator, y: LabelledOperator) -> LabelledOperator:
    """Link product x * y, contracting the labels the two operands share.

    (x * y)[a b, a' b'] = sum over s, s' of x[a s', a' s] y[s' b, s b'], with a
    the x-exclusive factors, b the y-exclusive ones and s the shared ones: one
    einsum in which each shared label carries the same row and the same
    column letter in both operands. The result carries the x-exclusive
    factors followed by the y-exclusive ones; with full overlap it is a
    scalar (empty layout).
    """
    shared = [lab for lab in x.labels if lab in y.layout]
    for lab in shared:
        if x.layout.dim_of(lab) != y.layout.dim_of(lab):
            raise ValueError(f"shared label {lab!r} has mismatched dimensions")
    labels = x.labels + tuple(lab for lab in y.labels if lab not in x.layout)
    letters = string.ascii_letters
    if 2 * len(labels) > len(letters):
        raise ValueError("too many tensor factors")
    row = dict(zip(labels, letters))
    col = dict(zip(labels, letters[len(labels) :]))

    def sub(labs) -> str:
        return "".join(row[lab] for lab in labs) + "".join(col[lab] for lab in labs)

    layout = FactorLayout(x.layout.without(shared).factors + y.layout.without(shared).factors)
    t = np.einsum(
        f"{sub(x.labels)},{sub(y.labels)}->{sub(layout.labels)}",
        x.op.reshape(x.layout.dims * 2),
        y.op.reshape(y.layout.dims * 2),
    )
    return LabelledOperator(t.reshape(layout.dim, layout.dim), layout)


class CombCheck(NamedTuple):
    """Outcome of a causality check.

    failed_level is None on success, -1 for a positivity failure, j >= 1 for
    the normalization constraint at tooth j, and 0 for the final scalar.
    defect is the offending magnitude (worst observed one on success).
    """

    ok: bool
    failed_level: int | None
    defect: float

    def __bool__(self) -> bool:
        return self.ok


def _validate_ordering(x: LabelledOperator, ordering: Sequence) -> tuple:
    groups = tuple(tuple(g) for g in ordering)
    if len(groups) % 2 != 0 or not groups:
        raise ValueError("ordering must list an even number of label groups")
    seen: list = []
    for g in groups:
        seen.extend(g)
    if len(set(seen)) != len(seen):
        raise ValueError("ordering groups must be disjoint")
    if set(seen) != set(x.labels):
        raise ValueError("ordering must cover exactly the operator's labels")
    return groups


def _psd_defect(op: np.ndarray) -> float:
    """-min_eig(op), or nan, which fails every check, when op has a non-finite
    entry (eigvalsh may drop a nan diagonal entry silently, or raise)."""
    return -min_eig(op) if np.isfinite(op).all() else np.nan


def is_deterministic_comb(x: LabelledOperator, ordering: Sequence) -> CombCheck:
    """Check the causality constraints of a deterministic comb.

    ordering alternates input and output label groups,
    (in_1, out_1, ..., in_n, out_n); an empty group is a trivial factor.
    The recursion peels teeth from the back: tracing out out_j must leave
    identity on in_j tensored with the next comb down, and the fully
    contracted scalar must be 1.
    """
    groups = _validate_ordering(x, ordering)
    n = len(groups) // 2
    worst = _psd_defect(x.op)
    if not worst <= COMB_ATOL:
        return CombCheck(False, -1, worst)
    worst = max(0.0, worst)
    cur = x
    for j in range(n, 0, -1):
        in_g, out_g = groups[2 * j - 2], groups[2 * j - 1]
        traced = cur.partial_trace(out_g)
        d_in = 1
        for lab in in_g:
            d_in *= traced.layout.dim_of(lab)
        nxt = traced.partial_trace(in_g).scaled(1.0 / d_in)
        if in_g:
            ident = identity_on(traced.layout.restricted(in_g))
            target = nxt.tensor(ident).aligned_to(traced.layout)
        else:
            target = nxt
        defect = float(np.max(np.abs(traced.op - target.op)))
        if not defect <= COMB_ATOL:
            return CombCheck(False, j, defect)
        worst = max(worst, defect)
        cur = nxt
    defect = abs(cur.scalar - 1.0)
    if not defect <= COMB_ATOL:
        return CombCheck(False, 0, float(defect))
    return CombCheck(True, None, max(worst, float(defect)))


@dataclass(frozen=True)
class Tester:
    """A quantum tester: POVM-like outcomes over a multi-query strategy.

    outcomes maps outcome labels to labelled operators; in_labels[j] and
    out_labels[j] are the label groups of the j-th query's input and output
    interfaces (the output group also carries an ancilla label when the
    tester probes dilations rather than channels). Group order is the
    significance order of the corresponding factors. The tester is
    parallel: construction checks that its outcome sum is a deterministic
    comb in the ordering ((), inputs, outputs, ()), that is rho on the
    inputs tensor identity on the outputs, with rho a state.
    """

    outcomes: tuple
    in_labels: tuple
    out_labels: tuple

    def __post_init__(self):
        outcomes = tuple((lab, op) for lab, op in self.outcomes)
        in_labels = tuple(tuple(g) for g in self.in_labels)
        out_labels = tuple(tuple(g) for g in self.out_labels)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "in_labels", in_labels)
        object.__setattr__(self, "out_labels", out_labels)
        if not outcomes:
            raise ValueError("a tester needs at least one outcome")
        names = [lab for lab, _ in outcomes]
        if len(set(names)) != len(names):
            raise ValueError("outcome labels must be distinct")
        if len(in_labels) != len(out_labels) or not in_labels:
            raise ValueError("need matching nonempty in/out label groups")
        inputs = tuple(lab for g in in_labels for lab in g)
        outputs = tuple(lab for g in out_labels for lab in g)
        expected = set(inputs + outputs)
        ref = outcomes[0][1].layout
        for lab, op in outcomes:
            if set(op.labels) != expected:
                raise ValueError(f"outcome {lab!r} carries the wrong labels")
            for f in op.layout.factors:
                if ref.dim_of(f[0]) != f[1]:
                    raise ValueError(f"outcome {lab!r} disagrees on dimensions")
            neg = _psd_defect(op.op)
            if not neg <= COMB_ATOL:
                raise ValueError(f"outcome {lab!r} is not psd (defect {neg:.3e})")
        check = is_deterministic_comb(self._sum(), ((), inputs, outputs, ()))
        if not check.ok:
            raise ValueError(
                f"tester outcomes do not sum to a deterministic comb "
                f"(level {check.failed_level}, defect {check.defect:.3e})"
            )

    @property
    def n_queries(self) -> int:
        return len(self.in_labels)

    @property
    def outcome_names(self) -> tuple:
        return tuple(lab for lab, _ in self.outcomes)

    def _sum(self) -> LabelledOperator:
        ref = self.outcomes[0][1]
        total = ref.op.copy()
        for _, op in self.outcomes[1:]:
            total = total + op.aligned_to(ref.layout).op
        return LabelledOperator(total, ref.layout)

    def input_state(self) -> LabelledOperator:
        """Reduced input state on the query inputs, tr_out(sum) / dim_out."""
        s = self._sum()
        out_flat = [lab for g in self.out_labels for lab in g]
        d_out = 1
        for lab in out_flat:
            d_out *= s.layout.dim_of(lab)
        return s.partial_trace(out_flat).scaled(1.0 / d_out)


def _labelled_choi(process, out_group, in_group, ref: FactorLayout) -> LabelledOperator:
    """Choi operator of one query, labelled with the tester's groups."""
    out_dims = tuple(ref.dim_of(lab) for lab in out_group)
    in_dims = tuple(ref.dim_of(lab) for lab in in_group)
    d_out = 1
    for d in out_dims:
        d_out *= d
    d_in = 1
    for d in in_dims:
        d_in *= d
    if isinstance(process, Isometry):
        if process.matrix.shape != (d_out, d_in):
            raise ValueError("tester query dimensions do not match the dilation")
        op = choi_from_kraus(process.matrix[None])
    elif isinstance(process, Channel):
        if d_out != process.d_out or d_in != process.d_in:
            raise ValueError("tester query dimensions do not match the channel")
        op = process.choi
    else:
        raise TypeError(f"cannot apply a tester to {type(process).__name__}")
    layout = FactorLayout(tuple(zip(out_group, out_dims)) + tuple(zip(in_group, in_dims)))
    return LabelledOperator(op, layout)


def apply_tester(tester: Tester, process) -> np.ndarray:
    """Outcome probabilities of running the tester on n copies of process.

    The process (a Channel, or an Isometry dilation when the tester carries
    ancilla factors) is queried once per in/out group pair; probabilities
    come out in the order of tester.outcomes.
    """
    ref = tester.outcomes[0][1].layout
    full = None
    for j in range(tester.n_queries):
        block = _labelled_choi(process, tester.out_labels[j], tester.in_labels[j], ref)
        full = block if full is None else full.tensor(block)
    probs = np.empty(len(tester.outcomes))
    for i, (_, op) in enumerate(tester.outcomes):
        probs[i] = link_product(op, full).scalar.real
    return probs


def random_parallel_tester(
    n_queries: int,
    d_in: int,
    d_out: int,
    n_outcomes: int,
    rng: np.random.Generator,
    anc_dim: int | None = None,
) -> Tester:
    """Random parallel tester on n_queries copies of a d_in -> d_out process.

    When anc_dim is given the output groups carry an extra ancilla factor,
    producing a tester for dilations of that ancilla size. The construction
    conjugates random psd blocks G_i into a resolution of rho x identity:
    T_i = X G_i X^dag with X = (rho x I)^(1/2) S^(-1/2), S = sum G_i.
    """
    factors_in = tuple((("A", j), d_in) for j in range(n_queries))
    factors_out: tuple = ()
    for j in range(n_queries):
        if anc_dim is not None:
            factors_out += ((("anc", j), anc_dim),)
        factors_out += ((("B", j), d_out),)
    layout = FactorLayout(factors_in + factors_out)
    d_total = layout.dim
    d_a = d_in**n_queries
    rho = random_density(d_a, rng)
    gs = []
    for _ in range(n_outcomes):
        g = random_gaussian_matrix(d_total, d_total, rng)
        gs.append(g @ g.conj().T)
    s = sum(gs)
    x = psd_sqrt(kron(rho, np.eye(d_total // d_a))) @ psd_inv_sqrt(s)
    outcomes = tuple(
        (i, LabelledOperator(x @ g @ x.conj().T, layout)) for i, g in enumerate(gs)
    )
    if anc_dim is not None:
        out_groups = tuple((("anc", j), ("B", j)) for j in range(n_queries))
    else:
        out_groups = tuple((("B", j),) for j in range(n_queries))
    return Tester(
        outcomes=outcomes,
        in_labels=tuple((("A", j),) for j in range(n_queries)),
        out_labels=out_groups,
    )
