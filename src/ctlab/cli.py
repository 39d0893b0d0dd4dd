"""Command line front end: seeded invariant suites with machine-readable output.

Every subcommand takes a required --seed, runs a batch of deterministic
checks, and emits one report (JSON, or the checks table as CSV).  Exit code
0 means every check passed, 1 that at least one failed, 2 a usage error and
3 a run declined before any work because the bytes of arrays its options
need, counts included, exceed linalg.MAX_BYTES.  Trials run in index order on
the calling thread, trial i on its own generator seeded by SeedSequence([seed, i]).
Both tomography modes run their trials as one batch.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__, linalg
from .channels import (
    Isometry,
    channel_from_json,
    channel_to_json,
    dilate,
    isometries,
    random_channel,
    random_dilations,
)
from .combs import LabelledOperator, link_product, random_parallel_tester
from .hardness import (
    Regime,
    build_instance,
    certify_gamma_comb,
    gamma_vector,
    sample_packing_net,
    type2_gamma_family,
)
from .linalg import (
    FactorLayout,
    haar_unitary,
    isometry_defect,
    kron,
    random_density,
    random_isometry,
    require_bytes,
    trace_norm,
)
from .localtest import dilation_forms, verify_dilation_identity
from .metrics import (
    channel_fidelity,
    choi_trace_distance,
    diamond_distance,
    fidelity_trace_conversion,
    unitary_diamond_distance,
)
from .moments import fourth_moment_trace, mc_fourth_moment_traces, mc_verdict, twirl1, twirl2
from .tomography import (
    MIN_EPS,
    PureStateOracleConfig,
    channel_tomography,
    isometry_tomography,
    min_phase_op_error,
    two_run_estimates,
)

_REGIME_NAMES = [r.value for r in Regime]
_POSITIVE = click.IntRange(min=1)


def _trial_rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, index]))


def _map_trials(fn, count: int, root_seed: int) -> list:
    """Run fn(index, rng) for each trial in index order, trial i on its own generator."""
    return [fn(i, _trial_rng(root_seed, i)) for i in range(count)]


def _check(name: str, passed: bool, value: float, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "value": float(value), "detail": detail}


def _budget_guard(nbytes: int) -> None:
    try:  # 16 MiB more for the interpreter, the report and fixed-size workspaces
        require_bytes(nbytes + 2**24, "the run")
    except ValueError as exc:
        click.echo(f"declined: {exc}", err=True)
        sys.exit(3)


def _seesaws_converged(unconverged: int, total: int) -> dict:
    """Check row counting the diamond see-saws that hit their iteration cap."""
    return _check("see-saws converged", unconverged == 0, float(unconverged), f"{total} see-saws")


def _channel_rank(d1: int, d2: int, r: int, rng: np.random.Generator) -> int:
    """A Kraus rank, drawn uniformly, of channels d1 -> d2 that admit a dilation with ancilla r."""
    return int(rng.integers(-(-d1 // d2), min(r, d1 * d2) + 1))


def _random_channel(d1: int, d2: int, r: int, rng: np.random.Generator):
    """Random channel d1 -> d2 of a _channel_rank drawn from rng first."""
    return random_channel(d1, d2, _channel_rank(d1, d2, r, rng), rng)


def _emit(checks: list, extra: dict | None = None):
    """Write the current command's report; its config lists the declared options in order."""
    ctx = click.get_current_context()
    fmt, out = ctx.params["fmt"], ctx.params["out"]
    report = {
        "command": ctx.command.name,
        "version": __version__,
        "config": {
            p.name: ctx.params[p.name] for p in ctx.command.params if p.name not in ("fmt", "out")
        },
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    if extra:
        report.update(extra)
    # one writer for stdout and a file, so both get the same bytes; json.dump writes the
    # encoder's chunks as they come, where json.dumps would join them all into one string
    # first (indent=2 runs the pure-Python encoder)
    with contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w") as fh:
        if fmt == "json":
            json.dump(report, fh, indent=2)
        else:
            writer = csv.writer(fh)
            writer.writerow(["name", "passed", "value", "detail"])
            for c in checks:
                writer.writerow([c["name"], c["passed"], repr(c["value"]), c["detail"]])
        fh.write("\n")
        fh.flush()
    sys.exit(0 if report["all_passed"] else 1)


def _writable_out(ctx, param, value: str) -> str:
    """Reject an --out path that cannot be written, before the command does any work."""
    if value == "-":
        return value
    if os.path.exists(value):
        ok = not os.path.isdir(value) and os.access(value, os.W_OK)
    else:
        parent = os.path.dirname(value) or "."
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise click.BadParameter(f"cannot write a report to {value!r}", ctx=ctx, param=param)
    return value


def _common(fn):
    fn = click.option(
        "--out", default="-", show_default=True, callback=_writable_out, help="Output path, - for stdout."
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Report format (csv emits the checks table only).",
    )(fn)
    fn = click.option(
        "--seed", type=click.IntRange(min=0), required=True, help="Root seed for all randomness."
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="ctlab")
def main():
    """Numerical laboratory for channel estimation experiments."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@_common
def verify(seed: int, fmt: str, out: str):
    """Fast cross-module invariant suite on small seeded examples."""
    checks = []

    rng = _trial_rng(seed, 0)
    ch = random_channel(3, 2, 2, rng)
    back = type(ch).from_kraus(ch.kraus)
    defect = float(np.max(np.abs(back.choi - ch.choi)))
    redil = dilate(ch, 3).channel(ch.d_out)
    defect = max(defect, float(np.max(np.abs(redil.choi - ch.choi))))
    checks.append(_check("kraus and dilation round trips", defect < 1e-9, defect))

    rng = _trial_rng(seed, 1)
    ch = random_channel(2, 3, 2, rng)
    rho = random_density(2, rng)
    lc = LabelledOperator(
        ch.choi, FactorLayout(((("B", 0), ch.d_out), (("A", 0), ch.d_in)))
    )
    lrho = LabelledOperator(rho, FactorLayout(((("A", 0), ch.d_in),)))
    linked = link_product(lc, lrho)
    defect = float(np.max(np.abs(linked.op - ch.apply(rho))))
    checks.append(_check("link product applies the channel", defect < 1e-9, defect))

    rng = _trial_rng(seed, 2)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    t1 = twirl1(m, (3, 2), 0)
    target = kron(np.eye(3) / 3.0, np.trace(m.reshape(3, 2, 3, 2), axis1=0, axis2=2))
    defect = float(np.max(np.abs(t1 - target)))
    checks.append(_check("single-factor twirl fixed point", defect < 1e-9, defect))

    dim = 3
    exact = fourth_moment_trace(np.eye(dim), np.eye(dim), np.eye(dim), np.eye(dim))
    defect = abs(exact - dim)
    checks.append(_check("fourth moment identity case", defect < 1e-12, defect))

    worst = 0.0
    for idx, (regime, dims) in enumerate(
        [
            (Regime.TYPE1, (4, 2, 2)),
            (Regime.TYPE2_NEAR, (5, 2, 3)),
            (Regime.TYPE2_MID, (4, 3, 2)),
            (Regime.TYPE2_LARGE, (2, 4, 3)),
        ]
    ):
        rng = _trial_rng(seed, 10 + idx)
        inst = build_instance(regime, dims[0], dims[1], dims[2], 0.1, rng)
        worst = max(worst, isometry_defect(inst.matrix))
    checks.append(_check("hard instances are exact isometries", worst < 1e-9, worst))

    family = type2_gamma_family(2, 3, 0.2)
    op = gamma_vector(family, 1, 2)
    cert = certify_gamma_comb(op, family, 2, index=1)
    scaled = certify_gamma_comb(op.scaled(1.5), family, 2, index=1)
    ok = bool(cert.ok) and not scaled.ok
    checks.append(_check("gamma comb certificate accepts and rejects", ok, cert.defect))

    rng = _trial_rng(seed, 20)
    target = random_isometry(4, 2, rng)[None]
    estimate = two_run_estimates(target, PureStateOracleConfig(eps_max=0.0), [rng])[0]
    err = min_phase_op_error(target[0], estimate)
    checks.append(_check("noiseless tomography recovers the target", err < 1e-9, err))

    rng = _trial_rng(seed, 21)
    net = sample_packing_net(Regime.TYPE1, 4, 2, 2, 0.1, count=4, rng=rng)
    checks.append(
        _check("packing net separates", net.min_pairwise > 0.0, net.min_pairwise)
    )

    rng = _trial_rng(seed, 22)
    a = random_channel(2, 2, 2, rng)
    b = random_channel(2, 2, 2, rng)
    est = diamond_distance(a, b, restarts=2, rng=rng)
    choi = choi_trace_distance(a, b)
    ok = choi <= est.lower + 1e-9 and est.lower <= est.upper + 1e-9
    checks.append(_check("diamond estimate brackets the choi distance", ok, est.lower - choi))

    _emit(checks)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@main.command()
@_common
@click.option("--d", type=_POSITIVE, default=3, show_default=True, help="Unitary dimension.")
@click.option(
    "--samples", type=click.IntRange(min=2), default=20_000, show_default=True, help="Monte Carlo samples."
)
def moments(seed: int, fmt: str, out: str, d: int, samples: int):
    """Closed-form Haar moments against Monte Carlo, plus twirl fixed points."""
    # nothing grows with --samples: no Haar batch and no value per sample is held, only the
    # Haar stream and the Monte Carlo it feeds, ten arrays of one linalg._CHUNK_BYTES chunk of
    # samples at most (the Gram-Schmidt stack, its conjugate, which first takes the Ginibre
    # draws, and its work array, the four Monte Carlo products, and room for temporaries), the
    # three quadruples' values of a chunk with the statistics' copy of them, and seven d^2 x
    # d^2 operators for the twirl checks: the idempotence check holds its operator, its twirl,
    # the twirl's twirl, their difference and its moduli, and a twirl a swapped copy of its
    # input before its result (traced at d = 24: 4.7 such operators at the peak)
    step = min(samples, max(1, linalg._CHUNK_BYTES // (16 * d * d)))
    _budget_guard(16 * (7 * d**4 + 10 * d * d * step + 6 * step))
    checks = []

    def quadruple(index: int, rng: np.random.Generator):
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(4)]

    quads = _map_trials(quadruple, 3, seed)
    # the Haar stream draws from an index of its own, apart from every trial's
    estimates = mc_fourth_moment_traces(quads, samples, _trial_rng(seed, 1_000))
    for i, (ops, mc) in enumerate(zip(quads, estimates)):
        exact = fourth_moment_trace(*ops)
        excess = np.abs([(mc.mean - exact).real, (mc.mean - exact).imag])
        z, ok = mc_verdict(excess, np.array([mc.stderr_real, mc.stderr_imag]), mc.n_samples, exact)
        detail = f"exact {exact:.6g}, mc {mc.mean:.6g} ({mc.n_samples} samples)"
        checks.append(_check(f"fourth moment quadruple {i}", ok, z, detail))

    rng = _trial_rng(seed, 100)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    t1 = twirl1(m, (d,), 0)
    defect = float(np.max(np.abs(t1 - np.eye(d) * np.trace(m) / d)))
    checks.append(_check("first-order twirl fixed point", defect < 1e-9, defect))

    m2 = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    t2 = twirl2(m2, (d, d), (0, 1))
    t2_again = twirl2(t2, (d, d), (0, 1))
    defect = float(np.max(np.abs(t2_again - t2)))
    checks.append(_check("second-order twirl is idempotent", defect < 1e-9, defect))

    exact = fourth_moment_trace(np.eye(d), np.eye(d), np.eye(d), np.eye(d))
    defect = abs(exact - d)
    checks.append(_check("identity quadruple equals d", defect < 1e-12, defect))

    _emit(checks)


# ---------------------------------------------------------------------------
# localtest
# ---------------------------------------------------------------------------


@main.command()
@_common
@click.option("--n", type=click.IntRange(1, 2), default=1, show_default=True, help="Queries per tester.")
@click.option("--d1", type=_POSITIVE, default=2, show_default=True, help="Channel input dimension.")
@click.option("--d2", type=_POSITIVE, default=2, show_default=True, help="Channel output dimension.")
@click.option("--r", type=_POSITIVE, default=2, show_default=True, help="Ancilla dimension.")
@click.option(
    "--samples", type=click.IntRange(min=2), default=5_000, show_default=True, help="Monte Carlo samples."
)
@click.option("--testers", type=_POSITIVE, default=3, show_default=True, help="Random testers drawn.")
@click.option("--channels", type=_POSITIVE, default=3, show_default=True, help="Random channels drawn.")
def localtest(
    seed: int, fmt: str, out: str, n: int, d1: int, d2: int, r: int, samples: int, testers: int, channels: int
):
    """Localized versus dilation-averaged tester statistics."""
    if r * d2 < d1:
        raise click.UsageError("--r times --d2 must be at least --d1 (dilation feasibility)")
    m = d1 * d2 * r
    dim = m**n
    outcomes = 2
    # testers keep two dim^2 outcomes each, and the tester under test its twirled forms two
    # more and its localized forms three at most; a trial ~10 more, and nothing that grows
    # with --samples. Traced at n = 2, d1 = d2 = r = 3, drawing a tester peaks at 10.6
    # dim^2 operators, and twirling its outcomes, each beside a swapped copy of it, and
    # checking the twirled tester at 5.5 above what the run holds.
    # Route (c) carries a sample by q = min(r^2, m) coordinates and first
    # pulls each outcome back to their zdim products through a dim x q^n map and four dim x
    # zdim arrays, keeping a zdim x zdim form per outcome. A stream of six arrays at most
    # draws each piece of linalg._CHUNK_BYTES of r x r unitaries, or one more (the piece, the
    # Gram-Schmidt stack, its conjugate, which takes the Ginibre draws first, its work array,
    # temporaries); after the first draw a float per outcome and sample of a piece and a run
    # workspace (the coordinates' products, their conjugates, the products outcomes * zdim
    # wide) stay beside the next, no larger than the rest; the bound still counts the piece
    # and its coordinates where m < r^2, which are dropped before the next draw
    q = min(r * r, m)
    zdim = q if n == 1 else q * (q + 1) // 2
    width = outcomes * zdim
    piece = min(samples, max(1, linalg._CHUNK_BYTES // (16 * r * r)) + 1)
    run = min(samples, linalg._CHUNK_BYTES // (16 * width) + 1)
    pull = dim * (q**n + 4 * zdim)
    coordinates = m * piece if m < r * r else 0
    held = r * r * piece + coordinates + outcomes * piece // 2 + (2 * zdim + width) * run
    draw = 6 * r * r * min(piece, samples - piece + 1)
    per_trial = 10 * dim * dim + width * zdim + max(pull, 6 * r * r * piece, held + draw)
    _budget_guard(16 * ((2 * testers + 5) * dim * dim + per_trial))

    tester_list = [
        random_parallel_tester(n, d1, d2, outcomes, _trial_rng(seed, 100_000 + i), anc_dim=r)
        for i in range(testers)
    ]

    # trial i * channels + j checks tester i on channel j; a tester's forms are made once, for
    # all its channels, and dropped before the next tester's
    results = []
    for i, tester in enumerate(tester_list):
        forms = dilation_forms(tester)
        for j in range(channels):
            rng = _trial_rng(seed, i * channels + j)
            ch = _random_channel(d1, d2, r, rng)
            results.append((i, j, verify_dilation_identity(forms, ch, samples=samples, rng=rng)))
        del forms
    checks = [
        _check(
            f"tester {i} channel {j}",
            res.ok,
            res.max_fixed_dev,
            f"sigma dev {res.max_sigma_dev:.3f} over {res.n_samples} samples",
        )
        for i, j, res in results
    ]
    _emit(checks)


# ---------------------------------------------------------------------------
# packing-net
# ---------------------------------------------------------------------------


@main.command(name="packing-net")
@_common
@click.option(
    "--regime",
    type=click.Choice(_REGIME_NAMES),
    default=Regime.TYPE1.value,
    show_default=True,
    help="Hard instance family.",
)
@click.option("--d1", type=_POSITIVE, default=4, show_default=True, help="Input dimension.")
@click.option("--d2", type=_POSITIVE, default=2, show_default=True, help="Output dimension.")
@click.option("--r", type=_POSITIVE, default=2, show_default=True, help="Ancilla dimension.")
@click.option(
    "--eps",
    type=click.FloatRange(0.0, 0.5, min_open=True, max_open=True),
    default=0.05,
    show_default=True,
    help="Perturbation strength.",
)
@click.option("--count", type=click.IntRange(2, 64), default=16, show_default=True, help="Net size.")
@click.option(
    "--metric",
    type=click.Choice(["choi", "diamond_lower"]),
    default="choi",
    show_default=True,
    help="Pairwise distance recorded.",
)
def packing_net(
    seed: int, fmt: str, out: str, regime: str, d1: int, d2: int, r: int, eps: float, count: int, metric: str
):
    """Sample a packing net of perturbed channels and record its spread."""
    pool, choi, big = 8 * count, (d1 * d2) ** 2, r * d2
    seesaw_rows = count * (count - 1) if metric == "diamond_lower" else 0
    # candidates with Choi (kept and stacked), their five matrices and their dilations twice
    # (the ancilla-major pool stack contracted to the channels, and the stack it is reordered
    # from), and 16 pool bytes each for the greedy: the one pool x pool float matrix (the
    # pool's Gram matrix, made in place into distance bounds, exact distances written over
    # them as they are taken; no exact row per kept point), its boolean mask of the pairs
    # taken (pool^2 bytes) and one pass's pair indices and distances (58 bytes a pair, fewer
    # than count kept points per candidate); once, five arrays of one linalg._CHUNK_BYTES run
    # of the pool, or of one Haar block (r d2 square at most) where that alone is larger: the
    # pool is drawn and orthonormalised in such runs (the Gram-Schmidt stack, its conjugate,
    # which first takes the Ginibre draws, its work array, and the unitaries), checked and
    # contracted in such runs (Choi matrices and their temporaries), and one pass's stacked
    # differences are taken in such runs (both gathered operands and their differences); a
    # Choi matrix above a run takes the Choi-sized workspaces below; every row of the stacked
    # see-saw (two restarts per pair) its pair's two lifted Kraus sets about five times over
    # (its copy, signed adjoint and pulled-back witness, and the copies made as finished rows
    # leave) and three d1^2 x d1^2 matrices (the pull-back and two evaluations' eigenvectors);
    # Choi-sized workspaces; JSON text and lists at ~24x each net Choi entry
    candidate = 2 * choi + 7 * big * d1 + pool
    workspace = 5 * max(linalg._CHUNK_BYTES // 16, big * big)
    seesaw_row = 10 * big * d1**3 + 3 * d1**4
    words = pool * candidate + workspace + seesaw_rows * seesaw_row + (4 + 24 * count) * choi
    _budget_guard(16 * words)
    try:
        net = sample_packing_net(
            Regime(regime), d1, d2, r, eps, count=count, metric=metric, seed=seed
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    checks = [
        _check("pairwise distances positive", net.min_pairwise > 0.0, net.min_pairwise),
        _check(
            "separation scales with eps",
            net.separation_ratio > 0.0,
            net.separation_ratio,
            "min pairwise distance over eps",
        ),
    ]
    worst = max(isometry_defect(inst.matrix) for inst in net.instances)
    checks.append(_check("members are exact isometries", worst < 1e-9, worst))

    worst = 0.0
    for ch in net.channels:
        back = channel_from_json(channel_to_json(ch))
        worst = max(worst, float(np.max(np.abs(back.choi - ch.choi))))
    checks.append(_check("net channels round-trip through JSON", worst == 0.0, worst))
    if metric == "diamond_lower":
        checks.append(_seesaws_converged(net.unconverged, count * (count - 1) // 2))

    _emit(checks, extra={"net": net.payload()})


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


@main.command(name="tomography")
@_common
@click.option("--d1", type=_POSITIVE, default=2, show_default=True, help="Input dimension.")
@click.option("--d2", type=_POSITIVE, default=3, show_default=True, help="Output dimension.")
@click.option(
    "--eps", type=float, default=0.1, show_default=True, help=f"Target accuracy, in [{MIN_EPS:g}, 1]."
)
@click.option("--trials", type=_POSITIVE, default=20, show_default=True, help="Independent runs.")
@click.option(
    "--r",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="Ancilla budget; 0 estimates a random isometry, >0 a random channel.",
)
def tomography_cmd(seed: int, fmt: str, out: str, d1: int, d2: int, eps: float, trials: int, r: int):
    """Repeated estimation runs with success-rate and query accounting."""
    if not MIN_EPS <= eps <= 1.0:
        raise click.UsageError(f"--eps must lie in [{MIN_EPS:g}, 1]")
    if r == 0 and d2 < d1:
        raise click.UsageError("isometry estimation needs --d2 >= --d1")
    if r > 0 and r * d2 < d1:
        raise click.UsageError("--r times --d2 must be at least --d1 (dilation feasibility)")
    choi, big = (d1 * d2) ** 2, max(r, 1) * d2
    expected_queries = 2 * d1 * math.ceil(64.0 * big / (eps * eps))
    # in 16-byte words, per trial of the batch: its generator and array headers (about 256);
    # the target, both weak runs' column estimates, their SVD factors and snaps, and the
    # estimate (about ten target-sized copies, the phase search's included: a Newton
    # iterate's e^{i theta} b, difference and conjugate, then the differences at the found
    # angle and the grid's, their products and conjugates; channel mode two more, the drawn
    # dilations beside their validated copy); isometry mode the phase
    # grid's 360 points at 17 bytes each (the Frobenius bracket, then their eigenvalues, in
    # one float row; a flag and an index per kept point, all 360 kept at worst).  Channel mode
    # holds no Choi matrix, Kraus set or Ginibre draw per trial: its targets are the dilations
    # alone.  Once, five arrays of one linalg._CHUNK_BYTES run of trials, or of one Choi
    # matrix where that alone is larger: the targets are drawn in such runs (the Gram-Schmidt
    # stack, its conjugate, which first takes the Ginibre draws, and its work array), both
    # modes take their Choi errors in such runs (the estimates' and the targets' Choi
    # matrices), and the grid's kept d1 x d1 pencils are eigensolved in such runs; and Choi
    # workspaces.  And per trial, the oracle batch of both weak runs' 2 d1 columns: two
    # uniforms and 2 big normals per column (a word per two doubles), and its complex
    # (d1, big) draw, projection and combination stacks per run
    workspace = 5 * max(linalg._CHUNK_BYTES // 16, choi) + 6 * choi
    oracle = 2 * d1 * (1 + big) + 6 * d1 * big
    if r == 0:
        words = trials * (10 * big * d1 + 400 + 256 + oracle) + workspace
    else:
        words = trials * (12 * big * d1 + 256 + oracle) + workspace
    _budget_guard(16 * words)

    rngs = [_trial_rng(seed, i) for i in range(trials)]
    # an isometry target is the dilation of one Kraus block, so it draws no rank
    ranks = [_channel_rank(d1, d2, r, rng) for rng in rngs] if r else [1] * trials
    targets = isometries(random_dilations(d1, d2, ranks, max(r, 1), rngs))
    if r == 0:
        batch = isometry_tomography(targets, eps, rngs)
        errors = batch.op_errors
    else:
        batch = channel_tomography(targets, d2, eps, rngs)
        errors = batch.choi_errors
    successes = int(batch.success.sum())
    rate = successes / trials

    checks = [
        _check("success rate at least 2/3", rate >= 2.0 / 3.0, rate, f"{successes}/{trials}"),
        _check(
            "query accounting matches the formula",
            batch.queries_charged == trials * expected_queries,
            float(batch.queries_charged // trials),
            f"expected {expected_queries} per run",
        ),
        _check(
            "mean error within target",
            float(np.mean(errors)) <= eps,
            float(np.mean(errors)),
            "operator-norm error" if r == 0 else "choi trace distance",
        ),
    ]
    _emit(checks)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@main.command()
@_common
@click.option("--d1", type=_POSITIVE, default=2, show_default=True, help="Input dimension.")
@click.option("--d2", type=_POSITIVE, default=2, show_default=True, help="Output dimension.")
@click.option("--pairs", type=_POSITIVE, default=10, show_default=True, help="Random channel pairs.")
def distances(seed: int, fmt: str, out: str, d1: int, d2: int, pairs: int):
    """Choi, fidelity and diamond distance consistency on random pairs."""
    choi = (d1 * d2) ** 2
    # a pair's see-saw holds its two lifted Kraus sets (d1 d2 of d1 d2 x d1^2 each) about
    # five times over: the pair's stack, its conjugate and signed adjoint, which its restart
    # rows share, and each of its two rows' pulled-back witness; the unitary check's 16
    # restart rows share two d1^2 x d1^2 lifted operators and their signed adjoint, and each
    # holds its pulled-back witness (two such operators) and five d1^2 x d1^2 matrices (the
    # output's eigenvectors, their rows gathered for a pull-back, the witness, the pull-back
    # and its eigenvectors, which are dropped before the next evaluation), beside the two
    # unitary channels' Choi matrices and Kraus sets; and ~10 Choi-sized matrices
    _budget_guard(16 * (10 * choi * d1 * d1 + 120 * d1**4 + 10 * choi))

    def pair_trial(index: int, rng: np.random.Generator):
        a = _random_channel(d1, d2, d1 * d2, rng)
        b = _random_channel(d1, d2, d1 * d2, rng)
        choi = choi_trace_distance(a, b)
        est = diamond_distance(a, b, restarts=2, rng=rng)
        fid_bound = fidelity_trace_conversion(channel_fidelity(a, b))
        upper_dev = abs(est.upper - trace_norm(a.choi - b.choi))
        sandwich = choi <= est.lower + 1e-9 and est.lower <= est.upper + 1e-9
        fvg = choi <= fid_bound + 1e-9
        return sandwich, fvg, upper_dev, est.converged

    results = _map_trials(pair_trial, pairs, seed)
    sandwich_fails = sum(1 for s, _, _, _ in results if not s)
    fvg_fails = sum(1 for _, f, _, _ in results if not f)
    worst_upper = max(dev for _, _, dev, _ in results)

    checks = [
        _check("choi below diamond sandwich", sandwich_fails == 0, float(sandwich_fails), f"{pairs} pairs"),
        _check("fidelity conversion upper bound", fvg_fails == 0, float(fvg_fails), f"{pairs} pairs"),
        _check("upper estimate equals choi trace norm", worst_upper < 1e-9, worst_upper),
    ]

    def unitary_trial(index: int, rng: np.random.Generator):
        u = haar_unitary(d1, rng)
        v = haar_unitary(d1, rng)
        exact = unitary_diamond_distance(u, v)
        est = diamond_distance(
            Isometry(u).channel(), Isometry(v).channel(), restarts=16, rng=rng
        )
        return abs(est.lower - exact), est.converged

    unitary = _map_trials(unitary_trial, 2, seed + 7919)
    worst = max(dev for dev, _ in unitary)
    checks.append(_check("see-saw matches analytic unitary distance", worst <= 1e-4, worst))
    unconverged = sum(1 for *_, ok in results + unitary if not ok)
    checks.append(_seesaws_converged(unconverged, pairs + len(unitary)))

    _emit(checks)


if __name__ == "__main__":
    main()
