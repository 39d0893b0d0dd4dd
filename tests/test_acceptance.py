"""End-to-end acceptance suite.

One test per shipped guarantee, each at its stated tolerance and sample
count, printing a single summary line on success.  These are the slow,
batch-level checks; per-function behavior lives in the module test files.
"""

import math
import time

import numpy as np

from ctlab.channels import Channel, Isometry, dilate, isometries, random_channel, random_dilations
from ctlab.combs import (
    LabelledOperator,
    is_deterministic_comb,
    link_product,
    random_parallel_tester,
)
from ctlab.hardness import (
    Regime,
    build_instance,
    certify_gamma_comb,
    gamma_vector,
    lipschitz_probe,
    moment_experiment,
    sample_packing_net,
    type1_gamma_family,
    type2_gamma_family,
)
from ctlab.linalg import (
    FactorLayout,
    dft_matrix,
    haar_unitaries,
    haar_unitary,
    min_eig,
    random_isometry,
    trace_norm,
)
from ctlab.localtest import dilation_forms, verify_dilation_identity
from ctlab.metrics import (
    choi_trace_distance,
    diamond_distance,
    unitary_diamond_distance,
)
from ctlab.moments import fourth_moment_trace, mc_fourth_moment_trace
from ctlab.tomography import (
    PureStateOracleConfig,
    align_phases,
    channel_tomography,
    isometry_tomography,
    min_phase_op_error,
    weak_isometry_tomography,
)

EXAMPLE_DIMS = {
    Regime.TYPE1: (4, 2, 2),
    Regime.TYPE2_NEAR: (5, 2, 3),
    Regime.TYPE2_MID: (4, 3, 2),
    Regime.TYPE2_LARGE: (2, 4, 3),
}

MOMENT_DIMS = {
    Regime.TYPE1: (6, 3, 2),
    Regime.TYPE2_NEAR: (5, 2, 3),
    Regime.TYPE2_MID: (4, 3, 2),
    Regime.TYPE2_LARGE: (2, 4, 3),
}


def _line(text: str) -> None:
    print(f"[acceptance] {text}")


# ---------------------------------------------------------------------------
# 1. channel representations
# ---------------------------------------------------------------------------


def test_01_channel_round_trips_under_fuzz():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_frob = 0.0
    worst_cptp = 0.0
    for _ in range(1000):
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        rank = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        ch = random_channel(d_in, d_out, rank, rng)

        worst_cptp = max(worst_cptp, float(np.abs(ch.choi - ch.choi.conj().T).max()))
        tp = np.trace(ch.choi.reshape(d_out, d_in, d_out, d_in), axis1=0, axis2=2)
        worst_cptp = max(worst_cptp, float(np.abs(tp - np.eye(d_in)).max()))
        worst_cptp = max(worst_cptp, max(0.0, -min_eig(ch.choi)))

        back = Channel.from_kraus(ch.kraus)
        worst_frob = max(worst_frob, float(np.linalg.norm(back.choi - ch.choi)))
        redone = dilate(ch, ch.rank).channel(ch.d_out)
        worst_frob = max(worst_frob, float(np.linalg.norm(redone.choi - ch.choi)))
    elapsed = time.perf_counter() - start
    assert worst_cptp < 1e-9
    assert worst_frob < 1e-9
    assert elapsed < 10.0
    _line(
        f"channel fuzz: 1000 draws, cptp defect {worst_cptp:.2e}, "
        f"round trip {worst_frob:.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. distance estimates
# ---------------------------------------------------------------------------


def test_02_diamond_sandwich_on_random_pairs():
    rng = np.random.default_rng(202)
    dims_cycle = [(2, 2), (2, 3), (3, 2)]
    violations = 0
    for i in range(1000):
        d1, d2 = dims_cycle[i % 3]
        lo = -(-d1 // d2)
        a = random_channel(d1, d2, int(rng.integers(lo, d1 * d2 + 1)), rng)
        b = random_channel(d1, d2, int(rng.integers(lo, d1 * d2 + 1)), rng)
        choi = choi_trace_distance(a, b)
        est = diamond_distance(a, b, restarts=2, rng=rng)
        if choi > est.lower + 1e-9:
            violations += 1
        if est.lower > est.upper + 1e-9:
            violations += 1
        if abs(est.upper - trace_norm(a.choi - b.choi)) > 1e-9:
            violations += 1
    assert violations == 0
    _line("diamond sandwich: 1000 pairs, 0 violations")


def test_02b_seesaw_matches_analytic_unitary_distance():
    rng = np.random.default_rng(203)
    worst = 0.0
    for i in range(100):
        d = 2 + (i % 2)
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        exact = unitary_diamond_distance(u, v)
        est = diamond_distance(
            Isometry(u).channel(), Isometry(v).channel(), restarts=16, rng=rng
        )
        worst = max(worst, abs(est.lower - exact))
    assert worst <= 1e-4
    _line(f"unitary see-saw: 100 pairs, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. comb hierarchy
# ---------------------------------------------------------------------------


def _chained_two_comb(rng: np.random.Generator):
    """Choi of a random memory process A0 -> B0, (memory x A1) -> B1."""
    d_a, d_b, d_m = 2, 3, 2
    v = random_isometry(d_b * d_m, d_a, rng)
    first = LabelledOperator(
        Isometry(v).channel().choi,
        FactorLayout(((("B", 0), d_b), ("M", d_m), (("A", 0), d_a))),
    )
    second_ch = random_channel(d_m * d_a, d_b, int(rng.integers(2, 7)), rng)
    second = LabelledOperator(
        second_ch.choi, FactorLayout(((("B", 1), d_b), ("M", d_m), (("A", 1), d_a)))
    )
    comb = link_product(first, second)
    ordering = (((("A", 0)),), ((("B", 0)),), ((("A", 1)),), ((("B", 1)),))
    return comb, ordering


def test_03_channel_chois_are_one_combs():
    rng = np.random.default_rng(301)
    for _ in range(100):
        d_in = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 4))
        lo = -(-d_in // d_out)
        ch = random_channel(d_in, d_out, int(rng.integers(lo, d_in * d_out + 1)), rng)
        op = LabelledOperator(ch.choi, FactorLayout((("out", d_out), ("in", d_in))))
        check = is_deterministic_comb(op, (("in",), ("out",)))
        assert check.ok, check
    _line("one-comb check: 100 random channel chois pass")


def test_03b_chained_channels_are_two_combs():
    rng = np.random.default_rng(302)
    for _ in range(50):
        comb, ordering = _chained_two_comb(rng)
        check = is_deterministic_comb(comb, ordering)
        assert check.ok, check
    _line("two-comb check: 50 chained channel pairs pass")


def test_03c_tester_normalization_contracts_to_one():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 2
        tester = random_parallel_tester(n, 2, 3, int(rng.integers(2, 5)), rng)
        total = tester.outcomes[0][1].op.copy()
        for _, op in tester.outcomes[1:]:
            total = total + op.op
        norm = LabelledOperator(total, tester.outcomes[0][1].layout)

        chois = []
        for j in range(n):
            ch = random_channel(2, 3, int(rng.integers(1, 7)), rng)
            chois.append(
                LabelledOperator(
                    ch.choi, FactorLayout(((("B", j), 3), (("A", j), 2)))
                )
            )
        comb = chois[0]
        for extra in chois[1:]:
            comb = comb.tensor(extra)
        scal = link_product(norm, comb).scalar
        worst = max(worst, abs(scal - 1.0))

        if n == 2:
            # a correlated (signalling) comb instead of a product one
            d_m = 2
            v = random_isometry(3 * d_m, 2, rng)
            first = LabelledOperator(
                Isometry(v).channel().choi,
                FactorLayout(((("B", 0), 3), ("M", d_m), (("A", 0), 2))),
            )
            second = LabelledOperator(
                random_channel(d_m * 2, 3, 2, rng).choi,
                FactorLayout(((("B", 1), 3), ("M", d_m), (("A", 1), 2))),
            )
            memory_comb = link_product(first, second)
            scal = link_product(norm, memory_comb).scalar
            worst = max(worst, abs(scal - 1.0))
    assert worst <= 1e-8
    _line(f"tester normalization: contraction defect {worst:.2e} over 20 testers")


def test_03d_gamma_certificates():
    rng = np.random.default_rng(304)
    budget = 2**15
    for kind in ("type1", "type2"):
        passed = 0
        while passed < 20:
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 4))
            lo = d if kind == "type1" else d + 1
            big_d = int(rng.integers(lo, lo + 4))
            if (big_d * d) ** n > budget:
                continue
            eps = float(rng.uniform(0.0, 1.0))
            if kind == "type1":
                fam = type1_gamma_family(d, big_d, eps)
                index = frozenset(j for j in range(n) if rng.random() < 0.5)
            else:
                fam = type2_gamma_family(d, big_d, eps)
                index = int(rng.integers(0, n + 1))
            op = gamma_vector(fam, index, n)
            check = certify_gamma_comb(op, fam, n, index=index)
            assert check.ok, (kind, d, big_d, n, index, check)
            assert check.defect <= 1e-8
            passed += 1
    _line("gamma certificates: 20 instances per family, n <= 3, all certified")


# ---------------------------------------------------------------------------
# 4. fourth moments
# ---------------------------------------------------------------------------


def test_04_fourth_moment_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    worst_z = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(400 + d)
        batch = haar_unitaries(d, 100_000, rng)
        for _ in range(50):
            ops = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(4)
            ]
            exact = fourth_moment_trace(*ops)
            mc = mc_fourth_moment_trace(*ops, unitaries=batch)
            z_re = abs(mc.mean.real - exact.real) / max(mc.stderr_real, 1e-15)
            z_im = abs(mc.mean.imag - exact.imag) / max(mc.stderr_imag, 1e-15)
            worst_z = max(worst_z, z_re, z_im)

        eye = np.eye(d)
        assert abs(fourth_moment_trace(eye, eye, eye, eye) - d) < 1e-12

        if d == 2:
            z_mat = np.diag([1.0, -1.0])
            exact = fourth_moment_trace(z_mat, z_mat, z_mat, z_mat)
            assert abs(exact - (-2.0 / 3.0)) < 1e-12
            mc = mc_fourth_moment_trace(z_mat, z_mat, z_mat, z_mat, unitaries=batch)
            assert abs(mc.mean.real - (-2.0 / 3.0)) <= 5.0 * mc.stderr_real
    elapsed = time.perf_counter() - start
    assert worst_z <= 5.0
    assert elapsed < 60.0
    _line(
        f"fourth moments: 50 quadruples per d in (2,3,4) at 1e5 samples, "
        f"worst z {worst_z:.2f}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5. localized testers
# ---------------------------------------------------------------------------


def test_05_localized_testers_match_dilation_averages():
    start = time.perf_counter()
    worst_fixed = 0.0
    worst_sigma = 0.0
    for case_idx, (n, d1, d2, r) in enumerate(
        [(1, 2, 2, 2), (1, 2, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2)]
    ):
        rng = np.random.default_rng(500 + case_idx)
        for _ in range(10):
            tester = random_parallel_tester(
                n, d1, d2, int(rng.integers(2, 4)), rng, anc_dim=r
            )
            for _ in range(10):
                rank = int(rng.integers(-(-d1 // d2), min(r, d1 * d2) + 1))
                ch = random_channel(d1, d2, rank, rng)
                res = verify_dilation_identity(dilation_forms(tester), ch, samples=10_000, rng=rng)
                worst_fixed = max(worst_fixed, res.max_fixed_dev)
                worst_sigma = max(worst_sigma, res.max_sigma_dev)
                assert res.ok, (n, d1, d2, r, res.max_fixed_dev, res.max_sigma_dev)
    elapsed = time.perf_counter() - start
    assert worst_fixed <= 1e-7
    assert worst_sigma <= 5.0
    assert elapsed < 300.0
    _line(
        f"localized testers: 4 cases x 10 testers x 10 channels, fixed dev "
        f"{worst_fixed:.2e}, sigma dev {worst_sigma:.2f}, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 6. hard instance constructions
# ---------------------------------------------------------------------------


def _regime_pool(regime: Regime) -> list:
    pool = []
    for d1 in range(1, 7):
        for d2 in range(1, 5):
            for r in range(1, 7):
                big = r * d2
                if 2 * r > d1 * d2:
                    continue
                if regime == Regime.TYPE1:
                    ok = d1 >= 2 and d1 <= big and 3 * big <= 4 * d1
                elif regime == Regime.TYPE2_NEAR:
                    ok = d2 >= 2 and big > d1 and big < d1 + r
                elif regime == Regime.TYPE2_MID:
                    chi_hi = -(-d1 // r)
                    zeta = min(d1 // r, d2 - chi_hi)
                    ok = d2 >= 2 and d1 + r <= big and r <= d1 and zeta >= 1
                else:
                    chi = -(-r // d1)
                    ok = d2 >= 2 and d1 + r <= big and d1 < r and d2 > chi
                if ok:
                    pool.append((d1, d2, r))
    return pool


def test_06_hard_instance_fuzz_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(600)
    for regime in Regime:
        pool = _regime_pool(regime)
        assert pool, regime
        for _ in range(250):
            d1, d2, r = pool[int(rng.integers(0, len(pool)))]
            eps = float(rng.uniform(0.0, 0.5))
            inst = build_instance(regime, d1, d2, r, eps, rng)

            gram = inst.matrix.conj().T @ inst.matrix
            assert np.abs(gram - np.eye(d1)).max() < 1e-12
            assert np.abs(inst.v0 + eps * inst.direction - inst.matrix).max() == 0.0

            blocks = inst.anc_blocks()
            cap = 2.0 * d1 / r + 1e-9
            total = np.zeros((d1, d1), dtype=complex)
            for i, ki in enumerate(blocks):
                assert np.trace(ki.conj().T @ ki).real <= cap
                total += ki.conj().T @ ki
                for kj in blocks[i + 1 :]:
                    assert abs(np.trace(ki.conj().T @ kj)) < 1e-9
            assert min_eig(np.eye(d1) - total) > -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _line(f"hard instance fuzz: 250 draws per regime, all invariants hold, {elapsed:.0f}s")


def test_06b_hard_instance_moment_bounds():
    start = time.perf_counter()
    for regime, (d1, d2, r) in MOMENT_DIMS.items():
        rng = np.random.default_rng(610)
        report = moment_experiment(regime, d1, d2, r, 0.1, pairs=200, rng=rng)
        kinds = {rec.kind for rec in report.records}
        assert kinds == {"lower", "upper"}
        for rec in report.records:
            assert rec.ok, (regime.value, rec)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _line(f"moment bounds: 200 pairs per regime, all bounds hold, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. packing nets
# ---------------------------------------------------------------------------


def test_07_packing_nets_separate_and_are_seed_stable():
    for regime, (d1, d2, r) in EXAMPLE_DIMS.items():
        ratios = []
        for seed in (0, 1, 2):
            net = sample_packing_net(
                regime, d1, d2, r, 0.05, count=16, metric="choi", seed=seed
            )
            assert net.min_pairwise > 0.0, (regime.value, seed)
            ratios.append(net.separation_ratio)
        center = float(np.mean(ratios))
        spread = max(abs(x - center) for x in ratios)
        assert spread <= 0.2 * center, (regime.value, ratios)
    _line("packing nets: 16 members per regime, separation stable within 20%")


# ---------------------------------------------------------------------------
# 8. tomography
# ---------------------------------------------------------------------------


def test_08_noiseless_recovery_is_exact():
    rng = np.random.default_rng(800)
    cfg = PureStateOracleConfig(eps_max=0.0)
    worst = 0.0
    for d2, d1 in [(2, 2), (3, 2), (4, 3)]:
        target = Isometry(random_isometry(d2, d1, rng))
        v1 = weak_isometry_tomography(target.matrix[None], cfg, [rng])
        rotated = target.matrix[None] @ dft_matrix(d1)
        v2 = weak_isometry_tomography(rotated, cfg, [rng])
        est = Isometry(align_phases(v1, v2)[0])
        worst = max(worst, min_phase_op_error(target.matrix, est.matrix))
    assert worst < 1e-9
    _line(f"noiseless tomography: worst operator error {worst:.2e}")


def test_08b_noisy_tomography_succeeds_with_exact_accounting():
    start = time.perf_counter()
    eps = 0.2
    expected = 2 * 2 * math.ceil(64.0 * 3 / eps**2)
    rngs = [np.random.default_rng(8000 + trial) for trial in range(100)]
    targets = [Isometry(random_isometry(3, 2, rng)) for rng in rngs]
    batch = isometry_tomography(targets, eps, rngs)
    assert batch.queries_charged == 100 * expected
    rate = int(batch.success.sum()) / 100.0
    assert rate >= 2.0 / 3.0

    rng = np.random.default_rng(801)
    for _ in range(3):
        dilations = isometries(random_dilations(2, 2, [int(rng.integers(1, 3))], 2, [rng]))
        batch = channel_tomography(dilations, 2, 0.3, [rng])
        assert batch.queries_charged == 2 * 2 * math.ceil(64.0 * 4 / 0.3**2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _line(f"noisy tomography: success rate {rate:.2f}, query formulas exact, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. perturbation response
# ---------------------------------------------------------------------------


def test_09_lipschitz_probes_respect_constants():
    for regime, (d1, d2, r) in EXAMPLE_DIMS.items():
        rng = np.random.default_rng(900)
        report = lipschitz_probe(regime, d1, d2, r, 0.1, trials=1000, rng=rng)
        for rec in report.records:
            assert rec.ok, (regime.value, rec)
            assert rec.value <= rec.bound * 1.001
    _line("lipschitz probes: 1000 trials per construction, constants respected")
