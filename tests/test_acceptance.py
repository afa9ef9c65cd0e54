"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import holomaplab as hl

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BALL2 = hl.DomainSpec.ball(2, 1.0)
POLY2 = hl.DomainSpec.polydisc(2, 1.0)


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def ball_points(n, k, radius, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2 * k))
    v = g[:, :k] + 1j * g[:, k:]
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * rng.random(n)[:, None] ** (1 / (2 * k)) * v


def builtin_families():
    return [
        hl.Identity(2),
        hl.Linear([[2, 1], [0, 1]]),
        hl.Translation([0.3, 0.1j]),
        hl.Henon(0.5),
        hl.Harris(3),
        hl.DurenRudin(1.0),
        hl.ExpCoord(0.1, 2),
        hl.parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))"),
    ]


def test_criterion_1_one_variable_triviality():
    start = time.time()
    rng = np.random.default_rng(101)
    cfg = hl.SamplerConfig(radial_shells=8, points_per_shell=48, rng_seed=11, refine_steps=4)
    dom = hl.DomainSpec.ball(1, 1.0)
    worst = 0.0
    for i in range(20):
        degree = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        coeffs[1] += 2.0  # keep the derivative away from vanishing near 0
        poly = hl.PolyCoord([[((d,), coeffs[d]) for d in range(degree + 1)]])
        m = poly if i % 2 == 0 else hl.Compose(poly, hl.ExpCoord(0.2 + 0.1j, 1))
        sup = hl.sup_kappa(m, dom, cfg).sup_estimate
        worst = max(worst, abs(sup - 1.0))
    elapsed = time.time() - start
    check(
        "criterion 1 (one-variable maps have sup kappa = 1)",
        worst <= 1e-12 and elapsed < 10,
        f"worst |sup-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_eigenvalue_comparability():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = -np.inf
    # 1e4 random matrices, mixed sizes
    for k in (2, 3, 4):
        mats = rng.standard_normal((3334, k, k)) + 1j * rng.standard_normal((3334, k, k))
        kappas = hl.algebra.kappa_batch(mats)
        eigs = np.sort(np.abs(np.linalg.eigvals(mats)), axis=1)
        ratios = eigs[:, -1] / eigs[:, 0]
        worst = max(worst, float((ratios - kappas).max()))
    # Jacobians of every built-in at 1e3 random points, through the operation
    for m in builtin_families():
        pts = ball_points(1000, m.dim, 0.9, rng.integers(10**6))
        _, jacs = hl.jacobian_batch(m, pts)
        kappas = hl.algebra.kappa_batch(jacs)
        eigs = np.sort(np.abs(np.linalg.eigvals(jacs)), axis=1)
        ratios = eigs[:, -1] / eigs[:, 0]
        worst = max(worst, float((ratios - kappas).max()))
        z = pts[0]
        assert hl.comparability_ratio(m, z) <= hl.kappa_at(m, z) + 1e-10
    elapsed = time.time() - start
    check(
        "criterion 2 (eigenvalue moduli ratio <= kappa)",
        worst <= 1e-10 and elapsed < 30,
        f"worst ratio-kappa = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_rescaling_normalizes_to_identity():
    cfg = hl.SamplerConfig(radial_shells=10, points_per_shell=96, rng_seed=13, refine_steps=15)
    worst = 0.0
    for m in builtin_families():
        rep = hl.sup_kappa(m, hl.DomainSpec.ball(m.dim, 1.0), cfg)
        c = max(rep.sup_estimate, 1.0) * 1.1
        step = hl.bz_step(m, c, cfg)
        err = float(np.abs(hl.jacobian(step.psi, np.zeros(m.dim)).jacobian - np.eye(m.dim)).max())
        worst = max(worst, err)
    check(
        "criterion 3 (psi'(0) = I for every built-in family)",
        worst <= 1e-10,
        f"worst |psi'(0) - I| = {worst:.2e}",
    )


def test_criterion_4_derivative_bound_linear_family():
    cfg = hl.SamplerConfig(radial_shells=8, points_per_shell=64, rng_seed=14, refine_steps=8)
    steps = hl.bz_sequence(
        lambda n: hl.Linear(n * np.eye(2)), range(1, 21), 1.0, cfg, grid_factor=1.0
    )
    max_norm = max(s.bound_check.max_jacobian_norm for s in steps)
    lambdas_exact = all(s.lambda_ == float(n) for s, n in zip(steps, range(1, 21)))
    diffs = hl.convergence_diagnostic(steps, 0.5, 5)
    all_zero = all(d == 0.0 for d in diffs)
    check(
        "criterion 4 (|psi'| <= 2C for Linear(n I), psi identical)",
        max_norm <= 2.0 + 1e-6 and lambdas_exact and all_zero,
        f"max |psi'| = {max_norm}, diagnostics = {diffs[:3]}...",
    )


def test_criterion_5_landau_solvable_cases():
    start = time.time()
    cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=15)
    est = hl.landau_estimate(hl.Identity(2), BALL2, cfg, center_candidates=1,
                             direction_count=128, growth_factor=1.01,
                             center_refine_steps=0)
    identity_ok = est.r_lo >= 0.99
    rng = np.random.default_rng(105)
    worst_rel = 0.0
    for _ in range(10):
        def unitary():
            q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            return q * (np.diag(r) / np.abs(np.diag(r)))
        smax = 0.5 + 1.5 * rng.random()
        s = np.array([smax, smax / (1.0 + 99.0 * rng.random())])
        A = unitary() @ np.diag(s) @ unitary().conj().T
        smin = float(np.linalg.svd(A, compute_uv=False)[-1])  # oracle: exact SVD
        est = hl.landau_estimate(hl.Linear(A), BALL2, cfg, center_candidates=1,
                                 direction_count=256, growth_factor=1.01,
                                 center_refine_steps=0)
        worst_rel = max(worst_rel, abs(est.r_lo - smin) / smin)
    elapsed = time.time() - start
    check(
        "criterion 5 (identity and linear inscribed balls)",
        identity_ok and worst_rel <= 0.02 and elapsed < 60,
        f"identity r_lo ok = {identity_ok}, worst linear rel err = {worst_rel:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_harris_certification():
    rng = np.random.default_rng(106)
    for n in (3, 5, 10):
        centers = [
            (rng.standard_normal() + 1j * rng.standard_normal(),
             rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(100)
        ]
        bound = hl.certify_no_ball(hl.Harris(n), centers)
        assert bound.label == "certified"
        assert bound.value == pytest.approx(np.sqrt(2.0 / n), rel=1e-12)
    cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=16)
    est = hl.landau_estimate(hl.Harris(3), POLY2, cfg, center_candidates=3,
                             direction_count=128, growth_factor=1.02,
                             center_refine_steps=1)
    limit = np.sqrt(2.0 / 3.0) + 0.05
    check(
        "criterion 6 (harris certified bounds and estimator consistency)",
        est.r_lo <= limit and est.r_hi_label == "certified",
        f"r_lo = {est.r_lo:.4f} <= {limit:.4f}, r_hi = {est.r_hi:.4f} ({est.r_hi_label})",
    )


def test_criterion_7_duren_rudin_certification():
    rng = np.random.default_rng(107)
    floor_ok = True
    for delta in (0.5, 1.0, 2.0):
        for _ in range(100):
            u = rng.standard_normal() + 1j * rng.standard_normal()
            v = rng.standard_normal() + 1j * rng.standard_normal()
            w = hl.duren_rudin_witness(delta, u, v)
            floor_ok &= w.circle_value >= delta**2 - 1e-9
    parseval_ok = True
    theta = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    e = np.exp(1j * theta)
    for _ in range(50):
        delta = 0.25 + 2.0 * rng.random()
        u = rng.standard_normal() + 1j * rng.standard_normal()
        v = rng.standard_normal() + 1j * rng.standard_normal()
        g2 = np.abs((delta**2 * v - u**2) - 2 * u * delta * e - delta**2 * e * e) ** 2
        exact = hl.circle_mean_square(delta, u, v)
        parseval_ok &= abs(np.mean(g2) - exact) <= 1e-8 * exact
    check(
        "criterion 7 (duren-rudin circle floor and parseval identity)",
        floor_ok and parseval_ok,
        f"floor ok = {floor_ok}, parseval ok = {parseval_ok}",
    )


def test_criterion_8_dilation_growth():
    cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=18)
    series = hl.rescaled_growth(hl.Identity(2), [1, 2, 4, 8], cfg,
                                center_candidates=1, direction_count=96,
                                growth_factor=1.005)
    linear_ok = all(abs(v - R) <= 0.01 * R for R, v in series)
    series_exp = hl.rescaled_growth(hl.ExpCoord(0.1, 2), [1, 2, 4], cfg,
                                    center_candidates=2, direction_count=96,
                                    growth_factor=1.01, center_refine_steps=1)
    values = [v for _, v in series_exp]
    exp_ok = all(a <= b for a, b in zip(values, values[1:]))
    check(
        "criterion 8 (growth of inscribed balls under dilation)",
        linear_ok and exp_ok,
        f"identity = {[round(v, 4) for _, v in series]}, expcoord = {[round(v, 5) for v in values]}",
    )


def test_criterion_9_differentiation_oracle():
    h = 1e-5
    rng = np.random.default_rng(109)

    def random_composition(depth):
        leaves = [hl.Henon(0.4 * rng.random()), hl.Harris(int(rng.integers(1, 4))),
                  hl.DurenRudin(1.0 + rng.random()), hl.ExpCoord(0.3 * rng.random(), 2),
                  hl.Linear(0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))),
                  hl.Translation(0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))]
        m = leaves[int(rng.integers(len(leaves)))]
        for _ in range(depth - 1):
            kind = int(rng.integers(3))
            other = leaves[int(rng.integers(len(leaves)))]
            if kind == 0:
                m = hl.Compose(m, other)
            elif kind == 1:
                m = hl.Scalar(0.5 + rng.random(), m)
            else:
                m = hl.Affine(0.05 * rng.standard_normal(2),
                              0.4 * np.eye(2) + 0.05 * rng.standard_normal((2, 2)), m)
        return m

    maps = builtin_families() + [random_composition(int(rng.integers(2, 5))) for _ in range(8)]
    worst = 0.0
    for m in maps:
        pts = ball_points(1000, m.dim, 0.9, rng.integers(10**6))
        _, jacs = hl.jacobian_batch(m, pts)
        for j in range(m.dim):
            e = np.zeros(m.dim)
            e[j] = h
            fd = (hl.evaluate_batch(m, pts + e) - hl.evaluate_batch(m, pts - e)) / (2 * h)
            worst = max(worst, float(np.abs(fd - jacs[:, :, j]).max()))
    check(
        "criterion 9 (dual-number jacobians match finite differences)",
        worst <= 1e-7,
        f"worst |dual - fd| = {worst:.2e} over {len(maps)} maps x 1000 points",
    )


# SHA-256 of json.dumps(payload, sort_keys=True) of each bundled config: a
# change that moves any payload byte fails criterion 10 until this table is
# rewritten on purpose
GOLDEN_PAYLOADS = {
    "bz_run_henon": "4546e935f0c8c18446d4789fdbb3a4501dc9a42e29a574872a8e3a7233469b90",
    "bz_sequence_linear": "b67d97e23368eb9510682107ba133d650db8963557615efc979ba9e47e9279a1",
    "counterexample_harris": "3d2d7edbe98f80c7902774208607251748fc8b7d546d76d52fd8b924a7df1367",
    "eval_henon": "3b1233ae72195cf57d2f5d322f708689f0fca6c41078d70189f100ebb2b79ef5",
    "jacobian_henon_exp": "dfbf1ca50c5abcc3e8384f787e69e5bc6ce9c6b4fc74d346b6a8e6b43296dd0b",
    "kappa_sup_henon_exp": "b3ad567d944177e704173559b9b9193a7a55b8e0f397d476619782075a228ac9",
    "landau_linear": "9c3ca5b5694272fe1b0e16dac7fab1a13b2036c7e70d775bb37c91d4e6d0f5ac",
    "refined_sup_henon": "35572ddee61fe52b582c00993efb820fba19c1f004b653a1b0273fd2a48875de",
    "rescaled_growth_identity": "06a4e5c78b7b931bb0616f971b90d10b5864f9e5f1e90383228a1e0652d0dabf",
}


def test_criterion_10_determinism_of_bundled_configs(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no bundled configs found"
    assert sorted(c.stem for c in configs) == sorted(GOLDEN_PAYLOADS)
    mismatches = []
    for config in configs:
        payloads = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{config.stem}.{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "holomaplab", "run", str(config),
                 "--output", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"{config.stem}: {proc.stderr}"
            payloads.append(
                json.dumps(json.loads(out.read_text())["payload"], sort_keys=True)
            )
        golden = GOLDEN_PAYLOADS[config.stem]
        if not all(hashlib.sha256(p.encode()).hexdigest() == golden for p in payloads):
            mismatches.append(config.stem)
    check(
        "criterion 10 (bundled configs reproduce their golden payloads byte for byte)",
        not mismatches,
        f"{len(configs)} configs, mismatches: {mismatches or 'none'}",
    )
