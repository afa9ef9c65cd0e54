"""Layer timings of holomaplab: one Landau shell, one whole inscribed-ball
search, two Landau estimates with center climbs, one growth series, one
failing membership search, the two evaluators at three batch sizes,
batched singular values, refined_sup's batched product, the scoring of
one dense sample set and one Brody-Zalcman sequence.

    python3 benchmarks/layers.py OUTPUT.json

Imports holomaplab from the ``src`` of the checkout this file sits in, so the
same script times any commit.  Each entry is the median over REPEATS
repeats of the mean time per call, every repeat running the call for at
least MIN_REPEAT_S seconds, with glibc's malloc thresholds fixed.  Times
are raw seconds on the machine it runs on, which the output records.  Needs
numpy only.

Entries:
  shell.linear.n128       _certify_shell on a complex Linear map, 128
                          directions, warm-started from the certified shell
                          below it: one Newton batch
  shell.dilate_exp.n96    the same on dilate(expcoord(c=0.1, k=2), 2), 96
                          directions
  ilb.linear.n128         one whole inscribed_lower_bound around m(0) on the
                          same Linear map, 128 directions, growth factor 1.02
  estimate.harris3.refine1
                          landau_estimate of Harris(3) on the unit polydisc
                          from the origin's image, 96 directions, growth
                          factor 1.02, one climb sweep: one full run and 8
                          probes
  estimate.henon.refine20 landau_estimate of henon(b=0.5) on the ball of
                          radius 0.9, default candidates, directions and
                          growth factor, 20 climb sweeps: two full runs
                          and 160 probes, none of which beats the incumbent
  growth.expcoord.r2      rescaled_growth of expcoord(c=0.1, k=2) at R in
                          {1, 2}, 96 directions, growth factor 1.02
  membership.fail         solve_membership of a target outside the image:
                          the origin and the multistarts, one Newton batch
  jacobian_batch.<map>.n<N>, evaluate_batch.<map>.n<N>
                          N in {1, 96, 10^4}
  svd.k2.n<N>             singular_values_batch on N random complex 2 x 2
                          matrices, N in {1, 8, 96, 32769}
  svd.k3.n96              the same on 96 3 x 3 matrices (LAPACK)
  refined_product.n32769  times_batch of 32769 2 x 2 matrices by one 2 x 2
                          matrix: the J(a + z) J(a)^-1 of refined_sup
  jacobian_batch.<map>.n32769
                          one jacobian_batch call on the 32769 shell samples
                          of 17 shells (the first is the center) x 2048
                          points in the unit ball, for the tree henon_exp,
                          the polynomial poly and linear
  score.kappa.<map>.n32769
                          the whole sup_kappa call on those samples with
                          refine_steps=0: sampling and scoring, no climb
  climb.kappa.<map>       one coordinate_ascent of the sup_kappa scorer and
                          domain test, 20 steps of 0.1 from a fixed start in
                          the unit ball, for henon_exp and linear (whose
                          constant kappa never moves the climb)
  spectral_norm.k2.n4096  spectral_norm_batch of one scoring block of 4096
                          random complex 2 x 2 matrices
  witness.<map>.c25       one certify_no_ball call on durenrudin(delta=1) or
                          harris(n=3) at 25 seeded normal centers of scale 2,
                          the counterexample task's default center draw
  bz_sequence.linear.n5   bz_sequence of configs/bz_sequence_linear.json's
                          family linear(a=[[n, 0], [0, n]]), n = 1..5 (maps
                          parsed beforehand), C = 1, 6 shells x 32 points,
                          6 climb steps, seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: a spinning BLAS worker on a small machine slows the next
# milliseconds of the timed process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Fixed malloc thresholds.  glibc moves its mmap and trim thresholds as the
# process frees large blocks, so jacobian_batch.linear.n10000 read about
# 0.5 ms in one process and about 1.5 ms in another, by what ran before it.
# With the thresholds fixed, every temporary comes from the heap and the
# heap's top stays mapped.  glibc reads these variables only at start, so
# the script re-executes itself; a MALLOC_MMAP_THRESHOLD_ already set is kept.
if __name__ == "__main__" and "MALLOC_MMAP_THRESHOLD_" not in os.environ:
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)  # glibc's largest
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(64 << 20))
    os.execv(sys.executable, [sys.executable, *sys.argv])

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import holomaplab as hl  # noqa: E402
from holomaplab import _sampling, conditioning, landau  # noqa: E402
from holomaplab._sampling import shell_points, sphere_directions  # noqa: E402

REPEATS = 7
MIN_REPEAT_S = 0.05
BATCH_SIZES = (1, 96, 10_000)
SVD_BATCH_SIZES = (1, 8, 96, 32_769)  # about one sup-dense sample set (30,721)
LINEAR_TEXT = "linear(a=[[0.9+0.3i, -0.2+0.5i], [0.4-0.1i, 0.3+0.6i]])"
POLY_TEXT = "(z1 + (0.1+0.05i)*z2^2 + (-0.12+0.08i)*z1*z2, z2 + (0.07-0.1i)*z1^2 + 0.05*z1^3)"
DENSE_SHELLS, DENSE_PER_SHELL = 17, 2048  # 1 + 16 * 2048 = 32,769 samples


def per_call(fn) -> float:
    fn()  # warm-up
    samples = []
    for _ in range(REPEATS):
        calls, t0 = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_REPEAT_S:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def shell_case(m, dom, cfg, directions, r):
    """A shell at radius r around m(0), warm-started from the certified
    shell one growth step (1.02) below it."""
    origin = np.zeros(m.dim, complex)
    center = hl.evaluate(m, origin)
    dirs = sphere_directions(directions, m.dim, 1)
    below = center + (r / 1.02) * dirs
    ok, z_below, _, _ = landau._certify_shell(m, below, np.tile(origin, (directions, 1)),
                                              dom, cfg)
    if not ok.all():
        raise RuntimeError("the shell below did not certify")
    targets = center + r * dirs

    def run():
        ok = landau._certify_shell(m, targets, z_below, dom, cfg)[0]
        if not ok.all():
            raise RuntimeError("timed shell did not certify")

    return run


def ilb_case(m, dom, cfg, directions):
    """One whole inscribed_lower_bound around m(0) at growth factor 1.02."""
    center = hl.evaluate(m, np.zeros(m.dim, complex))

    def run():
        if not hl.inscribed_lower_bound(m, center, dom, cfg, directions, 1.02).r_lo > 0:
            raise RuntimeError("no shell certified")

    return run


def sup_kappa_climb(m, dom, x0):
    """One coordinate_ascent of the scorer and domain test that sup_kappa
    hands to sampled_sup, 20 steps of 0.1 from x0."""
    handed = {}

    def capture(score, pts, steps, step0, inside):
        handed.update(score=score, inside=inside)
        return pts[0], 0.0, len(pts), 0

    original, conditioning.sampled_sup = conditioning.sampled_sup, capture
    try:
        hl.sup_kappa(m, dom, hl.SamplerConfig(radial_shells=1, points_per_shell=1))
    finally:
        conditioning.sampled_sup = original
    score, inside = handed["score"], handed["inside"]
    x0 = np.array(x0, dtype=complex)
    best = float(score(x0[None])[0])
    return lambda: _sampling.coordinate_ascent(score, x0, best, 20, 0.1, inside)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output")
    args = p.parse_args(argv)

    ball = hl.DomainSpec.ball(2, 1.0)
    cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=7)
    linear = hl.parse(LINEAR_TEXT)
    dilate_exp = hl.dilate(hl.parse("expcoord(c=0.1, k=2)"), 2.0)
    sigma_min = float(np.linalg.svd(linear.matrix, compute_uv=False)[-1])

    cases = {}
    cases["shell.linear.n128"] = shell_case(linear, ball, cfg, 128, 0.9 * sigma_min)
    cases["shell.dilate_exp.n96"] = shell_case(dilate_exp, ball, cfg, 96, 0.06)
    cases["ilb.linear.n128"] = ilb_case(linear, ball, cfg, 128)
    harris, polydisc = hl.Harris(3), hl.DomainSpec.polydisc(2, 1.0)
    cases["estimate.harris3.refine1"] = lambda: hl.landau_estimate(
        harris, polydisc, cfg, center_candidates=1, direction_count=96, growth_factor=1.02,
        center_refine_steps=1)
    henon, ball09 = hl.parse("henon(b=0.5)"), hl.DomainSpec.ball(2, 0.9)
    cases["estimate.henon.refine20"] = lambda: hl.landau_estimate(
        henon, ball09, cfg, center_refine_steps=20)
    expcoord = hl.parse("expcoord(c=0.1, k=2)")
    cases["growth.expcoord.r2"] = lambda: hl.rescaled_growth(
        expcoord, [1.0, 2.0], cfg, direction_count=96, growth_factor=1.02)
    outside = 1.5 * hl.evaluate(linear, [1.0, 0.0])  # the preimage has norm 1.5

    def membership_fail():
        if isinstance(hl.solve_membership(linear, outside, ball, cfg), hl.MembershipCertificate):
            raise RuntimeError("a target outside the image certified")

    cases["membership.fail"] = membership_fail

    maps = {
        "linear": linear,
        "harris3": hl.Harris(3),
        "dilate_exp": dilate_exp,
        "henon_exp": hl.parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))"),
    }
    rng = np.random.default_rng(0)
    for n in BATCH_SIZES:
        pts = 0.5 * (rng.random((n, 2)) + 1j * rng.random((n, 2)))
        for name, m in maps.items():
            cases[f"jacobian_batch.{name}.n{n}"] = lambda m=m, pts=pts: hl.jacobian_batch(m, pts)
            cases[f"evaluate_batch.{name}.n{n}"] = lambda m=m, pts=pts: hl.evaluate_batch(m, pts)

    def cstack(n, k):
        return rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))

    for n in SVD_BATCH_SIZES:
        cases[f"svd.k2.n{n}"] = lambda mats=cstack(n, 2): hl.algebra.singular_values_batch(mats)
    cases["svd.k3.n96"] = lambda mats=cstack(96, 3): hl.algebra.singular_values_batch(mats)
    jacs, b = cstack(SVD_BATCH_SIZES[-1], 2), cstack(1, 2)[0]
    cases[f"refined_product.n{len(jacs)}"] = lambda: hl.algebra.times_batch(jacs, b)

    dense = hl.SamplerConfig(radial_shells=DENSE_SHELLS, points_per_shell=DENSE_PER_SHELL,
                             rng_seed=3, refine_steps=0)
    samples = shell_points(ball, DENSE_SHELLS, DENSE_PER_SHELL, 3)
    dense_maps = {"henon_exp": maps["henon_exp"], "poly": hl.parse(POLY_TEXT), "linear": linear}
    for name, m in dense_maps.items():
        cases[f"jacobian_batch.{name}.n{len(samples)}"] = lambda m=m: hl.jacobian_batch(m, samples)
        cases[f"score.kappa.{name}.n{len(samples)}"] = lambda m=m: hl.sup_kappa(m, ball, dense)

    start = [0.3 + 0.2j, -0.25 + 0.4j]
    for name in ("henon_exp", "linear"):
        cases[f"climb.kappa.{name}"] = sup_kappa_climb(dense_maps[name], ball, start)
    cases["spectral_norm.k2.n4096"] = (
        lambda mats=cstack(4096, 2): hl.algebra.spectral_norm_batch(mats))

    raw = 2.0 * np.random.default_rng(25).standard_normal((25, 4))
    centers = [(complex(r[0], r[1]), complex(r[2], r[3])) for r in raw]
    for name, m in (("durenrudin", hl.DurenRudin(1.0)), ("harris", hl.Harris(3))):
        cases[f"witness.{name}.c25"] = lambda m=m: hl.certify_no_ball(m, centers)

    bz_members = {n: hl.parse(f"linear(a=[[{float(n)!r}, 0], [0, {float(n)!r}]])")
                  for n in range(1, 6)}
    bz_sampler = hl.SamplerConfig(radial_shells=6, points_per_shell=32, rng_seed=7,
                                  refine_steps=6)
    cases["bz_sequence.linear.n5"] = lambda: hl.bz_sequence(
        bz_members.__getitem__, list(bz_members), 1.0, bz_sampler)

    layers = {}
    for name, fn in cases.items():
        layers[name] = per_call(fn)
        print(f"{name:36s} {layers[name] * 1e6:12.2f} us")
    report = {
        "unit": "s per call, median of repeats",
        "repeats": REPEATS,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
            "MALLOC_TRIM_THRESHOLD_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
        },
        "layers": layers,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
