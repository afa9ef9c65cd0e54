"""Layer timings of holomaplab: one Landau shell, one whole inscribed-ball
search, three Landau estimates with center climbs, one growth series, one
failing membership search, the two evaluators at three batch sizes,
batched singular values, refined_sup's batched product, the scoring of
one dense sample set and one Brody-Zalcman sequence.

    python3 benchmarks/layers.py OUTPUT.json
    python3 benchmarks/layers.py OUTPUT.json --against OTHER/src [--only NAME,PREFIX*,...]

Imports holomaplab from the ``src`` of the checkout this file sits in, so the
same script times any commit.  Each entry is the median over REPEATS
repeats of the mean time per call, every repeat running the call for at
least MIN_REPEAT_S seconds, with glibc's malloc thresholds fixed.  Times
are raw seconds on the machine it runs on, which the output records.  Needs
numpy only.

With --against, the script is an A/B in one process: it also imports the
holomaplab of OTHER/src, under the package name holomaplab_before, builds
every entry on both trees, and times AB_ROUNDS rounds of each entry after
one warm-up call per side.  In a round the two sides make one call each,
and which side calls first alternates from round to round, so a speed
swing of the machine lands on both sides alike.  Each entry reports
"before" (OTHER) and "after" (this checkout), the medians of their call
times, the rounds, and "after_faster", the rounds in which this checkout's
call was the faster.  --only keeps the named entries; a name ending in *
keeps a prefix.

Entries:
  shell.linear.n128       _certify_shell on a complex Linear map, 128
                          directions, warm-started from the certified shell
                          below it: one Newton batch
  shell.dilate_exp.n96    the same on dilate(expcoord(c=0.1, k=2), 2), 96
                          directions
  shell.henon.n1024       the same on henon(b=0.5) on the ball of radius 0.9,
                          1024 directions at radius 0.35 (r_lo is about 0.437)
  ilb.linear.n128         one whole inscribed_lower_bound around m(0) on the
                          same Linear map, 128 directions, growth factor 1.02
  ilb.quad05.n128         the same for (z1 + 0.5 z1^2, z2) on the unit
                          polydisc, whose inscribed radius 0.5 lies below
                          the linearized 0.8: the start rung fails, and the
                          search gallops down from it
  estimate.harris3.refine1
                          landau_estimate of Harris(3) on the unit polydisc
                          from the origin's image, 96 directions, growth
                          factor 1.02, one climb sweep: one full run and 8
                          probes, which run in lockstep rounds (one Newton
                          batch per round)
  estimate.henon.refine20 landau_estimate of henon(b=0.5) on the ball of
                          radius 0.9, default candidates, directions and
                          growth factor, 20 climb sweeps: two full runs
                          and 160 probes, none of which beats the
                          incumbent; the full runs share lockstep rounds,
                          and so do the 8 probes of each sweep
  estimate.quad05.refine6 landau_estimate of (z1 + 0.5 z1^2, z2) on the ball
                          of radius 0.9, seed 1, from the origin's image,
                          32 directions, growth factor 1.02, 6 climb
                          sweeps: 6 probes beat the incumbent, and each
                          becomes the incumbent with the search it ran
  growth.expcoord.r2      rescaled_growth of expcoord(c=0.1, k=2) at R in
                          {1, 2}, 96 directions, growth factor 1.02
  growth.expcoord.r1248   the same at R in {1, 2, 4, 8}: the ladders of the
                          four dilations run in lockstep rounds
  membership.fail         solve_membership of a target outside the image:
                          the origin and the multistarts, one Newton batch
  draw.linear.n128        one landau._draw on the Linear map's unit ball:
                          128 sphere directions and the 8 Newton multistarts
  ladders.harris3.sweep   one landau._ladders call on the 8 probe centers of
                          the first climb sweep of estimate.harris3.refine1
                          (step r_lo / 4 from the origin's image), from the
                          highest rung at or below 0.8 r_lo, as the climb
                          runs them
  jacobian_batch.<map>.n<N>, evaluate_batch.<map>.n<N>
                          N in {1, 96, 10^4}
  jacobian_batch.dilations_exp.n192, evaluate_batch.dilations_exp.n192
                          the same on a landau._Dilations of
                          expcoord(c=0.1, k=2) with R in {1, 2} x 96 rows,
                          the batch shape of one round of growth.expcoord.r2
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
  cli.<stem>              one cli.run of configs/<stem>.json, for every
                          bundled config, writing its report to a temporary
                          directory: the config read, its validation, the
                          task, and the report's encoding and write
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from bisect import bisect_right
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

import holomaplab  # noqa: E402

REPEATS = 7
AB_ROUNDS = 60
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


def load_tree(src, name):
    """The holomaplab package under src, imported as the package name."""
    init = Path(src).resolve() / "holomaplab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def shell_case(hl, m, dom, cfg, directions, r):
    """A shell at radius r around m(0), warm-started from the certified
    shell one growth step (1.02) below it."""
    origin = np.zeros(m.dim, complex)
    center = hl.evaluate(m, origin)
    dirs = hl._sampling.sphere_directions(directions, m.dim, 1)
    below = center + (r / 1.02) * dirs
    ok, z_below, _, _ = hl.landau._certify_shell(m, below, np.tile(origin, (directions, 1)),
                                                 dom, cfg)
    if not ok.all():
        raise RuntimeError("the shell below did not certify")
    targets = center + r * dirs

    def run():
        ok = hl.landau._certify_shell(m, targets, z_below, dom, cfg)[0]
        if not ok.all():
            raise RuntimeError("timed shell did not certify")

    return run


def ilb_case(hl, m, dom, cfg, directions):
    """One whole inscribed_lower_bound around m(0) at growth factor 1.02."""
    center = hl.evaluate(m, np.zeros(m.dim, complex))

    def run():
        if not hl.inscribed_lower_bound(m, center, dom, cfg, directions, 1.02).r_lo > 0:
            raise RuntimeError("no shell certified")

    return run


def sweep_case(hl, m, dom, cfg, directions, growth_factor):
    """One _ladders call on the probes of the first climb sweep from m(0):
    its 4k centers at step r_lo / 4, from the highest rung at or below
    0.8 r_lo, on the estimate's shared draws."""
    landau = hl.landau
    draws = landau._draw(m, dom, cfg, directions)
    best = landau._ladders(m, [hl.evaluate(m, np.zeros(m.dim))], dom, cfg, growth_factor,
                           draws)[0]
    first = max(0, bisect_right(draws.rungs, 0.8 * best.r_lo) - 1)
    h = 0.25 * best.r_lo
    centers = [best.center + delta * np.eye(m.dim)[j]
               for j in range(m.dim) for delta in (h, -h, 1j * h, -1j * h)]
    return lambda: landau._ladders(m, centers, dom, cfg, growth_factor, draws, first)


def sup_kappa_climb(hl, m, dom, x0):
    """One coordinate_ascent of the scorer and domain test that sup_kappa
    hands to sampled_sup, 20 steps of 0.1 from x0."""
    handed = {}

    def capture(score, pts, steps, step0, inside):
        handed.update(score=score, inside=inside)
        return pts[0], 0.0, len(pts), 0

    conditioning = hl.conditioning
    original, conditioning.sampled_sup = conditioning.sampled_sup, capture
    try:
        hl.sup_kappa(m, dom, hl.SamplerConfig(radial_shells=1, points_per_shell=1))
    finally:
        conditioning.sampled_sup = original
    score, inside = handed["score"], handed["inside"]
    x0 = np.array(x0, dtype=complex)
    best = float(score(x0[None])[0])
    return lambda: hl._sampling.coordinate_ascent(score, x0, best, 20, 0.1, inside)


def cli_case(hl, config, report):
    """One cli.run of the config file, writing its report to report."""
    cli = importlib.import_module(f"{hl.__name__}.cli")

    def run():
        if cli.run(str(config), str(report)) != 0:
            raise RuntimeError(f"{config.name} did not exit 0")

    return run


def build_cases(hl, workdir):
    """Every entry's call on the holomaplab package hl, by name; the cli
    entries write their reports to the directory workdir."""
    ball = hl.DomainSpec.ball(2, 1.0)
    cfg = hl.NewtonConfig(tolerance=1e-8, rng_seed=7)
    linear = hl.parse(LINEAR_TEXT)
    dilate_exp = hl.dilate(hl.parse("expcoord(c=0.1, k=2)"), 2.0)
    sigma_min = float(np.linalg.svd(linear.matrix, compute_uv=False)[-1])

    cases = {}
    cases["shell.linear.n128"] = shell_case(hl, linear, ball, cfg, 128, 0.9 * sigma_min)
    cases["shell.dilate_exp.n96"] = shell_case(hl, dilate_exp, ball, cfg, 96, 0.06)
    henon, ball09 = hl.parse("henon(b=0.5)"), hl.DomainSpec.ball(2, 0.9)
    cases["shell.henon.n1024"] = shell_case(hl, henon, ball09, cfg, 1024, 0.35)
    cases["ilb.linear.n128"] = ilb_case(hl, linear, ball, cfg, 128)
    harris, polydisc = hl.Harris(3), hl.DomainSpec.polydisc(2, 1.0)
    quad05 = hl.parse("(z1 + 0.5*z1^2, z2)")
    cases["ilb.quad05.n128"] = ilb_case(hl, quad05, polydisc, cfg, 128)
    cases["estimate.harris3.refine1"] = lambda: hl.landau_estimate(
        harris, polydisc, cfg, center_candidates=1, direction_count=96, growth_factor=1.02,
        center_refine_steps=1)
    cases["estimate.henon.refine20"] = lambda: hl.landau_estimate(
        henon, ball09, cfg, center_refine_steps=20)
    cases["estimate.quad05.refine6"] = lambda: hl.landau_estimate(
        quad05, ball09, hl.NewtonConfig(rng_seed=1),
        center_candidates=1, direction_count=32, growth_factor=1.02, center_refine_steps=6)
    expcoord = hl.parse("expcoord(c=0.1, k=2)")
    cases["growth.expcoord.r2"] = lambda: hl.rescaled_growth(
        expcoord, [1.0, 2.0], cfg, direction_count=96, growth_factor=1.02)
    cases["growth.expcoord.r1248"] = lambda: hl.rescaled_growth(
        expcoord, [1.0, 2.0, 4.0, 8.0], cfg, direction_count=96, growth_factor=1.02)
    outside = 1.5 * hl.evaluate(linear, [1.0, 0.0])  # the preimage has norm 1.5

    def membership_fail():
        if isinstance(hl.solve_membership(linear, outside, ball, cfg), hl.MembershipCertificate):
            raise RuntimeError("a target outside the image certified")

    cases["membership.fail"] = membership_fail
    cases["draw.linear.n128"] = lambda: hl.landau._draw(linear, ball, cfg, 128)
    cases["ladders.harris3.sweep"] = sweep_case(hl, harris, polydisc, cfg, 96, 1.02)

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
    dilations = hl.landau._Dilations(expcoord, np.repeat([1.0, 2.0], 96))
    draw = np.random.default_rng(192).random  # its own stream: rng's later draws keep their bits
    rows = 0.5 * (draw((192, 2)) + 1j * draw((192, 2)))
    cases["jacobian_batch.dilations_exp.n192"] = lambda: hl.jacobian_batch(dilations, rows)
    cases["evaluate_batch.dilations_exp.n192"] = lambda: hl.evaluate_batch(dilations, rows)

    def cstack(n, k):
        return rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))

    for n in SVD_BATCH_SIZES:
        cases[f"svd.k2.n{n}"] = lambda mats=cstack(n, 2): hl.algebra.singular_values_batch(mats)
    cases["svd.k3.n96"] = lambda mats=cstack(96, 3): hl.algebra.singular_values_batch(mats)
    jacs, b = cstack(SVD_BATCH_SIZES[-1], 2), cstack(1, 2)[0]
    cases[f"refined_product.n{len(jacs)}"] = lambda: hl.algebra.times_batch(jacs, b)

    dense = hl.SamplerConfig(radial_shells=DENSE_SHELLS, points_per_shell=DENSE_PER_SHELL,
                             rng_seed=3, refine_steps=0)
    samples = hl._sampling.shell_points(ball, DENSE_SHELLS, DENSE_PER_SHELL, 3)
    dense_maps = {"henon_exp": maps["henon_exp"], "poly": hl.parse(POLY_TEXT), "linear": linear}
    for name, m in dense_maps.items():
        cases[f"jacobian_batch.{name}.n{len(samples)}"] = lambda m=m: hl.jacobian_batch(m, samples)
        cases[f"score.kappa.{name}.n{len(samples)}"] = lambda m=m: hl.sup_kappa(m, ball, dense)

    start = [0.3 + 0.2j, -0.25 + 0.4j]
    for name in ("henon_exp", "linear"):
        cases[f"climb.kappa.{name}"] = sup_kappa_climb(hl, dense_maps[name], ball, start)
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

    for config in sorted((ROOT / "configs").glob("*.json")):
        report = Path(workdir) / f"{hl.__name__}.{config.stem}.report.json"
        cases[f"cli.{config.stem}"] = cli_case(hl, config, report)
    return cases


def selected(names, only):
    """The names that --only keeps, in order."""
    if not only:
        return list(names)
    keys = only.split(",")
    return [name for name in names
            if any(name == key or key.endswith("*") and name.startswith(key[:-1])
                   for key in keys)]


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def against(cases, before_cases, names, rounds=AB_ROUNDS):
    """The in-process A/B of each entry: before_cases (the other tree)
    against cases, the sides alternating call by call."""
    out = {}
    for name in names:
        sides = (before_cases[name], cases[name])
        for fn in sides:
            fn()  # warm-up
        times = ([], [])
        for i in range(rounds):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(timed(sides[side]))
        before, after = (statistics.median(t) for t in times)
        out[name] = {"before": before, "after": after, "rounds": rounds,
                     "after_faster": sum(a < b for b, a in zip(*times))}
        print(f"{name:36s} {before * 1e6:12.2f} -> {after * 1e6:12.2f} us, "
              f"faster in {out[name]['after_faster']} of {rounds}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output")
    p.add_argument("--against", metavar="SRC_DIR",
                   help="the src directory of another checkout: time both, in one process")
    p.add_argument("--only", default="", help="comma-separated entries; NAME* keeps a prefix")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        cases = build_cases(holomaplab, workdir)
        names = selected(cases, args.only)
        report = {
            "unit": "s per call, median of repeats",
            "machine": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpus": os.cpu_count(),
                "processor": platform.processor() or platform.machine(),
                "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
                "MALLOC_TRIM_THRESHOLD_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
            },
        }
        if args.against:
            before_cases = build_cases(load_tree(args.against, "holomaplab_before"), workdir)
            report["unit"] = "s per call, median of rounds"
            report["against"] = str(Path(args.against).resolve())
            report["in_process"] = against(cases, before_cases, names)
        else:
            report["repeats"] = REPEATS
            report["layers"] = {}
            for name in names:
                report["layers"][name] = per_call(cases[name])
                print(f"{name:36s} {report['layers'][name] * 1e6:12.2f} us")
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
