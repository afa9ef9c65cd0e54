import numpy as np
import pytest

from holomaplab import (
    DomainSpec,
    DurenRudin,
    Harris,
    Henon,
    Identity,
    Linear,
    MembershipCertificate,
    NewtonConfig,
    NotFound,
    dilate,
    evaluate,
    evaluate_batch,
    inscribed_lower_bound,
    landau_estimate,
    parse,
    rescaled_growth,
    solve_membership,
)
from holomaplab import landau
from holomaplab._sampling import STEP_FLOOR, interior_points, sphere_directions, subseed
from holomaplab.errors import CenterNotInImage, PreconditionFailed

BALL2 = DomainSpec.ball(2, 1.0)
POLY2 = DomainSpec.polydisc(2, 1.0)
CFG = NewtonConfig(tolerance=1e-8, rng_seed=5)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSolveMembership:
    def test_identity(self):
        cert = solve_membership(Identity(2), [0.3, 0.4], BALL2, CFG)
        assert isinstance(cert, MembershipCertificate)
        assert np.allclose(cert.preimage, [0.3, 0.4], atol=1e-12)
        assert cert.residual <= CFG.tolerance

    def test_henon_origin_fixed(self):
        cert = solve_membership(Henon(0.5), [0, 0], BALL2, CFG)
        assert np.allclose(cert.preimage, [0, 0], atol=1e-10)

    def test_henon_inverse_of_eval_example(self):
        cert = solve_membership(Henon(0.5), [0.09, 0.2], BALL2, CFG)
        assert np.allclose(cert.preimage, [0.2, 0.1], atol=1e-8)

    def test_target_outside_image_not_found(self):
        missing = solve_membership(Identity(2), [2.0, 0.0], BALL2, CFG)
        assert isinstance(missing, NotFound)

    def test_first_certifying_start_wins(self):
        # (z1^2, z2) maps z1 = +-0.5 to the same target; the origin start is
        # singular and the multistarts reach both roots, so order decides
        m = parse("(z1^2, z2)")
        b = np.array([0.25, 0.1])
        starts = [np.zeros(2)] + list(
            interior_points(BALL2, landau.MULTISTART_COUNT, subseed(CFG.rng_seed, "newton-starts")))
        roots = []
        for start in starts:
            z, res = landau._newton_batch(m, b[None], np.array(start, complex)[None], BALL2, CFG)
            if res[0] <= CFG.tolerance and BALL2.margin(z[0]) >= landau.DOMAIN_MARGIN_MIN:
                roots.append(z[0])
        signs = [np.sign(r[0].real) for r in roots]
        assert set(signs) == {-1.0, 1.0}
        cert = solve_membership(m, b, BALL2, CFG)
        assert cert.preimage.tobytes() == roots[0].tobytes()


class TestInscribedLowerBound:
    def test_identity_ball(self):
        est = inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG,
                                    direction_count=64, growth_factor=1.01)
        assert est.r_lo >= 0.99
        assert est.r_lo < 1.0
        assert est.r_lo <= est.r_hi
        assert est.directions_tested == 64

    def test_linear_sigma_min(self):
        est = inscribed_lower_bound(Linear(np.diag([2.0, 0.5])), np.zeros(2), BALL2, CFG,
                                    direction_count=256, growth_factor=1.01)
        assert abs(est.r_lo - 0.5) <= 0.01

    def test_durenrudin_bounded_by_delta(self):
        est = inscribed_lower_bound(DurenRudin(1.0), np.zeros(2), POLY2, CFG,
                                    direction_count=128, growth_factor=1.02)
        assert est.r_lo <= 1.0

    def test_certificates_reverify(self):
        m = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        center = evaluate(m, np.zeros(2))
        est = inscribed_lower_bound(m, center, BALL2, CFG,
                                    direction_count=32, growth_factor=1.05)
        assert est.certificates
        for cert in est.certificates:
            residual = np.linalg.norm(evaluate(m, cert.preimage) - cert.target)
            assert residual <= CFG.tolerance
            assert BALL2.margin(cert.preimage) >= landau.DOMAIN_MARGIN_MIN
            assert np.linalg.norm(cert.target - est.center) <= est.r_lo + 1e-12

    def test_certificates_are_center_plus_last_shell(self):
        est = inscribed_lower_bound(Linear(np.diag([2.0, 0.5])), np.zeros(2), BALL2, CFG,
                                    direction_count=48, growth_factor=1.05)
        assert len(est.certificates) == 1 + 48
        assert np.array_equal(est.certificates[0].target, est.center)
        for cert in est.certificates[1:]:
            assert np.linalg.norm(cert.target - est.center) == pytest.approx(est.r_lo, rel=1e-12)
            assert cert.residual <= CFG.tolerance
            assert cert.domain_margin >= landau.DOMAIN_MARGIN_MIN

    def test_center_not_in_image(self):
        with pytest.raises(CenterNotInImage):
            inscribed_lower_bound(Identity(2), np.array([5.0, 0.0]), BALL2, CFG,
                                  direction_count=16)

    def test_shell_history_brackets_r_lo(self):
        est = inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG,
                                    direction_count=32, growth_factor=1.05)
        certified = [r for r, ok in est.shell_history if ok]
        assert max(certified) == est.r_lo
        assert est.r_hi == est.r_lo * 1.05
        assert (est.r_hi, False) in est.shell_history
        assert est.r_lo_label == "sampled"

    @pytest.mark.parametrize("m", [
        Identity(2),
        Linear(np.diag([2.0, 0.5])),
        Linear(np.array([[0.9 + 0.3j, -0.2 + 0.5j], [0.4 - 0.1j, 0.3 + 0.6j]])),
        Linear(np.array([[1.2, 0.7j], [-0.3, 0.15 + 0.05j]])),
    ], ids=["identity", "diagonal", "complex", "ill-conditioned"])
    def test_search_matches_the_rung_by_rung_walk(self, m):
        ladder = walk_every_rung(m, np.zeros(2), BALL2, CFG, 64, 1.02)
        est = inscribed_lower_bound(m, np.zeros(2), BALL2, CFG, 64, 1.02)
        assert est.r_lo.hex() == ladder.r_lo.hex()
        assert est.r_hi.hex() == ladder.r_hi.hex()
        rungs = len(ladder.shell_history)
        assert len(est.shell_history) <= 2 * np.log2(rungs) + 4

    def test_a_bracket_tested_from_below_is_tested_again(self, monkeypatch):
        # a fake shell test: rungs up to radius 0.5 certify, but only from a
        # warm start at most 1.5x below (as a Newton basin would), so gallops
        # of 16 rungs fail below 0.5 and the bracket lo + 1 is often first
        # tested from a lower rung
        certified_radii = [0.0]

        def fake_shell(m, targets, warm, dom, cfg):
            r = float(np.linalg.norm(targets[0]))
            ok = r <= 0.5 * (1 + 1e-12) and r <= 1.5 * max(certified_radii) + 1e-3
            if ok:
                certified_radii.append(r)
            n = len(targets)
            return np.full(n, ok), targets.copy(), np.zeros(n), np.ones(n)

        monkeypatch.setattr(landau, "_certify_shell", fake_shell)
        est = inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG, 8, 1.05)
        ladder = walk_every_rung(Identity(2), np.zeros(2), BALL2, CFG, 8, 1.05)
        assert est.r_lo == ladder.r_lo and est.r_hi == ladder.r_hi
        radii = [r for r, _ in est.shell_history]
        assert len(set(radii)) < len(radii)  # some rung was tested twice
        assert est.shell_history[-1] == (est.r_hi, False)
        assert len(est.shell_history) < len(ladder.shell_history)

    def test_warm_start_is_the_highest_certified_shell_scaled(self, monkeypatch):
        m = Linear(np.diag([2.0, 0.5]))
        center = np.array([0.1, 0.05j])
        shells = []
        original = landau._certify_shell

        def recorded(m, targets, warm, dom, cfg):
            out = original(m, targets, warm, dom, cfg)
            shells.append((warm, out[1]))
            return out

        monkeypatch.setattr(landau, "_certify_shell", recorded)
        est = inscribed_lower_bound(m, center, BALL2, CFG, 16, 1.05)
        shells = shells[1:]  # the first call is the center's membership search
        assert len(shells) == len(est.shell_history)
        z_c = est.certificates[0].preimage
        assert np.array_equal(shells[0][0], np.tile(z_c, (16, 1)))
        r_lo, z_lo = 0.0, None
        for (warm, z), (r, ok) in zip(shells, est.shell_history):
            if z_lo is not None:
                assert np.array_equal(warm, z_c + (r / r_lo) * (z_lo - z_c))
            if ok and r > r_lo:
                r_lo, z_lo = r, z
        assert r_lo == est.r_lo

    def test_probe_ladder_starts_at_its_first_rung(self):
        m = Linear(np.diag([2.0, 0.5]))
        draws = landau._draw(m, BALL2, CFG, 32)
        full = inscribed_lower_bound(m, np.zeros(2), BALL2, CFG, 32, 1.02, _draws=draws)
        j = draws.rungs.index(full.r_lo) - 10  # a rung below r_lo
        est = inscribed_lower_bound(m, np.zeros(2), BALL2, CFG, 32, 1.02, _first=j,
                                    _draws=draws)
        ladder = walk_every_rung(m, np.zeros(2), BALL2, CFG, 32, 1.02, r_start=draws.rungs[j])
        assert est.shell_history[0] == (draws.rungs[j], True)
        assert est.r_lo == ladder.r_lo == full.r_lo and est.r_hi == ladder.r_hi

    def test_certified_last_rung_is_labeled_ladder_end(self):
        # the identity's image is the whole ball, and at ratio 1.000001 the
        # ladder tops out near 1.2e-5: 18 doubling steps reach its last rung
        est = inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG, 8, 1.000001)
        assert len(est.shell_history) == 18
        assert all(ok for _, ok in est.shell_history)
        assert est.r_hi == np.inf and est.r_hi_label == "ladder_end"
        assert est.r_lo == est.shell_history[-1][0]


def walk_every_rung(m, a, dom, cfg, direction_count, growth_factor=1.05, r_start=None):
    """inscribed_lower_bound as it was before the galloping search: every
    rung of the ladder in turn from r_start or r0, each warm-started from
    the rung below."""
    a = landau.algebra.as_vector(a)
    if not growth_factor > 1.0:
        raise ValueError("growth_factor must be > 1")
    if direction_count < 1:
        raise ValueError("direction_count must be >= 1")
    center_sol = solve_membership(m, a, dom, cfg)
    if isinstance(center_sol, NotFound):
        raise CenterNotInImage(
            f"no certificate for center {a}; best residual {center_sol.best_residual:.3e}"
        )
    dirs = sphere_directions(direction_count, m.dim, subseed(cfg.rng_seed, "directions"))
    r = float(r_start) if r_start else cfg.tolerance * 1e3
    warm = np.tile(center_sol.preimage, (direction_count, 1))
    last = None  # (targets, z, res, margins) of the last certified shell
    r_lo, r_hi = 0.0, np.inf
    history: list = []
    while len(history) < landau._MAX_SHELLS:
        targets = a + r * dirs
        ok, z, res, margins = landau._certify_shell(m, targets, warm, dom, cfg)
        if bool(ok.all()):
            history.append((r, True))
            r_lo = r
            last = (targets, z, res, margins)
            warm = z
            r *= growth_factor
        else:
            history.append((r, False))
            r_hi = r
            break
    shell_certs = []
    if last is not None:
        targets, z, res, margins = last
        shell_certs = [
            MembershipCertificate(targets[j], np.array(z[j]), float(res[j]), float(margins[j]))
            for j in range(direction_count)
        ]
    return landau.LandauEstimate(
        center=a,
        r_lo=float(r_lo),
        r_lo_label="sampled",
        r_hi=float(r_hi),
        r_hi_label="heuristic",
        certificates=[center_sol] + shell_certs,
        directions_tested=int(direction_count),
        shell_history=history,
    )


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCertifyShell:
    def test_only_rows_above_tolerance_take_a_jacobian(self, monkeypatch):
        m = Linear(np.diag([2.0, 0.5]))
        targets = 0.3 * sphere_directions(32, 2, 1)
        exact = targets / np.array([2.0, 0.5])
        batches = []
        original = landau.jacobian_batch

        def recorded(m, pts):
            batches.append(np.array(pts))
            return original(m, pts)

        monkeypatch.setattr(landau, "jacobian_batch", recorded)
        ok, z, _, _ = landau._certify_shell(m, targets, exact, BALL2, CFG)
        assert ok.all() and np.array_equal(z, exact)
        assert batches == []
        warm = exact.copy()
        warm[1::2] *= 1.01
        ok, _, _, _ = landau._certify_shell(m, targets, warm, BALL2, CFG)
        assert ok.all()
        # one Newton step solves a linear map, so only the perturbed rows take one
        assert len(batches) == 1 and np.array_equal(batches[0], warm[1::2])


def newton_without_retiring(m, targets, warm, dom, cfg):
    """_newton_batch as it was when a point with a singular Jacobian stayed
    alive with a zero step."""
    z = np.array(warm, dtype=np.complex128)
    alive = np.ones(len(z), dtype=bool)
    escape = landau._DIVERGENCE_FACTOR * (dom.radius + float(np.abs(targets).max()) + 1.0)
    for _ in range(landau.MAX_ITERATIONS):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        vals, jacs = landau.jacobian_batch(m, z[idx])
        f = vals - targets[idx]
        done = np.linalg.norm(f, axis=1) <= cfg.tolerance
        alive[idx[done]] = False
        rem = idx[~done]
        if rem.size == 0:
            continue
        step = np.zeros_like(f[~done])
        for t in range(rem.size):
            try:
                step[t] = np.linalg.solve(jacs[~done][t], f[~done][t])
            except np.linalg.LinAlgError:
                pass
        z[rem] = z[rem] - step
        alive[rem[np.abs(z[rem]).max(axis=1) > escape]] = False
    return z


class TestNewtonBatch:
    def test_residual_is_taken_at_the_returned_point(self, monkeypatch):
        m = parse("(z1^2, z2)")
        cfg = NewtonConfig(tolerance=1e-8)
        monkeypatch.setattr(landau, "MAX_ITERATIONS", 6)
        targets = np.array([[0.25, 0.1], [0.25, 0.1], [0.25, 0.1], [-0.25, 0.1]], complex)
        # rows: converges; singular at z1 = 0; a tiny z1 jumps past the escape
        # radius; z1^2 = -0.25 from a real start stays real and never converges
        warm = np.array([[0.4, 0], [0, 0], [1e-6, 0], [0.3, 0]], complex)
        escape = landau._DIVERGENCE_FACTOR * (BALL2.radius + 0.25 + 1.0)
        calls = count_calls(monkeypatch, landau, "jacobian_batch")
        z, res = landau._newton_batch(m, targets, warm, BALL2, cfg)
        fresh = np.linalg.norm(evaluate_batch(m, z) - targets, axis=1)
        assert res.tobytes() == fresh.tobytes()
        assert res[0] <= cfg.tolerance
        assert np.array_equal(z[1], warm[1]) and res[1] > cfg.tolerance
        assert np.abs(z[2]).max() > escape
        assert len(calls) == 6 and len(calls[-1][0]) == 1
        assert res[3] > cfg.tolerance and 0 < np.abs(z[3]).max() < escape

    def test_frozen_point_is_retired(self, monkeypatch):
        # a warm start on the critical line z1 = 0 of (z1^2, z2) has a singular
        # Jacobian, so its z can never move
        m = parse("(z1^2, z2)")
        c = np.array([0.5, 0.0], complex)
        targets = evaluate(m, c) + 0.01 * sphere_directions(128, 2, 1)
        warm = np.tile(c, (128, 1))
        warm[5, 0] = 0.0
        expected = newton_without_retiring(m, targets, warm, BALL2, CFG)
        batches = []
        original = landau.jacobian_batch

        def recorded(m, pts):
            batches.append(np.array(pts))
            return original(m, pts)

        monkeypatch.setattr(landau, "jacobian_batch", recorded)
        z, _ = landau._newton_batch(m, targets, warm, BALL2, CFG)
        assert len(batches) > 1
        assert len(batches[0]) == 128
        assert all(not (b == warm[5]).all(axis=1).any() for b in batches[1:])
        assert np.array_equal(z, expected)


class TestLandauEstimate:
    def test_identity(self):
        est = landau_estimate(Identity(2), BALL2, CFG, center_candidates=1,
                              direction_count=64, growth_factor=1.01,
                              center_refine_steps=0)
        assert est.r_lo >= 0.99
        assert est.r_hi_label == "heuristic"

    def test_linear_sigma_min_within_two_percent(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            smax = 0.5 + rng.random()
            s = np.array([smax, smax / (1 + 60 * rng.random())])
            A = random_unitary(rng) @ np.diag(s) @ random_unitary(rng).conj().T
            smin = np.linalg.svd(A, compute_uv=False)[-1]
            est = landau_estimate(Linear(A), BALL2, CFG, center_candidates=1,
                                  direction_count=256, growth_factor=1.01,
                                  center_refine_steps=0)
            assert abs(est.r_lo - smin) <= 0.02 * smin

    def test_harris_bounded_and_certified(self):
        est = landau_estimate(Harris(3), POLY2, CFG, center_candidates=3,
                              direction_count=128, growth_factor=1.02,
                              center_refine_steps=1)
        assert est.r_lo <= np.sqrt(2.0 / 3.0) + 0.05
        assert est.r_hi == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        assert est.r_hi_label == "certified"
        assert est.r_lo <= est.r_hi

    def test_durenrudin_certified_upper_bound(self):
        est = landau_estimate(DurenRudin(1.0), POLY2, CFG, center_candidates=2,
                              direction_count=96, growth_factor=1.02,
                              center_refine_steps=0)
        assert est.r_hi == 1.0
        assert est.r_hi_label == "certified"
        assert est.r_lo <= 1.0

    def test_more_directions_never_loosen_the_bound(self):
        # each radius must certify for every direction, so enlarging the
        # (prefix-stable) direction set can only tighten r_lo
        A = Linear(np.diag([2.0, 0.5]))
        kwargs = dict(center_candidates=1, growth_factor=1.02, center_refine_steps=0)
        r64 = landau_estimate(A, BALL2, CFG, direction_count=64, **kwargs).r_lo
        r128 = landau_estimate(A, BALL2, CFG, direction_count=128, **kwargs).r_lo
        assert r128 <= r64 * (1 + 1e-12)

    def test_more_centers_never_shrink_the_bound(self):
        m = parse("expcoord(c=0.4, k=2)")
        kwargs = dict(direction_count=64, growth_factor=1.02, center_refine_steps=0)
        r1 = landau_estimate(m, BALL2, CFG, center_candidates=1, **kwargs).r_lo
        r4 = landau_estimate(m, BALL2, CFG, center_candidates=4, **kwargs).r_lo
        assert r4 >= r1

    def test_center_climb_stops_at_the_step_floor(self, monkeypatch):
        # after its last move the climb halves its step from about r_lo / 4 to
        # the floor STEP_FLOOR * max(1, r_lo / 4) in about 45 sweeps of
        # 4k = 8 probes, however many sweeps it may make; it used to sweep on
        # until the step underflowed to 0, over 1,000 sweeps
        m = Henon(0.5)
        kwargs = dict(center_candidates=1, direction_count=8)
        ref = landau_estimate(m, BALL2, CFG, center_refine_steps=100, **kwargs)
        calls = []
        original = landau.inscribed_lower_bound

        def counted(*args, **kw):
            calls.append(None)
            if len(calls) > 8 * 60:
                raise AssertionError("the center climb ran past its step floor")
            return original(*args, **kw)

        monkeypatch.setattr(landau, "inscribed_lower_bound", counted)
        est = landau_estimate(m, BALL2, CFG, center_refine_steps=10**400, **kwargs)
        assert est.r_lo == ref.r_lo
        assert np.array_equal(est.center, ref.center)

    @pytest.mark.parametrize("text, center, r_lo", [
        ("expcoord(c=0.4, k=2)", [0.04076 + 0j, 0.04076 + 0j], 0.37747535228954066),
        ("(z1 + 0.3*z1^2, z2)", [0.17795 - 0.17795j, 0j], 0.9084394430643272),
    ], ids=["expcoord", "quadratic"])
    def test_climb_matches_the_nested_sweeps(self, text, center, r_lo):
        m = parse(text)
        kwargs = dict(direction_count=16, growth_factor=1.05, center_refine_steps=3)
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=1)
        est = landau_estimate(m, BALL2, cfg, center_candidates=1, **kwargs)
        ref = climb_by_hand(m, BALL2, cfg, **kwargs)
        assert np.allclose(est.center, center, atol=1e-5) and est.r_lo == r_lo
        assert est.center.tobytes() == ref.center.tobytes()
        assert est.r_lo == ref.r_lo and est.r_hi == ref.r_hi
        assert est.shell_history == ref.shell_history
        assert len(est.certificates) == len(ref.certificates)
        for c, d in zip(est.certificates, ref.certificates):
            assert c.target.tobytes() == d.target.tobytes()
            assert c.preimage.tobytes() == d.preimage.tobytes()
            assert (c.residual, c.domain_margin) == (d.residual, d.domain_margin)

    def test_probes_on_the_rungs_spare_the_full_runs(self, monkeypatch):
        # a probe that certifies the incumbent's rung no longer reads as a
        # gain: 2 full runs (the two center candidates), where 139 ran when
        # each probe climbed its own ladder from 0.8 * r_lo
        full_runs = []
        original = landau.inscribed_lower_bound

        def counted(*args, **kw):
            if "_first" not in kw:
                full_runs.append(None)
            return original(*args, **kw)

        monkeypatch.setattr(landau, "inscribed_lower_bound", counted)
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=7)
        landau_estimate(Harris(3), POLY2, cfg, center_refine_steps=20)
        assert len(full_runs) == 2


def climb_by_hand(m, dom, cfg, direction_count, growth_factor, center_refine_steps):
    """landau_estimate of the origin's image alone with its center climb as
    nested sweeps, the way it was written before it ran through
    coordinate_ascent, with each probe started on the highest r0 rung at
    or below 0.8 * r_lo."""
    draws = landau._draw(m, dom, cfg, direction_count)

    def run(center, first=0):
        return inscribed_lower_bound(m, center, dom, cfg, direction_count, growth_factor,
                                     _first=first, _draws=draws)

    best = run(evaluate(m, np.zeros(m.dim)))
    step = 0.25 * best.r_lo
    floor = STEP_FLOOR * max(1.0, step)
    for _ in range(center_refine_steps):
        if step < floor:
            break
        improved = False
        for j in range(m.dim):
            for delta in (step, -step, 1j * step, -1j * step):
                cand = best.center.copy()
                cand[j] += delta
                first = max([0] + [k for k, r in enumerate(draws.rungs) if r <= 0.8 * best.r_lo])
                try:
                    if run(cand, first).r_lo > best.r_lo:
                        full = run(cand)
                        if full.r_lo > best.r_lo:
                            best, improved = full, True
                except CenterNotInImage:
                    continue
        if not improved:
            step *= 0.5
    return best


class TestRescaledGrowth:
    def test_identity_linear_growth(self):
        series = rescaled_growth(Identity(2), [1, 2, 4], CFG, center_candidates=1,
                                 direction_count=64, growth_factor=1.005)
        for R, value in series:
            assert value == pytest.approx(R, rel=0.01)

    def test_linear_sigma_scaling(self):
        series = rescaled_growth(Linear(np.diag([2.0, 0.5])), [1, 2], CFG,
                                 center_candidates=1, direction_count=128,
                                 growth_factor=1.01)
        assert series[0][1] == pytest.approx(0.5, rel=0.02)
        assert series[1][1] == pytest.approx(1.0, rel=0.02)

    def test_expcoord_series_nondecreasing(self):
        series = rescaled_growth(parse("expcoord(c=0.1, k=2)"), [1, 2], CFG,
                                 center_candidates=1, direction_count=64,
                                 growth_factor=1.01)
        values = [v for _, v in series]
        assert values[0] <= values[1]

    def test_dilate_consistency(self):
        # the series value at R equals R times the unit-ball estimate of dilate(m, R)
        m = Identity(2)
        series = rescaled_growth(m, [2], CFG, center_candidates=1,
                                 direction_count=32, growth_factor=1.05)
        est = landau_estimate(dilate(m, 2.0), BALL2, CFG, center_candidates=1,
                              direction_count=32, growth_factor=1.05,
                              center_refine_steps=1)
        assert series[0][1] == pytest.approx(2.0 * est.r_lo, rel=1e-12)

    @pytest.mark.parametrize("R", [-1.0, 0.0, np.inf, np.nan, 1e-320])
    def test_every_r_is_checked_before_the_first_estimate(self, R, monkeypatch):
        def estimate(*args, **kwargs):
            raise AssertionError("an estimate ran before every R was checked")

        monkeypatch.setattr(landau, "_estimate", estimate)
        with pytest.raises(PreconditionFailed):
            rescaled_growth(Identity(2), [1.0, R], CFG)


def count_draws(monkeypatch):
    """Record the seed of every sphere_directions and interior_points call
    that landau makes, by function name."""
    seeds = {"sphere_directions": [], "interior_points": []}
    for name in seeds:
        original = getattr(landau, name)

        def counted(*args, original=original, name=name):
            seeds[name].append(args[2])  # (n, k, seed) and (dom, n, seed)
            return original(*args)

        monkeypatch.setattr(landau, name, counted)
    return seeds


class TestSharedDraws:
    """One call draws its sphere directions, Newton multistarts and r0
    ladder once, for every ladder it runs."""

    def test_an_integer_growth_factor_reads_as_its_float(self):
        m = Linear(np.diag([2.0, 0.5]))
        kwargs = dict(center_candidates=2, direction_count=16, center_refine_steps=1)
        whole, real = (landau_estimate(m, BALL2, CFG, growth_factor=g, **kwargs) for g in (2, 2.0))
        assert whole.shell_history == real.shell_history and whole.r_hi == real.r_hi
        assert np.array_equal(whole.center, real.center)
        alone = inscribed_lower_bound(m, np.zeros(2), BALL2, CFG, 16, 2)
        assert alone.shell_history == inscribed_lower_bound(
            m, np.zeros(2), BALL2, CFG, 16, 2.0).shell_history

    def test_one_estimate_draws_once(self, monkeypatch):
        calls = count_calls(monkeypatch, landau, "inscribed_lower_bound")
        seeds = count_draws(monkeypatch)
        landau_estimate(Henon(0.5), BALL2, CFG, center_candidates=2, direction_count=16,
                        growth_factor=1.05, center_refine_steps=1)
        assert len(calls) >= 2 + 4 * 2  # two full runs and the probes of one sweep
        assert seeds["sphere_directions"] == [subseed(CFG.rng_seed, "directions")]
        assert sorted(seeds["interior_points"]) == sorted(
            [subseed(CFG.rng_seed, "centers"), subseed(CFG.rng_seed, "newton-starts")])

    def test_one_growth_series_draws_once(self, monkeypatch):
        seeds = count_draws(monkeypatch)
        rescaled_growth(Identity(2), [1.0, 2.0, 4.0], CFG, direction_count=16)
        assert seeds["sphere_directions"] == [subseed(CFG.rng_seed, "directions")]
        assert seeds["interior_points"] == [subseed(CFG.rng_seed, "newton-starts")]

    def test_a_call_alone_draws_its_own(self, monkeypatch):
        seeds = count_draws(monkeypatch)
        inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG, 16, 1.05)
        solve_membership(Identity(2), [0.3, 0.4], BALL2, CFG)
        assert len(seeds["sphere_directions"]) == 1
        assert seeds["interior_points"] == [subseed(CFG.rng_seed, "newton-starts")] * 2


class TestArgumentRanges:
    """Every range rule raises PreconditionFailed, a ValueError, and NaN and
    inf fail it."""

    @pytest.mark.parametrize("kwargs", [
        {"rng_seed": -1}, {"tolerance": 0.0}, {"tolerance": np.inf}, {"tolerance": np.nan},
        {"tolerance": -1e-8}, {"tolerance": -np.inf},
    ])
    def test_newton_config(self, kwargs):
        with pytest.raises(PreconditionFailed):
            NewtonConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"center_candidates": 0}, {"center_refine_steps": -1}, {"direction_count": 0},
        {"growth_factor": 1.0}, {"growth_factor": np.inf}, {"growth_factor": np.nan},
        # counts that size an array beyond MAX_COUNT
        {"center_candidates": 10**400}, {"direction_count": 10**400},
    ])
    def test_landau_estimate(self, kwargs):
        with pytest.raises(PreconditionFailed):
            landau_estimate(Identity(2), BALL2, CFG, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"center_candidates": 0}, {"center_refine_steps": -1}, {"direction_count": 0},
        {"growth_factor": 1.0}, {"growth_factor": np.nan}, {"direction_count": 10**400},
    ])
    def test_rescaled_growth_checks_before_any_draw(self, kwargs, monkeypatch):
        seeds = count_draws(monkeypatch)
        with pytest.raises(PreconditionFailed):
            rescaled_growth(Identity(2), [1.0, 2.0], CFG, **kwargs)
        assert seeds == {"sphere_directions": [], "interior_points": []}
