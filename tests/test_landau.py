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
    jacobian_batch,
    landau_estimate,
    parse,
    Scalar,
    rescaled_growth,
    solve_membership,
    to_text,
)
from holomaplab import landau
from holomaplab._sampling import (
    INTERIOR_PULLBACK,
    STEP_FLOOR,
    interior_points,
    sphere_directions,
    subseed,
)
from holomaplab.errors import CenterNotInImage, PreconditionFailed

BALL2 = DomainSpec.ball(2, 1.0)
POLY2 = DomainSpec.polydisc(2, 1.0)
CFG = NewtonConfig(tolerance=1e-8, rng_seed=5)
NESTED = dict(direction_count=16, growth_factor=1.05, center_refine_steps=3)
# (z1 + 0.5 z1^2, z2) on the ball of radius 0.9 climbs from its one candidate
QUAD05_CLIMB = dict(direction_count=32, growth_factor=1.02, center_refine_steps=6)


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
        center = np.array([5.0, 0.0])
        missing = solve_membership(Identity(2), center, BALL2, CFG)
        with pytest.raises(CenterNotInImage) as raised:
            inscribed_lower_bound(Identity(2), center, BALL2, CFG, direction_count=16)
        assert f"best residual {missing.best_residual:.3e}" in str(raised.value)
        # the exact preimage (5, 0) misses the domain, not the tolerance
        assert "at domain margin -4.000e+00" in str(raised.value)

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
        full = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws)
        j = draws.rungs.index(full.r_lo) - 10  # a rung below r_lo
        est = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws, j)
        ladder = walk_every_rung(m, np.zeros(2), BALL2, CFG, 32, 1.02, r_start=draws.rungs[j])
        assert est.shell_history[0] == (draws.rungs[j], True)
        assert est.r_lo == ladder.r_lo == full.r_lo and est.r_hi == ladder.r_hi

    def test_certified_last_rung_is_labeled_ladder_end(self):
        # the identity's image is the whole ball, and at ratio 1.000001 the
        # ladder tops out near 1.2e-5, far below the linearized radius 0.8:
        # the search starts on the last rung, and it certifies
        est = inscribed_lower_bound(Identity(2), np.zeros(2), BALL2, CFG, 8, 1.000001)
        assert len(est.shell_history) == 1
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


def search_alone(m, a, dom, cfg, growth_factor, draws, first=0):
    """The search of landau._ladders around a alone, on draws from rung
    first, with its certificates formed as inscribed_lower_bound forms them."""
    return landau._keep(landau._ladders(m, [a], dom, cfg, growth_factor, draws, first)[0])


def rung_indices(est, rungs):
    """est's shell history as (rung index, certified) pairs."""
    return [(rungs.index(r), ok) for r, ok in est.shell_history]


class TestStartRung:
    """A full search tests first the highest rung at or below
    START_FRACTION * sigma_min(J(z_c)) * margin(z_c), then gallops up from
    it by 1, 2, 4, ... or, where it fails, down by 1, 2, 4, ... with cold
    starts; the radii it reports are the walk's."""

    @pytest.mark.parametrize("m, dom", [
        (parse("(z1 + 0.1*z1^2, z2)"), POLY2),
        (parse("(z1 + 0.3*z1^2, z2)"), POLY2),
        (parse("(z1 + 0.5*z1^2, z2)"), POLY2),
        (Harris(3), POLY2),
        (Harris(27), POLY2),
        (Linear(np.array([[0.9 + 0.3j, -0.2 + 0.5j], [0.4 - 0.1j, 0.3 + 0.6j]])), BALL2),
    ], ids=["quad0.1", "quad0.3", "quad0.5", "harris3", "harris27", "linear"])
    def test_search_matches_the_rung_by_rung_walk(self, m, dom):
        center = evaluate(m, np.zeros(2))
        ladder = walk_every_rung(m, center, dom, CFG, 32, 1.02)
        est = inscribed_lower_bound(m, center, dom, CFG, 32, 1.02)
        assert est.shell_history[0][0] > CFG.tolerance * 1e3  # the search used a start rung
        assert est.r_lo.hex() == ladder.r_lo.hex()
        assert est.r_hi.hex() == ladder.r_hi.hex()

    def test_a_start_that_certifies_gallops_up_from_it(self, monkeypatch):
        m = Linear(np.diag([2.0, 0.5]))  # z_c = 0: sigma_min 0.5, margin 1
        starts = count_calls(monkeypatch, landau, "_start_rungs")
        draws = landau._draw(m, BALL2, CFG, 32)
        est = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws)
        [[g]] = starts
        assert draws.rungs[g] <= landau.START_FRACTION * 0.5 < draws.rungs[g + 1]
        assert rung_indices(est, draws.rungs)[:4] == [(g, True), (g + 1, True), (g + 3, True),
                                                      (g + 7, True)]

    def test_a_start_that_fails_gallops_down_from_cold_starts(self, monkeypatch):
        # the image of (z1 + 0.5 z1^2, z2) holds the ball of radius 0.5 about
        # 0 and no larger one, below the linearized radius 0.8
        m = parse("(z1 + 0.5*z1^2, z2)")
        shells = []
        original = landau._certify_shell

        def recorded(m, targets, warm, dom, cfg):
            out = original(m, targets, warm, dom, cfg)
            shells.append(warm)
            return out

        monkeypatch.setattr(landau, "_certify_shell", recorded)
        draws = landau._draw(m, POLY2, CFG, 32)
        est = search_alone(m, np.zeros(2), POLY2, CFG, 1.02, draws)
        history = rung_indices(est, draws.rungs)
        g = history[0][0]
        assert draws.rungs[g] <= landau.START_FRACTION < draws.rungs[g + 1]
        down = [g - (2 ** t - 1) for t in range(len(history))]
        cold = next(t for t, (rung, ok) in enumerate(history) if ok) + 1
        assert cold > 2 and history[:cold] == [(rung, rung == down[cold - 1])
                                               for rung in down[:cold]]
        z_c = est.certificates[0].preimage
        for warm in shells[1:1 + cold]:  # after the center's membership search
            assert np.array_equal(warm, np.tile(z_c, (32, 1)))
        assert history[-1] == (history[-1][0], False) and est.r_hi == draws.rungs[history[-1][0]]
        assert est.r_lo == draws.rungs[history[-1][0] - 1]

    def test_a_start_not_above_r0_is_rung_0(self):
        # the image is the ball of radius 1.2e-5, whose linearized radius
        # 0.96e-5 lies below r0 = 1e-5: the search runs from rung 0
        m = Scalar(1.2e-5, Identity(2))
        draws = landau._draw(m, BALL2, CFG, 32)
        est = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws)
        assert rung_indices(est, draws.rungs)[:3] == [(0, True), (2, True), (6, True)]
        ladder = walk_every_rung(m, np.zeros(2), BALL2, CFG, 32, 1.02)
        assert (est.r_lo, est.r_hi) == (ladder.r_lo, ladder.r_hi)

    def test_a_start_past_the_ladder_is_its_last_rung(self, monkeypatch):
        # at ratio 1.000001 the ladder's last rung is near 1.2e-5, far below
        # the identity's 0.8: the ladder grows in a few chunks to its end, and
        # the start rung is found by bisection, not by a walk
        grows = count_calls(monkeypatch, landau, "_grow")
        draws = landau._draw(Identity(2), BALL2, CFG, 8)
        est = search_alone(Identity(2), np.zeros(2), BALL2, CFG, 1.000001, draws)
        assert len(draws.rungs) == landau._MAX_SHELLS and len(grows) < 20
        assert est.shell_history == [(draws.rungs[-1], True)]

    def test_each_dilation_starts_from_its_own_jacobian(self):
        # a growth series' rows run z -> (1/R) m(R z): at a center away from
        # the origin each R has its own sigma_min, so its own start rung
        m = parse("expcoord(c=0.1, k=2)")
        Rs, p = [1.0, 4.0, 8.0], np.array([-0.5, 0.2j])
        centers = [evaluate(dilate(m, R), p) for R in Rs]
        draws = landau._draw(m, BALL2, CFG, 32)
        out = landau._ladders(m, centers, BALL2, CFG, 1.02, draws, 0, Rs)
        assert len({est.shell_history[0] for est in out}) == len(Rs)
        for R, center, est in zip(Rs, centers, out):
            alone = inscribed_lower_bound(dilate(m, R), center, BALL2, CFG, 32, 1.02)
            assert est.shell_history == alone.shell_history
            assert (est.r_lo, est.r_hi) == (alone.r_lo, alone.r_hi)

    def test_a_probe_gallops_from_its_first_rung(self, monkeypatch):
        m = Linear(np.diag([2.0, 0.5]))
        draws = landau._draw(m, BALL2, CFG, 32)
        full = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws)
        j = draws.rungs.index(full.r_lo) - 20
        starts = count_calls(monkeypatch, landau, "_start_rungs")
        est = search_alone(m, np.zeros(2), BALL2, CFG, 1.02, draws, j)
        assert starts == []
        assert rung_indices(est, draws.rungs)[:3] == [(j, True), (j + 2, True), (j + 6, True)]
        assert (est.r_lo, est.r_hi) == (full.r_lo, full.r_hi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [
        Scalar(1e300, Linear(np.diag([1e10, 1.0]))),  # J(0) holds inf
        # J(0) holds NaN, which _start_rungs filters out before singular_values_batch
        Scalar(1e300, Scalar(1e300, Scalar(1e300, Linear(np.diag([1e10, 1.0]))))),
        parse("(z1^2, z2)"),  # J(0) is singular
    ], ids=["inf", "nan", "singular"])
    def test_no_start_rung_without_a_finite_nonsingular_jacobian(self, m, monkeypatch):
        starts = count_calls(monkeypatch, landau, "_start_rungs")
        est = inscribed_lower_bound(m, np.zeros(2), BALL2, CFG, 16, 1.05)
        assert starts == [[0]] and est.shell_history[0][0] == CFG.tolerance * 1e3
        ladder = walk_every_rung(m, np.zeros(2), BALL2, CFG, 16, 1.05)
        assert (est.r_lo, est.r_hi) == (ladder.r_lo, ladder.r_hi)


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


    def test_a_2x2_shell_calls_no_lapack_solve(self, monkeypatch):
        # every Jacobian of a Henon shell has its determinant in the range of
        # algebra.solve_batch's closed form, so no Newton step calls LAPACK
        m = parse("henon(b=0.5)")
        center = evaluate(m, [0, 0])
        targets = center + 0.05 * sphere_directions(64, 2, 3)
        calls = count_calls(monkeypatch, np.linalg, "solve")
        jacobians = count_calls(monkeypatch, landau, "jacobian_batch")
        ok = landau._certify_shell(m, targets, np.zeros((64, 2), complex), BALL2, CFG)[0]
        assert ok.all() and len(jacobians) > 1 and calls == []

    def test_a_three_dimensional_shell(self, monkeypatch):
        # k = 3 Jacobians go to LAPACK: a start on the critical plane z1 = 0 of
        # (z1^2, z2, z3) has an exactly singular Jacobian, so it retires
        # unmoved after its first; the other rows certify, each row with the
        # bits of its standalone run
        m = parse("(z1^2, z2, z3)")
        ball3 = DomainSpec.ball(3, 1.0)
        c = np.array([0.5, 0, 0], complex)
        targets = evaluate(m, c) + 0.01 * sphere_directions(16, 3, 1)
        warm = np.tile(c, (16, 1))
        warm[5, 0] = 0.0
        batches = []
        original = landau.jacobian_batch

        def recorded(m, pts):
            batches.append(np.array(pts))
            return original(m, pts)

        monkeypatch.setattr(landau, "jacobian_batch", recorded)
        batch = landau._certify_shell(m, targets, warm, ball3, CFG)
        monkeypatch.undo()
        ok, z, res, _ = batch
        assert np.delete(ok, 5).all() and not ok[5]
        assert np.array_equal(z[5], warm[5]) and res[5] > CFG.tolerance
        assert len(batches) > 1 and len(batches[0]) == 16
        assert all(not (b == warm[5]).all(axis=1).any() for b in batches[1:])
        for i in range(len(targets)):
            alone = landau._certify_shell(m, targets[i:i + 1], warm[i:i + 1], ball3, CFG)
            for got, want in zip(batch, alone):
                assert got[i:i + 1].tobytes() == want.tobytes(), (i, got[i], want)


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

    @pytest.mark.parametrize("text", [
        "henon(b=0.5)", "compose(henon(b=0.5), expcoord(c=0.1, k=2))", "harris(n=3)"])
    def test_a_row_runs_as_it_runs_alone(self, text):
        # each row has its own escape bound, so a far target (1000, 0) in the
        # batch changes no other row's run
        m = parse(text)
        rng = np.random.default_rng(41)
        targets = rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2))
        warm = 5.0 * (rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2)))
        # on the composition this row fails alone, but it would certify beside
        # (1000, 0) if its escape bound were taken from that target
        targets[0] = [2.242 - 3.193j, 2.786 - 1.511j]
        warm[0] = [-0.508 + 0.184j, -0.227 - 0.893j]
        targets = np.vstack([targets, [[1000, 0]]])
        warm = np.vstack([warm, [[0, 0]]])
        batch = landau._certify_shell(m, targets, warm, BALL2, CFG)
        for i in range(len(targets)):
            alone = landau._certify_shell(m, targets[i:i + 1], warm[i:i + 1], BALL2, CFG)
            for got, want in zip(batch, alone):
                assert got[i:i + 1].tobytes() == want.tobytes(), (i, got[i], want)

    def test_retiring_rows_run_as_they_run_alone(self):
        # every way a row leaves the compact running set, in one batch: one
        # converges at its first evaluation, one has a singular Jacobian at
        # z1 = 0 (so the batch solve falls back to row solves), one jumps past
        # its escape bound, one turns NaN; the last converges in five steps
        m = parse("compose(expcoord(c=30, k=2), (z1^2, z2))")
        exact = np.array([0.1, 0.02], complex)
        near = evaluate(m, exact)
        targets = np.array([near, near, [0.5, 0.5], [1e300, 0], [0.5, 0.5]], complex)
        warm = np.array([exact, [0, 0.02], [1e-6, 0.02], [0.1, 0], [0.2, 0.02]], complex)
        batch = landau._certify_shell(m, targets, warm, BALL2, CFG)
        ok, z, res, _ = batch
        assert ok[0] and res[0] == 0 and ok[4] and not ok[1:4].any()
        assert np.array_equal(z[1], warm[1])
        assert np.abs(z[2]).max() > landau._DIVERGENCE_FACTOR * (BALL2.radius + 0.5 + 1.0)
        assert np.isfinite(z[2]).all() and np.isnan(z[3]).all()
        for i in range(len(targets)):
            alone = landau._certify_shell(m, targets[i:i + 1], warm[i:i + 1], BALL2, CFG)
            for got, want in zip(batch, alone):
                assert got[i:i + 1].tobytes() == want.tobytes(), (i, got[i], want)

    def test_a_nan_row_retires(self, monkeypatch):
        # the far row's exp overflows, and its second step makes it NaN, which
        # no "> bound" test catches; it retires there, and the near row takes
        # the third Jacobian alone
        m = parse("expcoord(c=30, k=2)")
        targets = np.array([[0.5, 0.5], [1e300, 0]], complex)
        warm = np.array([[0.01, 0.01], [0.1, 0]], complex)
        calls = count_calls(monkeypatch, landau, "jacobian_batch")
        with np.errstate(all="ignore"):
            z, res = landau._newton_batch(m, targets, warm, BALL2, CFG)
        assert res[0] <= CFG.tolerance and np.isnan(z[1]).all()
        assert [len(values) for values, _ in calls] == [2, 2, 1]


class TestPerRowDilation:
    """The private node that gives each row of a Newton batch its own
    dilation z -> (1/R) m(R z)."""

    @staticmethod
    def assert_rows_are_dilate(node, m, R, z):
        values = evaluate_batch(node, z)
        jvalues, jacs = jacobian_batch(node, z)
        for i in range(len(z)):
            ref = dilate(m, R[i])
            assert values[i].tobytes() == evaluate_batch(ref, z[i:i + 1])[0].tobytes()
            ref_values, ref_jacs = jacobian_batch(ref, z[i:i + 1])
            assert jvalues[i].tobytes() == ref_values[0].tobytes()
            assert jacs[i].tobytes() == ref_jacs[0].tobytes()

    @pytest.mark.parametrize("text", [
        "compose(henon(b=0.5), expcoord(c=3, k=2))", "expcoord(c=1000, k=2)",
        "(z1 + (0.3-0.1i)*z1^2, z2 + 0.2*z1*z2)", "harris(n=3)"])
    def test_each_row_is_dilate_of_its_r(self, text):
        # rows of several R, among them rows that overflow to inf or NaN and
        # a NaN row, checked before and after a gather of rows
        m = parse(text)
        R = np.array([1.0, 2.0, 0.5, 300.0, 2.0, 1e-3, 7.0, 1e150])
        z = np.array([[0.3 + 0.1j, -0.2j], [0.5, 0.5], [-0.7 + 0.2j, 0.1],
                      [1e3, 1e3j], [np.nan, 0.1], [2.0, -1.0j], [0.1j, 0.9], [1e200, 0.1]])
        node = landau._Dilations(m, R)
        with np.errstate(all="ignore"):
            self.assert_rows_are_dilate(node, m, R, z)
            rows = np.array([6, 0, 3, 4])
            self.assert_rows_are_dilate(node.take(rows), m, R[rows], z[rows])

    @pytest.mark.parametrize("text", [
        "expcoord(c=0.1, k=2)", "compose(henon(b=0.5), expcoord(c=0.1, k=2))", "harris(n=3)",
        "identity(k=2)", "(z1 + 0.5*z1^2, z2)"])
    def test_rows_match_dilate_bit_for_bit(self, text):
        # seeded R in [0.01, 10] and points with the origin among them: every
        # row's value and Jacobian has the bits of its own dilate(m, R)
        m = parse(text)
        rng = np.random.default_rng(31)
        R = rng.uniform(0.01, 10.0, 12)
        z = rng.uniform(-0.5, 0.5, (12, 2)) + 1j * rng.uniform(-0.5, 0.5, (12, 2))
        z[0] = 0
        node = landau._Dilations(m, R)
        values = evaluate_batch(node, z)
        jvalues, jacs = jacobian_batch(node, z)
        for i, r in enumerate(R):
            ref = dilate(m, r)
            assert parse(to_text(ref)) == ref
            ref_values, ref_jacs = jacobian_batch(ref, z[i:i + 1])
            for got, want in ((values[i], evaluate_batch(ref, z[i:i + 1])[0]),
                              (jvalues[i], ref_values[0]), (jacs[i], ref_jacs[0])):
                # tobytes: a Jacobian is a view whose last axis is not contiguous
                assert got.tobytes() == want.tobytes(), (i, got, want)

    def test_a_batch_of_dilations_runs_as_each_dilation_alone(self):
        # a Newton batch whose rows drop out at both gathers: at the rows
        # that step, and at the row solves after a singular Jacobian (z1 = 0)
        m = parse("compose(expcoord(c=30, k=2), (z1^2, z2))")
        R = np.array([1.0, 2.0, 0.5, 1.0, 1.5, 3.0])
        exact = np.array([0.1, 0.02], complex)
        targets = np.array([evaluate(dilate(m, r), exact) for r in R])
        targets[2:4] = [[0.5, 0.5], [1e300, 0]]
        warm = np.array([exact, [0, 0.02], [1e-6, 0.02], [0.1, 0], [0.2, 0.02], [0.09, 0.03]],
                        complex)
        batch = landau._certify_shell(landau._Dilations(m, R), targets, warm, BALL2, CFG)
        ok, z, _, _ = batch
        assert ok[0] and ok[4] and ok[5] and not ok[1:4].any()
        assert np.array_equal(z[1], warm[1])  # the singular row cannot move
        for i in range(len(targets)):
            alone = landau._certify_shell(dilate(m, R[i]), targets[i:i + 1], warm[i:i + 1],
                                          BALL2, CFG)
            for got, want in zip(batch, alone):
                assert got[i:i + 1].tobytes() == want.tobytes(), (i, got[i], want)


def count_ladders(monkeypatch):
    """Record (first rung, results) of every lockstep call of landau._ladders."""
    calls = []
    original = landau._ladders

    def counted(m, centers, dom, cfg, growth_factor, draws, first=0, scales=None):
        out = original(m, centers, dom, cfg, growth_factor, draws, first, scales)
        calls.append((first, out))
        return out

    monkeypatch.setattr(landau, "_ladders", counted)
    return calls


class TestLockstepLadders:
    @pytest.mark.parametrize("m, dom", [
        (Harris(3), POLY2), (Henon(0.5), DomainSpec.ball(2, 0.9))], ids=["harris3", "henon"])
    @pytest.mark.parametrize("first", [0, 150])
    def test_each_ladder_is_its_search_alone(self, m, dom, first):
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=3)
        draws = landau._draw(m, dom, cfg, 32)
        # eight centers whose searches end after different rounds, and one
        # far outside the bounded image
        centers = list(evaluate_batch(m, interior_points(dom, 8, 11)))
        centers.insert(4, np.array([50.0, 50.0], complex))
        out = landau._ladders(m, centers, dom, cfg, 1.05, draws, first)
        assert out[4] is None
        with pytest.raises(CenterNotInImage):
            inscribed_lower_bound(m, centers[4], dom, cfg, 32, 1.05)
        rounds = {len(est.shell_history) for est in out if est is not None}
        assert len(rounds) > 1
        for center, est in zip(centers, out):
            if est is None:
                continue
            own = landau._draw(m, dom, cfg, 32)  # the draws of a call alone
            alone = search_alone(m, center, dom, cfg, 1.05, own, first)
            assert est.shell_history == alone.shell_history
            assert (est.r_lo, est.r_hi, est.r_hi_label) == (alone.r_lo, alone.r_hi,
                                                           alone.r_hi_label)
            assert est.center.tobytes() == alone.center.tobytes()
            est = landau._keep(est)  # the certificates a caller that keeps est gets
            assert len(est.certificates) == len(alone.certificates) > 1
            for c, d in zip(est.certificates, alone.certificates):
                assert c.target.tobytes() == d.target.tobytes()
                assert c.preimage.tobytes() == d.preimage.tobytes()
                assert (c.residual, c.domain_margin) == (d.residual, d.domain_margin)

    def test_only_the_returned_estimate_forms_certificates(self, monkeypatch):
        # the climb's probes and the candidate runs report r_lo alone; the
        # estimate that landau_estimate returns forms its 1 + 32
        # certificates.  Neither climb runs a full search after its
        # candidates, though the quadratic map's climb moves 6 times
        formed = []

        class Counted(MembershipCertificate):
            def __init__(self, *args):
                super().__init__(*args)
                formed.append(self)

        monkeypatch.setattr(landau, "MembershipCertificate", Counted)
        ladders = count_ladders(monkeypatch)
        for m, dom, seed, candidates, refine, full_runs in [
                (Harris(3), POLY2, 7, 2, 1, 0),
                (parse("(z1 + 0.5*z1^2, z2)"), DomainSpec.ball(2, 0.9), 1, 1, 6, 0)]:
            formed.clear()
            ladders.clear()
            est = landau_estimate(m, dom, NewtonConfig(tolerance=1e-8, rng_seed=seed),
                                  center_candidates=candidates, direction_count=32,
                                  growth_factor=1.02, center_refine_steps=refine)
            assert sum(len(out) for _, out in ladders) > 2
            assert [len(out) for first, out in ladders[1:] if first == 0] == [1] * full_runs
            assert formed == est.certificates and len(formed) == 1 + 32

    def test_a_sweep_certifies_one_batch_per_round(self, monkeypatch):
        # one climb sweep of harris(n=3): its 8 probes share one
        # _certify_shell call per round, not one per probe shell
        shells = count_calls(monkeypatch, landau, "_certify_shell")
        ladders = count_ladders(monkeypatch)
        landau_estimate(Harris(3), POLY2, NewtonConfig(tolerance=1e-8, rng_seed=7),
                        center_candidates=1, direction_count=32, growth_factor=1.02,
                        center_refine_steps=1)
        assert [len(out) for _, out in ladders[:2]] == [1, 8]
        expected = []  # the rows of each call: one batch of center searches, then rounds
        for _, out in ladders:
            expected.append((1 + landau.MULTISTART_COUNT) * len(out))
            lengths = [len(est.shell_history) for est in out]
            expected += [32 * sum(n > t for n in lengths) for t in range(max(lengths))]
        assert [len(ok) for ok, _, _, _ in shells] == expected
        probes = [len(est.shell_history) for est in ladders[1][1]]
        assert max(probes) < sum(probes)


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
        original = landau._ladders

        def counted(m, centers, *args):
            calls.extend([None] * len(centers))  # one per ladder run
            if len(calls) > 8 * 60:
                raise AssertionError("the center climb ran past its step floor")
            return original(m, centers, *args)

        monkeypatch.setattr(landau, "_ladders", counted)
        est = landau_estimate(m, BALL2, CFG, center_refine_steps=10**400, **kwargs)
        assert est.r_lo == ref.r_lo
        assert np.array_equal(est.center, ref.center)

    @pytest.mark.parametrize("text, dom, kwargs, center, r_lo", [
        ("expcoord(c=0.4, k=2)", BALL2, NESTED, [0.04076 + 0j, 0.04076 + 0j],
         0.37747535228954066),
        ("(z1 + 0.3*z1^2, z2)", BALL2, NESTED, [0.17795 - 0.17795j, 0j], 0.9084394430643272),
        ("(z1 + 0.5*z1^2, z2)", DomainSpec.ball(2, 0.9), QUAD05_CLIMB,
         [0.18102 + 0.13165j, 0.09874 + 0j], 0.7671805092805322),
    ], ids=["expcoord", "quadratic", "quadratic05"])
    def test_climb_matches_the_nested_sweeps(self, text, dom, kwargs, center, r_lo):
        m = parse(text)
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=1)
        est = landau_estimate(m, dom, cfg, center_candidates=1, **kwargs)
        ref = climb_by_hand(m, dom, cfg, **kwargs)
        assert np.allclose(est.center, center, atol=1e-5) and est.r_lo == r_lo
        assert est.center.tobytes() == ref.center.tobytes()
        assert est.r_lo == ref.r_lo and est.r_hi == ref.r_hi
        assert est.shell_history == ref.shell_history
        assert len(est.certificates) == len(ref.certificates)
        for c, d in zip(est.certificates, ref.certificates):
            assert c.target.tobytes() == d.target.tobytes()
            assert c.preimage.tobytes() == d.preimage.tobytes()
            assert (c.residual, c.domain_margin) == (d.residual, d.domain_margin)

    def test_a_winning_probe_is_the_estimate(self, monkeypatch):
        # a probe that beats the incumbent becomes it with the search it ran:
        # no full search of its center follows
        ladders = count_ladders(monkeypatch)
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=1)
        est = landau_estimate(parse("(z1 + 0.5*z1^2, z2)"), DomainSpec.ball(2, 0.9), cfg,
                              center_candidates=1, **QUAD05_CLIMB)
        (first, (best,)), probes = ladders[0], ladders[1:]
        assert first == 0 and all(first > 0 for first, _ in probes)
        wins = 0
        for _, out in probes:  # the climb reads a call's rows up to its first win
            win = next((p for p in out if p is not None and p.r_lo > best.r_lo), None)
            if win is not None:
                best, wins = win, wins + 1
        assert wins == 6
        assert est.shell_history == best.shell_history
        assert (est.r_lo, est.r_hi, est.r_hi_label) == (best.r_lo, best.r_hi, best.r_hi_label)
        assert est.center.tobytes() == best.center.tobytes()
        for c, d in zip(est.certificates, landau._keep(best).certificates, strict=True):
            assert c.target.tobytes() == d.target.tobytes()
            assert c.preimage.tobytes() == d.preimage.tobytes()
            assert (c.residual, c.domain_margin) == (d.residual, d.domain_margin)

    def test_probes_on_the_rungs_spare_the_full_runs(self, monkeypatch):
        # a probe that certifies the incumbent's rung no longer reads as a
        # gain: 2 full runs (the two center candidates), where 139 ran when
        # each probe climbed its own ladder from 0.8 * r_lo
        ladders = count_ladders(monkeypatch)
        cfg = NewtonConfig(tolerance=1e-8, rng_seed=7)
        landau_estimate(Harris(3), POLY2, cfg, center_refine_steps=20)
        full_runs = sum(len(out) for first, out in ladders if first == 0)
        assert full_runs == 2

    @pytest.mark.parametrize("steps, searches", [(3, 31), (6, 55)])
    def test_a_moving_sweep_runs_no_probe_past_its_win(self, steps, searches, monkeypatch):
        # the climb scores the rest of a moving sweep and the ladder after
        # it as one batch; the scorer runs the rest alone, then whole
        # sweeps, so a probe win stops the batch before another sweep starts
        # (36 and 60 searches when the batch ran in chunks of 4k rows)
        ladders = count_ladders(monkeypatch)
        est = landau_estimate(parse("(z1 + 0.5*z1^2, z2)"), POLY2, NewtonConfig(rng_seed=5),
                              center_candidates=2, direction_count=64,
                              center_refine_steps=steps)
        assert sum(len(out) for _, out in ladders) == searches
        assert (est.r_lo, est.r_hi) == (1.001554485978421, 1.0516322102773419)
        assert (est.r_lo_label, est.r_hi_label) == ("sampled", "heuristic")
        assert est.center.tobytes() == np.array(
            [0.35661174859051115 - 0.03657015428385108j,
             -0.012484972857751409 + 0.034924513018255166j]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "expcoord(c=1000, k=2)", "expcoord(c=30, k=2)",
        "compose(henon(b=0.5), expcoord(c=3, k=2))"])
    def test_overflowing_rows_fail_without_a_numpy_warning(self, text):
        # Newton rows that escape overflow to inf or NaN; they fail their
        # shell quietly
        est = landau_estimate(parse(text), BALL2, CFG, center_candidates=2,
                              direction_count=32, center_refine_steps=1)
        assert est.r_lo > 0


def climb_by_hand(m, dom, cfg, direction_count, growth_factor, center_refine_steps):
    """landau_estimate of the origin's image alone with its center climb as
    nested sweeps, the way it was written before it ran through
    coordinate_ascent, with each probe started on the highest r0 rung at
    or below 0.8 * r_lo; a probe that beats best becomes best."""
    draws = landau._draw(m, dom, cfg, direction_count)

    def run(center, first=0):  # None off the image
        est = landau._ladders(m, [center], dom, cfg, growth_factor, draws, first)[0]
        return est if est is None else landau._keep(est)

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
                probe = run(cand, first)
                if probe is not None and probe.r_lo > best.r_lo:
                    best, improved = probe, True
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

    @pytest.mark.parametrize("text, center_candidates, center_refine_steps", [
        ("expcoord(c=0.4, k=2)", 3, 1), ("(z1 + 0.3*z1^2 + 0.1, z2)", 2, 2),
        ("henon(b=0.5)", 3, 0), ("identity(k=2)", 1, 1)],
        ids=["expcoord", "quadratic", "henon", "identity"])
    def test_each_entry_is_its_dilation_alone(self, text, center_candidates,
                                              center_refine_steps):
        # the dilations' ladders run in lockstep; each entry is the estimate
        # of its dilate(m, R) run alone, bit for bit
        m = parse(text)
        r_values = [1.0, 2.0, 0.5, 4.0]
        kwargs = dict(center_candidates=center_candidates, direction_count=16,
                      growth_factor=1.05, center_refine_steps=center_refine_steps)
        series = rescaled_growth(m, r_values, CFG, **kwargs)
        assert [R for R, _ in series] == r_values
        for R, value in series:
            alone = landau_estimate(dilate(m, R), BALL2, CFG, **kwargs)
            assert value.hex() == (R * alone.r_lo).hex()

    def test_a_second_r_without_a_center_raises(self, monkeypatch):
        # no start of the center search of R = 2 certifies: the series ends
        # on the estimate's CenterNotInImage, as the estimate of R = 2 alone
        m = parse("(z1 + 0.3*z1^2 + 0.1, z2)")  # its dilations' centers m_R(0) differ
        center = evaluate(dilate(m, 2.0), np.zeros(2))
        original = landau._certify_shell

        def failing(m, targets, warm, dom, cfg):
            ok, z, res, margins = original(m, targets, warm, dom, cfg)
            return ok & ~(targets == center).all(axis=1), z, res, margins

        monkeypatch.setattr(landau, "_certify_shell", failing)
        kwargs = dict(direction_count=16, growth_factor=1.05)
        assert landau_estimate(dilate(m, 1.0), BALL2, CFG, center_candidates=1,
                               center_refine_steps=0, **kwargs).r_lo > 0
        with pytest.raises(CenterNotInImage) as alone:
            landau_estimate(dilate(m, 2.0), BALL2, CFG, center_candidates=1,
                            center_refine_steps=0, **kwargs)
        with pytest.raises(CenterNotInImage) as series:
            rescaled_growth(m, [1.0, 2.0, 4.0], CFG, **kwargs)
        assert str(series.value) == str(alone.value)

    def test_an_empty_series_is_empty(self):
        assert rescaled_growth(Identity(2), [], CFG) == []

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
        ladders = count_ladders(monkeypatch)
        seeds = count_draws(monkeypatch)
        landau_estimate(Henon(0.5), BALL2, CFG, center_candidates=2, direction_count=16,
                        growth_factor=1.05, center_refine_steps=1)
        # two full runs, then the probes of one sweep, each set in one call
        assert [len(out) for _, out in ladders[:2]] == [2, 4 * 2]
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


def interior_points_by_index(dom, n, seed):
    """interior_points as it was written before its rows were normalized and
    scaled in one pass: each index drawn, normalized and scaled alone."""
    k = dom.dim
    pts = np.empty((n, k), dtype=np.complex128)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 499, i]))
        g = rng.standard_normal(2 * k)
        v = g[:k] + 1j * g[k:]
        v = v / (np.linalg.norm(v) if dom.shape == "ball" else np.abs(v).max())
        r = dom.radius * INTERIOR_PULLBACK * rng.random() ** (1.0 / (2 * k))
        pts[i] = r * v
    return pts


class TestDrawBits:
    """The draws shared by a call's ladders keep the bits of the one-at-a-time
    code they replaced."""

    @pytest.mark.parametrize("shape", ["ball", "polydisc"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interior_points_are_the_per_index_loop(self, shape, k):
        for n in (1, 8, 33):
            for radius in (1e-200, 0.7, 1e200):
                dom = getattr(DomainSpec, shape)(k, radius)
                for seed in (0, subseed(5, "newton-starts"), 2**64 - 1):
                    assert interior_points(dom, n, seed).tobytes() == interior_points_by_index(
                        dom, n, seed).tobytes(), (n, radius, seed)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g, size", [
        (1.02, 5000), (1.05, 5000), (1.000001, landau._MAX_SHELLS), (1e10, 5000)])
    def test_the_rung_ladder_is_repeated_multiplication(self, g, size):
        # the ladder grows in chunks as searches climb it; at g = 1e10 its
        # rungs overflow to inf from rung 32 on, without a warning
        ladder = landau._draw(Identity(2), BALL2, CFG, 8).rungs
        for k in (0, 1, 7, 100, 1500, 2049, size - 1):
            landau._grow(ladder, g, k)
            assert k < len(ladder) <= landau._MAX_SHELLS
        rungs = [CFG.tolerance * 1e3]
        while len(rungs) < size:
            rungs.append(rungs[-1] * g)
        assert all(type(r) is float for r in ladder)
        assert [r.hex() for r in ladder[:size]] == [r.hex() for r in rungs]
        if g == 1e10:
            assert ladder[-1] == np.inf


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
