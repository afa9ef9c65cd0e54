import numpy as np
import pytest

from holomaplab import (
    DomainSpec,
    Henon,
    Identity,
    Linear,
    SamplerConfig,
    bz_step,
    jacobian,
    kappa,
    kappa_at,
    lambda_functional,
    parse,
    refined_sup,
    sup_kappa,
)
from holomaplab import _sampling, algebra, conditioning
from holomaplab._sampling import sampled_sup, score_blocks, shell_points
from holomaplab.errors import (
    EmptySample,
    PreconditionFailed,
    SingularMatrix,
)


def kappa_batch(mats):
    return algebra.kappa_from_singular_values(algebra.singular_values_batch(mats))

# dense-grid oracle (1e6 boundary-biased points + coordinate polish) for
# sup kappa of compose(henon(b=0.5), expcoord(c=0.1, k=2)) over the 0.9 ball
SUP_KAPPA_HENON_EXP = 2.334046090532

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

CFG = SamplerConfig(radial_shells=10, points_per_shell=128, rng_seed=7, refine_steps=20)
BALL2 = DomainSpec.ball(2, 1.0)


def sequential_ascent(objective, x0, steps: int, step0: float, inside):
    """Reference climb that scores one candidate per objective call; the
    batched _sampling.coordinate_ascent must follow it exactly."""
    x = np.array(x0, dtype=np.complex128)
    best = objective(x)
    h = float(step0)
    for _ in range(int(steps)):
        if h < 1e-14 * max(1.0, float(step0)):  # no sweep below the floor, the first included
            break
        moved = False
        for j in range(x.size):
            for delta in (h, -h, 1j * h, -1j * h):
                cand = x.copy()
                cand[j] += delta
                if not inside(cand):
                    continue
                val = objective(cand)
                if val > best:
                    best, x, moved = val, cand, True
        if not moved:
            h *= 0.5
    return x, best


def sequential_climb(score, x0, steps, step0, inside):
    """sequential_ascent on a batch scorer, one point per call.  Returns
    (point, value, evaluations, excluded); the counts include the start."""
    counts = [0, 0]

    def objective(x):
        val = float(score(x[None])[0])
        counts[0] += 1
        counts[1] += not val > -np.inf  # -inf or NaN
        return val

    x, best = sequential_ascent(objective, x0, steps, step0, inside)
    return x, best, counts[0], counts[1]


def as_mask(inside):
    """A one-point test as the mask function of (M, k) candidates that
    coordinate_ascent takes."""
    return lambda zs: np.array([inside(z) for z in zs], dtype=bool)


class TestKappaAt:
    def test_identity(self):
        assert kappa_at(Identity(2), [0.3, 0.1j]) == pytest.approx(1.0, abs=1e-14)

    def test_one_variable_always_one(self):
        # one variable: kappa = |f'| * |1/f'| = 1 wherever f' != 0
        m = parse("(0.3*z1^3 + z1 + 1i)")
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            assert kappa_at(m, [z]) == pytest.approx(1.0, abs=1e-13)

    def test_henon_origin(self):
        assert kappa_at(Henon(0.5), [0, 0]) == pytest.approx(2.0, abs=1e-13)

    def test_singular_point_is_inf(self):
        m = parse("(z1^2, z2)")
        assert kappa_at(m, [0, 0.3]) == np.inf

    def test_equals_the_row_sup_kappa_scores(self, monkeypatch):
        # kappa_at and the batched scorer share one arithmetic path, bit for bit
        g = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        scored = []

        def recording(score, pts, *args, **kwargs):
            scored.append((pts, score(pts)))
            return sampled_sup(score, pts, *args, **kwargs)

        monkeypatch.setattr(conditioning, "sampled_sup", recording)
        cfg = SamplerConfig(radial_shells=4, points_per_shell=32, rng_seed=3, refine_steps=5)
        rep = sup_kappa(g, BALL2, cfg)
        (pts, rows), = scored
        for z, row in zip(pts, rows):
            assert np.float64(kappa_at(g, z)).tobytes() == row.tobytes()
        assert np.float64(kappa_at(g, rep.argmax_point)).tobytes() == \
            np.float64(rep.sup_estimate).tobytes()


class TestSupKappa:
    def test_linear_constant_field(self):
        A = np.array([[1, 3], [0, 1]], dtype=complex)
        rep = sup_kappa(Linear(A), BALL2, CFG)
        assert rep.sup_estimate == pytest.approx(kappa(A), rel=1e-12)
        assert rep.skipped_singular == 0
        assert rep.norm_name == "spectral"

    def test_identity(self):
        rep = sup_kappa(Identity(2), BALL2, CFG)
        assert rep.sup_estimate == pytest.approx(1.0, abs=1e-12)

    def test_henon_exp_regression_baseline(self):
        g = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        rep = sup_kappa(g, DomainSpec.ball(2, 0.9), CFG)
        assert rep.sup_estimate >= 0.98 * SUP_KAPPA_HENON_EXP
        assert rep.sup_estimate <= 1.005 * SUP_KAPPA_HENON_EXP
        # report consistency: the estimate is attained at the argmax sample
        assert rep.sup_estimate >= kappa_at(g, rep.argmax_point) - 1e-12

    def test_monotone_in_points_per_shell(self):
        # seed-extension sampling only (no refinement): more points never lower the max
        g = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        values = []
        for pts in (32, 64, 128):
            cfg = SamplerConfig(radial_shells=8, points_per_shell=pts, rng_seed=5, refine_steps=0)
            values.append(sup_kappa(g, BALL2, cfg).sup_estimate)
        assert values[0] <= values[1] <= values[2]

    def test_exclusion_counts_singular_points(self):
        m = parse("(z1^2, z2)")  # Jacobian singular exactly on z1 = 0
        rep = sup_kappa(m, BALL2, CFG)  # default exclusion keeps going
        assert np.isfinite(rep.sup_estimate)
        assert rep.skipped_singular >= 1  # the center shell hits z1 = 0 exactly

    def test_zero_exclusion_reports_inf(self):
        m = parse("(z1^2, z2)")
        cfg = SamplerConfig(radial_shells=8, points_per_shell=32, rng_seed=5, refine_steps=0)
        rep = sup_kappa(m, BALL2, cfg, exclusion_tolerance=0.0)
        assert rep.sup_estimate == np.inf
        assert rep.skipped_singular == 0

    def test_all_singular_raises_empty_sample(self):
        m = parse("(z1, z1)")  # Jacobian rank 1 everywhere
        with pytest.raises(EmptySample):
            sup_kappa(m, BALL2, CFG)

    def test_samples_used_counts_samples_and_climb(self, monkeypatch):
        # the climb's evaluations are those of the sequential reference climb,
        # which scores its start and then one candidate per call
        climbs = []
        original = _sampling.coordinate_ascent

        def checked(score, x0, best, *args):
            climbs.append(sequential_climb(score, x0, *args))
            return original(score, x0, best, *args)

        monkeypatch.setattr(_sampling, "coordinate_ascent", checked)
        g = parse("compose(henon(b=0.5), expcoord(c=0.1, k=2))")
        rep = sup_kappa(g, BALL2, CFG)
        pts = shell_points(BALL2, CFG.radial_shells, CFG.points_per_shell, 0)
        [(ref_pt, ref_val, ref_evals, _)] = climbs
        assert ref_evals > 0
        assert rep.samples_used == len(pts) + ref_evals
        assert rep.sup_estimate == ref_val and np.array_equal(rep.argmax_point, ref_pt)

    @pytest.mark.parametrize("kwargs", [
        {"radial_shells": 0}, {"points_per_shell": 0}, {"refine_steps": -1},
        {"rng_seed": -1}, {"radial_shells": 10**400}, {"points_per_shell": 10**400},
        {"points_per_shell": _sampling.MAX_COUNT + 1},
    ])
    def test_sampler_config_ranges(self, kwargs):
        with pytest.raises(PreconditionFailed):
            SamplerConfig(**kwargs)

    # at 1 every Jacobian is singular, since sigma_min <= sigma_max
    @pytest.mark.parametrize("tol", [-1e-12, 1.0, 1.5, np.nan, np.inf])
    def test_exclusion_tolerance_range(self, tol):
        with pytest.raises(PreconditionFailed):
            sup_kappa(Identity(2), BALL2, CFG, exclusion_tolerance=tol)


def _in_unit_ball(z):
    return np.linalg.norm(z) <= 1.0


class TestSampledSup:
    PTS = shell_points(BALL2, 4, 16, 3)
    inside = staticmethod(_in_unit_ball)
    mask = staticmethod(as_mask(_in_unit_ball))

    def test_all_excluded_raises_empty_sample(self):
        with pytest.raises(EmptySample):
            sampled_sup(lambda z: np.full(len(z), -np.inf), self.PTS, 5, 0.1, self.mask)

    def test_infinite_sample_skips_the_climb(self, monkeypatch):
        def climb(*args, **kwargs):
            raise AssertionError("the climb cannot improve on +inf")

        monkeypatch.setattr(_sampling, "coordinate_ascent", climb)
        score = lambda z: np.where(z[:, 0] == 0, np.inf, 1.0)  # the center sample
        pt, val, evals, excluded = sampled_sup(score, self.PTS, 5, 0.1, self.mask)
        assert val == np.inf and np.array_equal(pt, np.zeros(2))
        assert (evals, excluded) == (len(self.PTS), 0)

    def test_counts_climb_exclusions(self):
        # the climb starts at the best sample, then rejects every move off it
        best = self.PTS[int(np.argmax(self.PTS[:, 0].real))]
        score = lambda z: np.where((z == best).all(axis=1), 1.0, -np.inf)
        pt, val, evals, excluded = sampled_sup(score, self.PTS, 1, 0.1, self.mask)
        assert val == 1.0 and np.array_equal(pt, best)
        climbed = evals - len(self.PTS)
        assert climbed > 1
        assert excluded == len(self.PTS) - 1 + climbed - 1

    def test_nan_scores_are_excluded(self):
        # NaN where |z1| > 0.5: argmax must not pick a NaN sample, and the
        # NaN samples and climb candidates count as excluded
        score = lambda z: np.where(np.abs(z[:, 0]) > 0.5, np.nan, np.abs(z[:, 1]))
        vals = score(self.PTS)
        nan_samples = int(np.isnan(vals).sum())
        assert nan_samples > 0
        pt, val, evals, excluded = sampled_sup(score, self.PTS, 5, 0.1, self.mask)
        start = self.PTS[int(np.nanargmax(vals))]
        ref_pt, ref_val, ref_evals, ref_excluded = sequential_climb(
            score, start, 5, 0.1, self.inside)
        assert np.isfinite(val) and val >= np.nanmax(vals)
        assert abs(pt[0]) <= 0.5
        assert (val, evals, excluded) == (ref_val, len(self.PTS) + ref_evals,
                                          nan_samples + ref_excluded)
        assert np.array_equal(pt, ref_pt)

    def test_infinite_jacobian_rows_are_excluded(self):
        # a Jacobian row with an inf entry and no NaN gets NaN singular values
        # without raising, so its kappa is NaN and the point counts as excluded,
        # as if the score were NaN there
        def jacobians(z):
            mats = np.zeros((len(z), 2, 2), dtype=np.complex128)
            mats[:, 0, 0], mats[:, 1, 1] = 1.0, 1.0 + np.abs(z[:, 1])
            return mats

        far = lambda z: np.abs(z[:, 0]) > 0.5

        def score(z):
            mats = jacobians(z)
            mats[far(z), 0, 1] = np.inf
            return kappa_batch(mats)

        ref_score = lambda z: np.where(far(z), np.nan, kappa_batch(jacobians(z)))
        vals = score(self.PTS)
        assert far(self.PTS).any() and np.isnan(vals[far(self.PTS)]).all()
        out = sampled_sup(score, self.PTS, 5, 0.1, self.mask)
        ref = sampled_sup(ref_score, self.PTS, 5, 0.1, self.mask)
        assert np.isfinite(out[1]) and out[3] >= np.count_nonzero(far(self.PTS))
        assert out[1:] == ref[1:] and np.array_equal(out[0], ref[0])


class TestClimbLadder:
    """coordinate_ascent scores a sweep and the halved sweeps that would
    follow it as one ladder, capped at SCORE_BLOCK rows; after a move, the
    rest of the sweep and the ladder after it form one batch."""

    X0 = np.array([0.1 + 0.2j, -0.3j])
    TARGET = np.array([0.33 - 0.1j, 0.05 + 0.4j])

    def moving(self, z):
        return -np.round(16 * np.abs(z - self.TARGET).sum(axis=1))

    def climb(self, score, steps, step0=0.1, x0=X0):
        calls = {"score": [], "inside": []}

        def scored(z):
            calls["score"].append(len(z))
            return score(z)

        def mask(z):
            calls["inside"].append(len(z))
            return as_mask(_in_unit_ball)(z)

        start = float(score(x0[None])[0])
        out = _sampling.coordinate_ascent(scored, x0, start, steps, step0, mask)
        ref = sequential_climb(score, x0, steps, step0, _in_unit_ball)
        assert np.array_equal(out[0], ref[0]) and out[0].tobytes() == ref[0].tobytes()
        assert out[1] == ref[1] or np.isnan(out[1]) and np.isnan(ref[1])
        assert out[2:] == (ref[2] - 1, ref[3] - (not start > -np.inf))
        assert max(calls["inside"] + calls["score"], default=0) <= max(_sampling.SCORE_BLOCK,
                                                                      4 * x0.size)
        return calls

    def test_a_climb_that_never_moves_is_one_batch(self):
        calls = self.climb(lambda z: -np.abs(z - self.X0).sum(axis=1), 20)
        assert calls == {"score": [20 * 8], "inside": [20 * 8]}

    def test_the_floor_cuts_the_ladder(self):
        # h = 0.1 * 2^-i stays >= 1e-14 for i <= 43: 44 sweeps, not 60
        calls = self.climb(lambda z: -np.abs(z - self.X0).sum(axis=1), 60)
        assert calls == {"score": [44 * 8], "inside": [44 * 8]}

    def test_a_first_step_below_the_floor_sweeps_nothing(self):
        def score(z):
            raise AssertionError("a sweep below the step floor was scored")

        x, best, evals, excluded = _sampling.coordinate_ascent(
            score, self.X0, 0.5, 20, 0.0, as_mask(_in_unit_ball))
        assert np.array_equal(x, self.X0) and (best, evals, excluded) == (0.5, 0, 0)

    def test_the_ladder_is_cut_at_score_block(self, monkeypatch):
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", 8)
        calls = self.climb(lambda z: -np.abs(z - self.X0).sum(axis=1), 20)
        assert calls == {"score": [8] * 20, "inside": [8] * 20}

    @pytest.mark.parametrize("block", [8, 20, 4096])
    def test_moving_climb_matches_at_any_cap(self, block, monkeypatch):
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", block)
        calls = self.climb(self.moving, 20, 0.3)
        assert 1 < len(calls["score"]) and max(calls["score"]) <= max(block, 8)

    def test_one_scorer_call_per_move(self):
        # the first ladder, then one batch after each of the climb's 6
        # moves: the rest of its sweep and the ladder after it
        calls = self.climb(self.moving, 20, 0.3)
        assert calls["score"] == [160, 159, 156, 153, 145, 129, 118]

    def test_the_folded_climb_is_the_sequential_climb(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(
            k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
            quantum=st.sampled_from([4.0, 16.0, 64.0, 1e6]), holes=st.booleans(),
            steps=st.integers(0, 30),
            # 1e-15 lies below STEP_FLOOR: no sweep runs
            step0=st.sampled_from([0.3, 2.0, 1e-15]) | st.floats(1e-3, 1.0),
            block=st.sampled_from([8, 20, 4096]))
        def check(k, seed, quantum, holes, steps, step0, block):
            monkeypatch.setattr(_sampling, "SCORE_BLOCK", block)
            rng = np.random.default_rng(seed)
            target = 0.4 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            x0 = 0.2 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))

            def score(z):
                vals = -np.round(quantum * np.abs(z - target).sum(axis=1))
                if holes:  # bands of -inf and NaN rows across the first coordinate
                    vals[np.abs(37 * z[:, 0].real) % 1 < 0.2] = -np.inf
                    vals[np.abs(41 * z[:, 0].imag) % 1 < 0.1] = np.nan
                return vals

            self.climb(score, steps, step0, x0)

        check()


def _row_norm_cases():
    """(N, k) complex rows for k = 1-4 over scales 1e-300 to 1e300, with
    zero rows and inf and NaN entries."""
    rng = np.random.default_rng(21)
    cases = []
    for k in range(1, 5):
        z = rng.standard_normal((3000, k)) + 1j * rng.standard_normal((3000, k))
        z *= 10.0 ** rng.uniform(-300, 300, (3000, 1))
        z[:5] = 0.0
        z[5, 0] = np.inf
        z[6, -1] = complex(0.0, -np.inf)
        z[7, 0] = np.nan
        z[8, -1] = complex(np.inf, np.nan)
        cases.append(z)
    return cases


def _one_dim_norms(z):
    return np.array([np.linalg.norm(r) for r in z], dtype=np.float64)


class TestRowNorms:
    """DomainSpec.norm is the one domain norm of the sampled functionals: a
    batch gives each row the bits that row gives alone."""

    CASES = _row_norm_cases()
    DOMAINS = (DomainSpec.ball, DomainSpec.polydisc)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_each_row_is_its_own_norm(self, k):
        z = self.CASES[k - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            for make in self.DOMAINS:
                dom = make(k)
                alone = np.array([dom.norm(r) for r in z], dtype=np.float64)
                assert dom.norm(z).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_no_rows(self, k):
        for make in self.DOMAINS:
            assert make(k).norm(np.zeros((0, k), complex)).shape == (0,)

    def test_the_cases_tell_apart_other_sums(self):
        # the 1-D np.linalg.norm that interior_points keeps rounds unlike the
        # ball's norm on these rows, so the two rules are not interchangeable
        with np.errstate(over="ignore", invalid="ignore"):
            for k, z in enumerate(self.CASES, start=1):
                assert DomainSpec.ball(k).norm(z).tobytes() != _one_dim_norms(z).tobytes()

    def climbs(self, monkeypatch, run):
        """run() with coordinate_ascent recorded: each climb's result and
        its score, start and arguments."""
        recorded = []
        original = _sampling.coordinate_ascent

        def recording(score, x0, best, *args):
            out = original(score, x0, best, *args)
            recorded.append((out, score, x0, args[:2]))
            return out

        monkeypatch.setattr(_sampling, "coordinate_ascent", recording)
        run()
        assert recorded
        return recorded

    @staticmethod
    def same_as_sequential(recorded, inside):
        for (pt, val, evals, excluded), score, x0, args in recorded:
            ref = sequential_climb(score, x0, *args, inside)
            assert np.array_equal(pt, ref[0]) and val == ref[1]
            assert (evals, excluded) == (ref[2] - 1, ref[3])

    def test_refined_sup_climb_follows_the_domain_norm_test(self, monkeypatch):
        m = parse("compose(henon(b=0.5), expcoord(c=0.4, k=2))")
        a = np.array([0.1, -0.05j])
        rad = 0.5 * (1.0 - float(np.linalg.norm(a)))
        recorded = self.climbs(monkeypatch, lambda: refined_sup(m, a, CFG))
        self.same_as_sequential(recorded, lambda z: DomainSpec.ball(2, rad).norm(z) <= rad)

    def test_lambda_functional_climb_follows_the_domain_norm_test(self, monkeypatch):
        m = parse("compose(henon(b=0.5), expcoord(c=0.3, k=2))")
        recorded = self.climbs(monkeypatch, lambda: lambda_functional(m, CFG))
        self.same_as_sequential(recorded, lambda z: BALL2.norm(z) < 1.0)


class TestScoreBlocks:
    """Sampled suprema score their samples in blocks of SCORE_BLOCK rows;
    with rows independent of their batch, the block size changes nothing."""

    B = 7
    TREE = parse("compose(henon(b=0.5), expcoord(c=0.3, k=2))")
    SINGULAR = parse("(z1^2, z2)")  # singular at the center sample

    @staticmethod
    def first_coordinate(z):
        return z[:, 0].real

    def test_blocks_in_order(self, monkeypatch):
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", self.B)
        sizes = []

        def score(z):
            sizes.append(len(z))
            return self.first_coordinate(z)

        pts = shell_points(BALL2, 3, 7, 1)
        vals = score_blocks(score, pts)
        assert sizes == [7, 7, 1]
        assert vals.tobytes() == self.first_coordinate(pts).tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("block", [B, _sampling.SCORE_BLOCK])
    def test_empty_and_single_row(self, n, block, monkeypatch):
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", block)
        pts = shell_points(BALL2, 2, 4, 1)[:n]
        vals = score_blocks(self.first_coordinate, pts)
        assert vals.shape == (n,)
        assert vals.tobytes() == self.first_coordinate(pts).tobytes()

    def suprema(self, cfg):
        out = []
        for m in (self.TREE, self.SINGULAR):
            rep = sup_kappa(m, BALL2, cfg)
            out += [rep.sup_estimate, rep.argmax_point, rep.samples_used, rep.skipped_singular]
        out.append(refined_sup(self.TREE, [0.1, -0.2j], cfg))
        out += list(lambda_functional(self.TREE, cfg))
        check = bz_step(self.TREE, 3.0, cfg).bound_check
        out += [check.max_jacobian_norm, check.worst_point, check.shift_max, check.passed]
        return out

    # 1 + (shells - 1) * per_shell samples: B - 1, B, B + 1 and 2B + 1
    @pytest.mark.parametrize("shells, per_shell, count",
                             [(2, 5, B - 1), (2, 6, B), (2, 7, B + 1), (3, 7, 2 * B + 1)])
    def test_suprema_do_not_depend_on_the_block(self, shells, per_shell, count, monkeypatch):
        assert len(shell_points(BALL2, shells, per_shell, 0)) == count
        cfg = SamplerConfig(radial_shells=shells, points_per_shell=per_shell, rng_seed=4,
                            refine_steps=5)
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", 10**9)
        whole = self.suprema(cfg)
        monkeypatch.setattr(_sampling, "SCORE_BLOCK", self.B)
        blocked = self.suprema(cfg)
        assert whole[7] > 0  # the singular map's center sample was skipped
        for w, b in zip(whole, blocked):
            assert np.asarray(w).tobytes() == np.asarray(b).tobytes()


class TestRefinedSup:
    def test_identity(self):
        assert refined_sup(Identity(2), [0.2, 0.1], CFG) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        m = Linear([[2.0, 1.0], [0.0, 0.5]])
        assert refined_sup(m, [0.1, -0.2j], CFG) == pytest.approx(1.0, abs=1e-10)

    def test_henon_at_origin_golden(self):
        # J(z,w) J(0)^-1 = [[1, 2 z1], [0, 1]]; sup over |z| <= 1/2 is golden
        value = refined_sup(Henon(0.5), [0, 0], CFG)
        assert value >= 0.985 * GOLDEN
        assert value <= GOLDEN * (1 + 1e-9)

    def test_dominated_by_norm_product(self):
        # |J(a+z) J(a)^-1| <= |J(a+z)| |J(a)^-1| pointwise
        from holomaplab import algebra

        m = parse("compose(henon(b=0.5), expcoord(c=0.4, k=2))")
        a = np.array([0.1, -0.05j])
        j0_inv = algebra.invert(jacobian(m, a).jacobian)
        rng = np.random.default_rng(9)
        rad = 0.5 * (1 - np.linalg.norm(a))
        for _ in range(100):
            g = rng.standard_normal(4)
            off = rad * rng.random() ** 0.25 * (g[:2] + 1j * g[2:]) / np.linalg.norm(g)
            jz = jacobian(m, a + off).jacobian
            lhs = algebra.singular_values(jz @ j0_inv)[0]
            rhs = algebra.singular_values(jz)[0] * algebra.singular_values(j0_inv)[0]
            assert lhs <= rhs + 1e-10

    def test_base_point_outside_ball(self):
        with pytest.raises(PreconditionFailed):
            refined_sup(Identity(2), [1.0, 0.5], CFG)

    def test_singular_base_point(self):
        with pytest.raises(SingularMatrix):
            refined_sup(parse("(z1^2, z2)"), [0, 0], CFG)
