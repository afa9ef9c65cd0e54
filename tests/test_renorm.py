from collections import Counter
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from holomaplab import (
    DomainSpec,
    Henon,
    Identity,
    Linear,
    SamplerConfig,
    bz_sequence,
    bz_step,
    evaluate_batch,
    jacobian,
    jacobian_batch,
    lambda_functional,
    parse,
    sup_kappa,
)
from holomaplab import MapExpr, _sampling, algebra, renorm
from holomaplab.errors import (
    PreconditionFailed,
    SingularMatrix,
)

# dense-grid oracles (1e6 points + coordinate polish) for the boundary-weighted
# derivative functional of g = compose(henon(b=0.5), expcoord(c=2.0, k=2))
LAMBDA_HENON_EXP = 15.882450019009
LAMBDA_DILATED = {1: 15.882450019009, 2: 2.827900461033, 4: 2.0, 8: 2.0}

CFG = SamplerConfig(radial_shells=12, points_per_shell=160, rng_seed=7, refine_steps=25)


def g_map():
    return parse("compose(henon(b=0.5), expcoord(c=2.0, k=2))")


class TestLambdaFunctional:
    def test_identity(self):
        lam, a = lambda_functional(Identity(2), CFG)
        assert lam == 1.0
        assert not a.any()

    def test_linear_exact_at_origin(self):
        lam, a = lambda_functional(Linear(5 * np.eye(2)), CFG)
        assert abs(lam - 5.0) <= 1e-12
        assert not a.any()

    def test_henon_exp_oracle_baseline(self):
        lam, a = lambda_functional(g_map(), CFG)
        assert lam >= 0.995 * LAMBDA_HENON_EXP
        assert lam <= LAMBDA_HENON_EXP * (1 + 1e-6)
        # the functional value is attained at the reported point
        jet = jacobian(g_map(), a)
        attained = (1 - np.linalg.norm(a)) * algebra.singular_values(jet.jacobian)[0]
        assert lam == pytest.approx(attained, rel=1e-12)

    def test_value_is_the_batch_score_at_the_point(self):
        # samples and climb share one scorer, so the value is reproduced bit
        # for bit by scoring the returned point as a batch of one
        m = parse("harris(n=2)")
        cfg = SamplerConfig(radial_shells=6, points_per_shell=64, rng_seed=0, refine_steps=15)
        lam, a = lambda_functional(m, cfg)
        norm = algebra.spectral_norm_batch(jacobian_batch(m, a[None])[1])
        assert lam == ((1.0 - np.linalg.norm(a[None], axis=1)) * norm)[0]

    def test_dilated_series_oracle(self):
        from holomaplab import dilate

        for n, ref in LAMBDA_DILATED.items():
            lam, _ = lambda_functional(dilate(g_map(), 1.0 / n), CFG)
            assert lam == pytest.approx(ref, rel=5e-3)


class TestBzStep:
    def test_linear_family_is_exact(self):
        step = bz_step(Linear(4 * np.eye(2)), 1.0, CFG)
        assert step.lambda_ == 4.0
        assert np.array_equal(step.b_matrix, np.diag([0.25, 0.25]).astype(complex))
        assert step.validity_radius == 2.0
        assert step.bound_check.passed
        assert step.bound_check.shift_ok
        # psi is the identity map exactly
        pts = np.array([[0.5, -0.25j], [0.25 + 0.25j, 0.125]])
        assert np.array_equal(evaluate_batch(step.psi, pts), pts)

    def test_identity_case(self):
        step = bz_step(Identity(2), 1.0, CFG)
        assert step.lambda_ == 1.0
        assert step.validity_radius == 0.5
        assert not step.base_point.any()
        # psi(z) = z + a_star with a_star = 0
        pts = np.array([[0.1, 0.2j]])
        assert np.array_equal(evaluate_batch(step.psi, pts), pts)

    def test_psi_normalized_at_zero(self):
        for m in [Henon(0.5), g_map(), parse("harris(n=3)")]:
            rep = sup_kappa(m, DomainSpec.ball(2, 1.0), CFG)
            c = max(rep.sup_estimate, 1.0) * 1.1
            step = bz_step(m, c, CFG)
            err = np.abs(jacobian(step.psi, np.zeros(2)).jacobian - np.eye(2)).max()
            assert err <= 1e-10

    def test_henon_exp_bound_holds_with_conditioning_c(self):
        # 2C bound is a theorem once C dominates sup kappa; failure would
        # indicate an undersampled lambda or an undersized C
        m = g_map()
        c = sup_kappa(m, DomainSpec.ball(2, 1.0), CFG).sup_estimate * 1.1
        step = bz_step(m, c, CFG)
        assert step.bound_check.passed
        assert step.bound_check.max_jacobian_norm <= 2 * c * (1 + 1e-6)
        assert step.bound_check.shift_ok
        assert step.bound_check.shift_max <= step.bound_check.shift_limit + 1e-9

    def test_validity_radius_definition(self):
        m = Henon(0.5)
        c = 12.0
        step = bz_step(m, c, CFG)
        assert step.validity_radius == pytest.approx(step.lambda_ / (2 * c), rel=1e-15)

    def test_singular_base_raises(self):
        # argmax of (1-|z|) |J| for (z1^2, z2) is the origin, where J is singular
        with pytest.raises(SingularMatrix):
            bz_step(parse("(z1^2, z2)"), 1.0, CFG)

    def test_rejects_c_below_one(self):
        with pytest.raises(ValueError):
            bz_step(Identity(2), 0.5, CFG)

    @pytest.mark.parametrize("c_bound, grid_factor", [
        (0.5, 0.9), (np.inf, 0.9), (np.nan, 0.9),
        (2.0, 0.0), (2.0, -1.0), (2.0, np.inf), (2.0, np.nan),
    ])
    def test_arguments_are_checked_before_lambda(self, c_bound, grid_factor, monkeypatch):
        def lam(*args):
            raise AssertionError("lambda was estimated before the arguments were checked")

        monkeypatch.setattr(renorm, "lambda_functional", lam)
        with pytest.raises(PreconditionFailed):
            bz_step(Identity(2), c_bound, CFG, grid_factor=grid_factor)


class TestBzSequence:
    def test_linear_family(self):
        steps = bz_sequence(lambda n: Linear(n * np.eye(2)), range(1, 11), 1.0, CFG)
        assert [s.lambda_ for s in steps] == [float(n) for n in range(1, 11)]
        pts = np.array([[0.25, -0.5j], [0.125 + 0.125j, 0.25]])
        for s in steps:
            assert np.array_equal(evaluate_batch(s.psi, pts), pts)

    def test_constant_identity_family_bounded(self):
        steps = bz_sequence(lambda n: Identity(2), range(1, 6), 1.0, CFG)
        assert all(s.lambda_ == 1.0 for s in steps)

    def test_dilated_henon_exp_lambda_trend(self):
        from holomaplab import dilate

        steps = bz_sequence(
            lambda n: dilate(g_map(), 1.0 / n), [1, 2, 4, 8],
            LAMBDA_HENON_EXP * 5, CFG,
        )
        lams = [s.lambda_ for s in steps]
        for lam, n in zip(lams, (1, 2, 4, 8)):
            assert lam == pytest.approx(LAMBDA_DILATED[n], rel=5e-3)
        assert lams[0] > lams[1] > lams[2]  # shrinking derivative scale


def bits(x):
    """Every field of a step, recursively, as (dtype, raw bytes)."""
    if is_dataclass(x):
        return {f.name: bits(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, MapExpr):
        return type(x).__name__, [bits(getattr(x, attr)) for attr, _, _ in x.fields]
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


LAMBDA_SEED = _sampling.subseed(CFG.rng_seed, "lambda-shells")
GRID_SEED = _sampling.subseed(CFG.rng_seed, "bz-grid")


def count_draws(monkeypatch):
    """Record (dimension, seed) of every shell draw, through both bindings."""
    seen = []
    draw = _sampling.draw_shells

    def counted(dom, shells, per_shell, seed):
        seen.append((dom.dim, seed))
        return draw(dom, shells, per_shell, seed)

    monkeypatch.setattr(_sampling, "draw_shells", counted)
    monkeypatch.setattr(renorm, "draw_shells", counted)
    return seen


class TestSharedDraws:
    FAMILIES = {
        "linear": (lambda n: Linear(n * np.eye(2)), range(1, 6), 1.0),
        "henon": (lambda n: parse(f"compose(henon(b={0.5 * n}), expcoord(c=2.0, k=2))"),
                  range(1, 6), 12.0),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_step_is_its_standalone_bz_step(self, name, monkeypatch):
        family, n_values, c = self.FAMILIES[name]
        seen = count_draws(monkeypatch)
        steps = bz_sequence(family, n_values, c, CFG, grid_factor=0.8)
        assert Counter(seen) == {(2, LAMBDA_SEED): 1, (2, GRID_SEED): 1}
        radii = {s.validity_radius for s in steps}
        assert len(radii) == len(steps)  # each member scales the grid anew
        for n, step in zip(n_values, steps):
            alone = bz_step(family(n), c, CFG, grid_factor=0.8)
            assert bits(step) == bits(alone)
        # a standalone step draws both sets itself
        assert len(seen) == 2 + 2 * len(steps)

    def test_mixed_dimensions_draw_once_per_dimension(self, monkeypatch):
        def family(n):
            return Identity(2) if n % 2 else Linear(n * np.eye(3))

        seen = count_draws(monkeypatch)
        steps = bz_sequence(family, [1, 2, 3, 4, 5], 1.0, CFG)
        assert Counter(seen) == {(2, LAMBDA_SEED): 1, (2, GRID_SEED): 1,
                                 (3, LAMBDA_SEED): 1, (3, GRID_SEED): 1}
        assert [s.psi.dim for s in steps] == [2, 3, 2, 3, 2]
        for n, step in zip([1, 2, 3, 4, 5], steps):
            assert bits(step) == bits(bz_step(family(n), 1.0, CFG))

    @pytest.mark.parametrize("n_values", [[1], []])
    @pytest.mark.parametrize("c_bound, grid_factor", [
        (-1.0, 0.9), (np.nan, 0.9), (2.0, -3.0), (2.0, np.inf),
    ])
    def test_bounds_are_checked_before_the_first_member(self, c_bound, grid_factor, n_values):
        def family(n):
            raise AssertionError("a member was built before the bounds were checked")

        with pytest.raises(PreconditionFailed):
            bz_sequence(family, n_values, c_bound, CFG, grid_factor=grid_factor)

    def test_empty_sequence_draws_nothing(self, monkeypatch):
        seen = count_draws(monkeypatch)
        assert bz_sequence(lambda n: Identity(2), [], 1.0, CFG) == []
        assert seen == []


def reference_shell_points(dom, shells, per_shell, seed):
    """shell_points written as one loop that draws and scales each shell in
    turn: the oracle of the draw-then-scale split."""
    k = dom.dim
    out = []
    for i, r in enumerate(_sampling.shell_radii(dom.radius, shells)):
        if r == 0.0:
            out.append(np.zeros((1, k), dtype=np.complex128))
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 211, i]))
        g = rng.standard_normal((per_shell, 2 * k))
        v = g[:, :k] + 1j * g[:, k:]
        out.append(r * v / dom.norm(v)[:, None])
    return np.concatenate(out, axis=0)


@pytest.mark.parametrize("shape", ["ball", "polydisc"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shells", [1, 2, 16])
@pytest.mark.parametrize("per_shell", [1, 48])
def test_draw_then_scale_keeps_the_bits(shape, k, shells, per_shell):
    draw = _sampling.draw_shells(DomainSpec(shape, 1.0, k), shells, per_shell, 5)
    for radius in (1e-200, 0.37, 1.0, 1e200):
        dom = DomainSpec(shape, radius, k)
        want = reference_shell_points(dom, shells, per_shell, 5)
        assert want.shape == (1 + (shells - 1) * per_shell, k)
        assert _sampling.scale_shells(draw, radius).tobytes() == want.tobytes()
        assert _sampling.shell_points(dom, shells, per_shell, 5).tobytes() == want.tobytes()


def test_a_shell_whose_radius_rounds_to_zero_is_one_center_row():
    # at the smallest subnormal radius the inner shells' radii round to 0
    dom = DomainSpec.ball(2, 5e-324)
    want = reference_shell_points(dom, 16, 48, 5)
    assert 1 < len(want) < 1 + 15 * 48
    draw = _sampling.draw_shells(DomainSpec.ball(2, 1.0), 16, 48, 5)
    assert _sampling.scale_shells(draw, dom.radius).tobytes() == want.tobytes()
    assert _sampling.shell_points(dom, 16, 48, 5).tobytes() == want.tobytes()
