"""Driver construction, Lipschitz sampling, and structural classification."""

import re

import numpy as np
import pytest

from gmech import (
    BSMarketParams,
    Generator,
    InvalidParams,
    NegativeMu,
    NonFiniteValue,
    abs_z_generator,
    black_scholes_generator,
    classify_generator,
    domination_generator,
    linear_generator,
    verify_lipschitz,
    zero_generator,
)


class TestDominationGenerator:
    def test_values(self):
        g = domination_generator(0.5)
        assert g(0.0, 1.0, 2.0) == 1.5
        assert g(0.3, 0.0, 0.0) == 0.0
        assert g(0.0, -1.0, -2.0) == 1.5

    def test_mu_zero_is_the_zero_driver(self):
        g = domination_generator(0.0)
        assert g(0.0, 3.0, -4.0) == 0.0

    def test_negative_mu(self):
        with pytest.raises(NegativeMu):
            domination_generator(-0.1)

    def test_flags(self):
        g = domination_generator(0.5)
        assert g.flags.zero_at_zero

    @pytest.mark.parametrize("z_sign", [1, -1])
    def test_tilted_driver_is_extremal_where_z_has_its_sign(self, z_sign):
        g, gmu = domination_generator(0.5, z_sign=z_sign), domination_generator(0.5)
        assert (g.mu, g.flags) == (gmu.mu, gmu.flags)
        for y in (-2.0, 0.0, 3.0):
            assert g(0.0, y, 2.0 * z_sign) == gmu(0.0, y, 2.0 * z_sign)
            assert g(0.0, y, -2.0 * z_sign) == gmu(0.0, y, 2.0 * z_sign) - 2.0

    @pytest.mark.parametrize("z_sign", [0.5, 2, np.nan])
    def test_tilt_is_a_sign(self, z_sign):
        with pytest.raises(InvalidParams, match=r"^z_sign must be 0, 1 or -1, got "):
            domination_generator(0.5, z_sign=z_sign)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constants_are_rejected(bad):
    # NaN used to pass the sign check and surface later as a NaN price
    with pytest.raises(InvalidParams, match=r"^mu must be finite, got"):
        domination_generator(bad)
    with pytest.raises(InvalidParams, match=r"^coef must be finite, got"):
        abs_z_generator(bad)
    with pytest.raises(InvalidParams, match=r"^a must be finite, got"):
        linear_generator(bad, 0.1)
    with pytest.raises(InvalidParams, match=r"^b must be finite, got"):
        linear_generator(0.1, bad)
    for name in ("r", "b", "sigma"):
        with pytest.raises(InvalidParams, match=rf"^{name} must be finite, got {bad}$"):
            BSMarketParams(**{"r": 0.05, "b": 0.08, "sigma": 0.2, name: bad})


def test_negative_hedge_coefficient_is_rejected():
    with pytest.raises(NegativeMu, match=r"^coef must be >= 0, got -0\.1$"):
        abs_z_generator(-0.1)


class TestBlackScholesGenerator:
    def test_plugin_value(self):
        g = black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2))
        assert abs(g(0.0, 1.0, 0.0) - (-0.05)) < 1e-15
        assert g.mu == pytest.approx(max(0.05, 0.03 / 0.2))

    def test_drift_equals_rate_kills_hedge_term(self):
        g = black_scholes_generator(BSMarketParams(r=0.05, b=0.05, sigma=0.2))
        for y, z in [(1.0, 3.0), (-2.0, 0.5)]:
            assert g(0.0, y, z) == pytest.approx(-0.05 * y, abs=1e-15)

    def test_degenerate_market_gives_zero_driver(self):
        g = black_scholes_generator(BSMarketParams(r=0.0, b=0.0, sigma=1.0))
        assert g(0.0, 5.0, -7.0) == 0.0

    def test_bad_sigma(self):
        with pytest.raises(InvalidParams):
            BSMarketParams(r=0.05, b=0.08, sigma=0.0)
        with pytest.raises(InvalidParams):
            BSMarketParams(r=0.05, b=0.08, sigma=-1.0)


class TestVerifyLipschitz:
    def test_domination_driver_is_exactly_tight(self):
        g = domination_generator(0.5)
        for seed in (0, 1, 2):
            rep = verify_lipschitz(g, samples=500, seed=seed)
            assert rep.ok
            assert rep.worst_ratio <= 0.5 + 1e-12

    def test_quadratic_violates_declared_constant(self):
        g = Generator(fn=lambda t, y, z: np.asarray(y, float) ** 2, mu=1.0)
        rep = verify_lipschitz(g, samples=500,
                               box=((-10.0, 10.0), (-10.0, 10.0)), seed=3)
        assert not rep.ok
        assert rep.witness is not None

    def test_zero_driver(self):
        rep = verify_lipschitz(zero_generator(), samples=100, seed=0)
        assert rep.ok and rep.worst_ratio == 0.0

    def test_sample_validation(self):
        with pytest.raises(InvalidParams):
            verify_lipschitz(zero_generator(), samples=0)

    def test_coincident_pairs_are_skipped(self):
        # a one-point box draws only coincident pairs: no ratio is formed, so
        # the driver is never called and nothing can fail
        calls = []

        def fn(t, y, z):
            calls.append((t, y, z))
            return 0.0

        rep = verify_lipschitz(Generator(fn=fn, mu=0.0), samples=20,
                               box=((1.0, 1.0), (-2.0, -2.0)), seed=5)
        assert rep.ok and rep.worst_ratio == 0.0 and rep.witness is None
        assert calls == []


ALL_NAN = Generator(fn=lambda t, y, z: np.full(np.broadcast(y, z).shape, np.nan), mu=0.1)
# NaN for y > 0, 0.05 y elsewhere: within mu = 0.1 wherever it is a number
HALF_NAN = Generator(fn=lambda t, y, z: np.where(np.asarray(y) > 0, np.nan,
                                                 0.05 * np.asarray(y, float)), mu=0.1)
NAMED = re.compile(r"^driver value is nan at t=(\S+), y=(\S+), z=(\S+)$")


def _named_point(err) -> tuple:
    return tuple(float(v) for v in NAMED.match(str(err.value)).groups())


class TestNonFiniteDriver:
    """A NaN driver value failed no ``v > limit`` test: the all-NaN driver
    read ok with ratio 0.0 and held every property, the half-NaN one read ok
    with ratio 0.049."""

    def test_lipschitz_names_the_first_nan_sample(self):
        rng = np.random.default_rng(0)
        ts = rng.uniform(0.0, 1.0, size=4000)
        y1, z1 = rng.uniform(-5.0, 5.0, size=4000), rng.uniform(-5.0, 5.0, size=4000)
        y2, z2 = rng.uniform(-5.0, 5.0, size=4000), rng.uniform(-5.0, 5.0, size=4000)
        with pytest.raises(NonFiniteValue) as err:
            verify_lipschitz(ALL_NAN, 4000, seed=0)
        assert _named_point(err) == (ts[0], y1[0], z1[0])
        k = int(np.flatnonzero((y1 > 0) | (y2 > 0))[0])
        y, z = (y1[k], z1[k]) if y1[k] > 0 else (y2[k], z2[k])
        with pytest.raises(NonFiniteValue) as err:
            verify_lipschitz(HALF_NAN, 4000, seed=0)
        assert _named_point(err) == (ts[k], y, z)

    def test_classify_names_a_nan_point_of_the_first_sample(self):
        first_t = float(np.random.default_rng(0).uniform(0.0, 1.0))
        for g in (ALL_NAN, HALF_NAN):
            with pytest.raises(NonFiniteValue) as err:
                classify_generator(g, 50, seed=0)
            t, y, z = _named_point(err)
            assert t == first_t and np.isnan(g(t, y, z))

    def test_finite_values_that_overflow_are_not_flagged(self):
        # the one finiteness test per sample is on a difference (verify_lipschitz)
        # or a sum (classify_generator) of driver values, which overflow here
        flip = Generator(fn=lambda t, y, z: np.where(np.asarray(y) > 0, 1e308, -1e308), mu=0.0)
        rep = verify_lipschitz(flip, 50, seed=1)
        assert not rep.ok and rep.worst_ratio == np.inf
        huge = Generator(fn=lambda t, y, z: np.full(np.broadcast(y, z).shape, 1e308), mu=0.0)
        assert classify_generator(huge, 20, seed=1).zero_at_zero.witness["value"] == 1e308


class TestClassifyGenerator:
    def test_domination_driver_structure(self):
        rep = classify_generator(domination_generator(0.5), samples=300, seed=1)
        assert rep.zero_at_zero.holds
        assert rep.convex.holds
        assert rep.subadditive.holds
        assert rep.positively_homogeneous.holds
        assert rep.sellers_condition.holds
        assert not rep.y_independent.holds
        assert not rep.zero_rate.holds

    def test_black_scholes_structure(self):
        g = black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2))
        rep = classify_generator(g, samples=300, seed=2)
        assert not rep.y_independent.holds
        assert rep.y_independent.witness is not None
        assert rep.positively_homogeneous.holds
        assert rep.convex.holds and rep.concave.holds  # affine

    def test_quadratic_hedge_term(self):
        g = Generator(fn=lambda t, y, z: np.asarray(z, float) ** 2, mu=10.0)
        rep = classify_generator(g, samples=300, seed=3)
        assert rep.convex.holds
        assert not rep.positively_homogeneous.holds
        assert rep.positively_homogeneous.witness is not None

    def test_abs_z_flags_and_structure(self):
        g = abs_z_generator(0.3)
        assert g.flags.y_independent
        rep = classify_generator(g, samples=200, seed=4)
        assert rep.y_independent.holds
        assert rep.zero_rate.holds
        assert not rep.z_independent.holds

    def test_sample_validation(self):
        with pytest.raises(InvalidParams, match="^samples must be >= 1$"):
            classify_generator(zero_generator(), samples=0)

    def test_verdicts_are_deterministic(self):
        g = linear_generator(0.2, -0.4)
        a = classify_generator(g, samples=150, seed=9).as_dict()
        b = classify_generator(g, samples=150, seed=9).as_dict()
        assert a == b
