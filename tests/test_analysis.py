"""Law suite, decomposition, representation, probes, and recovery."""

import json

import numpy as np
import pytest

from gmech import (
    InvalidParams,
    AdaptedProcess,
    BoundViolated,
    DividendStream,
    DominationViolated,
    Generator,
    MechanismHandle,
    NonFiniteValue,
    NotSupermartingale,
    StepOutOfRange,
    TerminalClaim,
    abs_z_generator,
    as_mechanism,
    axiom_suite,
    black_scholes_generator,
    BSMarketParams,
    build_grid,
    build_lattice,
    build_probe_path,
    check_domination,
    doob_meyer,
    domination_generator,
    infinitesimal_probe,
    linear_generator,
    pairwise_representation_gap,
    paste,
    price,
    random_claim,
    recover_generator,
    represent,
    solve_bsde,
    verify_main_theorem,
    z_probe,
    zero_generator,
)
from gmech.analysis import _reach_mask, grid_points
from gmech.lattice import one_step_mz

from util import (
    increasing_stream,
    random_lipschitz_generator,
    random_pwl_claim,
)

ZERO = TerminalClaim(lambda b: np.zeros_like(np.asarray(b, dtype=float)), name="0")


# -- law suite ---------------------------------------------------------------

class TestAxiomSuite:
    def test_domination_mechanism_passes(self, lat8):
        mech = as_mechanism(domination_generator(0.5), lat8)
        report = axiom_suite(mech, lat8, samples=60, seed=7)
        assert report.all_passed()

    def test_linear_expectation_passes(self, lat8):
        mech = as_mechanism(zero_generator(), lat8)
        assert axiom_suite(mech, lat8, samples=40, seed=1).all_passed()

    def test_pasted_mechanism_passes(self, lat8):
        pasted = paste([as_mechanism(abs_z_generator(0.3), lat8),
                        as_mechanism(linear_generator(-0.2, 0.1), lat8)],
                       [0, 4, 8])
        assert axiom_suite(pasted, lat8, samples=40, seed=2).all_passed()

    def test_deterministic_given_seed(self, lat8):
        mech = as_mechanism(domination_generator(0.3), lat8)
        a = axiom_suite(mech, lat8, samples=25, seed=9).as_dict()
        b = axiom_suite(mech, lat8, samples=25, seed=9).as_dict()
        assert a == b

    def test_reach_mask_is_the_union_of_node_cones(self):
        # node j at step s reaches terminal nodes j .. j + (t - s)
        rng = np.random.default_rng(53)
        for _ in range(50):
            t = int(rng.integers(1, 20))
            s = int(rng.integers(0, t + 1))
            nodes = np.flatnonzero(rng.random(s + 1) < 0.4)
            want = [any(j <= k <= j + t - s for j in nodes) for k in range(t + 1)]
            assert _reach_mask(s, t, nodes).tolist() == want

    @pytest.mark.parametrize("gen, steps, samples", [
        (random_lipschitz_generator(np.random.default_rng(51)), 8, 120),
        (random_lipschitz_generator(np.random.default_rng(52)), 64, 12),
        (abs_z_generator(3.0), 4, 200),
    ], ids=["picard-8", "picard-64", "abs_z-3.0-4"])
    def test_batched_suite_matches_price_at_only_handle(self, gen, steps, samples):
        # as_mechanism prices each (s, t) group in one price_rows call; a
        # handle with price_at alone prices every row by its own call
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        mech = as_mechanism(gen, lat)
        plain = MechanismHandle(lat, mech.price_at, mu=mech.mu)
        fast = axiom_suite(mech, lat, samples=samples, seed=steps)
        slow = axiom_suite(plain, lat, samples=samples, seed=steps)
        assert (json.dumps(fast.as_dict(), sort_keys=True)
                == json.dumps(slow.as_dict(), sort_keys=True))
        if gen.name.startswith("abs_z"):
            assert fast.monotonicity.witness is not None

    def test_black_box_nan_is_blamed_on_the_black_box(self, lat8):
        # a NaN price used to reach the nested leg, which blamed its own input
        base = as_mechanism(domination_generator(0.3), lat8)

        def price_at(s, t, claim, dividends=None):
            vals = base.price_at(s, t, claim, dividends)
            return np.where(np.arange(s + 1) == 1, np.nan, vals) if s == 3 else vals

        with pytest.raises(NonFiniteValue,
                           match=r"^mechanism price is nan at step 3, row 0, node 1$"):
            axiom_suite(MechanismHandle(lat8, price_at, mu=0.3), lat8, samples=40, seed=3)


def _shift_at_maturity(base):
    """Corruption: +1 only when pricing at the claim's own maturity."""
    def price_at(s, t, claim, dividends=None):
        vals = base.price_at(s, t, claim, dividends)
        return vals + 1.0 if s == t else vals
    return MechanismHandle(base.lattice, price_at, mu=base.mu, name="shifted")


def _far_node_peeker(base):
    """Corruption: every price leans on the claim's value at the lowest
    terminal node, inside or outside the pricing node's cone."""
    def price_at(s, t, claim, dividends=None):
        vals = base.price_at(s, t, claim, dividends)
        if s == t:
            return vals
        peek = float(claim.values(base.lattice, t)[0])
        return vals + 0.05 * peek
    return MechanismHandle(base.lattice, price_at, mu=base.mu, name="peeker")


class TestCorruptedWrappers:
    def test_maturity_shift_fails_identity_only(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        report = axiom_suite(_shift_at_maturity(base), lat8, samples=60, seed=3)
        assert not report.identity.passed
        assert report.identity.witness is not None
        for law in (report.monotonicity, report.time_consistency,
                    report.locality, report.splitting,
                    report.zero_preservation, report.locality_with_zero):
            assert law.passed, law.name

    def test_non_monotone_scheme_fails_monotonicity_only(self):
        # a coarse grid with a steep driver: the one-step map decreases in a
        # child value, which breaks order but no structural identity
        lat = build_lattice(build_grid(0.0, 1.0, 4))
        mech = as_mechanism(abs_z_generator(3.0), lat)  # mu*sqrt(dt) = 1.5
        report = axiom_suite(mech, lat, samples=120, seed=4)
        assert not report.monotonicity.passed
        assert report.monotonicity.witness is not None
        for law in (report.identity, report.time_consistency,
                    report.locality, report.splitting,
                    report.zero_preservation, report.locality_with_zero):
            assert law.passed, law.name

    def test_peeker_fails_locality_with_witness(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        report = axiom_suite(_far_node_peeker(base), lat8, samples=60, seed=5)
        assert not report.locality.passed
        assert report.locality.witness is not None
        # the corruption is order- and zero-preserving and maturity-exact
        assert report.monotonicity.passed
        assert report.identity.passed
        assert report.zero_preservation.passed

    def test_uniform_shift_fails_identity(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        shifted = MechanismHandle(
            lat8,
            lambda s, t, c, d=None: base.price_at(s, t, c, d) + 1.0,
            mu=base.mu, name="plus-one")
        report = axiom_suite(shifted, lat8, samples=40, seed=21)
        assert not report.identity.passed
        assert report.identity.witness is not None

    def test_negated_prices_fail_monotonicity(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        negated = MechanismHandle(
            lat8,
            lambda s, t, c, d=None: -base.price_at(s, t, c, d),
            mu=base.mu, name="negated")
        report = axiom_suite(negated, lat8, samples=40, seed=22)
        assert not report.monotonicity.passed
        assert report.monotonicity.witness is not None


# -- decomposition ------------------------------------------------------------

class TestDoobMeyer:
    def test_priced_claim_decomposes_to_zero(self, lat16):
        g = domination_generator(0.4)
        y = solve_bsde(g, random_pwl_claim(np.random.default_rng(0)), None,
                       lat16).y
        result = doob_meyer(g, y, None, lat16)
        for i in range(16):
            assert np.allclose(result.increments.at(i), 0.0, atol=1e-12, rtol=0)

    def test_deterministic_drift(self, lat8):
        # value 1 - t under g == 0 sheds exactly dt per step, totalling T
        y = AdaptedProcess.from_function(
            lat8, lambda t, b: (1.0 - t) + 0.0 * b)
        result = doob_meyer(zero_generator(), y, None, lat8)
        total = 0.0
        for i in range(8):
            assert np.allclose(result.increments.at(i), lat8.dt, atol=1e-15)
            total += result.increments.at(i)[0]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_recovers_constructed_stream(self, lat16):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_lipschitz_generator(rng)
            stream = increasing_stream(rng, lat16)
            y = solve_bsde(g, random_pwl_claim(rng), stream, lat16).y
            # y is a supermartingale of the plain system; its compensator is
            # the constructed stream
            result = doob_meyer(g, y, None, lat16)
            for i in range(16):
                assert np.allclose(result.increments.at(i), stream.increment(i),
                                   atol=1e-10, rtol=0)
            assert result.reconstruction_error <= 1e-9
            assert result.is_increasing()

    def test_decomposition_is_reproducible_bitwise(self, lat8):
        g = domination_generator(0.3)
        stream = increasing_stream(np.random.default_rng(2), lat8)
        y = solve_bsde(g, random_pwl_claim(np.random.default_rng(3)), stream,
                       lat8).y
        r1 = doob_meyer(g, y, None, lat8)
        r2 = doob_meyer(g, y, None, lat8)
        for i in range(8):
            assert np.array_equal(r1.increments.at(i), r2.increments.at(i))

    def test_other_lattice_raises(self, lat16):
        # the one-step operator and the driver's times must come from one grid
        g = domination_generator(0.3)
        y = solve_bsde(g, random_pwl_claim(np.random.default_rng(0)), None, lat16).y
        with pytest.raises(InvalidParams, match=r"T=4\.0, n_steps=16\) is not the "
                           r"process's lattice TimeGrid\(t0=0\.0, T=1\.0"):
            doob_meyer(g, y, None, build_lattice(build_grid(0.0, 4.0, 16)))

    def test_equal_lattice_is_accepted(self, lat16):
        g = domination_generator(0.3)
        y = solve_bsde(g, random_pwl_claim(np.random.default_rng(0)), None, lat16).y
        result = doob_meyer(g, y, None, build_lattice(build_grid(0.0, 1.0, 16)))
        assert result.reconstruction_error <= 1e-12

    def test_submartingale_rejected(self, lat8):
        g = zero_generator()
        y = AdaptedProcess.from_function(lat8, lambda t, b: t + 0.0 * b)
        with pytest.raises(NotSupermartingale):
            doob_meyer(g, y, None, lat8)

    def test_not_supermartingale_witness_names_step_and_node(self, lat8):
        slices = [np.zeros(i + 1) for i in range(9)]
        slices[5][3] = -0.2
        y = AdaptedProcess(lat8, 0, slices)
        with pytest.raises(NotSupermartingale, match=r"^one-step defect -0\.2 at step 5, "
                           r"node 3; input is not a supermartingale at this tolerance$"):
            doob_meyer(zero_generator(), y, None, lat8)

    def test_decompose_against_running_dividends(self, lat8):
        # supermartingale of the dividend-adjusted system: price with the
        # base stream plus an extra increasing stream, decompose against the
        # base stream, recover the extra one
        rng = np.random.default_rng(4)
        g = domination_generator(0.3)
        base = increasing_stream(rng, lat8, scale=0.05)
        extra = increasing_stream(rng, lat8, scale=0.1)
        both = DividendStream.from_arrays(
            lat8, [base.increment(i) + extra.increment(i) for i in range(8)])
        y = solve_bsde(g, random_pwl_claim(rng), both, lat8).y
        result = doob_meyer(g, y, base, lat8)
        for i in range(8):
            assert np.allclose(result.increments.at(i), extra.increment(i),
                               atol=1e-10, rtol=0)


# -- representation -----------------------------------------------------------

class TestRepresent:
    def test_zero_mechanism_has_zero_driver(self, lat8):
        mech = as_mechanism(zero_generator(), lat8)
        rep = represent(mech, random_pwl_claim(np.random.default_rng(5)),
                        None, lat8)
        for i in range(8):
            assert np.allclose(rep.driver.at(i), 0.0, atol=1e-11, rtol=0)

    def test_driver_matches_generator_on_surface(self, lat8):
        rng = np.random.default_rng(6)
        g = random_lipschitz_generator(rng)
        mech = as_mechanism(g, lat8)
        claim = random_pwl_claim(rng)
        rep = represent(mech, claim, None, lat8)
        for i in range(8):
            want = g(lat8.grid.time(i), rep.values.at(i), rep.integrand.at(i))
            assert np.allclose(rep.driver.at(i), want, atol=1e-10, rtol=0)

    def test_pairwise_gap_bound(self, lat8):
        rng = np.random.default_rng(7)
        g = random_lipschitz_generator(rng)
        mech = as_mechanism(g, lat8)
        reps = [represent(mech, random_pwl_claim(rng), None, lat8)
                for _ in range(6)]
        for a in reps:
            for b in reps:
                assert pairwise_representation_gap(a, b, g.mu) <= 1e-9

    def test_understated_mu_is_flagged(self, lat8):
        mech = as_mechanism(abs_z_generator(0.5), lat8)
        mech.mu = 0.05
        steep = TerminalClaim(lambda b: np.abs(np.asarray(b, dtype=float)))
        with pytest.raises(BoundViolated,
                           match=r"^driver \S+ escapes mu-envelope by \S+ at step \d+, node \d+$"):
            represent(mech, steep, None, lat8)


# -- probes ---------------------------------------------------------------------

class TestZProbe:
    def test_exact_for_hedge_only_driver(self):
        for n in (4, 16, 64):
            lat = build_lattice(build_grid(0.0, 1.0, n))
            mech = as_mechanism(abs_z_generator(0.1), lat)
            assert z_probe(mech, 2.0, 0, n) == pytest.approx(0.2, abs=1e-12)

    def test_zero_level_under_zero_preserving_mechanism(self, lat8):
        mech = as_mechanism(domination_generator(0.5), lat8)
        assert z_probe(mech, 0.0, 0, 8) == pytest.approx(0.0, abs=1e-12)

    def test_interior_anchor_matches_root_for_hedge_only_driver(self, lat16):
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        full = z_probe(mech, 1.5, 0, 16)
        windowed = z_probe(mech, 1.5, 4, 16)
        assert windowed == pytest.approx(full, abs=1e-12)

    def test_one_step_probe_of_domination_driver_brackets_mu(self):
        # over a single step the probe of the extremal mechanism equals
        # mu / (1 - mu dt): within [mu, mu (1 + c dt)] and decreasing with dt
        mu, prev = 0.5, None
        for n in (8, 16, 32, 64):
            lat = build_lattice(build_grid(0.0, 1.0, n))
            mech = as_mechanism(domination_generator(mu), lat)
            got = z_probe(mech, 1.0, 0, 1)
            assert mu - 1e-12 <= got <= mu * (1.0 + 2.0 * mu * lat.dt)
            if prev is not None:
                assert got <= prev + 1e-15
            prev = got


class TestInfinitesimalProbe:
    def test_reduces_to_z_probe_for_plain_noise(self, lat16):
        mech = as_mechanism(abs_z_generator(0.25), lat16)
        got = infinitesimal_probe(mech, x=0.0, p=2.0, y=0.0,
                                  b_fn=lambda x: 0.0 * x,
                                  sigma_fn=lambda x: 1.0 + 0.0 * x,
                                  eps_steps=16)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_zero_mechanism_sees_only_the_drift(self, lat16):
        mech = as_mechanism(zero_generator(), lat16)
        for y0 in (0.0, 5.0):
            got = infinitesimal_probe(mech, x=1.0, p=3.0, y=y0,
                                      b_fn=lambda x: 0.4 + 0.0 * x,
                                      sigma_fn=lambda x: 1.0 + 0.0 * x,
                                      eps_steps=4)
            assert got == pytest.approx(1.2, abs=1e-12)

    def test_black_scholes_limit_by_extrapolation(self):
        lat = build_lattice(build_grid(0.0, 1.0, 256))
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        mech = as_mechanism(black_scholes_generator(params), lat)
        theta = (params.b - params.r) / params.sigma
        want = -params.r * 1.0 - theta  # driver at (y, sigma^T p) = (1, 1)
        quotients = {
            eps: infinitesimal_probe(mech, x=0.0, p=1.0, y=1.0,
                                     b_fn=lambda x: 0.0 * x,
                                     sigma_fn=lambda x: 1.0 + 0.0 * x,
                                     eps_steps=eps)
            for eps in (1, 2, 4)
        }
        extrapolated = 2.0 * quotients[1] - quotients[2]
        assert extrapolated == pytest.approx(want, abs=5e-3)
        assert abs(quotients[1] - want) < abs(quotients[4] - want)


# -- recovery ---------------------------------------------------------------------

class TestProbePath:
    def test_shape_and_start(self, lat16):
        probe = build_probe_path(lat16, 4, y=1.5, z=-0.5, mu=0.4)
        assert probe.slices[0][0] == 1.5
        assert [s.shape for s in probe.slices] == [(1,), (2,)]

    def test_first_step_values(self, lat16):
        y, z, mu = 1.0, 2.0, 0.5
        probe = build_probe_path(lat16, 0, y, z, mu)
        drifted = y - mu * (abs(y) + abs(z)) * lat16.dt
        assert probe.slices[1][1] == pytest.approx(drifted + z * lat16.sqrt_dt)
        assert probe.slices[1][0] == pytest.approx(drifted - z * lat16.sqrt_dt)


class TestProbeAnchors:
    PROBES = {
        "z_probe": lambda mech, anchor: z_probe(mech, 1.0, 4, 8, anchor=anchor),
        "infinitesimal_probe": lambda mech, anchor: infinitesimal_probe(
            mech, x=0.0, p=1.0, y=0.0, b_fn=lambda x: 0.0 * x,
            sigma_fn=lambda x: 1.0 + 0.0 * x, eps_steps=2, t_step=4, anchor=anchor),
        "build_probe_path": lambda mech, anchor: build_probe_path(
            mech.lattice, 4, 1.0, 1.0, 0.3, anchor=anchor),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize("anchor", [-1, 5, 7])
    def test_anchor_off_the_step_raises(self, lat8, probe, anchor):
        # -1 used to wrap to the last node and 7 to raise a bare IndexError
        mech = as_mechanism(abs_z_generator(0.3), lat8)
        with pytest.raises(StepOutOfRange, match=rf"^anchor {anchor} is not a step-4 node$"):
            self.PROBES[probe](mech, anchor)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_default_anchor_is_the_middle_node(self, lat8, probe):
        mech = as_mechanism(abs_z_generator(0.3), lat8)
        got, want = self.PROBES[probe](mech, None), self.PROBES[probe](mech, 2)
        if probe == "build_probe_path":
            assert got.anchor == want.anchor == 2
        else:
            assert got == want


class TestRecoverGenerator:
    def test_zero_mechanism_recovers_zero(self):
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        mech = as_mechanism(zero_generator(), lat)
        rec = recover_generator(mech, 5, grid_points([-1, 0, 1], [-1, 0, 1]), lat)
        assert np.max(np.abs(rec.table)) <= 1e-9
        assert rec.zero_defect <= 1e-9

    def test_hedge_only_driver_recovered_exactly(self):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        gen = abs_z_generator(0.3)
        mech = as_mechanism(gen, lat)
        rec = recover_generator(mech, 6, grid_points([-2, 0, 2], [-2, -1, 1, 2]),
                                lat)
        for t, y, z, v in rec.rows():
            assert v == pytest.approx(0.3 * abs(z), abs=1e-9)
        assert rec.lipschitz_ratio <= 0.3 + 1e-9

    def test_lipschitz_certificate_matches_pairwise_loop(self):
        # duplicate and coincident-coordinate points exercise the 0/0 and x/0
        # ratios, which the certificate skips
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        mech = as_mechanism(random_lipschitz_generator(np.random.default_rng(12)), lat)
        pts = grid_points([-1, 0, 1], [-1, 0.5]) + [(0.0, 0.5), (1.0, 2.0)]
        rec = recover_generator(mech, 2, pts, lat)
        worst = 0.0
        for row in rec.table:
            for pa, va in zip(rec.points, row):
                for pb, vb in zip(rec.points, row):
                    sep = abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
                    if sep > 0.0:
                        worst = max(worst, abs(va - vb) / sep)
        assert worst > 0.0
        assert rec.lipschitz_ratio == worst

    def test_interpolated_generator_reprices_claims(self):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        gen = abs_z_generator(0.3)
        mech = as_mechanism(gen, lat)
        rec = recover_generator(mech, 6,
                                grid_points([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2]),
                                lat)
        rebuilt = as_mechanism(rec.to_generator(), lat)
        claim = random_claim(np.random.default_rng(8))
        a = mech.price_at(0, 64, claim)
        b = rebuilt.price_at(0, 64, claim)
        assert np.allclose(a, b, atol=1e-8, rtol=0)

    def test_undominated_mechanism_raises(self):
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        mech = as_mechanism(abs_z_generator(1.0), lat)
        mech.mu = 0.3  # declared cap far below the true constant
        with pytest.raises(DominationViolated, match=r"^probe \(y=0, z=2\) has defect "
                           r"-\S+ at step 0, node 0; mechanism is not dominated at mu=0\.3$"):
            recover_generator(mech, 5, [(0.0, 2.0)], lat)

    def test_probe_envelope_violation_names_the_lattice_node(self):
        # a negative driver passes the defect check but escapes the envelope;
        # time index 3 of 16 puts the probe at step 12, anchor node 6
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        neg = Generator(fn=lambda t, y, z: -np.abs(np.asarray(z, float)), mu=1.0,
                        name="neg_abs_z")
        mech = as_mechanism(neg, lat)
        mech.mu = 0.3
        with pytest.raises(BoundViolated, match=r"^probe \(y=0, z=2\) driver -2 escapes "
                           r"mu-envelope by \S+ at step 12, node 6$"):
            recover_generator(mech, 4, [(0.0, 2.0)], lat, time_indices=[3])

    @pytest.mark.parametrize("steps, level", [(64, 4), (128, 5), (256, 6), (64, 2)])
    def test_extremal_driver_recovered_when_intervals_span_steps(self, steps, level):
        # the probe is one lattice step whatever the dyadic interval spans, so
        # the extremal driver is a supermartingale under itself and reads exactly
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        pts = grid_points([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2])
        rec = recover_generator(as_mechanism(domination_generator(0.5), lat),
                                level, pts, lat)
        want = np.array([0.5 * (abs(y) + abs(z)) for y, z in pts])
        assert np.max(np.abs(rec.table - want[None, :])) <= 1e-12

    def test_price_at_only_handle_prices_one_step_per_dyadic_time(self):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        mech = as_mechanism(random_lipschitz_generator(np.random.default_rng(41)), lat)
        calls = []

        def price_at(s, t, claim, dividends=None):
            calls.append((s, t))
            return mech.price_at(s, t, claim, dividends)

        pts = grid_points([-2, 0, 1], [-1, 0, 2])
        recover_generator(MechanismHandle(lat, price_at, mu=mech.mu), 4, pts, lat)
        assert len(calls) == 16 * len(pts)
        assert all(t == s + 1 for s, t in calls)

    @pytest.mark.parametrize("gen", [
        random_lipschitz_generator(np.random.default_rng(37)), abs_z_generator(0.3),
    ], ids=lambda g: g.name)
    def test_price_at_only_handle_recovers_the_same_table(self, gen):
        # price_rows of as_mechanism runs the kernel on all sample points at
        # once; the default loop prices one claim per price_at call
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        mech = as_mechanism(gen, lat)
        plain = MechanismHandle(lat, mech.price_at, mu=mech.mu)
        pts = grid_points([-2, 0, 1], [-1, 0, 2])
        fast = recover_generator(mech, 4, pts, lat)
        slow = recover_generator(plain, 4, pts, lat)
        assert fast.table.tobytes() == slow.table.tobytes()
        assert fast.lipschitz_ratio == slow.lipschitz_ratio

    def test_price_at_only_handle_raises_the_same_violation(self):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        rogue = as_mechanism(abs_z_generator(1.0), lat)
        rogue.mu = 0.5
        messages = []
        for handle in (rogue, MechanismHandle(lat, rogue.price_at, mu=0.5)):
            with pytest.raises(DominationViolated) as err:
                recover_generator(handle, 4, grid_points([-1, 0, 1], [0, 2]), lat)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_black_box_nan_is_not_a_driver_value(self):
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        base = as_mechanism(random_lipschitz_generator(np.random.default_rng(5)), lat)

        def price_at(s, t, claim, dividends=None):
            vals = base.price_at(s, t, claim, dividends)
            return np.where(np.arange(s + 1) == 4, np.nan, vals) if s == 8 else vals

        handle = MechanismHandle(lat, price_at, mu=base.mu)
        with pytest.raises(NonFiniteValue, match=r"^mechanism price is nan at step 8, row 0, node 4$"):
            recover_generator(handle, 4, grid_points([-1, 1], [-1, 1]), lat)

    def test_certificate_reports_an_overflowing_ratio(self):
        # two points a denormal apart whose drivers differ by 1e-8: the ratio
        # overflows, and only coincident points may be skipped
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        jump = Generator(fn=lambda t, y, z: 1e-8 * np.sign(y), mu=0.5, name="jump")
        rec = recover_generator(as_mechanism(jump, lat), 0, [(0.0, 0.0), (5e-324, 0.0)], lat)
        assert rec.table[0, 0] == 0.0 and rec.table[0, 1] > 0.0
        assert rec.lipschitz_ratio == np.inf

    def test_singleton_axis_grid_interpolates(self):
        # a 1 x N grid is still a grid; interpolation degenerates cleanly
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(abs_z_generator(0.3), lat)
        rec = recover_generator(mech, 4, grid_points([0.0], [-2, 0, 2]), lat)
        gen = rec.to_generator()
        assert float(gen(0.1, 0.0, 1.0)) == pytest.approx(0.3, abs=1e-9)
        assert float(gen(0.1, 0.0, -2.0)) == pytest.approx(0.6, abs=1e-9)

    def test_permuted_points_do_not_form_a_grid(self):
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(zero_generator(), lat)
        pts = grid_points([0.0, 1.0], [0.0, 1.0])
        rec = recover_generator(mech, 4, pts[::-1], lat, time_indices=[0])
        assert rec.grid is None
        with pytest.raises(InvalidParams):
            rec.value(0.0, 0.5, 0.5)

    def test_inverse_comparison_of_recovered_tables(self):
        # the bigger driver's prices dominate, and so do its recovered values
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        pts = grid_points([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2])
        big = recover_generator(as_mechanism(domination_generator(0.5), lat),
                                5, pts, lat)
        small = recover_generator(as_mechanism(abs_z_generator(0.2), lat),
                                  5, pts, lat)
        assert np.all(big.table >= small.table - 1e-9)

    def test_time_subset_and_serialization(self):
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(linear_generator(-0.1, 0.2), lat)
        rec = recover_generator(mech, 4, grid_points([0, 1], [0, 1]), lat,
                                time_indices=[0, 7, 15])
        assert rec.times.shape == (3,)
        rows = list(rec.rows())
        assert len(rows) == 12
        d = rec.as_dict()
        assert d["level"] == 4 and len(d["rows"]) == 12


WALK = TerminalClaim(lambda b: np.asarray(b, dtype=float), name="walk")

LATTICE_CALLS = {
    "axiom_suite": lambda mech, lat: axiom_suite(mech, lat, samples=4),
    "represent": lambda mech, lat: represent(mech, WALK, None, lat),
    "check_domination": lambda mech, lat: check_domination(mech, WALK, WALK, 0.3, lat),
    "recover_generator": lambda mech, lat: recover_generator(
        mech, 4, grid_points([0, 1], [-1, 1]), lat),
    "verify_main_theorem": lambda mech, lat: verify_main_theorem(
        mech, lat, samples=4, level=4),
}


def _recover_per_probe(mech, level, points, tol=1e-9):
    """Reference recovery: one scalar probe, one one-row pricing and one
    defect and driver check at a time, in time and point order."""
    lat = mech.lattice
    stride = lat.n_steps >> level
    table = np.zeros((1 << level, len(points)))
    for i in range(1 << level):
        t_step = i * stride
        for col, (y, z) in enumerate(points):
            probe = build_probe_path(lat, t_step, y, z, mech.mu)
            j0 = probe.anchor
            row = probe.slices[1][np.clip(np.arange(t_step + 2) - j0, 0, 1)]
            one_step = mech.price_rows(t_step, t_step + 1, [row])[0, j0]
            what, at = f"probe (y={y:g}, z={z:g})", f"step {t_step}, node {j0}"
            defect = y - one_step
            if defect < -tol:
                raise DominationViolated(f"{what} has defect {defect:.3g} at {at}; "
                                         f"mechanism is not dominated at mu={mech.mu:g}")
            m, hedge = one_step_mz(probe.slices[1], lat.sqrt_dt)
            driver = (one_step - m[0]) / lat.dt
            excess = abs(driver) - mech.mu * (abs(y) + abs(hedge[0]))
            if excess > 1e-6:
                raise BoundViolated(f"{what} driver {driver:.6g} escapes mu-envelope "
                                    f"by {excess:.3g} at {at}")
            table[i, col] = driver
    worst = 0.0
    for vals in table:
        for pa, va in zip(points, vals):
            for pb, vb in zip(points, vals):
                sep = abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
                if sep > 0.0:
                    worst = max(worst, abs(va - vb) / sep)
    return table, worst


def _mixed_rogue(lat):
    """Driver 2|z| above y = 0 and -2|z| below, declared at mu = 0.4: probes
    above fail the defect (and the envelope), probes below the envelope only."""
    def fn(t, y, z):
        return np.where(np.asarray(y) > 0, 2.0, -2.0) * np.abs(z)

    mech = as_mechanism(Generator(fn=fn, mu=2.0, name="mixed"), lat)
    mech.mu = 0.4
    return mech


class TestVectorisedRecovery:
    """The array recovery against the per-probe reference loop."""

    @pytest.mark.parametrize("steps, level", [(64, 4), (128, 5)])
    @pytest.mark.parametrize("kind", ["picard", "abs_z", "price_at_only"])
    def test_table_matches_per_probe_loop(self, kind, steps, level):
        rng = np.random.default_rng(steps + level)
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        gen = abs_z_generator(0.3) if kind == "abs_z" else random_lipschitz_generator(rng)
        mech = as_mechanism(gen, lat)
        if kind == "price_at_only":
            mech = MechanismHandle(lat, mech.price_at, mu=mech.mu)
        pts = [(float(a), float(b)) for a, b in rng.uniform(-2.0, 2.0, size=(10, 2))]
        pts += grid_points([-1, 0, 1], [0, 2])
        rec = recover_generator(mech, level, pts, lat)
        table, worst = _recover_per_probe(mech, level, pts)
        assert rec.table.tobytes() == table.tobytes()
        assert rec.lipschitz_ratio == worst

    @pytest.mark.parametrize("order", [
        [(0.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (2.0, 2.0), (-2.0, -2.0)],
        [(0.0, 0.0), (2.0, 2.0), (-1.0, 1.0), (1.0, 0.5)],
        [(1.0, 0.0), (-2.0, 0.0), (-0.5, -2.0), (1.5, -1.0)],
    ])
    def test_rogue_raises_the_first_failure_in_point_order(self, order):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        mech = _mixed_rogue(lat)
        messages = []
        for recover in (lambda: recover_generator(mech, 4, order, lat),
                        lambda: _recover_per_probe(mech, 4, order)):
            with pytest.raises((DominationViolated, BoundViolated)) as err:
                recover()
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]


class TestLatticeMismatch:
    """Routines that take a lattice beside the handle accept only its own."""

    @pytest.mark.parametrize("name", list(LATTICE_CALLS))
    def test_other_lattice_raises(self, name, lat16):
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        other = build_lattice(build_grid(0.0, 4.0, 16))
        with pytest.raises(InvalidParams, match=r"T=4\.0, n_steps=16\) is not the "
                           r"mechanism's lattice TimeGrid\(t0=0\.0, T=1\.0"):
            LATTICE_CALLS[name](mech, other)

    @pytest.mark.parametrize("name", list(LATTICE_CALLS))
    def test_equal_lattice_is_accepted(self, name, lat16):
        # equality, not identity: a second build of the same grid is the same lattice
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        LATTICE_CALLS[name](mech, build_lattice(build_grid(0.0, 1.0, 16)))


class TestVerifyMainTheorem:
    def test_rebuild_matches_for_hidden_drivers(self):
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        for gen in (zero_generator(), abs_z_generator(0.3)):
            mech = as_mechanism(gen, lat)
            verdict = verify_main_theorem(mech, lat, samples=4, seed=11, level=5)
            assert verdict.axioms_ok and verdict.domination_ok
            assert verdict.max_discrepancy <= 1e-8
            assert verdict.passed()

    def test_batched_rebuild_matches_per_claim_surfaces(self):
        # the rebuilt side is one kernel pass over all claims; the reference
        # prices each claim by its own solve under the recovered driver
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(random_lipschitz_generator(np.random.default_rng(61)), lat)
        samples, seed = 5, 17
        verdict = verify_main_theorem(mech, lat, samples=samples, seed=seed, level=4)
        assert verdict.domination_ok
        rebuilt = as_mechanism(verdict.recovered.to_generator(), lat)
        rng = np.random.default_rng(seed)
        for _ in range(2 * max(2, samples // 4)):  # the domination pairs
            random_claim(rng)
        worst = 0.0
        for _ in range(samples):
            claim = random_claim(rng)
            sa, sb = mech.price_surface(16, claim), rebuilt.price_surface(16, claim)
            for i in range(17):
                worst = max(worst, float(np.max(np.abs(sa.at(i) - sb.at(i)))))
        assert worst > 0.0
        assert verdict.max_discrepancy == worst
