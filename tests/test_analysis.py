"""Law suite, decomposition, representation, probes, and recovery."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from gmech import (
    InvalidParams,
    AdaptedProcess,
    BoundViolated,
    ContractionViolation,
    DividendStream,
    DominationViolated,
    Generator,
    MechanismHandle,
    NegativeMu,
    NonFiniteValue,
    NotSupermartingale,
    SchemeNotMonotone,
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
    claim_from_values,
    classify_generator,
    doob_meyer,
    domination_generator,
    infinitesimal_probe,
    linear_generator,
    pairwise_representation_gap,
    random_claim,
    recover_generator,
    represent,
    solve_bsde,
    solve_terminal_batch,
    synth_chain,
    verify_lipschitz,
    verify_main_theorem,
    z_probe,
    zero_generator,
)
from gmech import analysis, engine
from gmech.analysis import _packed_rows, _reach_mask, grid_points
from gmech.engine import _backward
from gmech.lattice import _max_gap, one_step_mz

from util import (
    add_streams,
    far_node_peeker,
    increasing_stream,
    paste,
    price_at_only,
    random_lipschitz_generator,
    random_pwl_claim,
    shift_at_maturity,
    signed_stream,
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

    def test_report_keys(self, lat8):
        # one entry per law, keyed by its name, which the entry does not repeat
        base = as_mechanism(abs_z_generator(0.3), lat8)
        off = MechanismHandle(
            lat8, lambda s, t, claim, d: base.price_at(s, t, claim, d) + (1e-3 if s == t else 0.0),
            mu=0.3)
        report = axiom_suite(off, lat8, samples=10, seed=4).as_dict()
        assert list(report) == ["monotonicity", "identity", "time_consistency", "locality",
                                "splitting", "zero_preservation", "locality_with_zero"]
        for law in report.values():
            assert list(law) == ["passed", "samples", "failures", "worst_margin", "witness"]
        assert list(report["identity"]["witness"]) == ["sample", "t", "violation"]

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


def _linear_black_box(lat, up, down, reuse):
    """Backward induction of the one-step map ``up * upper child + down *
    lower child``, answering with fresh arrays or, if ``reuse``, with views
    of one buffer."""
    buf = np.empty(lat.n_steps + 1)

    def price_at(s, t, claim, dividends=None):
        y = claim.values(lat, t)
        for _ in range(t - s):
            y = up * y[1:] + down * y[:-1]
        if not reuse:
            return y
        buf[:s + 1] = y
        return buf[:s + 1]

    return MechanismHandle(lat, price_at, mu=None)


class TestCorruptedWrappers:
    def test_maturity_shift_fails_identity_only(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        report = axiom_suite(shift_at_maturity(base), lat8, samples=60, seed=3)
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_buffer_reusing_non_monotone_box_fails_as_its_fresh_twin(self, seed):
        # weights 1.75 and -0.75 break order alone; answers written into one
        # buffer are judged as the fresh answers, not as the buffer's last
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        fresh, reused = (axiom_suite(_linear_black_box(lat, 1.75, -0.75, reuse), lat,
                                     samples=40, seed=seed) for reuse in (False, True))
        assert reused.as_dict() == fresh.as_dict()
        assert [c.name for c in reused.checks() if not c.passed] == ["monotonicity"]
        assert reused.monotonicity.witness is not None

    def test_peeker_fails_locality_with_witness(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        report = axiom_suite(far_node_peeker(base), lat8, samples=60, seed=5)
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
            mu=base.mu)
        report = axiom_suite(shifted, lat8, samples=40, seed=21)
        assert not report.identity.passed
        assert report.identity.witness is not None

    def test_negated_prices_fail_monotonicity(self, lat8):
        base = as_mechanism(domination_generator(0.3), lat8)
        negated = MechanismHandle(
            lat8,
            lambda s, t, c, d=None: -base.price_at(s, t, c, d),
            mu=base.mu)
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
        y = AdaptedProcess(lat8, 0, [np.full(i + 1, 1.0 - lat8.grid.time(i))
                                     for i in range(9)])
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
        y = AdaptedProcess(lat8, 0, [np.full(i + 1, lat8.grid.time(i)) for i in range(9)])
        with pytest.raises(NotSupermartingale):
            doob_meyer(g, y, None, lat8)

    def test_not_supermartingale_witness_names_step_and_node(self, lat8):
        slices = [np.zeros(i + 1) for i in range(9)]
        slices[5][3] = -0.2
        y = AdaptedProcess(lat8, 0, slices)
        with pytest.raises(NotSupermartingale, match=r"^one-step defect -0\.2 at step 5, "
                           r"node 3; input is not a supermartingale at this tolerance$"):
            doob_meyer(zero_generator(), y, None, lat8)

    def test_overflowing_mean_is_named_not_a_defect(self, lat4):
        # every one-step mean overflows: a NaN or inf, not a -inf defect and a
        # NotSupermartingale verdict, and no numpy warning
        y = AdaptedProcess(lat4, 0, [np.full(i + 1, 1e308) for i in range(5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^one-step mean is inf at step 0, node 0$"):
                doob_meyer(zero_generator(), y, None, lat4)

    def test_overflowing_hedge_is_named_under_a_driver_that_ignores_z(self, lat4):
        # every mean and defect is 0, but the hedge of step 3 overflows
        top = claim_from_values(lat4, 4, [1e308, -1e308, 1e308, -1e308, 1e308])
        y = solve_bsde(zero_generator(), top, None, lat4).y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^hedge is -inf at step 3, node 0$"):
                doob_meyer(zero_generator(), y, None, lat4)

    def test_infinite_driver_value_is_named_not_a_defect(self, lat8):
        g = Generator(fn=lambda t, y, z: np.inf, mu=0.0, name="inf")
        y = AdaptedProcess(lat8, 0, [np.zeros(i + 1) for i in range(9)])
        with pytest.raises(NonFiniteValue, match=r"^driver is inf at step 0, node 0$"):
            doob_meyer(g, y, None, lat8)

    def test_nan_is_named_before_a_low_defect(self, lat8):
        slices = [np.zeros(i + 1) for i in range(9)]
        slices[5][3] = -0.2
        slices[2][1] = np.nan
        y = AdaptedProcess(lat8, 0, slices)
        with pytest.raises(NonFiniteValue, match=r"^one-step mean is nan at step 1, node 0$"):
            doob_meyer(zero_generator(), y, None, lat8)

    def test_nan_on_every_step_is_named_by_the_walk(self, lat8):
        # every step has a NaN defect, so no defect is the worst and the worst
        # is not finite: the walk names the first NaN
        slices = [np.zeros(i + 1) for i in range(9)]
        for s in slices:
            s[0] = np.nan
        y = AdaptedProcess(lat8, 0, slices)
        with pytest.raises(NonFiniteValue, match=r"^one-step mean is nan at step 0, node 0$"):
            doob_meyer(zero_generator(), y, None, lat8)

    def test_nan_defect_above_the_worst_fails_the_rebuild(self, lat8):
        # the worst defect (0) passes, so the walk is not searched; the NaN
        # increments make the re-priced surface non-finite, which is named
        slices = [np.zeros(i + 1) for i in range(9)]
        slices[3][1] = np.nan
        y = AdaptedProcess(lat8, 0, slices)
        with pytest.raises(NonFiniteValue, match=r"^price is nan at step 3, node 1$"):
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


def _spelled_out_decomposition(g, y, dividends, lat):
    """Each step's defect ``y - m - g(t, y, z) dt - dK``, and the gap of the
    rebuild as a whole-surface solve: ``solve_bsde`` of ``y``'s terminal slice
    under the payouts ``dK + a``, compared slice by slice with ``y``."""
    steps = range(y.start, y.stop)
    dks = [0.0 if dividends is None else dividends.increment(i) for i in steps]
    incs = []
    for i, dk in zip(steps, dks):
        m, z = one_step_mz(y.at(i + 1), lat.sqrt_dt)
        incs.append(y.at(i) - m - g(lat.grid.time(i), y.at(i), z) * lat.dt - dk)
    total = DividendStream.from_arrays(lat, [dk + a for dk, a in zip(dks, incs)], start=y.start)
    rebuilt = solve_bsde(g, claim_from_values(lat, y.stop, y.slices[-1]), total, lat,
                         t_step=y.stop, s_step=y.start).y
    return incs, _max_gap(rebuilt.slices, y.slices)


REBUILD_DRIVERS = {
    "gmu": lambda: domination_generator(0.3),
    "abs_z": lambda: abs_z_generator(0.3),
    "linear": lambda: linear_generator(-0.2, 0.1),
    **{f"random_{seed}": (lambda seed=seed: random_lipschitz_generator(
        np.random.default_rng(seed))) for seed in (3401, 3402, 3403)},
}


class TestStreamedRebuild:
    """doob_meyer's one-sweep rebuild against the whole-surface solve."""

    @pytest.mark.parametrize("steps", [8, 64, 512])
    @pytest.mark.parametrize("driver", list(REBUILD_DRIVERS))
    def test_rebuild_is_the_whole_surface_solve_bitwise(self, driver, steps):
        rng = np.random.default_rng([steps, list(REBUILD_DRIVERS).index(driver)])
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        g = REBUILD_DRIVERS[driver]()
        for payouts in (None, DividendStream.from_rate(lat, float(rng.uniform(-0.5, 0.5))),
                        signed_stream(rng, lat)):
            # the extra increasing stream is what the decomposition recovers
            extra = increasing_stream(rng, lat)
            paid = extra if payouts is None else add_streams(lat, payouts, extra)
            for start in (0, steps // 3 + 1):
                y = solve_bsde(g, random_pwl_claim(rng), paid, lat, s_step=start).y
                got = doob_meyer(g, y, payouts, lat)
                incs, err = _spelled_out_decomposition(g, y, payouts, lat)
                where = (payouts is None, start)
                assert (np.float64(got.reconstruction_error).tobytes()
                        == np.float64(err).tobytes()), where
                assert err <= 1e-9, where
                assert got.increments.start == start
                assert ([a.tobytes() for a in got.increments.slices]
                        == [a.tobytes() for a in incs]), where


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

    def test_pairwise_gap_needs_one_lattice(self, lat8, lat16):
        # the gap of an 8-step and a 16-step result compared the first 8
        # steps of two grids and returned about 2e-15
        g = domination_generator(0.3)
        claim = random_pwl_claim(np.random.default_rng(8))
        a, b = (represent(as_mechanism(g, lat), claim, None, lat) for lat in (lat8, lat16))
        with pytest.raises(InvalidParams, match="is not the first result's lattice"):
            pairwise_representation_gap(a, b, g.mu)
        with pytest.raises(InvalidParams, match="is not the first result's lattice"):
            pairwise_representation_gap(b, a, g.mu)

    def test_understated_mu_is_flagged(self, lat8):
        mech = MechanismHandle(lat8, as_mechanism(abs_z_generator(0.5), lat8).price_at, mu=0.05)
        steep = TerminalClaim(lambda b: np.abs(np.asarray(b, dtype=float)))
        with pytest.raises(BoundViolated,
                           match=r"^driver \S+ escapes mu-envelope by \S+ at step \d+, node \d+$"):
            represent(mech, steep, None, lat8)

    def test_infinite_hedge_is_named(self, lat4):
        # alternating +-1e308 payoffs price to 0 at step 3, but their hedge
        # overflows: raised, not returned as an integrand of +-inf
        mech = as_mechanism(zero_generator(), lat4)
        claim = claim_from_values(lat4, 4, [1e308, -1e308, 1e308, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^hedge is -inf at step 3, node 0$"):
                represent(mech, claim, None, lat4)


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

    def test_overflowing_row_is_named_without_a_warning(self, lat8):
        mech = as_mechanism(zero_generator(), lat8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue,
                               match=r"^terminal value is -inf at step 8, row 0, node 0$"):
                z_probe(mech, 1e308, 0, 8)


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

    def test_overflowing_row_is_named_without_a_warning(self, lat16):
        mech = as_mechanism(zero_generator(), lat16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue,
                               match=r"^terminal value is -inf at step 1, row 0, node 0$"):
                infinitesimal_probe(mech, x=0.0, p=1e308, y=0.0, b_fn=lambda x: 0.0 * x,
                                    sigma_fn=lambda x: 10.0 + 0.0 * x, eps_steps=1)

    def test_b_fn_and_sigma_fn_answers_are_named(self):
        # each Euler step reads both functions once: an answer that does not
        # broadcast to the states, or holds a NaN or inf, is named by its
        # function, step and node; a scalar reads as the array of its value
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        mech = as_mechanism(abs_z_generator(0.3), lat)
        one, zero = (lambda x: 1.0), (lambda x: 0.0)
        cases = (
            (lambda x: np.zeros(len(x) + 1), one, 0, StepOutOfRange,
             r"b_fn returned shape \(2,\) at step 0, expected \(1,\)"),
            (zero, lambda x: np.ones((2, len(x))), 2, StepOutOfRange,
             r"sigma_fn returned shape \(2, 1\) at step 2, expected \(1,\)"),
            (zero, lambda x: np.nan, 0, NonFiniteValue, "sigma_fn is nan at step 0, node 0"),
            (lambda x: np.inf, one, 0, NonFiniteValue, "b_fn is inf at step 0, node 0"),
            (lambda x: np.where(x > 0.1, np.nan, 0.0), one, 4, NonFiniteValue,
             "b_fn is nan at step 5, node 3"))
        for b_fn, sigma_fn, t_step, error, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=rf"^{message}$"):
                    infinitesimal_probe(mech, x=0.0, p=1.0, y=0.0, b_fn=b_fn,
                                        sigma_fn=sigma_fn, eps_steps=4, t_step=t_step)
        assert (infinitesimal_probe(mech, 0.0, 1.0, 0.0, zero, one, 4)
                == infinitesimal_probe(mech, 0.0, 1.0, 0.0, lambda x: 0.0 * x,
                                       lambda x: 1.0 + 0.0 * x, 4))


# -- recovery ---------------------------------------------------------------------

class TestProbePath:
    def test_shape(self, lat16):
        assert build_probe_path(lat16, 4, y=1.5, z=-0.5, mu=0.4).shape == (2,)

    def test_first_step_values(self, lat16):
        y, z, mu = 1.0, 2.0, 0.5
        children = build_probe_path(lat16, 0, y, z, mu)
        drifted = y - mu * (abs(y) + abs(z)) * lat16.dt
        assert children[1] == pytest.approx(drifted + z * lat16.sqrt_dt)
        assert children[0] == pytest.approx(drifted - z * lat16.sqrt_dt)

    def test_children_are_the_spelled_out_step(self, lat16):
        # the probe's children are the Euler step of the infinitesimal probe
        # under b = -mu (|y| + |z|) and sigma = z: the same bits as the formula
        rng = np.random.default_rng(61)
        mu, dt, sdt = 0.4, lat16.dt, lat16.sqrt_dt
        y, z = rng.normal(size=9), rng.normal(size=9)
        y[:3], z[3:5] = 0.0, -0.0
        for t_step in (0, 7, 15):
            children = build_probe_path(lat16, t_step, y, z, mu)
            drifted = y - mu * (np.abs(y) + np.abs(z)) * dt
            want = np.stack([drifted - z * sdt, drifted + z * sdt], -1)
            assert children.shape == (9, 2)
            assert children.tobytes() == want.tobytes()
            one = build_probe_path(lat16, t_step, float(y[5]), float(z[5]), mu)
            assert one.tobytes() == want[5].tobytes()

    def test_overflowing_children_are_named_without_a_warning(self, lat16):
        # mu (|y| + |z|) overflows, so the drifted children are -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^probe child is -inf at step 1, node 0$"):
                build_probe_path(lat16, 0, 1e308, 1e308, 0.5)
            with pytest.raises(NonFiniteValue,
                               match=r"^probe child is -inf at step 5, row 1, node 0$"):
                build_probe_path(lat16, 4, [0.5, 1e308], [1.0, 1e308], 0.5)


def test_lone_probes_read_the_middle_node(lat8):
    # a black box whose price at node j is j: a read-out at any node but
    # t // 2 reads another number
    mech = MechanismHandle(lat8, lambda s, t, claim, dividends=None: np.arange(s + 1.0),
                           mu=0.3)
    for t_step in range(8):
        j0 = t_step // 2
        horizon = lat8.grid.time(8) - lat8.grid.time(t_step)
        assert z_probe(mech, 1.0, t_step, 8) == j0 / horizon
        assert _probe(mech, eps_steps=1, t_step=t_step) == j0 / lat8.dt
        children = build_probe_path(lat8, t_step, [0.5], [1.0], 0.3)
        rows, (row, anchor) = _packed_rows(children, t_step)
        assert anchor.tolist() == [j0]
        assert mech.price_rows(t_step, t_step + 1, rows)[row, anchor].tolist() == [j0]
        assert rows[0, j0:j0 + 2].tobytes() == children[0].tobytes()


def _pairwise_worst(points, table) -> float:
    """The worst increment ratio over each table row, pair by pair; points
    that coincide are skipped."""
    worst = 0.0
    for row in table:
        for pa, va in zip(points, row):
            for pb, vb in zip(points, row):
                sep = abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
                if sep > 0.0:
                    worst = max(worst, abs(va - vb) / sep)
    return worst


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
        worst = _pairwise_worst(rec.points, rec.table)
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
        # declared cap far below the true constant
        mech = MechanismHandle(lat, as_mechanism(abs_z_generator(1.0), lat).price_at, mu=0.3)
        with pytest.raises(DominationViolated, match=r"^probe \(y=0, z=2\) has defect "
                           r"-\S+ at step 0, node 0; mechanism is not dominated at mu=0\.3$"):
            recover_generator(mech, 5, [(0.0, 2.0)], lat)

    def test_overflowing_probe_mean_is_named(self):
        # the probe's one-step mean overflows: a NaN or inf, not a driver of
        # -inf escaping the envelope, and no numpy warning
        lat = build_lattice(build_grid(0.0, 1.0, 4))
        mech = as_mechanism(zero_generator(), lat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^probe \(y=1e\+308, z=0\) one-step mean "
                               r"is inf at step 0, node 0$"):
                recover_generator(mech, 2, grid_points([1e308, -1e308], [0.0]), lat)

    def test_overflowing_probe_children_are_named(self):
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(domination_generator(0.5), lat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue,
                               match=r"^probe child is -inf at step 1, row 0, node 0$"):
                recover_generator(mech, 0, [(1e308, 1e308)], lat)

    def test_probe_envelope_violation_names_the_lattice_node(self):
        # a negative driver passes the defect check but escapes the envelope;
        # it turns on at t = 0.75, time index 12 of 16: step 48, anchor node 24
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        neg = Generator(
            fn=lambda t, y, z: np.where(t >= 0.75, -np.abs(np.asarray(z, float)), 0.0),
            mu=1.0, name="late_neg_abs_z")
        mech = MechanismHandle(lat, as_mechanism(neg, lat).price_at, mu=0.3)
        with pytest.raises(BoundViolated, match=r"^probe \(y=0, z=2\) driver -2 escapes "
                           r"mu-envelope by \S+ at step 48, node 24$"):
            recover_generator(mech, 4, [(0.0, 2.0)], lat)

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
        # steps 0, 4, ..., 60 pack min(9, t // 2 + 1) probes a row: 9 + 3 + 14 * 1 rows
        assert len(calls) == 28
        assert all(t == s + 1 for s, t in calls)

    def test_price_at_only_handle_prices_packed_rows_at_the_bench_size(self):
        # level 8 on 256 steps, 5x5 grid: sum over t < 256 of ceil(25 / (t // 2 + 1))
        # rows, against 256 * 25 = 6,400 with one probe a row
        lat = build_lattice(build_grid(0.0, 1.0, 256))
        mech = as_mechanism(domination_generator(0.5), lat)
        calls = []

        def price_at(s, t, claim, dividends=None):
            calls.append((s, t))
            return mech.price_at(s, t, claim, dividends)

        pts = grid_points(*[[-2.0, -1.0, 0.0, 1.0, 2.0]] * 2)
        rec = recover_generator(MechanismHandle(lat, price_at, mu=mech.mu), 8, pts, lat)
        assert len(calls) == 424
        assert all(t == s + 1 for s, t in calls)
        assert rec.table.tobytes() == recover_generator(mech, 8, pts, lat).table.tobytes()

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
        # a driver handle on the batched kernel, declaring less than its constant
        rogue = as_mechanism(dataclasses.replace(abs_z_generator(1.0), mu=0.5), lat)
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

    def test_replaced_table_carries_its_own_certificate(self):
        # the certificate derives from the table: replace cannot keep a stale one
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        rec = recover_generator(as_mechanism(abs_z_generator(0.3), lat), 4,
                                grid_points([-1, 0, 1], [-1, 0, 1]), lat)
        shifted = dataclasses.replace(rec, table=rec.table + 1.0)
        assert shifted.zero_defect == float(np.max(np.abs(rec.table[:, 4] + 1.0))) > 0.5
        assert shifted.lipschitz_ratio == _pairwise_worst(rec.points, rec.table + 1.0)
        assert rec.certificate_ok() and not shifted.certificate_ok()
        # doubling is exact, so every ratio doubles bitwise
        doubled = dataclasses.replace(rec, table=2.0 * rec.table)
        assert doubled.lipschitz_ratio == 2.0 * rec.lipschitz_ratio > 0.5
        assert doubled.zero_defect == 2.0 * rec.zero_defect

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
        rec = recover_generator(mech, 4, pts[::-1], lat)
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
        rec = recover_generator(mech, 4, grid_points([0, 1], [0, 1]), lat)
        assert rec.times.shape == (16,)
        rows = list(rec.rows())
        assert len(rows) == 64
        d = rec.as_dict()
        assert d["level"] == 4 and len(d["rows"]) == 64


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
            children = build_probe_path(lat, t_step, y, z, mech.mu)
            j0 = t_step // 2
            row = children[np.clip(np.arange(t_step + 2) - j0, 0, 1)]
            one_step = mech.price_rows(t_step, t_step + 1, [row])[0, j0]
            what, at = f"probe (y={y:g}, z={z:g})", f"step {t_step}, node {j0}"
            defect = y - one_step
            if defect < -tol:
                raise DominationViolated(f"{what} has defect {defect:.3g} at {at}; "
                                         f"mechanism is not dominated at mu={mech.mu:g}")
            m, hedge = one_step_mz(children, lat.sqrt_dt)
            driver = (one_step - m[0]) / lat.dt
            excess = abs(driver) - mech.mu * (abs(one_step) + abs(hedge[0]))
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

    driver = as_mechanism(Generator(fn=fn, mu=2.0, name="mixed"), lat)
    return MechanismHandle(lat, driver.price_at, mu=0.4)


class TestRecoveredClosedForm:
    """The recovered driver's closed-form step against Picard iteration on
    the interpolant it solves."""

    GRID5 = [-2.0, -1.0, 0.0, 1.0, 2.0]

    @pytest.mark.parametrize("ys, zs", [(GRID5, GRID5), ([0.0], [-1.0, 0.0, 1.0]),
                                        ([-1.0, 0.0, 1.0], [0.0])],
                             ids=["5x5", "1x3", "3x1"])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_closed_form_matches_picard(self, ys, zs, scale):
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        rng = np.random.default_rng(31)
        mech = as_mechanism(random_lipschitz_generator(rng), lat)
        exact = recover_generator(mech, 4, grid_points(ys, zs), lat).to_generator()
        picard = dataclasses.replace(exact, exact_step=None)
        rows = np.stack([random_pwl_claim(rng, bound=scale, slope=scale).values(lat, 16)
                         for _ in range(5)])
        stream = signed_stream(rng, lat, scale=0.5)
        for cur in (rows[0], rows):
            for dividends in (None, stream):
                got, _, _ = _backward(exact, cur, lat, 16, 0, dividends, True)
                want, iters, _ = _backward(picard, cur, lat, 16, 0, dividends, True)
                assert iters > 1
                gap = max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))
                assert gap <= 1e-12, (cur.ndim, dividends is not None, gap)
        if scale > 2.0:
            # prices and hedges leave the grid box, where the interpolant is clamped
            assert max(float(np.max(np.abs(a))) for a in got) > 2.0
            assert max(float(np.max(np.abs(one_step_mz(a, lat.sqrt_dt)[1])))
                       for a in got[1:]) > 2.0

    def test_steep_table_is_named(self):
        # a y-slope of 20 between y=0 and y=1 at dt = 1/16: slope * dt >= 1
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        rec = recover_generator(as_mechanism(zero_generator(), lat), 4,
                                grid_points([-1.0, 0.0, 1.0], [0.0, 1.0]), lat)
        steep = dataclasses.replace(rec, table=rec.table + [0.0, 0.0, 0.0, 0.0, 20.0, 20.0])
        gen = steep.to_generator()
        what = (r"the recovered driver's y-slope 20 between y=0 and y=1 makes "
                r"slope \* dt >= 1 \(t=0\.9375\)$")
        with pytest.raises(ContractionViolation, match=r"^step 15, node 0: " + what):
            solve_bsde(gen, random_claim(np.random.default_rng(2)), None, lat)
        with pytest.raises(ContractionViolation, match=r"^step 15, row 0, node 0: " + what):
            as_mechanism(gen, lat).price_rows(0, 16, np.zeros((2, 17)))

    def test_steep_row_in_a_later_block_is_named_by_its_batch_row(self, monkeypatch):
        # steep at z = 1 only: of 7 rows, the last alone has z = 1 and trips,
        # alone in the last of 3 blocks; the witness names its batch row
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        rec = recover_generator(as_mechanism(zero_generator(), lat), 4,
                                grid_points([-1.0, 0.0, 1.0], [0.0, 1.0]), lat)
        gen = dataclasses.replace(rec, table=rec.table + ([0.0] * 5 + [20.0])).to_generator()
        rows = np.zeros((7, 17))
        rows[6] = 0.5 * np.arange(17)
        messages = []
        for budget in (1 << 40, 24 * 17):
            monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
            with pytest.raises(ContractionViolation) as err:
                as_mechanism(gen, lat).price_rows(0, 16, rows)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("step 15, row 6, node 0: the recovered driver's y-slope 20 ")


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

    @pytest.mark.parametrize("steps, level", [(64, 6), (256, 8)])
    def test_driver_on_its_envelope_is_recovered(self, steps, level):
        # g(t, 0, 1) = -mu: the realized driver meets the envelope at the
        # one-step price, which lies O(dt) away from the probe's start
        gen = random_lipschitz_generator(np.random.default_rng(202))
        assert gen(0.0, 0.0, 1.0) == -gen.mu
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        pts = grid_points(*[[-2.0, -1.0, 0.0, 1.0, 2.0]] * 2)
        rec = recover_generator(as_mechanism(gen, lat), level, pts, lat)
        assert rec.table.tobytes() == _recover_per_probe(as_mechanism(gen, lat), level,
                                                         pts)[0].tobytes()

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


def _picard_packing_bound(mu, dt, pts, table):
    """Largest table gap between two Picard recoveries of one driver whose
    probes stop at different updates, as packed and one-probe rows may.

    A probe's one-step price solves ``y = F(y) = m + g(t, y, z) dt``, with
    ``m`` and ``z`` fixed by its children; ``F`` contracts by ``L = mu dt``.
    A row stops once every node's last update ``|F(y') - y'|`` is at most
    ``tol = max(PICARD_TOL, PICARD_ULPS spacing)``, the spacing of the row's
    largest ``|y|`` (``engine._implicit_step``), and keeps ``y = F(y')``
    rounded by at most ``u``, one spacing of the largest price.  So ``|y -
    y*| <= L (tol + |y - y*|) + u``: ``|y - y*| <= (L tol + u) / (1 - L)``
    whichever update stopped it, and two runs differ by twice that.  The
    driver ``(y - m) / dt`` shares ``m``, so the table gap is at most ``2 (mu
    tol + u / dt) / (1 - mu dt)``, plus one spacing of the largest entry per
    run for the rounding of ``y - m`` and the division.  Prices lie within
    ``mu (|y| + |z|) dt`` of the probe's start, so ``2 max |y| + 1`` bounds
    them at these sizes.
    """
    u = float(np.spacing(2.0 * np.abs(pts[:, 0]).max() + 1.0))
    tol = max(engine.PICARD_TOL, engine.PICARD_ULPS * u)
    rounding = 2.0 * float(np.spacing(np.abs(table).max()))
    return 2.0 * (mu * tol + u / dt) / (1.0 - mu * dt) + rounding


class TestPackedRecovery:
    """Probes packed side by side in one row against one probe a row."""

    CLOSED = [domination_generator(0.5), abs_z_generator(0.3), linear_generator(-0.2, 0.3),
              domination_generator(0.4, z_sign=1.0), domination_generator(0.4, z_sign=-1.0)]

    @staticmethod
    def _points(level):
        # 19 points: more than t // 2 + 1 at the early dyadic times, so those
        # take several rows, and 19 is prime, so a last row is partly filled
        rng = np.random.default_rng(300 + level)
        return [(float(a), float(b)) for a, b in rng.uniform(-2.0, 2.0, size=(19, 2))]

    @pytest.mark.parametrize("steps, level", [(64, 4), (64, 6), (256, 8)])
    @pytest.mark.parametrize("gen", CLOSED, ids=lambda g: g.name)
    def test_closed_form_table_is_bitwise_the_per_probe_loop(self, gen, steps, level):
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        pts = self._points(level)
        rec = recover_generator(as_mechanism(gen, lat), level, pts, lat)
        table, worst = _recover_per_probe(as_mechanism(gen, lat), level, pts)
        assert rec.table.tobytes() == table.tobytes()
        assert rec.lipschitz_ratio == worst

    @pytest.mark.parametrize("steps, level", [(64, 4), (64, 6), (256, 8)])
    @pytest.mark.parametrize("kind", ["random", "gmu_picard", "smooth"])
    def test_picard_table_is_within_the_stop_rule_of_the_per_probe_loop(self, kind, steps,
                                                                         level):
        # the piecewise-linear drivers end on an exact Aitken step and read
        # bitwise equal; the smooth one stops at other updates in packed rows
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        gen = {"random": lambda: random_lipschitz_generator(np.random.default_rng(level)),
               "gmu_picard": lambda: dataclasses.replace(domination_generator(0.5),
                                                         exact_step=None),
               "smooth": lambda: Generator(fn=lambda t, y, z: 0.5 * np.sin(y) + 0.3 * np.tanh(z),
                                           mu=0.5, name="smooth")}[kind]()
        pts = self._points(level)
        rec = recover_generator(as_mechanism(gen, lat), level, pts, lat)
        table, _ = _recover_per_probe(as_mechanism(gen, lat), level, pts)
        bound = _picard_packing_bound(gen.mu, lat.dt, np.asarray(pts), table)
        assert bound < 2e-12
        assert float(np.max(np.abs(rec.table - table))) <= bound

    @pytest.mark.parametrize("plain", [False, True], ids=["driver", "price_at_only"])
    def test_witness_names_the_failing_probes_own_anchor(self, plain):
        # -|z| from t = 0.75 escapes the envelope at mu = 0.3 for z != 0 only:
        # the third probe fails first, at step 48, where the three share one row
        # with base (48 - 4) // 2 = 22, so its anchor is node 22 + 2 * 2 = 26
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        neg = Generator(
            fn=lambda t, y, z: np.where(t >= 0.75, -np.abs(np.asarray(z, float)), 0.0),
            mu=1.0, name="late_neg_abs_z")
        driver = as_mechanism(dataclasses.replace(neg, mu=0.3), lat)
        mech = MechanismHandle(lat, driver.price_at, mu=0.3) if plain else driver
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        with pytest.raises(BoundViolated, match=r"^probe \(y=0, z=2\) driver -2 escapes "
                           r"mu-envelope by \S+ at step 48, node 26$"):
            recover_generator(mech, 4, pts, lat)
        # one probe a row names the middle node, as before packing
        with pytest.raises(BoundViolated, match=r"at step 48, node 24$"):
            _recover_per_probe(mech, 4, pts)


def _late_rogue(lat, kind, fn):
    """A Picard driver ``fn`` declared at mu = 0.3, as its own handle or as
    a ``price_at``-only handle that counts its calls (``None`` for a driver)."""
    driver = as_mechanism(Generator(fn=fn, mu=0.3, name="late_rogue"), lat)
    if kind == "driver":
        return driver, None
    calls = []

    def price_at(s, t, claim, dividends=None):
        calls.append((s, t))
        return driver.price_at(s, t, claim, dividends)

    return MechanismHandle(lat, price_at, mu=0.3), calls


class TestOnePassRecovery:
    """One probe build per recovery, one price_rows call per dyadic time and
    one decomposition of the whole table."""

    @pytest.mark.parametrize("kind", ["driver", "price_at_only"])
    def test_earlier_violation_precedes_a_later_nan(self, kind, lat16):
        # |z| at mu = 0.3 is not dominated at t = 0; from step 4 the driver is
        # NaN, and price_rows raises there before the table is decomposed
        mech, calls = _late_rogue(
            lat16, kind, lambda t, y, z: np.where(t >= 0.25, np.nan, np.abs(z)))
        with pytest.raises(DominationViolated, match=r"^probe \(y=0, z=1\) has defect -\S+ at "
                           r"step 0, node 0; mechanism is not dominated at mu=0\.3$") as err:
            recover_generator(mech, 4, [(0.0, 1.0), (0.0, 2.0)], lat16)
        assert err.value.__context__ is None
        if calls is not None:
            # every dyadic time up to the NaN is priced before the table is
            # decomposed: 2 + 2 + 1 + 1 + 1 rows at steps 0..4, where one
            # decomposition per time stopped after the 2 rows of step 0
            assert [s for s, _ in calls] == [0, 0, 1, 1, 2, 3, 4]

    @pytest.mark.parametrize("kind", ["driver", "price_at_only"])
    @pytest.mark.parametrize("level, step", [(4, 8), (3, 6), (2, 12)])
    def test_nan_at_a_dyadic_step_is_named_by_price_rows(self, kind, level, step, lat16):
        # 0.3 |z| is dominated: every time before the NaN passes
        mech, _ = _late_rogue(lat16, kind, lambda t, y, z: np.where(
            t >= step / 16, np.nan, 0.3 * np.abs(z)))
        with pytest.raises(NonFiniteValue, match=rf"^Picard update is nan at step {step}, "
                           r"(row 0, )?node 0$") as err:
            recover_generator(mech, level, grid_points([-1, 1], [-1, 1]), lat16)
        assert err.value.__context__ is None

    @pytest.mark.parametrize("kind", ["driver", "price_at_only"])
    def test_later_envelope_violation_names_its_step_and_anchor(self, kind, lat16):
        # -|z| from step 8 escapes the envelope for z != 0; a NaN from step 12
        # comes later.  At step 8 the three probes share one row with base
        # 8 // 2 - 2 = 2, so the third is anchored at node 2 + 2 * 2 = 6
        mech, _ = _late_rogue(lat16, kind, lambda t, y, z: np.where(
            t >= 0.75, np.nan, np.where(t >= 0.5, -np.abs(z), 0.0)))
        with pytest.raises(BoundViolated, match=r"^probe \(y=0, z=2\) driver -2 escapes "
                           r"mu-envelope by \S+ at step 8, node 6$") as err:
            recover_generator(mech, 4, [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)], lat16)
        assert err.value.__context__ is None

    @pytest.mark.parametrize("level", [4, 6, 8])
    def test_probes_are_built_once_and_priced_once_per_dyadic_time(self, level, monkeypatch):
        lat = build_lattice(build_grid(0.0, 1.0, 256))
        mech = as_mechanism(domination_generator(0.5), lat)
        pts = grid_points(*[[-2.0, -1.0, 0.0, 1.0, 2.0]] * 2)
        want = recover_generator(mech, level, pts, lat).table
        builds, priced = [], []
        build, price_rows = analysis.build_probe_path, MechanismHandle.price_rows

        def counted_build(lattice, t_step, *args):
            builds.append(t_step)
            return build(lattice, t_step, *args)

        def counted_price_rows(self, s_step, t_step, rows, dividends=None):
            priced.append((s_step, t_step))
            return price_rows(self, s_step, t_step, rows, dividends)

        monkeypatch.setattr(analysis, "build_probe_path", counted_build)
        monkeypatch.setattr(MechanismHandle, "price_rows", counted_price_rows)
        got = recover_generator(mech, level, pts, lat)
        assert builds == [0]
        assert priced == [(t, t + 1) for t in range(0, 256, 256 >> level)]
        assert got.table.tobytes() == want.tobytes()


def _bits(obj):
    """A verdict as nested plain values with every float and array as its
    dtype, shape and bytes: two are equal exactly when they are bitwise."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, AdaptedProcess):
        obj = (obj.lattice, obj.start, obj.slices)
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, (float, np.ndarray, np.generic)):
        return np.asarray(obj).dtype.str, np.shape(obj), np.asarray(obj).tobytes()
    return obj


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
    def test_no_lattice_is_the_handles_own(self, name, lat16):
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        assert _bits(LATTICE_CALLS[name](mech, None)) == _bits(LATTICE_CALLS[name](mech, lat16))

    @pytest.mark.parametrize("name", list(LATTICE_CALLS))
    def test_equal_lattice_is_accepted(self, name, lat16):
        # equality, not identity: a second build of the same grid is the same lattice
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        LATTICE_CALLS[name](mech, build_lattice(build_grid(0.0, 1.0, 16)))


def _no_mu(mech):
    """The same prices behind a handle that declares no domination constant."""
    return MechanismHandle(mech.lattice, mech.price_at, mu=None)


def _probe(mech, **kw):
    return infinitesimal_probe(mech, x=0.0, p=1.0, y=0.0, b_fn=lambda x: 0.0 * x,
                               sigma_fn=lambda x: 1.0 + 0.0 * x, **kw)


LAT2 = build_lattice(build_grid(0.0, 1.0, 2))
LAT4 = build_lattice(build_grid(0.0, 1.0, 4))
# an object row whose last entry is a sequence: numpy sees shape (5,), not a ragged row
OBJECT_ROW = np.array([0.0, 0.0, 0.0, 0.0, [1, 2]], dtype=object)

# each routine's checks on its own arguments: (call, error, message)
BAD_ARGUMENTS = {
    "axiom_suite_samples": (lambda mech, lat: axiom_suite(mech, lat, samples=0),
                            InvalidParams, "samples must be >= 1"),
    "axiom_suite_short_lattice": (
        lambda mech, lat: axiom_suite(as_mechanism(abs_z_generator(0.3), LAT2), LAT2,
                                      samples=4),
        InvalidParams, "lattice must have at least 3 steps for nested checks"),
    "doob_meyer_no_step": (
        lambda mech, lat: doob_meyer(domination_generator(0.3),
                                     AdaptedProcess(lat, 16, [np.zeros(17)]), None, lat),
        StepOutOfRange, "need at least one step to decompose"),
    "represent_no_mu": (lambda mech, lat: represent(_no_mu(mech), WALK, None, lat),
                        InvalidParams, "mechanism must declare a domination constant mu"),
    "z_probe_empty_window": (lambda mech, lat: z_probe(mech, 1.0, 8, 8),
                             StepOutOfRange, r"need 0 <= t=8 < T=8"),
    "infinitesimal_probe_no_step": (lambda mech, lat: _probe(mech, eps_steps=0),
                                    InvalidParams, "eps_steps must be >= 1"),
    "infinitesimal_probe_past_horizon": (
        lambda mech, lat: _probe(mech, eps_steps=4, t_step=13),
        StepOutOfRange, "probe window exceeds the lattice horizon"),
    "build_probe_path_negative_step": (
        lambda mech, lat: build_probe_path(lat, -1, 0.0, 1.0, 0.3),
        StepOutOfRange, "probe step -1 is negative"),
    "infinitesimal_probe_negative_step": (
        lambda mech, lat: _probe(mech, eps_steps=2, t_step=-1),
        StepOutOfRange, "probe step -1 is negative"),
    "build_probe_path_last_step": (
        lambda mech, lat: build_probe_path(lat, 16, 0.0, 1.0, 0.3),
        StepOutOfRange, "probe step must fit inside the lattice"),
    "build_probe_path_unequal_lengths": (
        lambda mech, lat: build_probe_path(lat, 4, [1.0, 2.0], [1.0, 2.0, 3.0], 0.3),
        StepOutOfRange, r"probe y and z must be two floats or two \(P,\) arrays, "
                        r"got shapes \(2,\) and \(3,\)"),
    "build_probe_path_column_y": (
        lambda mech, lat: build_probe_path(lat, 4, np.zeros((2, 1)), np.zeros(3), 0.3),
        StepOutOfRange, r"probe y and z must be two floats or two \(P,\) arrays, "
                        r"got shapes \(2, 1\) and \(3,\)"),
    "recover_generator_no_mu": (
        lambda mech, lat: recover_generator(_no_mu(mech), 4, [(0.0, 1.0)], lat),
        InvalidParams, "mechanism must declare a domination constant mu"),
    "recover_generator_negative_level": (
        lambda mech, lat: recover_generator(mech, -1, [(0.0, 1.0)], lat),
        InvalidParams, "level must be >= 0, got -1"),
    "recover_generator_level_off_the_grid": (
        lambda mech, lat: recover_generator(mech, 5, [(0.0, 1.0)], lat),
        InvalidParams, r"lattice step count 16 is not divisible by 2\^5"),
    "recover_generator_no_points": (lambda mech, lat: recover_generator(mech, 4, [], lat),
                                    InvalidParams, "need at least one sample point"),
    "verify_main_theorem_no_mu": (
        lambda mech, lat: verify_main_theorem(_no_mu(mech), lat, samples=4, level=4),
        InvalidParams, "mechanism must declare a domination constant mu"),
    "verify_main_theorem_descending_ys": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, level=4, ys=(1.0, -1.0)),
        InvalidParams, r"ys must be strictly increasing, got \[1\.0, -1\.0\]"),
    "verify_main_theorem_repeated_zs": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, level=4, zs=(0, 0)),
        InvalidParams, r"zs must be strictly increasing, got \[0\.0, 0\.0\]"),
    "verify_main_theorem_no_ys": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, level=4, ys=()),
        InvalidParams, "ys must hold at least one value"),
    "verify_main_theorem_no_zs": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, level=4, zs=[]),
        InvalidParams, "zs must hold at least one value"),
    # a count that is not an integer, also a float numpy scalar, is named
    "axiom_suite_fractional_samples": (lambda mech, lat: axiom_suite(mech, lat, samples=2.5),
                                       InvalidParams, "samples must be an integer >= 1"),
    "axiom_suite_numpy_float_samples": (
        lambda mech, lat: axiom_suite(mech, lat, samples=np.float64(3.0)),
        InvalidParams, "samples must be an integer >= 1"),
    "verify_main_theorem_fractional_samples": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=2.5, level=4),
        InvalidParams, "samples must be an integer >= 1"),
    "classify_generator_fractional_samples": (
        lambda mech, lat: classify_generator(abs_z_generator(0.3), 2.5),
        InvalidParams, "samples must be an integer >= 1"),
    "verify_lipschitz_fractional_samples": (
        lambda mech, lat: verify_lipschitz(abs_z_generator(0.3), np.float64(3.0)),
        InvalidParams, "samples must be an integer >= 1"),
    "infinitesimal_probe_fractional_steps": (lambda mech, lat: _probe(mech, eps_steps=2.5),
                                             InvalidParams, "eps_steps must be an integer >= 1"),
    "handle_nan_mu": (lambda mech, lat: MechanismHandle(lat, mech.price_at, mu=float("nan")),
                      InvalidParams, "mu must be finite, got nan"),
    "handle_inf_mu": (lambda mech, lat: MechanismHandle(lat, mech.price_at, mu=float("inf")),
                      InvalidParams, "mu must be finite, got inf"),
    "handle_negative_mu": (lambda mech, lat: MechanismHandle(lat, mech.price_at, mu=-0.5),
                           NegativeMu, r"mu must be >= 0, got -0\.5"),
    "price_rows_ragged": (lambda mech, lat: mech.price_rows(0, 16, [np.zeros(17), np.zeros(16)]),
                          StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "price_rows_of_a_black_box_ragged": (
        lambda mech, lat: _no_mu(mech).price_rows(0, 16, [np.zeros(16), np.zeros(17)]),
        StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "price_surfaces_ragged": (
        lambda mech, lat: mech.price_surfaces(16, [np.zeros(17), [0.0] * 16]),
        StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "solve_terminal_batch_ragged": (
        lambda mech, lat: solve_terminal_batch(abs_z_generator(0.3), [np.zeros(17), np.zeros(4)],
                                               lat),
        StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "claim_from_values_ragged": (
        lambda mech, lat: claim_from_values(lat, 2, [0.0, [1.0, 2.0], 0.0]),
        StepOutOfRange, "need 3 node values, got a ragged sequence"),
    "price_rows_nested_row": (
        lambda mech, lat: mech.price_rows(0, 16, [np.zeros(17), [0.0] * 16 + [[1.0, 2.0]]]),
        StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "price_rows_two_nested_rows": (
        lambda mech, lat: mech.price_rows(0, 16, [[0.0] * 16 + [[1.0, 2.0]]] * 2),
        StepOutOfRange, "rows must have 17 entries, got a ragged sequence"),
    "claim_from_values_nested_entry": (
        lambda mech, lat: claim_from_values(lat, 2, [0.0, [1.0, [2.0, 3.0]], 0.0]),
        StepOutOfRange, "need 3 node values, got a ragged sequence"),
    "price_rows_object_rows_nested": (
        lambda mech, lat: mech.price_rows(0, 4, [OBJECT_ROW, OBJECT_ROW.copy()]),
        StepOutOfRange, "rows must have 5 entries, got a ragged sequence"),
    "price_rows_object_batch_nested": (
        lambda mech, lat: mech.price_rows(0, 4, np.array([OBJECT_ROW, OBJECT_ROW.copy()])),
        StepOutOfRange, "rows must have 5 entries, got a ragged sequence"),
    "claim_from_values_object_row_nested": (
        lambda mech, lat: claim_from_values(LAT4, 4, OBJECT_ROW),
        StepOutOfRange, "need 5 node values, got a ragged sequence"),
    "price_rows_strings": (lambda mech, lat: mech.price_rows(0, 4, [["a"] * 5]),
                           ValueError, "could not convert string to float: 'a'"),
    "price_rows_wrong_width": (
        lambda mech, lat: mech.price_rows(0, 16, np.zeros((2, 16))),
        StepOutOfRange, r"rows must have 17 entries, got shape \(2, 16\)"),
    # a step, level or count index must be an integer that is no bool
    "price_at_fractional_step": (lambda mech, lat: mech.price_at(1.5, 4, WALK),
                                 InvalidParams, "s_step must be an integer, got 1.5"),
    "price_rows_fractional_step": (lambda mech, lat: mech.price_rows(1.5, 4, np.zeros((1, 5))),
                                   InvalidParams, "s_step must be an integer, got 1.5"),
    "price_surface_float_step": (lambda mech, lat: mech.price_surface(2.0, WALK),
                                 InvalidParams, "t_step must be an integer, got 2.0"),
    "price_surfaces_bool_step": (lambda mech, lat: mech.price_surfaces(True, np.zeros((1, 2))),
                                 InvalidParams, "t_step must be an integer, got True"),
    "solve_bsde_fractional_step": (
        lambda mech, lat: solve_bsde(abs_z_generator(0.3), WALK, None, lat, t_step=3.5),
        InvalidParams, "t_step must be an integer, got 3.5"),
    "grid_time_fractional_step": (lambda mech, lat: lat.grid.time(2.5),
                                  InvalidParams, "step must be an integer, got 2.5"),
    "node_values_fractional_step": (lambda mech, lat: lat.node_values(1.5),
                                    InvalidParams, "step must be an integer, got 1.5"),
    "claim_values_numpy_bool_step": (lambda mech, lat: WALK.values(lat, np.True_),
                                     InvalidParams, "step must be an integer, got True"),
    "build_grid_fractional_steps": (lambda mech, lat: build_grid(0.0, 1.0, 2.7),
                                    InvalidParams, "n_steps must be an integer, got 2.7"),
    "recover_generator_float_level": (
        lambda mech, lat: recover_generator(mech, 1.0, [(0.0, 1.0)], lat),
        InvalidParams, "level must be an integer, got 1.0"),
    "recover_generator_bool_level": (
        lambda mech, lat: recover_generator(mech, True, [(0.0, 1.0)], lat),
        InvalidParams, "level must be an integer, got True"),
    "verify_main_theorem_bool_level": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, level=True),
        InvalidParams, "level must be an integer, got True"),
    "axiom_suite_bool_samples": (lambda mech, lat: axiom_suite(mech, lat, samples=True),
                                 InvalidParams, "samples must be an integer >= 1"),
    "verify_lipschitz_bool_samples": (
        lambda mech, lat: verify_lipschitz(abs_z_generator(0.3), True),
        InvalidParams, "samples must be an integer >= 1"),
    "classify_generator_numpy_bool_samples": (
        lambda mech, lat: classify_generator(abs_z_generator(0.3), np.True_),
        InvalidParams, "samples must be an integer >= 1"),
    "infinitesimal_probe_bool_steps": (lambda mech, lat: _probe(mech, eps_steps=True),
                                       InvalidParams, "eps_steps must be an integer >= 1"),
    "infinitesimal_probe_fractional_step": (
        lambda mech, lat: _probe(mech, eps_steps=2, t_step=1.5),
        InvalidParams, "t_step must be an integer, got 1.5"),
    "build_probe_path_fractional_step": (
        lambda mech, lat: build_probe_path(lat, 2.5, 0.0, 1.0, 0.3),
        InvalidParams, "t_step must be an integer, got 2.5"),
    "z_probe_fractional_step": (lambda mech, lat: z_probe(mech, 1.0, 2.5, 8),
                                InvalidParams, "t_step must be an integer, got 2.5"),
    # a seed must be an integer >= 0
    "axiom_suite_negative_seed": (lambda mech, lat: axiom_suite(mech, lat, samples=4, seed=-1),
                                  InvalidParams, "seed must be an integer >= 0, got -1"),
    "axiom_suite_fractional_seed": (
        lambda mech, lat: axiom_suite(mech, lat, samples=4, seed=2.5),
        InvalidParams, r"seed must be an integer >= 0, got 2\.5"),
    "verify_main_theorem_negative_seed": (
        lambda mech, lat: verify_main_theorem(mech, lat, samples=4, seed=-1, level=4),
        InvalidParams, "seed must be an integer >= 0, got -1"),
    "verify_lipschitz_negative_seed": (
        lambda mech, lat: verify_lipschitz(abs_z_generator(0.3), 4, seed=-1),
        InvalidParams, "seed must be an integer >= 0, got -1"),
    "classify_generator_bool_seed": (
        lambda mech, lat: classify_generator(abs_z_generator(0.3), 4, seed=True),
        InvalidParams, "seed must be an integer >= 0, got True"),
    "synth_chain_negative_seed": (
        lambda mech, lat: synth_chain(BSMarketParams(r=0.05, b=0.05, sigma=0.2), 100.0,
                                      [90.0, 110.0], 0.0, 0.25, seed=-1, noise=0.5),
        InvalidParams, "seed must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("name", list(BAD_ARGUMENTS))
def test_bad_argument_is_named(name, lat16):
    call, error, message = BAD_ARGUMENTS[name]
    with pytest.raises(error, match=rf"^{message}$"):
        call(as_mechanism(abs_z_generator(0.3), lat16), lat16)


def test_a_bad_seed_asks_no_price(lat16):
    # the seed is checked with the other arguments, before the black box is called
    box, calls = price_at_only(as_mechanism(abs_z_generator(0.3), lat16))
    for run in (lambda: axiom_suite(box, lat16, samples=4, seed=-1),
                lambda: verify_main_theorem(box, lat16, samples=4, seed=2.5, level=4)):
        with pytest.raises(InvalidParams, match="^seed must be an integer >= 0, got "):
            run()
    assert calls == []


def test_a_numpy_integer_count_is_a_count(lat16):
    mech = as_mechanism(abs_z_generator(0.3), lat16)
    assert (axiom_suite(mech, lat16, samples=np.int64(3), seed=2).as_dict()
            == axiom_suite(mech, lat16, samples=3, seed=2).as_dict())
    g = abs_z_generator(0.3)
    assert verify_lipschitz(g, np.int32(5)) == verify_lipschitz(g, 5)
    assert classify_generator(g, np.uint8(5)) == classify_generator(g, 5)
    # and so is a numpy integer step or seed, also an unsigned one
    assert (mech.price_rows(np.uint8(2), np.uint8(4), np.ones((1, 5))).tobytes()
            == mech.price_rows(2, 4, np.ones((1, 5))).tobytes())
    assert verify_lipschitz(g, 5, seed=np.uint8(3)) == verify_lipschitz(g, 5, seed=3)


# each reader of a driver's answers on 8 steps: its call and the place it names
DRIVER_READERS = {
    "verify_lipschitz": (lambda g, lat, y: verify_lipschitz(g, 10).worst_ratio,
                         r"t=\S+, y=\S+, z=\S+, expected \(\)"),
    "classify_generator": (lambda g, lat, y: classify_generator(g, 10).as_dict(),
                           r"t=\S+, y=\S+, z=\S+, expected \(\)"),
    "price_rows": (lambda g, lat, y: as_mechanism(g, lat).price_rows(
        0, 8, np.zeros((2, 9))).tolist(), r"step 7, expected \(2, 8\)"),
    "doob_meyer": (lambda g, lat, y: [v.tolist() for v in doob_meyer(
        g, y, None, lat).increments.slices], r"step 1, expected \(2,\)"),
}


@pytest.mark.parametrize("reader", list(DRIVER_READERS))
def test_a_driver_answer_of_another_shape_is_named(reader, lat8):
    # an answer numpy cannot use is named by its shape, its place and the shape
    # needed; a scalar answer reads as the array of its value
    call, at = DRIVER_READERS[reader]
    scalar = Generator(fn=lambda t, y, z: 0.05, mu=0.1)
    full = Generator(fn=lambda t, y, z: np.full(np.broadcast(y, z).shape, 0.05), mu=0.1)
    y = solve_bsde(scalar, WALK, None, lat8).y
    with pytest.raises(StepOutOfRange, match=rf"^driver returned shape \(3,\) at {at}$"):
        call(Generator(fn=lambda t, y, z: np.zeros(3), mu=0.1), lat8, y)
    assert call(scalar, lat8, y) == call(full, lat8, y)


@pytest.mark.parametrize("name", ["mu", "lattice"])
def test_handle_declarations_are_read_only(name, lat16):
    # a verdict reads mu and lattice as the handle was built: neither can change under it
    mech = as_mechanism(abs_z_generator(0.3), lat16)
    for handle in (mech, _no_mu(mech)):
        before = getattr(handle, name)
        with pytest.raises(AttributeError):
            setattr(handle, name, float("nan"))
        assert getattr(handle, name) is before


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

    def test_black_box_rebuild_matches_the_kernel_handle(self):
        # a price_at-only handle prices the rebuild claims one surface per
        # claim inside price_surfaces; its verdict is the kernel handle's
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        mech = as_mechanism(random_lipschitz_generator(np.random.default_rng(61)), lat)
        calls = []

        def price_at(s, t, claim, dividends=None):
            calls.append((s, t))
            return mech.price_at(s, t, claim, dividends)

        plain = MechanismHandle(lat, price_at, mu=mech.mu)
        want = verify_main_theorem(mech, lat, samples=5, seed=17, level=4)
        got = verify_main_theorem(plain, lat, samples=5, seed=17, level=4)
        assert got.max_discrepancy == want.max_discrepancy > 0.0
        assert got.recovered.table.tobytes() == want.recovered.table.tobytes()
        # the rebuild leg is the last 5 surfaces, one price_at per step each
        assert calls[-5 * 17:] == [(s, 16) for s in range(17)] * 5

    def test_zero_samples_raise(self, lat16):
        mech = as_mechanism(abs_z_generator(0.3), lat16)
        with pytest.raises(InvalidParams, match="^samples must be >= 1$"):
            verify_main_theorem(mech, lat16, samples=0, level=4)

    @pytest.mark.parametrize("steps, level", [(48, 4), (96, 5), (100, 2), (64, 6)])
    def test_default_level_divides_the_step_count(self, steps, level):
        # the largest level whose dyadic times all sit on the grid, also when
        # the step count is not a power of 2
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        verdict = verify_main_theorem(as_mechanism(abs_z_generator(0.3), lat), samples=2)
        assert verdict.recovered.level == level
        assert verdict.passed()

    @pytest.mark.parametrize("steps, level, mu, error, message", [
        (16, 5, 0.3, InvalidParams, r"lattice step count 16 is not divisible by 2\^5"),
        (16, -1, 0.3, InvalidParams, "level must be >= 0, got -1"),
        (4, 2, 1.9, SchemeNotMonotone, r"mu \* \(sqrt\(dt\) \+ dt\) = 1\.425 > 1; "
                                       "refine the grid or lower mu"),
    ], ids=["level_off_the_grid", "negative_level", "scheme_not_monotone"])
    def test_bad_level_or_mu_raises_before_any_price(self, steps, level, mu, error, message):
        # the recovery's own checks run before the law suite and domination
        # legs ask the black box for prices
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        base = as_mechanism(zero_generator(), lat)
        calls = []

        def price_at(s, t, claim, dividends=None):
            calls.append((s, t))
            return base.price_at(s, t, claim, dividends)

        with pytest.raises(error, match=rf"^{message}$"):
            verify_main_theorem(MechanismHandle(lat, price_at, mu=mu), lat, samples=4,
                                level=level)
        assert calls == []

    @pytest.mark.parametrize("axis", ["ys", "zs"])
    @pytest.mark.parametrize("steps", [8, 16])
    def test_empty_axis_raises_before_any_price(self, axis, steps):
        # an empty axis is named before the law suite and the domination legs
        # ask the black box for any price
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        base = as_mechanism(zero_generator(), lat)
        calls = []

        def price_at(s, t, claim, dividends=None):
            calls.append((s, t))
            return base.price_at(s, t, claim, dividends)

        with pytest.raises(InvalidParams, match=rf"^{axis} must hold at least one value$"):
            verify_main_theorem(MechanismHandle(lat, price_at, mu=0.3), lat, samples=4,
                                level=2, **{axis: ()})
        assert calls == []

    def test_undominated_black_box_fails_domination(self, lat16):
        # its one-step prices are the extremal driver's, so recovery returns a
        # verdict; over two steps or more its spread escapes the mu-driver's cap
        base = as_mechanism(domination_generator(0.5), lat16)

        def price_at(s, t, claim, dividends=None):
            vals = base.price_at(s, t, claim, dividends)
            return 1.5 * vals if t - s >= 2 else vals

        rogue = MechanismHandle(lat16, price_at, mu=0.5)
        verdict = verify_main_theorem(rogue, samples=4, seed=3, level=4)
        assert not verdict.domination_ok
        assert not verdict.passed()
