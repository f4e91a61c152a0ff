"""Backward solver, pricing operator, pasting, and order verdicts."""

import dataclasses

import numpy as np
import pytest

from gmech import (
    BadPartition,
    BadStepOrder,
    BSMarketParams,
    ContractionViolation,
    DividendStream,
    Generator,
    MechanismHandle,
    NonFiniteValue,
    PicardDivergence,
    SchemeNotMonotone,
    StepOutOfRange,
    TerminalClaim,
    abs_z_generator,
    as_mechanism,
    black_scholes_generator,
    build_grid,
    build_lattice,
    check_domination,
    claim_from_values,
    compare,
    domination_generator,
    doob_meyer,
    linear_generator,
    make_underlying_map,
    paste,
    price,
    sign_flip_check,
    solve_bsde,
    solve_terminal_batch,
    zero_generator,
)

from util import (
    BS_CALL_ATM,
    affine_binomial_price,
    increasing_stream,
    ordered_claim_pair,
    random_lipschitz_generator,
    random_pwl_claim,
    signed_stream,
)

WALK = TerminalClaim(lambda b: np.asarray(b, dtype=float), name="walk")
ZERO = TerminalClaim(lambda b: np.zeros_like(np.asarray(b, dtype=float)), name="0")


class TestSolveBsde:
    def test_walk_prices_to_zero_under_zero_driver(self, lat4):
        res = solve_bsde(zero_generator(), WALK, None, lat4)
        assert res.y.at(0)[0] == 0.0

    def test_terminal_condition_bitwise(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(0))
        res = solve_bsde(domination_generator(0.4), claim, None, lat8)
        assert np.array_equal(res.y.at(8), claim.values(lat8, 8))

    def test_hedge_only_driver_closed_form(self):
        # linear payoff zbar * B_T under a z-only driver: every node value is
        # zbar * B + g(zbar) * (T - t), and the hedge slice is constant zbar
        lat = build_lattice(build_grid(0.0, 1.0, 16))
        g = abs_z_generator(0.1)
        zbar = 2.0
        claim = TerminalClaim(lambda b: zbar * np.asarray(b, dtype=float))
        res = solve_bsde(g, claim, None, lat)
        assert res.y.at(0)[0] == pytest.approx(0.2, abs=1e-12)
        for i in range(17):
            want = zbar * lat.node_values(i) + 0.2 * (1.0 - lat.grid.time(i))
            assert np.allclose(res.y.at(i), want, atol=1e-12, rtol=0)
        for i in range(16):
            assert np.allclose(res.z.at(i), zbar, atol=1e-12, rtol=0)

    def test_black_scholes_call(self):
        lat = build_lattice(build_grid(0.0, 1.0, 500))
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        g = black_scholes_generator(params)
        to_price = make_underlying_map(100.0, 0.2, 1.0, drift=0.08)
        claim = TerminalClaim(lambda b: np.maximum(to_price(b) - 100.0, 0.0))
        res = solve_bsde(g, claim, None, lat)
        assert res.y.at(0)[0] == pytest.approx(BS_CALL_ATM, abs=0.02)

    def test_grid_refinement_improves_the_call_price(self):
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        g = black_scholes_generator(params)
        to_price = make_underlying_map(100.0, 0.2, 1.0, drift=0.08)
        claim = TerminalClaim(lambda b: np.maximum(to_price(b) - 100.0, 0.0))
        errs = []
        for n in (100, 400, 1600):
            lat = build_lattice(build_grid(0.0, 1.0, n))
            got = solve_bsde(g, claim, None, lat).y.at(0)[0]
            errs.append(abs(got - BS_CALL_ATM))
        assert errs[2] < errs[1] < errs[0]

    def test_black_scholes_forward_claim_prices_to_spot(self):
        # replication of the bare terminal stock must cost the spot: the
        # discount and the drift adjustment cancel without arbitrage
        lat = build_lattice(build_grid(0.0, 1.0, 500))
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        mech = as_mechanism(black_scholes_generator(params), lat)
        to_price = make_underlying_map(100.0, params.sigma, 1.0, drift=params.b)
        fwd = mech.price_at(0, 500, TerminalClaim(lambda b: to_price(b)))
        assert fwd[0] == pytest.approx(100.0, abs=1e-3)

    def test_one_step_relation_residual(self, lat8):
        g = domination_generator(0.5)
        claim = random_pwl_claim(np.random.default_rng(1))
        stream = increasing_stream(np.random.default_rng(2), lat8)
        res = solve_bsde(g, claim, stream, lat8)
        assert res.residual <= 1e-12
        for i in range(8):
            nxt = res.y.at(i + 1)
            m = 0.5 * (nxt[1:] + nxt[:-1])
            relation = (m + g(lat8.grid.time(i), res.y.at(i), res.z.at(i)) * lat8.dt
                        + stream.increment(i))
            assert np.allclose(res.y.at(i), relation, atol=1e-11, rtol=0)
        # the z read back off y is the one the closed-form step was given
        closed_form = [zero_generator(), g, abs_z_generator(0.3),
                       linear_generator(0.3, -0.4),
                       black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2))]
        for h in closed_form:
            res = solve_bsde(h, claim, stream, lat8)
            for i in range(8):
                nxt = res.y.at(i + 1)
                m = 0.5 * (nxt[1:] + nxt[:-1])
                step = h.exact_step(lat8.grid.time(i), m, res.z.at(i),
                                    stream.increment(i), lat8.dt)
                assert np.asarray(step).tobytes() == res.y.at(i).tobytes()

    def test_zero_step_solve_has_one_zero_hedge_slice(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(4))
        res = solve_bsde(domination_generator(0.4), claim, None, lat8,
                         t_step=5, s_step=5)
        assert (res.z.start, res.z.stop) == (5, 5)
        assert np.array_equal(res.z.at(5), np.zeros(6))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_affine_driver_matches_binomial_oracle(self, n):
        rng = np.random.default_rng(n)
        lat = build_lattice(build_grid(0.0, 1.0, n))
        a, b = rng.uniform(-0.5, 0.5, size=2)
        claim = random_pwl_claim(rng)
        got = solve_bsde(linear_generator(a, b), claim, None, lat).y.at(0)[0]
        assert got == pytest.approx(affine_binomial_price(lat, claim, a, b),
                                    abs=1e-12, rel=0)

    def test_power_claim_converges_at_order_one(self):
        # S_T^2 under the Black-Scholes driver prices to s0^2 exp((r + sigma^2) T);
        # binomial BSDE schemes converge at order 1 in 1/n (Briand, Delyon and
        # Memin, ECP 2001).  A smooth payoff keeps the error free of the
        # strike-grid oscillation a call payoff shows.
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        s0, horizon = 100.0, 1.0
        stock = make_underlying_map(s0, params.sigma, horizon, params.b)
        power = TerminalClaim(lambda b: stock(b) ** 2, name="power")
        want = s0 ** 2 * np.exp((params.r + params.sigma ** 2) * horizon)
        ns = [32, 64, 128, 256, 512, 1024]
        errs = []
        for n in ns:
            lat = build_lattice(build_grid(0.0, horizon, n))
            got = solve_bsde(black_scholes_generator(params), power, None, lat).y.at(0)[0]
            errs.append(abs(got - want))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), ratios
        order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.95 <= order <= 1.05, order

    def test_contraction_guard(self):
        lat = build_lattice(build_grid(0.0, 1.0, 2))  # dt = 0.5
        with pytest.raises(ContractionViolation):
            solve_bsde(domination_generator(2.5), WALK, None, lat)

    def test_divergent_iteration_is_reported(self):
        # a driver whose declared constant understates the true slope slips
        # past the contraction guard but blows up the fixed-point iteration
        lat = build_lattice(build_grid(0.0, 1.0, 4))
        lying = Generator(fn=lambda t, y, z: 10.0 * np.asarray(y, float),
                          mu=0.1, name="understated")
        with pytest.raises(PicardDivergence,
                           match=r"stuck at residual \S+ at step 3, node \d+ \(t="):
            solve_bsde(lying, WALK, None, lat)

    def test_divergent_batch_row_is_named(self):
        # the all-zero row converges at once and is frozen; only row 1 diverges
        lat = build_lattice(build_grid(0.0, 1.0, 4))
        lying = Generator(fn=lambda t, y, z: 10.0 * np.asarray(y, float),
                          mu=0.1, name="understated")
        rows = np.stack([np.zeros(5), WALK.values(lat, 4)])
        with pytest.raises(PicardDivergence, match=r"at step 3, row 1, node \d+ "):
            solve_terminal_batch(lying, rows, lat)
        with pytest.raises(PicardDivergence, match=r"at step 3, row 1, node \d+ "):
            as_mechanism(lying, lat).price_rows(0, 4, rows)

    def test_batch_matches_single(self, lat8):
        rng = np.random.default_rng(3)
        g = domination_generator(0.4)
        claims = [random_pwl_claim(rng) for _ in range(5)]
        terminal = np.stack([c.values(lat8, 8) for c in claims])
        batch = solve_terminal_batch(g, terminal, lat8)
        for k, c in enumerate(claims):
            # closed-form rows run the surface solve's kernel: bitwise equal
            assert batch[k] == solve_bsde(g, c, None, lat8).y.at(0)[0]
        # each Picard row stops on its own residual and is then frozen, so
        # it takes the iterates of its single solve: bitwise equal too
        g = random_lipschitz_generator(rng)
        batch = solve_terminal_batch(g, terminal, lat8)
        for k, c in enumerate(claims):
            assert batch[k] == solve_bsde(g, c, None, lat8).y.at(0)[0]


BUILT_IN_DRIVERS = [
    zero_generator(),
    domination_generator(0.4),
    abs_z_generator(0.3),
    linear_generator(-0.25, 0.35),
    black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2)),
]


@pytest.mark.parametrize("g", BUILT_IN_DRIVERS, ids=lambda g: g.name)
def test_closed_form_matches_picard(g, lat16):
    rng = np.random.default_rng(17)
    picard = dataclasses.replace(g, exact_step=None)
    for _ in range(4):
        claim = random_pwl_claim(rng, bound=2.0, slope=2.0)
        stream = signed_stream(rng, lat16, scale=0.5)
        exact = solve_bsde(g, claim, stream, lat16)
        iterated = solve_bsde(picard, claim, stream, lat16)
        assert iterated.picard_iters > 1
        for i in range(17):
            gap = np.max(np.abs(exact.y.at(i) - iterated.y.at(i)))
            assert gap <= 1e-12, (i, gap)


@pytest.mark.parametrize(
    "g", BUILT_IN_DRIVERS + [random_lipschitz_generator(np.random.default_rng(23))],
    ids=lambda g: g.name)
def test_price_rows_matches_price_at(g, lat16):
    rng = np.random.default_rng(29)
    mech = as_mechanism(g, lat16)
    pairs = [(0, 0), (0, 16), (7, 7), (16, 16), (15, 16)]
    pairs += [tuple(sorted(int(v) for v in rng.integers(0, 17, size=2))) for _ in range(8)]
    pairs += [(0, int(t)) for t in rng.integers(1, 17, size=3)]
    for s, t in pairs:
        rows = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), t + 1))
        got = mech.price_rows(s, t, rows)
        want = np.stack([mech.price_at(s, t, claim_from_values(lat16, t, row))
                         for row in rows])
        assert got.shape == want.shape == (rows.shape[0], s + 1)
        assert got.tobytes() == want.tobytes(), (s, t)


def _price_at_only(mech):
    """The same mechanism behind a handle that has ``price_at`` alone."""
    calls = []

    def price_at(s, t, claim, dividends=None):
        calls.append((s, t))
        return mech.price_at(s, t, claim, dividends)

    return MechanismHandle(mech.lattice, price_at, mu=mech.mu, name="plain"), calls


def test_price_rows_default_loops_over_price_at(lat8):
    rng = np.random.default_rng(31)
    mech = as_mechanism(random_lipschitz_generator(rng), lat8)
    plain, calls = _price_at_only(mech)
    for s, t in ((2, 6), (0, 8), (5, 5)):
        rows = rng.uniform(-2.0, 2.0, size=(3, t + 1))
        calls.clear()
        assert plain.price_rows(s, t, rows).tobytes() == mech.price_rows(s, t, rows).tobytes()
        assert calls == [(s, t)] * 3
    assert plain.price_rows(1, 3, np.zeros((0, 4))).shape == (0, 2)


def test_rows_price_at_and_surface_agree_with_dividends(lat16):
    # the three pricing forms of every handle kind, with a payout stream
    rng = np.random.default_rng(37)
    picard = as_mechanism(random_lipschitz_generator(rng), lat16)
    abs_z = as_mechanism(abs_z_generator(0.3), lat16)
    handles = {"picard": picard, "abs_z": abs_z,
               "picard_price_at_only": _price_at_only(picard)[0],
               "abs_z_price_at_only": _price_at_only(abs_z)[0],
               "paste": paste([picard, abs_z], [0, 6, 16])}
    stream = signed_stream(rng, lat16)
    pairs = [(0, 0), (5, 5), (16, 16), (0, 16), (0, 7), (6, 6), (3, 12)]
    pairs += [tuple(sorted(int(v) for v in rng.integers(0, 17, size=2))) for _ in range(6)]
    for s, t in pairs:
        row = rng.uniform(-2.0, 2.0, size=t + 1)
        claim = claim_from_values(lat16, t, row)
        for name, mech in handles.items():
            by_rows = mech.price_rows(s, t, [row], stream)[0]
            by_price_at = mech.price_at(s, t, claim, stream)
            by_surface = mech.price_surface(t, claim, stream).at(s)
            assert by_rows.tobytes() == by_price_at.tobytes() == by_surface.tobytes(), (name, s, t)
        # inside one segment the pasted handle is that segment's mechanism
        segment = picard if t <= 6 else abs_z if s >= 6 else None
        if segment is not None:
            want = segment.price_rows(s, t, [row], stream)
            assert handles["paste"].price_rows(s, t, [row], stream).tobytes() == want.tobytes()


def test_price_rows_validation(lat8):
    mech = as_mechanism(domination_generator(0.3), lat8)
    for handle in (mech, _price_at_only(mech)[0]):
        with pytest.raises(BadStepOrder):
            handle.price_rows(5, 4, np.zeros((1, 5)))
        with pytest.raises(BadStepOrder):
            handle.price_rows(0, 9, np.zeros((1, 10)))
        with pytest.raises(StepOutOfRange, match="5 entries"):
            handle.price_rows(2, 4, np.zeros((2, 6)))
        with pytest.raises(StepOutOfRange, match="5 entries"):
            handle.price_rows(2, 4, np.zeros(5))
        rows = np.zeros((3, 5))
        rows[2, 1] = np.nan
        with pytest.raises(NonFiniteValue, match="at step 4, row 2, node 1$"):
            handle.price_rows(0, 4, rows)


def test_price_surface_validation(lat8):
    # a black box used to return an empty surface for a negative maturity
    mech = as_mechanism(domination_generator(0.3), lat8)
    for handle in (mech, _price_at_only(mech)[0]):
        for t in (-1, 9):
            with pytest.raises(BadStepOrder, match=rf"^need 0 <= s=0 <= t={t} <= 8$"):
                handle.price_surface(t, WALK)


def test_black_box_output_is_checked(lat8):
    def price_at(s, t, claim, dividends=None):
        # inf at the last node of the claim that pays 1 everywhere
        out = np.zeros(s + 1)
        out[-1] = np.inf if claim.values(lat8, t)[0] == 1.0 else 0.0
        return out

    inf_box = MechanismHandle(lat8, price_at, mu=0.3)
    with pytest.raises(NonFiniteValue, match=r"^mechanism price is inf at step 2, row 1, node 2$"):
        inf_box.price_rows(2, 4, [np.zeros(5), np.ones(5)])
    short = MechanismHandle(lat8, lambda s, t, c, d=None: np.zeros(s), mu=0.3)
    with pytest.raises(StepOutOfRange, match=r"shape \(2,\) at step 2, expected \(3,\)"):
        short.price_at(2, 4, WALK)
    with pytest.raises(StepOutOfRange, match=r"shape \(2,\) at step 2, expected \(3,\)"):
        short.price_rows(2, 4, np.zeros((1, 5)))


class TestNonFiniteValues:
    def test_nan_driver_stops_the_iteration(self, lat8):
        calls = []

        def nan_fn(t, y, z):
            calls.append(t)
            return np.full(np.shape(y), np.nan)

        g = Generator(fn=nan_fn, mu=0.1, name="nan")
        with pytest.raises(NonFiniteValue, match=r"at step 7, node 0"):
            solve_bsde(g, WALK, None, lat8)
        assert len(calls) == 1

    def test_nan_batch_rows(self, lat8):
        terminal = np.zeros((3, 9))
        terminal[1, 4] = np.nan
        for g in (domination_generator(0.4), random_lipschitz_generator(
                np.random.default_rng(8))):
            with pytest.raises(NonFiniteValue, match=r"at step 8, row 1, node 4"):
                solve_terminal_batch(g, terminal, lat8)

    def test_closed_form_non_finite_is_located(self, lat8):
        arrays = [np.zeros(i + 1) for i in range(8)]
        arrays[5][2] = np.inf
        stream = DividendStream.from_arrays(lat8, arrays)
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteValue, match=r"price is inf at step 5, node 2"):
            solve_bsde(domination_generator(0.4), WALK, stream, lat8)

    def test_non_finite_claim(self, lat8):
        claim = TerminalClaim(lambda b: np.where(np.asarray(b) > 0, np.nan, 0.0),
                              name="half-nan")
        with pytest.raises(NonFiniteValue, match=r"at step 8, node 5"):
            solve_bsde(zero_generator(), claim, None, lat8)


class TestPrice:
    def test_identity_at_own_maturity(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(4))
        got = price(zero_generator(), 5, 5, claim, None, lat8)
        assert np.array_equal(got, claim.values(lat8, 5))

    def test_annuity(self, lat8):
        stream = DividendStream.from_rate(lat8, 3.0)
        got = price(zero_generator(), 0, 8, ZERO, stream, lat8)
        assert got[0] == pytest.approx(3.0, abs=1e-12)

    def test_nested_composition(self, lat16):
        rng = np.random.default_rng(5)
        g = random_lipschitz_generator(rng)
        claim = random_pwl_claim(rng)
        stream = signed_stream(rng, lat16)
        inner = price(g, 9, 16, claim, stream, lat16)
        nested = price(g, 3, 9, claim_from_values(lat16, 9, inner), stream, lat16)
        direct = price(g, 3, 16, claim, stream, lat16)
        assert np.allclose(nested, direct, atol=1e-10, rtol=0)

    def test_bad_step_order(self, lat8):
        with pytest.raises(BadStepOrder):
            price(zero_generator(), 5, 3, WALK, None, lat8)


class TestPaste:
    def test_self_paste_is_identity(self, lat8):
        g = domination_generator(0.3)
        mech = as_mechanism(g, lat8)
        pasted = paste([mech, mech], [0, 4, 8])
        claim = random_pwl_claim(np.random.default_rng(6))
        for s in (0, 2, 4, 6):
            assert np.allclose(pasted.price_at(s, 8, claim),
                               mech.price_at(s, 8, claim), atol=1e-10, rtol=0)

    def test_two_generator_paste_matches_time_switched_solve(self, lat8):
        g1 = abs_z_generator(0.3)
        g2 = linear_generator(-0.2, 0.1)
        cut_time = lat8.grid.time(4)
        switched = Generator(
            fn=lambda t, y, z: np.where(t < cut_time, g1(t, y, z), g2(t, y, z)),
            mu=max(g1.mu, g2.mu),
            name="switched",
        )
        pasted = paste([as_mechanism(g1, lat8), as_mechanism(g2, lat8)], [0, 4, 8])
        claim = random_pwl_claim(np.random.default_rng(7))
        direct = solve_bsde(switched, claim, None, lat8).y
        for s in range(9):
            assert np.allclose(pasted.price_at(s, 8, claim), direct.at(s),
                               atol=1e-10, rtol=0)

    def test_paste_carries_dividends_through_the_boundary(self, lat8):
        rng = np.random.default_rng(40)
        g1, g2 = abs_z_generator(0.2), linear_generator(-0.1, 0.3)
        stream = signed_stream(rng, lat8)
        cut_time = lat8.grid.time(5)
        switched = Generator(
            fn=lambda t, y, z: np.where(t < cut_time, g1(t, y, z), g2(t, y, z)),
            mu=max(g1.mu, g2.mu))
        pasted = paste([as_mechanism(g1, lat8), as_mechanism(g2, lat8)], [0, 5, 8])
        claim = random_pwl_claim(rng)
        direct = solve_bsde(switched, claim, stream, lat8).y
        for s in (0, 2, 5, 7):
            assert np.allclose(pasted.price_at(s, 8, claim, stream),
                               direct.at(s), atol=1e-10, rtol=0)

    def test_equal_lattices_paste(self, lat8):
        # equality, not identity: a second build of the same grid is the same lattice
        g = domination_generator(0.3)
        mech = as_mechanism(g, lat8)
        pasted = paste([mech, as_mechanism(g, build_lattice(build_grid(0.0, 1.0, 8)))],
                       [0, 4, 8])
        claim = random_pwl_claim(np.random.default_rng(6))
        assert np.allclose(pasted.price_at(0, 8, claim), mech.price_at(0, 8, claim),
                           atol=1e-10, rtol=0)

    def test_other_lattice_does_not_paste(self, lat8):
        mech = as_mechanism(zero_generator(), lat8)
        other = as_mechanism(zero_generator(), build_lattice(build_grid(0.0, 2.0, 8)))
        with pytest.raises(BadPartition, match="share one lattice"):
            paste([mech, other], [0, 4, 8])

    def test_bad_partition(self, lat8):
        mech = as_mechanism(zero_generator(), lat8)
        with pytest.raises(BadPartition):
            paste([mech, mech], [0, 8])
        with pytest.raises(BadPartition):
            paste([mech, mech], [0, 5, 7])
        with pytest.raises(BadPartition):
            paste([mech], [0, 4])


class TestCompare:
    def test_equal_inputs_tie_everywhere(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(8))
        verdict = compare(domination_generator(0.4), claim, None, claim, None, lat8)
        assert verdict.applicable and verdict.passed
        assert verdict.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(9))
        lower = TerminalClaim(
            lambda b: np.asarray(claim.payoff(b), dtype=float) - 1.0)
        verdict = compare(domination_generator(0.4), claim, None, lower, None, lat8)
        assert verdict.applicable and verdict.passed

    def test_not_applicable_when_unordered(self, lat8):
        verdict = compare(domination_generator(0.4), WALK, None,
                          TerminalClaim(lambda b: -np.asarray(b, float)),
                          None, lat8)
        assert not verdict.applicable and verdict.passed is None

    def test_monotone_guard(self):
        lat = build_lattice(build_grid(0.0, 1.0, 2))
        with pytest.raises(SchemeNotMonotone):
            compare(domination_generator(1.5), WALK, None, WALK, None, lat)

    def test_randomized_cases_never_violate(self, lat8):
        rng = np.random.default_rng(10)
        for _ in range(100):
            g = random_lipschitz_generator(rng)
            upper, lower = ordered_claim_pair(rng)
            base = signed_stream(rng, lat8)
            extra = increasing_stream(rng, lat8)
            bigger = DividendStream.from_arrays(
                lat8, [base.increment(i) + extra.increment(i) for i in range(8)])
            verdict = compare(g, upper, bigger, lower, base, lat8)
            assert verdict.applicable and verdict.passed


class TestDomination:
    def test_equal_claims_zero_spread(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(11))
        mech = as_mechanism(domination_generator(0.4), lat8)
        verdict = check_domination(mech, claim, claim, 0.4, lat8)
        assert verdict.passed

    def test_lipschitz_mechanisms_pass(self, lat8):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_lipschitz_generator(rng)
            mech = as_mechanism(g, lat8)
            a, b = random_pwl_claim(rng), random_pwl_claim(rng)
            ka, kb = signed_stream(rng, lat8), signed_stream(rng, lat8)
            verdict = check_domination(mech, a, b, g.mu, lat8,
                                       dividends_a=ka, dividends_b=kb)
            assert verdict.passed

    def test_understated_mu_fails_on_steep_claims(self, lat8):
        # a 0.6-Lipschitz mechanism audited at mu = 0.1 must breach the cap
        mech = as_mechanism(abs_z_generator(0.6), lat8)
        steep = TerminalClaim(lambda b: 3.0 * np.abs(np.asarray(b, float)))
        verdict = check_domination(mech, steep, ZERO, 0.1, lat8)
        assert not verdict.passed


class TestSignFlip:
    def test_linear_driver(self, lat8):
        rng = np.random.default_rng(13)
        verdict = sign_flip_check(linear_generator(-0.3, 0.2),
                                  random_pwl_claim(rng),
                                  signed_stream(rng, lat8), lat8)
        assert verdict.passed

    def test_domination_driver(self, lat8):
        rng = np.random.default_rng(14)
        verdict = sign_flip_check(domination_generator(0.5),
                                  random_pwl_claim(rng),
                                  increasing_stream(rng, lat8), lat8)
        assert verdict.passed

    def test_all_zero(self, lat8):
        verdict = sign_flip_check(domination_generator(0.5), ZERO, None, lat8)
        assert verdict.passed and verdict.max_error == 0.0


class TestPricePropertiesOfStructuredDrivers:
    """Driver structure must surface as the matching price property."""

    def test_cash_invariance_for_y_independent_driver(self, lat8):
        rng = np.random.default_rng(15)
        g = abs_z_generator(0.3)
        for _ in range(25):
            claim = random_pwl_claim(rng)
            eta = float(rng.normal())
            shifted = TerminalClaim(
                lambda b, c=claim, e=eta: np.asarray(c.payoff(b), float) + e)
            base = solve_bsde(g, claim, None, lat8).y
            moved = solve_bsde(g, shifted, None, lat8).y
            for i in range(9):
                assert np.allclose(moved.at(i), base.at(i) + eta,
                                   atol=1e-10, rtol=0)

    def test_self_financing(self, lat8):
        for g in (domination_generator(0.5), linear_generator(-0.2, 0.3)):
            y = solve_bsde(g, ZERO, None, lat8).y
            for i in range(9):
                assert np.allclose(y.at(i), 0.0, atol=1e-12, rtol=0)

    def test_zero_rate_driver_preserves_constants(self, lat8):
        g = abs_z_generator(0.4)  # vanishes when z = 0
        for eta in (-2.0, 0.7):
            claim = TerminalClaim(
                lambda b, e=eta: e + 0.0 * np.asarray(b, float))
            y = solve_bsde(g, claim, None, lat8).y
            for i in range(9):
                assert np.allclose(y.at(i), eta, atol=1e-12, rtol=0)

    def test_convexity(self, lat8):
        rng = np.random.default_rng(16)
        g = domination_generator(0.5)
        for _ in range(25):
            a, b = random_pwl_claim(rng), random_pwl_claim(rng)
            alpha = float(rng.uniform())
            mix = TerminalClaim(
                lambda v, x=a, y=b, w=alpha:
                w * np.asarray(x.payoff(v), float)
                + (1 - w) * np.asarray(y.payoff(v), float))
            ya = solve_bsde(g, a, None, lat8).y
            yb = solve_bsde(g, b, None, lat8).y
            ym = solve_bsde(g, mix, None, lat8).y
            for i in range(9):
                assert np.all(ym.at(i) <= alpha * ya.at(i)
                              + (1 - alpha) * yb.at(i) + 1e-9)

    def test_positive_homogeneity(self, lat8):
        rng = np.random.default_rng(17)
        g = domination_generator(0.5)
        for lam in (0.0, 0.5, 2.0, 7.0):
            claim = random_pwl_claim(rng)
            scaled = TerminalClaim(
                lambda b, c=claim, l=lam: l * np.asarray(c.payoff(b), float))
            ya = solve_bsde(g, claim, None, lat8).y
            ys = solve_bsde(g, scaled, None, lat8).y
            for i in range(9):
                assert np.allclose(ys.at(i), lam * ya.at(i),
                                   atol=1e-9 * (1 + lam), rtol=0)

    def test_subadditivity(self, lat8):
        rng = np.random.default_rng(18)
        g = domination_generator(0.5)
        for _ in range(25):
            a, b = random_pwl_claim(rng), random_pwl_claim(rng)
            both = TerminalClaim(
                lambda v, x=a, y=b: np.asarray(x.payoff(v), float)
                + np.asarray(y.payoff(v), float))
            ya = solve_bsde(g, a, None, lat8).y
            yb = solve_bsde(g, b, None, lat8).y
            ys = solve_bsde(g, both, None, lat8).y
            for i in range(9):
                assert np.all(ys.at(i) <= ya.at(i) + yb.at(i) + 1e-9)

    def test_pointwise_driver_order_implies_price_order(self, lat8):
        rng = np.random.default_rng(19)
        big = domination_generator(0.5)
        small = abs_z_generator(0.2)  # 0.2|z| <= 0.5(|y|+|z|) pointwise
        for _ in range(20):
            claim = random_pwl_claim(rng)
            yb = solve_bsde(big, claim, None, lat8).y
            ys = solve_bsde(small, claim, None, lat8).y
            for i in range(9):
                assert np.all(yb.at(i) >= ys.at(i) - 1e-9)


class TestDividendStream:
    def test_is_increasing(self, lat8):
        assert increasing_stream(np.random.default_rng(20), lat8).is_increasing()
        assert not DividendStream.from_rate(lat8, -1.0).is_increasing()

    def test_difference(self, lat8):
        a = DividendStream.from_rate(lat8, 2.0)
        b = DividendStream.from_rate(lat8, 0.5)
        d = a.difference(b)
        assert d.increment(3) == pytest.approx(1.5 * lat8.dt)

    def test_absent_payouts_match_a_zero_stream(self, lat8):
        # ``None`` dividends skip the zero arrays; verdicts must not notice
        rng = np.random.default_rng(21)
        zero = DividendStream.from_rate(lat8, 0.0)
        for g in (domination_generator(0.4), random_lipschitz_generator(rng)):
            mech = as_mechanism(g, lat8)
            upper, lower = ordered_claim_pair(rng)
            stream = increasing_stream(rng, lat8)
            for ka, kb in ((None, None), (stream, None), (None, stream)):
                za, zb = ka or zero, kb or zero
                assert (compare(g, upper, ka, lower, kb, lat8)
                        == compare(g, upper, za, lower, zb, lat8))
                assert (check_domination(mech, upper, lower, 0.5, lat8, ka, kb)
                        == check_domination(mech, upper, lower, 0.5, lat8, za, zb))
            assert (sign_flip_check(g, upper, None, lat8)
                    == sign_flip_check(g, upper, zero, lat8))
            y = solve_bsde(g, upper, stream, lat8, s_step=2).y
            got, want = doob_meyer(g, y, None, lat8), doob_meyer(g, y, zero, lat8)
            assert got.reconstruction_error == want.reconstruction_error
            assert ([s.tobytes() for s in got.increments.slices]
                    == [s.tobytes() for s in want.increments.slices])

    def test_increment_outside_range_is_zero(self, lat8):
        s = DividendStream.from_arrays(lat8, [np.ones(3)], start=2)
        assert np.array_equal(s.increment(0), np.zeros(1))
        assert np.array_equal(s.increment(2), np.ones(3))
