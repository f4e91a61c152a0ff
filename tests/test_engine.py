"""Backward solver, pricing operator, pasting, and order verdicts."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from gmech import (
    BadStepOrder,
    BSMarketParams,
    ContractionViolation,
    DividendStream,
    Generator,
    InvalidParams,
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
    random_claim,
    solve_bsde,
    solve_terminal_batch,
    zero_generator,
)

from gmech.engine import (
    PICARD_CAP, PICARD_TOL, PICARD_ULPS, _backward, _claim_rows, _draw_claim, _payout_gap,
    require_monotone,
)
from gmech.lattice import AdaptedProcess, one_step_mz
from gmech.market import bs_call, bs_put

from util import (
    BS_CALL_ATM,
    affine_binomial_price,
    increasing_stream,
    ordered_claim_pair,
    paste,
    random_lipschitz_generator,
    random_pwl_claim,
    sign_flip_check,
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
            z = one_step_mz(res.y.at(i + 1), lat.sqrt_dt)[1]
            assert np.allclose(z, zbar, atol=1e-12, rtol=0)

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
            m, z = one_step_mz(res.y.at(i + 1), lat8.sqrt_dt)
            relation = (m + g(lat8.grid.time(i), res.y.at(i), z) * lat8.dt
                        + stream.increment(i))
            assert np.allclose(res.y.at(i), relation, atol=1e-11, rtol=0)
        # a closed form called outside the solver on the kept next slice,
        # allocating, gives the slice the solve kept
        closed_form = [zero_generator(), g, abs_z_generator(0.3),
                       linear_generator(0.3, -0.4),
                       black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2))]
        for h in closed_form:
            res = solve_bsde(h, claim, stream, lat8)
            for i in range(8):
                step = h.exact_step(lat8.grid.time(i), res.y.at(i + 1),
                                    stream.increment(i), lat8.dt, None)
                assert np.asarray(step).tobytes() == res.y.at(i).tobytes()

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

    def test_non_finite_mu_is_rejected(self, lat8):
        with pytest.raises(InvalidParams, match=r"^mu must be finite, got nan$"):
            require_monotone(float("nan"), lat8)
        with pytest.raises(InvalidParams, match=r"^mu must be finite, got inf$"):
            check_domination(as_mechanism(zero_generator(), lat8), WALK, ZERO,
                             float("inf"), lat8)
        # a driver built by hand cannot declare a non-finite constant
        for mu in (float("nan"), float("inf")):
            with pytest.raises(InvalidParams, match=rf"^mu must be finite, got {mu}$"):
                Generator(fn=lambda t, y, z: 0.0 * np.asarray(y, float), mu=mu)

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


def _plain_picard_backward(g, cur, lattice, n, dividends):
    """Every step by plain Picard iteration from ``m``, with no extrapolation
    and one stopping test for the whole slice; the ``y`` slices of steps
    ``0..n`` and the worst iteration count."""
    dt, sqrt_dt = lattice.dt, lattice.sqrt_dt
    slices, worst_iters = [cur], 0
    for i in range(n - 1, -1, -1):
        up, down = cur[..., 1:], cur[..., :-1]
        m, z = 0.5 * (up + down), (up - down) / (2.0 * sqrt_dt)
        t = lattice.grid.time(i)
        dk = 0.0 if dividends is None else dividends.increment(i)
        y = m
        for iters in range(1, PICARD_CAP + 1):
            y_next = m + g(t, y, z) * dt + dk
            resid = float(np.max(np.abs(y_next - y)))
            y = y_next
            if resid <= PICARD_TOL:
                break
        cur = y
        slices.append(cur)
        worst_iters = max(worst_iters, iters)
    return slices[::-1], worst_iters


def _worst_gap(got, want) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))


class TestAcceleratedPicard:
    """The kernel's Picard loop, with its one Aitken step, against the plain
    loop above."""

    N = 24

    def _inputs(self, rng):
        lat = build_lattice(build_grid(0.0, 1.0, self.N))
        stream = signed_stream(rng, lat, scale=0.3)
        batch = rng.uniform(-2.0, 2.0, (5, self.N + 1))
        # a row near 0 stops after two updates while the others go on, so a
        # batch that extrapolated stopped rows would change its bits
        batch[3] *= 1e-9
        return lat, stream, {"1-d": batch[0], "one row": batch[:1], "batch": batch}

    @pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
    def test_matches_plain_picard(self, seed):
        rng = np.random.default_rng(seed)
        g = random_lipschitz_generator(rng)
        lat, stream, inputs = self._inputs(rng)
        for shape, cur in inputs.items():
            for dividends in (None, stream):
                got, _, _ = _backward(g, cur, lat, self.N, 0, dividends, True)
                want, _ = _plain_picard_backward(g, cur, lat, self.N, dividends)
                gap = _worst_gap(got, want)
                assert gap <= 1e-12, (shape, dividends is not None, gap)
                if shape == "batch":
                    # a row's bits do not depend on its batch
                    for k, row in enumerate(cur):
                        single, _, _ = _backward(g, row, lat, self.N, 0, dividends, True)
                        for a, b in zip(got, single):
                            assert a[k].tobytes() == b.tobytes(), (k, dividends is not None)

    def test_driver_linear_in_y_stops_after_three_calls(self):
        # Aitken is exact on one linear piece: the third call finds the
        # fixed point, where plain Picard needs more
        g = Generator(fn=lambda t, y, z: 0.4 * np.asarray(y) + 0.3 * np.abs(z - 0.5),
                      mu=0.4, name="linear in y")
        lat, stream, inputs = self._inputs(np.random.default_rng(11))
        for cur in inputs.values():
            got, iters, _ = _backward(g, cur, lat, self.N, 0, stream, True)
            want, plain_iters = _plain_picard_backward(g, cur, lat, self.N, stream)
            assert iters == 3 < plain_iters
            assert _worst_gap(got, want) <= 1e-12

    def test_driver_above_its_mu_keeps_plain_updates(self):
        # the true y-slope 0.9 is three times the declared mu, so every
        # observed ratio exceeds mu dt: no node is extrapolated, and a slice
        # takes plain Picard's iterates bit for bit
        lying = Generator(fn=lambda t, y, z: 0.9 * np.asarray(y) + 0.3 * np.abs(z - 0.5),
                          mu=0.3, name="understated")
        lat, stream, inputs = self._inputs(np.random.default_rng(10))
        for shape, cur in inputs.items():
            for dividends in (None, stream):
                got, iters, _ = _backward(lying, cur, lat, self.N, 0, dividends, True)
                want, plain_iters = _plain_picard_backward(lying, cur, lat, self.N,
                                                           dividends)
                gap = _worst_gap(got, want)
                assert gap <= 1e-12, (shape, dividends is not None, gap)
                assert iters == plain_iters
                if shape == "1-d":
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _counting(g):
    """``g`` with a driver-call counter."""
    calls = [0]

    def fn(t, y, z):
        calls[0] += 1
        return g.fn(t, y, z)

    return dataclasses.replace(g, fn=fn), calls


class TestPicardFloatFloor:
    """Large claims, where the float spacing of ``y`` passes ``PICARD_TOL``."""

    N = 64

    def _claim(self, scale):
        return TerminalClaim(lambda b: scale * (1.0 + np.abs(np.asarray(b, float))),
                             name=f"{scale:g}(1+|B|)")

    @pytest.mark.parametrize("scale", [1e5, 3e5, 1e8])
    def test_large_claims_stop_at_their_fixed_point(self, scale):
        # these hit the 100-call cap (1e5, 3e5) or raised PicardDivergence
        # with residual 5.96e-8 (1e8) under the absolute PICARD_TOL alone
        lat = build_lattice(build_grid(0.0, 1.0, self.N))
        g, calls = _counting(random_lipschitz_generator(np.random.default_rng(3)))
        res = solve_bsde(g, self._claim(scale), None, lat)
        per_step = calls[0] / self.N
        assert res.picard_iters < PICARD_CAP and per_step == 3.0, per_step
        for i in range(self.N):
            y = res.y.at(i)
            assert np.isfinite(y).all()
            m, z = one_step_mz(res.y.at(i + 1), lat.sqrt_dt)
            fixed_gap = np.max(np.abs(m + g(lat.grid.time(i), y, z) * lat.dt - y))
            assert fixed_gap <= PICARD_ULPS * np.spacing(np.max(np.abs(y))), (i, fixed_gap)

    def test_batch_rows_of_mixed_scale_keep_their_single_bits(self):
        lat = build_lattice(build_grid(0.0, 1.0, self.N))
        g = random_lipschitz_generator(np.random.default_rng(3))
        rows = np.stack([self._claim(scale).values(lat, self.N)
                         for scale in (1.0, 1e5, 1e-9, 3e5, 1e8)])
        (got,), _, _ = _backward(g, rows, lat, self.N, 0, None, False)
        for k, row in enumerate(rows):
            (single,), _, _ = _backward(g, row, lat, self.N, 0, None, False)
            assert got[k].tobytes() == single.tobytes(), k

    @pytest.mark.parametrize("scale", [1e5, 1e8])
    def test_driver_above_its_mu_still_diverges_with_a_witness(self, scale):
        # as TestSolveBsde's divergence tests, at scales where the floor is on
        lat = build_lattice(build_grid(0.0, 1.0, 4))
        lying = Generator(fn=lambda t, y, z: 10.0 * np.asarray(y, float),
                          mu=0.1, name="understated")
        rows = np.stack([np.zeros(5), self._claim(scale).values(lat, 4)])
        with pytest.raises(PicardDivergence,
                           match=r"stuck at residual \S+ at step 3, node \d+ \(t="):
            solve_bsde(lying, self._claim(scale), None, lat)
        with pytest.raises(PicardDivergence, match=r"at step 3, row 1, node \d+ "):
            as_mechanism(lying, lat).price_rows(0, 4, rows)


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

    return MechanismHandle(mech.lattice, price_at, mu=mech.mu), calls


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


def _buffer_reuser(mech):
    """The same prices written into one buffer whose views the black box
    returns, as a black box that reuses its memory does."""
    buf = np.empty(mech.lattice.n_steps + 1)

    def price_at(s, t, claim, dividends=None):
        buf[:s + 1] = mech.price_at(s, t, claim, dividends)
        return buf[:s + 1]

    return MechanismHandle(mech.lattice, price_at, mu=mech.mu)


def test_black_box_answers_are_copied_as_they_arrive(lat4):
    # every answer is a view of one buffer: each price is still the one given
    base = as_mechanism(zero_generator(), lat4)
    mech = _buffer_reuser(base)
    rows = np.array([[1.0] * 5, [2.0] * 5, [3.0] * 5])
    assert mech.price_rows(0, 4, rows).tolist() == [[1.0], [2.0], [3.0]]
    assert mech.price_surfaces(4, rows[:2])[0].tolist() == [[1.0], [2.0]]
    first = mech.price_at(0, 4, claim_from_values(lat4, 4, rows[0]))
    mech.price_at(0, 4, claim_from_values(lat4, 4, rows[1]))
    assert first.tolist() == [1.0]
    claim = claim_from_values(lat4, 4, np.arange(5.0))
    assert ([v.tolist() for v in mech.price_surface(4, claim).slices]
            == [v.tolist() for v in base.price_surface(4, claim).slices])


def test_rows_price_at_and_surface_agree_with_dividends(lat16):
    # the three pricing forms of every handle kind, with a payout stream; a
    # driver's solve_terminal_batch is a view of its handle, and a batch of
    # rows prices each row as price_at does
    rng = np.random.default_rng(37)
    g = random_lipschitz_generator(rng)
    picard = as_mechanism(g, lat16)
    abs_z = as_mechanism(abs_z_generator(0.3), lat16)
    handles = {"picard": picard, "abs_z": abs_z,
               "picard_price_at_only": _price_at_only(picard)[0],
               "abs_z_price_at_only": _price_at_only(abs_z)[0],
               "paste": paste([picard, abs_z], [0, 6, 16]),
               "paste_price_at_only": paste([_price_at_only(picard)[0], abs_z], [0, 6, 16])}
    drivers = {"picard": g, "abs_z": abs_z_generator(0.3)}
    stream = signed_stream(rng, lat16)
    pairs = [(0, 0), (5, 5), (16, 16), (0, 16), (0, 7), (6, 6), (3, 12)]
    pairs += [tuple(sorted(int(v) for v in rng.integers(0, 17, size=2))) for _ in range(6)]
    for s, t in pairs:
        row = rng.uniform(-2.0, 2.0, size=t + 1)
        claim = claim_from_values(lat16, t, row)
        batch = rng.uniform(-2.0, 2.0, size=(3, t + 1))
        for name, mech in handles.items():
            by_rows = mech.price_rows(s, t, [row], stream)[0]
            by_price_at = mech.price_at(s, t, claim, stream)
            by_surface = mech.price_surface(t, claim, stream).at(s)
            assert by_rows.tobytes() == by_price_at.tobytes() == by_surface.tobytes(), (name, s, t)
            for dividends in (None, stream):
                got = mech.price_rows(s, t, batch, dividends)
                for k, r in enumerate(batch):
                    want = mech.price_at(s, t, claim_from_values(lat16, t, r), dividends)
                    assert got[k].tobytes() == want.tobytes(), (name, s, t, k)
        for name, driver in drivers.items():
            roots = solve_terminal_batch(driver, batch, lat16, t_step=t)
            assert roots.tobytes() == handles[name].price_rows(0, t, batch)[:, 0].tobytes()
        # inside one segment the pasted handle is that segment's mechanism
        segment = picard if t <= 6 else abs_z if s >= 6 else None
        if segment is not None:
            want = segment.price_rows(s, t, [row], stream)
            assert handles["paste"].price_rows(s, t, [row], stream).tobytes() == want.tobytes()


def test_zero_step_rows_do_not_alias_the_input(lat8):
    # no handle result shares memory with its input rows, also at s == t
    rng = np.random.default_rng(39)
    mech = as_mechanism(domination_generator(0.3), lat8)
    handles = {"driver": mech, "black box": _price_at_only(mech)[0],
               "paste": paste([mech, _price_at_only(mech)[0]], [0, 4, 8])}
    for name, handle in handles.items():
        for t in (0, 4, 8):
            rows = rng.uniform(-2.0, 2.0, size=(2, t + 1))
            got = handle.price_rows(t, t, rows)
            want = got.tobytes()
            rows += 1.0
            assert got.tobytes() == want, (name, t)


def test_one_row_batch_is_the_single_solve(lat16):
    # a one-row Picard batch freezes nothing: it takes the 1-d solve's
    # driver calls and gives its bits
    rng = np.random.default_rng(41)
    g, calls = _counting(random_lipschitz_generator(rng))
    stream = signed_stream(rng, lat16)
    for dividends in (None, stream):
        row = rng.uniform(-2.0, 2.0, size=17)
        calls[0] = 0
        single, single_iters, _ = _backward(g, row, lat16, 16, 0, dividends, True)
        single_calls, calls[0] = calls[0], 0
        batch, batch_iters, _ = _backward(g, row[None], lat16, 16, 0, dividends, True)
        assert calls[0] == single_calls and batch_iters == single_iters
        for a, b in zip(batch, single):
            assert a[0].tobytes() == b.tobytes()


def test_single_claims_build_no_surface(lat16, monkeypatch):
    # price_at is one kernel pass over the claim's slice: no AdaptedProcess
    rng = np.random.default_rng(43)
    g = random_lipschitz_generator(rng)
    stream = signed_stream(rng, lat16)
    mech = as_mechanism(g, lat16)
    pasted = paste([mech, as_mechanism(abs_z_generator(0.3), lat16)], [0, 6, 16])
    claim = random_pwl_claim(rng)
    builds = []
    init = AdaptedProcess.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdaptedProcess, "__init__", counting_init)
    for s, t in ((0, 16), (3, 12), (9, 9)):
        mech.price_at(s, t, claim, stream)
        pasted.price_at(s, t, claim, stream)
    assert builds == []
    mech.price_surface(16, claim, stream)  # the counter counts
    assert len(builds) == 1


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
        # a batch of surfaces checks its rows alike
        with pytest.raises(StepOutOfRange, match="5 entries"):
            handle.price_surfaces(4, np.zeros((2, 6)))
        with pytest.raises(StepOutOfRange, match="5 entries"):
            handle.price_surfaces(4, np.zeros(5))
        with pytest.raises(NonFiniteValue, match="^terminal value is nan at step 4, row 2, node 1$"):
            handle.price_surfaces(4, rows)


def test_price_surface_validation(lat8):
    # a black box used to return an empty surface for a negative maturity
    mech = as_mechanism(domination_generator(0.3), lat8)
    for handle in (mech, _price_at_only(mech)[0]):
        for t in (-1, 9):
            with pytest.raises(BadStepOrder, match=rf"^need 0 <= s=0 <= t={t} <= 8$"):
                handle.price_surface(t, WALK)
            with pytest.raises(BadStepOrder, match=rf"^need 0 <= s=0 <= t={t} <= 8$"):
                handle.price_surfaces(t, np.zeros((1, max(t, 0) + 1)))


@pytest.mark.parametrize("t", [16, 9, 1, 0])
def test_price_surfaces_match_per_row_surfaces(t, lat16):
    # one batch of surfaces is the per-row price_surface loop, bitwise at
    # every step, for every handle kind; a black box sees the loop's calls
    rng = np.random.default_rng(67)
    picard = as_mechanism(random_lipschitz_generator(rng), lat16)
    abs_z = as_mechanism(abs_z_generator(0.3), lat16)
    plain, calls = _price_at_only(picard)
    handles = {"picard": picard, "abs_z": abs_z, "picard_price_at_only": plain,
               "paste": paste([plain, abs_z], [0, 6, 16])}
    stream = signed_stream(rng, lat16)
    rows = rng.uniform(-2.0, 2.0, size=(3, t + 1))
    for name, mech in handles.items():
        for dividends in (None, stream):
            calls.clear()
            got = mech.price_surfaces(t, rows, dividends)
            batch_calls = list(calls)
            calls.clear()
            want = [mech.price_surface(t, claim_from_values(lat16, t, row), dividends)
                    for row in rows]
            assert batch_calls == calls, name
            assert len(got) == t + 1
            for i, v in enumerate(got):
                assert v.shape == (3, i + 1) and v.flags.c_contiguous, (name, i)
                for k in range(3):
                    assert v[k].tobytes() == want[k].at(i).tobytes(), (name, i, k)
            assert got[t].tobytes() == rows.tobytes()
            assert not np.shares_memory(got[t], rows)
    assert plain.price_surfaces(t, np.zeros((0, t + 1)))[t].shape == (0, t + 1)


def test_black_box_output_is_checked(lat8):
    for bad in (np.inf, np.nan):
        def price_at(s, t, claim, dividends=None):
            # inf or NaN at the last node of the claim that pays 1 everywhere
            out = np.zeros(s + 1)
            out[-1] = bad if claim.values(lat8, t)[0] == 1.0 else 0.0
            return out

        box = MechanismHandle(lat8, price_at, mu=0.3)
        with pytest.raises(NonFiniteValue,
                           match=rf"^mechanism price is {bad} at step 2, row 1, node 2$"):
            box.price_rows(2, 4, [np.zeros(5), np.ones(5)])
        # a surface is checked from step 0 up; a batch of surfaces names the row
        with pytest.raises(NonFiniteValue,
                           match=rf"^mechanism price is {bad} at step 0, row 1, node 0$"):
            box.price_surfaces(4, [np.zeros(5), np.ones(5)])
        with pytest.raises(NonFiniteValue, match=rf"^mechanism price is {bad} at step 0, node 0$"):
            box.price_surface(4, claim_from_values(lat8, 4, np.ones(5)))
    short = MechanismHandle(lat8, lambda s, t, c, d=None: np.zeros(s), mu=0.3)
    with pytest.raises(StepOutOfRange, match=r"shape \(2,\) at step 2, expected \(3,\)"):
        short.price_at(2, 4, WALK)
    with pytest.raises(StepOutOfRange, match=r"shape \(2,\) at step 2, expected \(3,\)"):
        short.price_rows(2, 4, np.zeros((1, 5)))
    with pytest.raises(StepOutOfRange, match=r"shape \(0,\) at step 0, expected \(1,\)"):
        short.price_surfaces(4, np.zeros((1, 5)))


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

    def test_overflow_raises_the_named_error_without_a_warning(self, lat8):
        # values near the float maximum overflow inside a step: numpy stays
        # silent and the finiteness check names the step (and row) instead
        rows = np.full((3, 9), 1e300)
        rows[1, 4:6] = 1.7e308
        claim = claim_from_values(lat8, 8, rows[1])
        for g in (domination_generator(0.5), random_lipschitz_generator(
                np.random.default_rng(8))):
            mech = as_mechanism(g, lat8)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteValue, match=r" is [-a-z]+ at step 7, node 3$"):
                    mech.price_at(0, 8, claim)
                with pytest.raises(NonFiniteValue, match=r" is [-a-z]+ at step 7, row 1, node 3$"):
                    mech.price_rows(0, 8, rows)

    def test_non_finite_claim(self, lat8):
        claim = TerminalClaim(lambda b: np.where(np.asarray(b) > 0, np.nan, 0.0),
                              name="half-nan")
        with pytest.raises(NonFiniteValue, match=r"at step 8, node 5"):
            solve_bsde(zero_generator(), claim, None, lat8)

    def test_single_claim_entries_name_one_witness(self, lat8):
        # a driver handle's price_at used to solve the claim as row 0 of a
        # batch, and its witness named that row where solve_bsde's did not
        nan = Generator(fn=lambda t, y, z: np.full(np.shape(y), np.nan), mu=0.1, name="nan")
        arrays = [np.zeros(i + 1) for i in range(8)]
        arrays[5][2] = np.inf
        cases = {"Picard update is nan at step 7, node 0": (nan, None),
                 "price is inf at step 5, node 2": (
                     domination_generator(0.4), DividendStream.from_arrays(lat8, arrays))}
        for message, (g, stream) in cases.items():
            mech = as_mechanism(g, lat8)
            for entry in (lambda: solve_bsde(g, WALK, stream, lat8),
                          lambda: mech.price_at(0, 8, WALK, stream),
                          lambda: mech.price_surface(8, WALK, stream)):
                with np.errstate(invalid="ignore"), pytest.raises(
                        NonFiniteValue, match=rf"^{message}$"):
                    entry()

    def test_payoff_overflow_is_named_without_a_warning(self, lat8):
        # a payoff that overflows while it is evaluated: numpy stays silent
        # and the claim's finiteness check names the node
        claim = TerminalClaim(lambda b: 1e308 * np.asarray(b, dtype=float) * 4.0, name="big")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^claim 'big' is -inf at step 8, node 0$"):
                claim.values(lat8, 8)


class TestTruncationError:
    """The lattice against continuous closed forms: first-order convergence.

    Calls and puts at strikes 90, 100 and 110 (``s0`` 100, sigma 0.2, T 1)
    under ``bs:r=0.05,b=0.08,sigma=0.2`` on the map with drift ``b``, as the
    CLI builds it, against the Black-Scholes values at rate ``r``; and under
    ``gmu:0.3`` on the driftless map, where a call's hedge stays >= 0 and a
    put's <= 0, so the driver is linear and the continuous price is
    ``e^{mu T} bs(s0 e^{+/-sigma mu T}, K, 0, sigma, T)`` (Girsanov).  The
    worst ``n |err|`` measured is 3.05 (the ``gmu:0.3`` put at 110, n 250);
    the bound is 4.
    """

    S0, SIGMA, T, MU = 100.0, 0.2, 1.0, 0.3
    BOUND = 4.0

    def _cases(self):
        s0, sigma, t, mu = self.S0, self.SIGMA, self.T, self.MU
        bs = BSMarketParams(r=0.05, b=0.08, sigma=sigma)
        grow = np.exp(mu * t)
        yield (black_scholes_generator(bs), make_underlying_map(s0, sigma, t, bs.b),
               lambda k: bs_call(s0, k, bs.r, sigma, t), lambda k: bs_put(s0, k, bs.r, sigma, t))
        yield (domination_generator(mu), make_underlying_map(s0, sigma, t),
               lambda k: grow * bs_call(s0 * np.exp(sigma * mu * t), k, 0.0, sigma, t),
               lambda k: grow * bs_put(s0 * np.exp(-sigma * mu * t), k, 0.0, sigma, t))

    @pytest.mark.parametrize("n", [250, 500, 1000, 2000, 4000])
    def test_n_times_error_is_bounded(self, n):
        lat = build_lattice(build_grid(0.0, self.T, n))
        for g, to_price, call, put in self._cases():
            mech = as_mechanism(g, lat)
            for strike in (90.0, 100.0, 110.0):
                for kind, ref, sign in (("call", call, 1.0), ("put", put, -1.0)):
                    claim = TerminalClaim(
                        lambda b, k=strike, s=sign: np.maximum(s * (to_price(b) - k), 0.0),
                        name=f"{kind}:{strike:g}")
                    err = mech.price_at(0, n, claim)[0] - ref(strike)
                    assert n * abs(err) <= self.BOUND, (g.name, claim.name, n, n * err)


class TestPrice:
    def test_identity_at_own_maturity(self, lat8):
        claim = random_pwl_claim(np.random.default_rng(4))
        got = as_mechanism(zero_generator(), lat8).price_at(5, 5, claim)
        assert np.array_equal(got, claim.values(lat8, 5))

    def test_annuity(self, lat8):
        stream = DividendStream.from_rate(lat8, 3.0)
        got = as_mechanism(zero_generator(), lat8).price_at(0, 8, ZERO, stream)
        assert got[0] == pytest.approx(3.0, abs=1e-12)

    def test_nested_composition(self, lat16):
        rng = np.random.default_rng(5)
        g = random_lipschitz_generator(rng)
        claim = random_pwl_claim(rng)
        stream = signed_stream(rng, lat16)
        mech = as_mechanism(g, lat16)
        inner = mech.price_at(9, 16, claim, stream)
        nested = mech.price_at(3, 9, claim_from_values(lat16, 9, inner), stream)
        direct = mech.price_at(3, 16, claim, stream)
        assert np.allclose(nested, direct, atol=1e-10, rtol=0)

    def test_bad_step_order(self, lat8):
        with pytest.raises(BadStepOrder):
            as_mechanism(zero_generator(), lat8).price_at(5, 3, WALK)


def _time_switched(gens, times):
    """The driver ``gens[k]`` from the ``k``-th of the increasing ``times`` on."""
    return Generator(fn=lambda t, y, z: gens[sum(t >= c for c in times)](t, y, z),
                     mu=max(g.mu for g in gens), name="switched")


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

    def test_paste_matches_time_switched_solve(self, lat16):
        # 2 to 4 segments at random cuts, with and without payouts: the pasted
        # black box is the solve whose driver switches at the cuts, and its
        # three pricing forms agree bitwise
        rng = np.random.default_rng(71)
        pool = (lambda: abs_z_generator(rng.uniform(0.1, 0.4)),
                lambda: linear_generator(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                lambda: domination_generator(rng.uniform(0.1, 0.4)),
                lambda: random_lipschitz_generator(rng))
        for _ in range(6):
            k = int(rng.integers(2, 5))
            inner = sorted(int(c) for c in rng.choice(np.arange(1, 16), k - 1, replace=False))
            cuts = [0, *inner, 16]
            gens = [pool[i]() for i in rng.integers(0, len(pool), size=k)]
            pasted = paste([as_mechanism(g, lat16) for g in gens], cuts)
            switched = _time_switched(gens, [lat16.grid.time(c) for c in inner])
            claim = random_pwl_claim(rng)
            for dividends in (None, signed_stream(rng, lat16)):
                direct = solve_bsde(switched, claim, dividends, lat16).y
                surface = pasted.price_surface(16, claim, dividends)
                row = claim.values(lat16, 16)
                for s in range(17):
                    got = pasted.price_at(s, 16, claim, dividends)
                    by_rows = pasted.price_rows(s, 16, [row], dividends)[0]
                    assert by_rows.tobytes() == got.tobytes() == surface.at(s).tobytes(), (cuts, s)
                    assert np.allclose(got, direct.at(s), atol=1e-10, rtol=0), (cuts, s)

    def test_equal_lattices_paste(self, lat8):
        # equality, not identity: a second build of the same grid is the same lattice
        g = domination_generator(0.3)
        mech = as_mechanism(g, lat8)
        pasted = paste([mech, as_mechanism(g, build_lattice(build_grid(0.0, 1.0, 8)))],
                       [0, 4, 8])
        claim = random_pwl_claim(np.random.default_rng(6))
        assert np.allclose(pasted.price_at(0, 8, claim), mech.price_at(0, 8, claim),
                           atol=1e-10, rtol=0)

    def test_surface_is_the_per_step_price_at_loop(self, lat16):
        # one price_surface per segment, byte-equal to pricing every step
        # with its own price_at walk through the segments
        rng = np.random.default_rng(53)
        stream = signed_stream(rng, lat16)
        kernel = as_mechanism(random_lipschitz_generator(rng), lat16)
        plain = _price_at_only(as_mechanism(abs_z_generator(0.3), lat16))[0]
        for mechs in ([kernel, plain], [plain, kernel]):
            pasted = paste(mechs, [0, 6, 16])
            for t in (16, 11, 6, 3, 0):
                claim = claim_from_values(lat16, t, rng.uniform(-2.0, 2.0, t + 1))
                for dividends in (None, stream):
                    surface = pasted.price_surface(t, claim, dividends)
                    assert (surface.start, surface.stop) == (0, t)
                    for s in range(t + 1):
                        want = pasted.price_at(s, t, claim, dividends)
                        assert surface.at(s).tobytes() == want.tobytes(), (t, s)


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


def _black_box(lattice):
    def price_at(s_step, t_step, claim, dividends):
        raise AssertionError("the black box was handed the stream")
    return MechanismHandle(lattice, price_at, mu=None)


# every entry that takes a payout stream beside its pricing lattice
STREAM_CALLS = {
    "solve_bsde": lambda g, k, lat: solve_bsde(g, WALK, k, lat),
    "price_at": lambda g, k, lat: as_mechanism(g, lat).price_at(0, lat.n_steps, WALK, k),
    "black_box_price_at": lambda g, k, lat: _black_box(lat).price_at(0, lat.n_steps, WALK, k),
    "price_rows": lambda g, k, lat: as_mechanism(g, lat).price_rows(
        0, lat.n_steps, WALK.values(lat, lat.n_steps)[None], k),
    "black_box_price_rows": lambda g, k, lat: _black_box(lat).price_rows(
        0, lat.n_steps, WALK.values(lat, lat.n_steps)[None], k),
    "price_surface": lambda g, k, lat: as_mechanism(g, lat).price_surface(lat.n_steps, WALK, k),
    "price_surfaces": lambda g, k, lat: as_mechanism(g, lat).price_surfaces(
        lat.n_steps, WALK.values(lat, lat.n_steps)[None], k),
    "black_box_price_surfaces": lambda g, k, lat: _black_box(lat).price_surfaces(
        lat.n_steps, WALK.values(lat, lat.n_steps)[None], k),
    "compare": lambda g, k, lat: compare(g, WALK, k, WALK, None, lat),
    "check_domination": lambda g, k, lat: check_domination(
        as_mechanism(g, lat), WALK, WALK, 0.5, lat, None, k),
    "sign_flip_check": lambda g, k, lat: sign_flip_check(g, WALK, k, lat),
    "doob_meyer": lambda g, k, lat: doob_meyer(g, solve_bsde(g, WALK, None, lat).y, k, lat),
}


class TestDividendStream:
    @pytest.mark.parametrize("name", list(STREAM_CALLS))
    @pytest.mark.parametrize("stream_steps, steps", [(8, 16), (16, 8)])
    def test_stream_on_another_lattice_raises(self, name, stream_steps, steps):
        # increments are amounts per step of their own dt: a 16-step stream
        # read by an 8-step solve would pay half its rate, and drop half its steps
        lat = build_lattice(build_grid(0.0, 1.0, steps))
        stream_lat = build_lattice(build_grid(0.0, 1.0, stream_steps))
        with pytest.raises(InvalidParams, match=(
                rf"^dividend stream lattice TimeGrid\(t0=0\.0, T=1\.0, n_steps={stream_steps}\) "
                rf"is not the pricing lattice TimeGrid\(t0=0\.0, T=1\.0, n_steps={steps}\)$")):
            STREAM_CALLS[name](domination_generator(0.5),
                               DividendStream.from_rate(stream_lat, -1.0), lat)

    @pytest.mark.parametrize("name", sorted(set(STREAM_CALLS) - {
        "black_box_price_at", "black_box_price_rows", "black_box_price_surfaces"}))
    def test_stream_on_an_equal_lattice_is_accepted(self, name, lat8):
        # equality, not identity: a second build of the same grid is the same lattice
        stream = DividendStream.from_rate(build_lattice(build_grid(0.0, 1.0, 8)), -1.0)
        STREAM_CALLS[name](domination_generator(0.5), stream, lat8)

    def test_is_increasing(self, lat8):
        assert increasing_stream(np.random.default_rng(20), lat8).is_increasing()
        assert not DividendStream.from_rate(lat8, -1.0).is_increasing()

    def test_difference(self, lat8):
        a = DividendStream.from_rate(lat8, 2.0)
        b = DividendStream.from_rate(lat8, 0.5)
        d = _payout_gap(a, b, lat8)
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

    def test_from_rate_pays_rate_times_dt_at_every_node(self, lat8):
        for rate in (0.0, 0.3, -1.7):
            slices = DividendStream.from_rate(lat8, rate).increments.slices
            assert len(slices) == 8
            for i, s in enumerate(slices):
                assert s.tobytes() == np.full(i + 1, rate * lat8.dt).tobytes(), (rate, i)

    def test_from_rate_slices_are_read_only_views_of_one_row(self):
        lat = build_lattice(build_grid(0.0, 1.0, 64))
        slices = DividendStream.from_rate(lat, 0.37).increments.slices
        row = slices[-1].base
        assert row is not None and row.shape == (64,)
        for i, s in enumerate(slices):
            assert s.base is row
            assert s.tobytes() == np.full(i + 1, 0.37 * lat.dt).tobytes()
        for s in (slices[0], slices[40], row):
            with pytest.raises(ValueError, match="read-only"):
                s[0] = 1.0

    def test_increment_outside_range_is_zero(self, lat8):
        s = DividendStream.from_arrays(lat8, [np.ones(3)], start=2)
        assert np.array_equal(s.increment(0), np.zeros(1))
        assert np.array_equal(s.increment(2), np.ones(3))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_is_rejected(self, lat8, rate):
        with pytest.raises(InvalidParams, match=rf"^rate must be finite, got {rate}$"):
            DividendStream.from_rate(lat8, rate)

    def test_increment_at_maturity_raises(self, lat8):
        # the price at step n is the payoff: nothing can be paid after it
        with pytest.raises(StepOutOfRange,
                           match=r"^dividend increments may cover steps 0\.\.n-1 only$"):
            DividendStream.from_arrays(lat8, [np.ones(i + 1) for i in range(9)])


def test_random_claim_is_the_test_mirror(lat8):
    # three kinks on [-2, 2]: the library claim and tests/util's mirror draw
    # the same numbers from one seed and give the same bits
    for seed in range(50):
        for bound, slope in ((1.0, 1.0), (0.5, 0.5), (3.0, 2.0)):
            rng_lib, rng_mirror = np.random.default_rng(seed), np.random.default_rng(seed)
            lib = random_claim(rng_lib, bound, slope)
            mirror = random_pwl_claim(rng_mirror, bound, slope)
            for i in (0, 3, 8):
                assert (lib.values(lat8, i).tobytes()
                        == mirror.values(lat8, i).tobytes()), (seed, bound, slope, i)
            assert rng_lib.random() == rng_mirror.random()


def test_random_claim_and_the_batched_rows_share_one_payoff(lat8):
    # the law suite draws claim parameters and evaluates every claim of one
    # maturity in one pass, bounds mixed: each row is bitwise the claim's own
    # values from the same stream
    shapes = ((1.0, 1.0), (0.5, 0.5), (1.0, 1.0))
    for seed in range(30):
        rng_claim, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
        claims = [random_claim(rng_claim, bound, slope) for bound, slope in shapes]
        params = [_draw_claim(rng_rows, bound, slope) for bound, slope in shapes]
        for i in (0, 1, 2, 5, 8):
            rows = _claim_rows(lat8, i, params)
            assert rows.shape == (3, i + 1)
            for row, claim in zip(rows, claims):
                assert row.tobytes() == claim.values(lat8, i).tobytes(), (seed, i)
        assert rng_claim.random() == rng_rows.random()


def test_claim_from_values_needs_one_value_per_node(lat8):
    with pytest.raises(StepOutOfRange, match=r"^need 5 node values, got shape \(4,\)$"):
        claim_from_values(lat8, 4, np.zeros(4))


@pytest.mark.parametrize("entry", ["values", "solve_bsde", "price_at", "price_surface"])
@pytest.mark.parametrize("payoff, shape", [
    (lambda b: np.append(b, 0.0), "(6,)"),
    (lambda b: np.asarray(b)[:, None], "(5, 1)"),
    (lambda b: np.zeros(0), "(0,)")])
def test_payoff_of_the_wrong_shape_is_named(entry, payoff, shape, lat8):
    # numpy's "operands could not be broadcast" used to escape every entry
    g = domination_generator(0.3)
    claim, mech = TerminalClaim(payoff, name="odd"), as_mechanism(g, lat8)
    call = {"values": lambda: claim.values(lat8, 4),
            "solve_bsde": lambda: solve_bsde(g, claim, None, lat8, 4),
            "price_at": lambda: mech.price_at(0, 4, claim),
            "price_surface": lambda: mech.price_surface(4, claim)}[entry]
    with pytest.raises(StepOutOfRange, match=rf"^claim 'odd' returned shape "
                       rf"{re.escape(shape)} at step 4, need 5 values$"):
        call()


def test_scalar_payoff_broadcasts(lat8):
    assert TerminalClaim(lambda b: 2.0).values(lat8, 4).tolist() == [2.0] * 5


@pytest.mark.parametrize("kwargs, message", [
    ({"sigma": np.inf}, "sigma must be finite, got inf"),
    ({"sigma": np.nan}, "sigma must be finite, got nan"),
    ({"horizon": np.inf}, "horizon must be finite, got inf"),
    ({"drift": -np.inf}, "drift must be finite, got -inf"),
    ({"sigma": 1e200}, re.escape("(drift - sigma^2/2) * horizon must be finite, got -inf")),
    ({"drift": 1e308, "horizon": 10.0},
     re.escape("(drift - sigma^2/2) * horizon must be finite, got inf"))])
def test_underlying_map_needs_finite_parameters(kwargs, message):
    # a drift of -inf sent every terminal price to 0 without a word, and so did
    # a sigma of 1e200, whose square overflowed
    with pytest.raises(InvalidParams, match=rf"^{message}$"):
        make_underlying_map(**{"s0": 100.0, "sigma": 0.2, "horizon": 1.0, "drift": 0.0,
                               **kwargs})
