"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from gmech import (
    BSMarketParams,
    DominationViolated,
    MechanismHandle,
    TerminalClaim,
    abs_z_generator,
    as_mechanism,
    axiom_suite,
    black_scholes_generator,
    build_grid,
    build_lattice,
    check_domination,
    compare,
    doob_meyer,
    domination_generator,
    linear_generator,
    make_underlying_map,
    pairwise_representation_gap,
    recover_generator,
    represent,
    run_domination_test,
    solve_bsde,
    synth_chain,
    verify_main_theorem,
    z_probe,
    zero_generator,
)
from gmech.analysis import ENVELOPE_TOL, REBUILD_TOL, grid_points
from gmech.engine import PRICE_TOL

from util import (
    BS_CALL_ATM,
    binomial_expectation,
    increasing_stream,
    ordered_claim_pair,
    random_lipschitz_generator,
    random_pwl_claim,
    signed_stream,
    add_streams,
)

ZERO = TerminalClaim(lambda b: np.zeros_like(np.asarray(b, dtype=float)), name="0")


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_linearity_oracle():
    """Zero-driver prices equal exact binomial expectations, 200 payoffs."""
    rng = np.random.default_rng(101)
    g = zero_generator()
    t0 = time.perf_counter()
    worst = 0.0
    grids = [int(rng.integers(2, 31)) for _ in range(199)] + [200]
    for n in grids:
        lat = build_lattice(build_grid(0.0, 1.0, n))
        claim = random_pwl_claim(rng, bound=5.0, slope=3.0)
        got = solve_bsde(g, claim, None, lat).y.at(0)[0]
        worst = max(worst, abs(got - binomial_expectation(lat, claim)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "linearity oracle", ok,
           f"N=200 worst={worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_02_hedge_probe_exactness():
    """The hedge probe reads z-only drivers exactly at any grid size."""
    worst = 0.0
    for n in (4, 16, 64, 256, 1024):
        lat = build_lattice(build_grid(0.0, 1.0, n))
        mech = as_mechanism(abs_z_generator(0.1), lat)
        worst = max(worst, abs(z_probe(mech, 2.0, 0, n) - 0.2))
    for coef, zbar, expected in ((0.3, -1.5, 0.45), (0.0, 3.0, 0.0)):
        lat = build_lattice(build_grid(0.0, 1.0, 32))
        mech = as_mechanism(abs_z_generator(coef), lat)
        worst = max(worst, abs(z_probe(mech, zbar, 0, 32) - expected))
    lat = build_lattice(build_grid(0.0, 1.0, 32))
    mech = as_mechanism(linear_generator(0.0, 0.25), lat)
    worst = max(worst, abs(z_probe(mech, 2.0, 0, 32) - 0.5))
    ok = worst <= 1e-12
    report(2, "hedge-probe exactness", ok, f"worst={worst:.2e} (tol 1e-12)")


def test_criterion_03_black_scholes_reproduction():
    """ATM call on a 2000-step lattice lands on the closed form."""
    t0 = time.perf_counter()
    lat = build_lattice(build_grid(0.0, 1.0, 2000))
    params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
    g = black_scholes_generator(params)
    to_price = make_underlying_map(100.0, params.sigma, 1.0, drift=params.b)
    claim = TerminalClaim(lambda b: np.maximum(to_price(b) - 100.0, 0.0))
    got = solve_bsde(g, claim, None, lat).y.at(0)[0]
    elapsed = time.perf_counter() - t0
    err = abs(got - BS_CALL_ATM)
    ok = err <= 0.05 and elapsed < 10.0
    report(3, "closed-form call reproduction", ok,
           f"lattice={got:.4f} reference={BS_CALL_ATM:.4f} "
           f"err={err:.2e} (tol 0.05), {elapsed:.1f}s (< 10s)")


def test_criterion_04_comparison_theorem():
    """1000 randomized ordered cases, zero node-wise order violations."""
    assert PRICE_TOL == 1e-9
    rng = np.random.default_rng(104)
    lat = build_lattice(build_grid(0.0, 1.0, 10))
    violations = 0
    for _ in range(1000):
        g = random_lipschitz_generator(rng)
        upper, lower = ordered_claim_pair(rng)
        base = signed_stream(rng, lat)
        bigger = add_streams(lat, base, increasing_stream(rng, lat))
        verdict = compare(g, upper, bigger, lower, base, lat)
        assert verdict.applicable
        if not verdict.passed:
            violations += 1
    ok = violations == 0
    report(4, "comparison theorem", ok,
           f"cases=1000 violations={violations} (tol 1e-9)")


def test_criterion_05_domination():
    """1000 randomized cases: price spreads capped by the extremal driver."""
    assert PRICE_TOL == 1e-9
    rng = np.random.default_rng(105)
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    violations = 0
    for _ in range(1000):
        g = random_lipschitz_generator(rng)
        mech = as_mechanism(g, lat)
        a, b = random_pwl_claim(rng), random_pwl_claim(rng)
        ka, kb = signed_stream(rng, lat), signed_stream(rng, lat)
        verdict = check_domination(mech, a, b, g.mu, lat,
                                   dividends_a=ka, dividends_b=kb)
        if not verdict.passed:
            violations += 1
    ok = violations == 0
    report(5, "domination cap", ok,
           f"cases=1000 violations={violations} (tol 1e-9)")


def test_criterion_06_decomposition_round_trip():
    """100 constructed supermartingales give back their streams node-wise."""
    rng = np.random.default_rng(106)
    lat = build_lattice(build_grid(0.0, 1.0, 12))
    worst_stream = 0.0
    for _ in range(100):
        g = random_lipschitz_generator(rng)
        stream = increasing_stream(rng, lat)
        y = solve_bsde(g, random_pwl_claim(rng), stream, lat).y
        result = doob_meyer(g, y, None, lat)
        for i in range(12):
            worst_stream = max(worst_stream, float(np.max(
                np.abs(result.increments.at(i) - stream.increment(i)))))
    worst_mart = 0.0
    for _ in range(20):
        g = random_lipschitz_generator(rng)
        y = solve_bsde(g, random_pwl_claim(rng), None, lat).y
        result = doob_meyer(g, y, None, lat)
        for i in range(12):
            worst_mart = max(worst_mart,
                             float(np.max(np.abs(result.increments.at(i)))))
    ok = worst_stream <= 1e-9 and worst_mart <= 1e-12
    report(6, "decomposition round trip", ok,
           f"constructed worst={worst_stream:.2e} (tol 1e-9), "
           f"martingale worst={worst_mart:.2e} (tol 1e-12)")


def test_criterion_07_representation_bounds():
    """Driver envelope and pairwise gap bound over 100 random claims."""
    assert ENVELOPE_TOL == 1e-6
    rng = np.random.default_rng(107)
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    worst_pair = -np.inf
    claims_done = 0
    for _ in range(10):
        g = random_lipschitz_generator(rng)
        mech = as_mechanism(g, lat)
        reps = []
        for _ in range(10):
            claim = random_pwl_claim(rng)
            reps.append(represent(mech, claim, None, lat))
            claims_done += 1
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                worst_pair = max(worst_pair, pairwise_representation_gap(
                    reps[i], reps[j], g.mu))
    ok = claims_done == 100 and worst_pair <= 1e-6
    report(7, "representation bounds", ok,
           f"claims=100 envelope within 1e-6, pairwise excess="
           f"{worst_pair:.2e} (tol 1e-6)")


HIDDEN_GENERATORS = [
    ("zero", zero_generator),
    ("abs_z:0.3", lambda: abs_z_generator(0.3)),
    ("gmu:0.5", lambda: domination_generator(0.5)),
    ("bs", lambda: black_scholes_generator(BSMarketParams(0.05, 0.08, 0.2))),
]


def test_criterion_08_recovery_of_hidden_generators():
    """Tabulated recovery at level 8, refinement ratios, rebuild check."""
    assert REBUILD_TOL == 1e-2
    ys = zs = [-2.0, -1.0, 0.0, 1.0, 2.0]
    pts = grid_points(ys, zs)
    details = []
    ok = True
    for name, make in HIDDEN_GENERATORS:
        gen = make()
        sup = {}
        for level in (6, 7, 8):
            lat = build_lattice(build_grid(0.0, 1.0, 2 ** level))
            mech = as_mechanism(gen, lat)
            rec = recover_generator(mech, level, pts, lat)
            err = 0.0
            for ti, t in enumerate(rec.times):
                for pi, (yv, zv) in enumerate(rec.points):
                    err = max(err, abs(rec.table[ti, pi] - float(gen(t, yv, zv))))
            sup[level] = err
        ok = ok and sup[8] <= 1e-2
        ratios = []
        for a, b in ((6, 7), (7, 8)):
            if sup[a] > 1e-10 and sup[b] > 1e-10:
                ratio = sup[b] / sup[a]
                ratios.append(ratio)
                ok = ok and 0.3 <= ratio <= 0.9
        details.append(f"{name}: sup8={sup[8]:.1e}"
                       + (f" ratios={[f'{r:.2f}' for r in ratios]}" if ratios
                          else " (exact, ratio skipped)"))

        lat = build_lattice(build_grid(0.0, 1.0, 256))
        mech = as_mechanism(gen, lat)
        verdict = verify_main_theorem(mech, lat, samples=6, seed=108, level=8,
                                      ys=ys, zs=zs)
        ok = ok and verdict.passed()
        details.append(f"{name}: rebuild disc={verdict.max_discrepancy:.1e}")

    # a mechanism that is not dominated at its declared level must be caught
    lat = build_lattice(build_grid(0.0, 1.0, 64))
    rogue = as_mechanism(abs_z_generator(1.0), lat)
    rogue.mu = 0.5
    try:
        recover_generator(rogue, 6, [(0.0, 2.0)], lat)
        caught = False
    except DominationViolated:
        caught = True
    ok = ok and caught
    details.append(f"undominated mechanism caught={caught}")
    report(8, "generating-function recovery", ok, "; ".join(details))


def test_criterion_09_chain_audit():
    """Synthetic chains audit clean; seeded corruptions are all flagged."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    total = violated = 0
    for _ in range(10):
        s0 = float(rng.uniform(50, 200))
        sigma = float(rng.uniform(0.15, 0.35))
        r = float(rng.uniform(0.0, 0.06))
        b = float(r + rng.uniform(-0.02, 0.05))
        tau = float(rng.uniform(0.1, 1.0))
        params = BSMarketParams(r=r, b=b, sigma=sigma)
        chain = synth_chain(params, s0, np.linspace(0.8 * s0, 1.2 * s0, 20),
                            0.0, tau)
        mu = max(0.5, r, abs(b - r) / sigma)
        rep = run_domination_test(chain, mu=mu, n_steps=256,
                                  vol_for_lattice=sigma)
        assert rep.total_tested >= 1520
        assert not rep.anomalies
        total += rep.total_tested
        violated += rep.total_violated

    params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
    base = synth_chain(params, 100.0, np.linspace(80, 120, 20), 0.0, 0.5)
    detected = 0
    for seed in range(50):
        crng = np.random.default_rng(seed)
        chain = synth_chain(params, 100.0, np.linspace(80, 120, 20), 0.0, 0.5)
        k = int(crng.integers(0, 19))
        if crng.random() < 0.5:
            chain.put_mids[k] = chain.put_mids[k + 1] + float(
                crng.uniform(0.1, 2.0))
        else:
            chain.call_mids[k + 1] = chain.call_mids[k] + float(
                crng.uniform(0.1, 2.0))
        rep = run_domination_test(chain, mu=0.5, n_steps=16,
                                  vol_for_lattice=0.2)
        if rep.anomalies:
            detected += 1
    elapsed = time.perf_counter() - t0
    ok = violated == 0 and detected == 50 and elapsed < 60.0
    report(9, "option-chain audit", ok,
           f"tested={total} violations={violated}, corruption detection "
           f"{detected}/50, {elapsed:.1f}s (< 60s)")


def _shift_at_maturity(base):
    def price_at(s, t, claim, dividends=None):
        vals = base.price_at(s, t, claim, dividends)
        return vals + 1.0 if s == t else vals
    return MechanismHandle(base.lattice, price_at, mu=base.mu)


def _far_node_peeker(base):
    def price_at(s, t, claim, dividends=None):
        vals = base.price_at(s, t, claim, dividends)
        if s == t:
            return vals
        return vals + 0.05 * float(claim.values(base.lattice, t)[0])
    return MechanismHandle(base.lattice, price_at, mu=base.mu)


def test_criterion_10_axiom_suite():
    """10 random drivers pass all laws at 200 samples; corrupted wrappers
    fail exactly their target law with a witness."""
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    rng = np.random.default_rng(110)
    all_pass = True
    for _ in range(10):
        g = random_lipschitz_generator(rng)
        rep = axiom_suite(as_mechanism(g, lat), lat, samples=200,
                          seed=int(rng.integers(1 << 30)))
        all_pass = all_pass and rep.all_passed()

    base = as_mechanism(domination_generator(0.3), lat)
    details = []

    rep = axiom_suite(_shift_at_maturity(base), lat, samples=120, seed=11)
    shift_ok = (not rep.identity.passed and rep.identity.witness is not None
                and all(c.passed for c in rep.checks() if c.name != "identity"))
    details.append(f"maturity-shift isolates identity={shift_ok}")

    coarse = build_lattice(build_grid(0.0, 1.0, 4))
    rep = axiom_suite(as_mechanism(abs_z_generator(3.0), coarse), coarse,
                      samples=200, seed=12)
    mono_ok = (not rep.monotonicity.passed
               and rep.monotonicity.witness is not None
               and all(c.passed for c in rep.checks()
                       if c.name != "monotonicity"))
    details.append(f"non-monotone scheme isolates monotonicity={mono_ok}")

    rep = axiom_suite(_far_node_peeker(base), lat, samples=120, seed=13)
    peek_ok = (not rep.locality.passed and rep.locality.witness is not None
               and rep.monotonicity.passed and rep.identity.passed
               and rep.zero_preservation.passed)
    details.append(f"far-node peeker breaks locality={peek_ok}")

    ok = all_pass and shift_ok and mono_ok and peek_ok
    report(10, "pricing-system laws", ok,
           f"10 random drivers pass at 200 samples={all_pass}; "
           + "; ".join(details))


def test_criterion_11_driver_structure_transfers_to_prices():
    """Each structural driver property implies its price property, 200 claims."""
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    rng = np.random.default_rng(111)
    n_claims = 200
    results = {}

    # convexity (the extremal driver is convex)
    g = domination_generator(0.5)
    worst = -np.inf
    for _ in range(n_claims):
        a, b = random_pwl_claim(rng), random_pwl_claim(rng)
        alpha = float(rng.uniform())
        mix = TerminalClaim(lambda v, x=a, y=b, w=alpha:
                            w * np.asarray(x.payoff(v), float)
                            + (1 - w) * np.asarray(y.payoff(v), float))
        ya = solve_bsde(g, a, None, lat).y
        yb = solve_bsde(g, b, None, lat).y
        ym = solve_bsde(g, mix, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(
                ym.at(i) - alpha * ya.at(i) - (1 - alpha) * yb.at(i))))
    results["convexity"] = worst

    # subadditivity
    worst = -np.inf
    for _ in range(n_claims):
        a, b = random_pwl_claim(rng), random_pwl_claim(rng)
        both = TerminalClaim(lambda v, x=a, y=b:
                             np.asarray(x.payoff(v), float)
                             + np.asarray(y.payoff(v), float))
        ya = solve_bsde(g, a, None, lat).y
        yb = solve_bsde(g, b, None, lat).y
        ys = solve_bsde(g, both, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(ys.at(i) - ya.at(i) - yb.at(i))))
    results["subadditivity"] = worst

    # positive homogeneity
    worst = 0.0
    for _ in range(n_claims):
        claim = random_pwl_claim(rng)
        lam = float(rng.uniform(0.0, 4.0))
        scaled = TerminalClaim(lambda v, c=claim, l=lam:
                               l * np.asarray(c.payoff(v), float))
        ya = solve_bsde(g, claim, None, lat).y
        ys = solve_bsde(g, scaled, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(
                np.abs(ys.at(i) - lam * ya.at(i)))) / (1.0 + lam))
    results["homogeneity"] = worst

    # cash invariance for a y-independent driver
    gz = abs_z_generator(0.3)
    worst = 0.0
    for _ in range(n_claims):
        claim = random_pwl_claim(rng)
        eta = float(rng.normal())
        shifted = TerminalClaim(lambda v, c=claim, e=eta:
                                np.asarray(c.payoff(v), float) + e)
        ya = solve_bsde(gz, claim, None, lat).y
        ysh = solve_bsde(gz, shifted, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(np.abs(ysh.at(i) - ya.at(i) - eta))))
    results["cash invariance"] = worst

    # self-financing: zero claim prices to zero under 200 random drivers
    worst = 0.0
    for _ in range(n_claims):
        grand = random_lipschitz_generator(rng)
        y = solve_bsde(grand, ZERO, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(np.abs(y.at(i)))))
    results["self-financing"] = worst

    # zero-rate: drivers vanishing at z = 0 preserve constants
    worst = 0.0
    for _ in range(n_claims):
        coef = float(rng.uniform(0.0, 0.5))
        grate = abs_z_generator(coef)
        eta = float(rng.normal())
        claim = TerminalClaim(lambda v, e=eta: e + 0.0 * np.asarray(v, float))
        y = solve_bsde(grate, claim, None, lat).y
        for i in range(9):
            worst = max(worst, float(np.max(np.abs(y.at(i) - eta))))
    results["zero-rate"] = worst

    # hedge independence: a y-only driver ignores added walk increments
    worst = 0.0
    for _ in range(n_claims):
        a = float(rng.uniform(-0.4, 0.4))
        gy = linear_generator(a, 0.0)
        claim = random_pwl_claim(rng)
        zbar = float(rng.normal())
        s = int(rng.integers(0, 8))
        j = int(rng.integers(0, s + 1))
        b0 = float(lat.node_values(s)[j])
        tilted = TerminalClaim(lambda v, c=claim, zb=zbar, bb=b0:
                               np.asarray(c.payoff(v), float)
                               + zb * (np.asarray(v, float) - bb))
        pa = as_mechanism(gy, lat).price_at(s, 8, claim)[j]
        pt = as_mechanism(gy, lat).price_at(s, 8, tilted)[j]
        worst = max(worst, abs(pt - pa))
    results["hedge independence"] = worst

    ok = all(v <= 1e-9 for v in results.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    report(11, "structure transfer (forward)", ok,
           f"{n_claims} claims each, worst margins: {detail} (tol 1e-9)")
