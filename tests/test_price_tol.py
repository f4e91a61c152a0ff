"""The one price slack, ``engine.PRICE_TOL``, at its boundary.

Each check is handed a violation of half the slack, which must pass, and of
twice the slack, which must fail.  The violation is put where nothing else
moves: the float noise around it is far below the slack.
"""

import numpy as np
import pytest

from gmech import (
    AdaptedProcess,
    MechanismHandle,
    NotSupermartingale,
    OptionChain,
    TerminalClaim,
    abs_z_generator,
    as_mechanism,
    axiom_suite,
    build_grid,
    build_lattice,
    check_domination,
    doob_meyer,
    domination_generator,
    make_underlying_map,
    random_claim,
    run_domination_test,
    solve_bsde,
    solve_terminal_batch,
)
from gmech.engine import PRICE_TOL

from util import random_lipschitz_generator


def _offset(base, eps, shifted):
    """``base`` with ``eps`` added to the prices that ``shifted(s, t, claim)``
    selects."""
    def price_at(s, t, claim, dividends):
        return base.price_at(s, t, claim, dividends) + (eps if shifted(s, t, claim) else 0.0)

    return MechanismHandle(base.lattice, price_at, mu=base.mu)


def _domination(rng, eps):
    # one claim under two names: the cap of their difference is exactly 0,
    # so the spread is the offset
    lat = build_lattice(build_grid(0.0, 1.0, 16))
    a = random_claim(rng)
    b = TerminalClaim(a.payoff, name="copy")
    mech = _offset(as_mechanism(abs_z_generator(0.3), lat), eps,
                   lambda s, t, claim: claim is a)
    return check_domination(mech, a, b, 0.3, lat).passed


def _identity(rng, eps):
    # only the identity leg prices a claim at its own maturity
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    mech = _offset(as_mechanism(random_lipschitz_generator(rng), lat), eps,
                   lambda s, t, claim: s == t)
    report = axiom_suite(mech, lat, samples=20, seed=int(rng.integers(1 << 16)))
    assert all(c.passed for c in report.checks() if c.name != "identity")
    return report.identity.passed


def _decomposition(rng, eps):
    # a driver of z alone: lowering one node moves its own defect by -eps
    # and its parents' by about +eps / 2
    lat = build_lattice(build_grid(0.0, 1.0, 16))
    g = abs_z_generator(0.3)
    y = solve_bsde(g, random_claim(rng), None, lat).y
    slices = [y.at(i).copy() for i in range(17)]
    slices[8][int(rng.integers(9))] -= eps
    try:
        doob_meyer(g, AdaptedProcess(lat, 0, slices), None, lat)
    except NotSupermartingale:
        return False
    return True


def _audit(rng, eps):
    # at mu = 0 the cap is the linear price, so mids set to the linear
    # prices sit on their caps and a raised call mid is the violation
    strikes = np.sort(rng.uniform(80.0, 120.0, size=3))
    tau, vol = 0.5, 0.2
    lat = build_lattice(build_grid(0.0, tau, 64))
    s_term = make_underlying_map(100.0, vol, tau)(lat.node_values(64))
    linear = domination_generator(0.0)
    calls = solve_terminal_batch(linear, np.maximum(s_term - strikes[:, None], 0.0), lat)
    puts = solve_terminal_batch(linear, np.maximum(strikes[:, None] - s_term, 0.0), lat)
    calls[0] += eps
    chain = OptionChain(0.0, tau, 100.0, strikes, calls, puts)
    return run_domination_test(chain, mu=0.0, n_steps=64, vol_for_lattice=vol).total_violated == 0


@pytest.mark.parametrize("check", [_domination, _identity, _decomposition, _audit],
                         ids=["check_domination", "axiom_suite", "doob_meyer",
                              "run_domination_test"])
def test_half_the_slack_passes_twice_the_slack_fails(check):
    assert PRICE_TOL == 1e-9
    assert check(np.random.default_rng(15), 0.5 * PRICE_TOL)
    assert not check(np.random.default_rng(15), 2.0 * PRICE_TOL)
