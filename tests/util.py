"""Shared oracles and randomized-input factories for the test suite.

The binomial expectation here is deliberately independent of the engine's
backward pass: it sums exact path weights, so it can arbitrate the g == 0
linearity checks.
"""

from math import comb, sqrt

import numpy as np

from gmech import (
    DividendStream,
    Generator,
    GeneratorFlags,
    MechanismHandle,
    TerminalClaim,
)

# Closed-form lognormal references, frozen from a 30-digit computation.
BS_CALL_ATM = 10.450583572185567      # s0=100 k=100 r=0.05 sigma=0.2 tau=1
BS_PUT_ATM = 5.5735260222569677       # same parameters
BS_CALL_OTM = 3.8985511831850602      # s0=100 k=110 r=0.03 sigma=0.25 tau=0.5
BS_PUT_ITM = 3.2983750022248523       # s0=95 k=90 r=0.01 sigma=0.3 tau=0.25


def binomial_expectation(lattice, claim: TerminalClaim, step=None) -> float:
    """Exact expectation of a terminal payoff: sum of comb(n,k) / 2^n weights."""
    n = lattice.n_steps if step is None else step
    vals = claim.values(lattice, n)
    weights = np.array([comb(n, k) for k in range(n + 1)], dtype=float) / (2.0 ** n)
    return float(weights @ vals)


def affine_binomial_price(lattice, claim: TerminalClaim, a: float, b: float) -> float:
    """Root price under the affine driver ``g = a y + b z`` from path weights.

    The one-step equation ``y (1 - a dt) = p up + (1 - p) down`` with
    ``p = (1 + b sqrt(dt)) / 2`` unrolls to a binomial sum discounted by
    ``(1 - a dt)^n``.
    """
    n = lattice.n_steps
    dt = lattice.dt
    p = 0.5 * (1.0 + b * sqrt(dt))
    weights = np.array([comb(n, k) * p ** k * (1.0 - p) ** (n - k)
                        for k in range(n + 1)])
    return float(weights @ claim.values(lattice, n)) / (1.0 - a * dt) ** n


def random_lipschitz_generator(rng, mu_max=0.5, kinks=2) -> Generator:
    """Random driver vanishing at the origin with a certified constant.

    Piecewise-linear in y and in z separately; the declared mu is the sum of
    absolute slopes per variable, an upper bound for the true constant.
    """
    ay, az = rng.normal(size=2)
    cy = rng.normal(size=kinks)
    cz = rng.normal(size=kinks)
    py = rng.uniform(-1.5, 1.5, size=kinks)
    pz = rng.uniform(-1.5, 1.5, size=kinks)
    ly = abs(ay) + np.sum(np.abs(cy))
    lz = abs(az) + np.sum(np.abs(cz))
    scale = mu_max * rng.uniform(0.3, 1.0) / max(ly, lz, 1e-12)
    ay, az, cy, cz = ay * scale, az * scale, cy * scale, cz * scale
    mu = max(abs(ay) + np.sum(np.abs(cy)), abs(az) + np.sum(np.abs(cz)))

    def fn(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = ay * y + az * z
        for k in range(kinks):
            out = out + cy[k] * (np.abs(y - py[k]) - abs(py[k]))
            out = out + cz[k] * (np.abs(z - pz[k]) - abs(pz[k]))
        return out

    return Generator(fn=fn, mu=float(mu), flags=GeneratorFlags(zero_at_zero=True),
                     name="random")


def random_pwl_claim(rng, bound=1.0, slope=1.0) -> TerminalClaim:
    """Stand-alone piecewise-linear claim factory (mirrors the library's)."""
    knots = rng.uniform(-2.0, 2.0, size=3)
    w = rng.normal(size=4)
    w *= slope / max(float(np.sum(np.abs(w))), 1e-12)
    c = float(rng.uniform(-0.5 * bound, 0.5 * bound))

    def payoff(b):
        b = np.asarray(b, dtype=float)
        out = c + w[0] * b
        for k in range(3):
            out = out + w[k + 1] * (np.abs(b - knots[k]) - abs(knots[k]))
        return np.clip(out, -bound, bound)

    return TerminalClaim(payoff, name="pwl")


def ordered_claim_pair(rng, bound=1.0):
    """(upper, lower) claims with upper >= lower pointwise."""
    upper = random_pwl_claim(rng, bound=bound)
    gap = random_pwl_claim(rng, bound=0.5 * bound, slope=0.5)

    def low_payoff(b):
        return (np.asarray(upper.payoff(b), dtype=float)
                - np.abs(np.asarray(gap.payoff(b), dtype=float)))

    return upper, TerminalClaim(low_payoff, name="pwl-lower")


def increasing_stream(rng, lattice, scale=0.1) -> DividendStream:
    """Random payout stream with nonnegative per-node increments."""
    arrays = [np.abs(rng.normal(0.0, scale, size=i + 1)) * lattice.dt
              for i in range(lattice.n_steps)]
    return DividendStream.from_arrays(lattice, arrays)


def signed_stream(rng, lattice, scale=0.1) -> DividendStream:
    arrays = [rng.normal(0.0, scale, size=i + 1) * lattice.dt
              for i in range(lattice.n_steps)]
    return DividendStream.from_arrays(lattice, arrays)


def add_streams(lattice, a: DividendStream, b: DividendStream) -> DividendStream:
    return DividendStream.from_arrays(
        lattice,
        [a.increment(i) + b.increment(i) for i in range(lattice.n_steps)],
    )


def paste(mechs, cuts) -> MechanismHandle:
    """Mechanisms joined end to end as one black box: ``mechs[k]`` governs
    steps ``cuts[k]..cuts[k + 1]`` of the partition ``0 = cuts[0] < ... <
    cuts[-1] = n``.  A claim's node values are walked down the segments from
    the top, one ``price_rows`` call per segment on the slice handed down
    (Peng's time consistency makes this the unique consistent extension)."""
    lattice = mechs[0].lattice

    def price_at(s, t, claim, dividends=None):
        step, rows = t, claim.values(lattice, t)[None]
        while step > s:
            k = max(k for k, c in enumerate(cuts[:-1]) if c < step)
            lo = max(cuts[k], s)
            step, rows = lo, mechs[k].price_rows(lo, step, rows, dividends)
        return rows[0]

    return MechanismHandle(lattice, price_at, mu=max(m.mu for m in mechs))
