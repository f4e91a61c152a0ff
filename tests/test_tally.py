"""The one tally behind every sampled verdict, held to per-law reference loops.

``classify_generator``, ``verify_lipschitz`` and ``axiom_suite`` record
their samples through one tally that keeps the worst violation and the key
of the first sample to reach it.  The loops here keep a witness dict per
failing sample instead, law by law, and price every sample on its own; the
reports must match them byte for byte, witness key order included.
"""

import json
import math

import numpy as np
import pytest

from gmech import (
    BSMarketParams,
    Generator,
    MechanismHandle,
    PropertyVerdict,
    StructureReport,
    LipschitzReport,
    NonFiniteValue,
    abs_z_generator,
    as_mechanism,
    axiom_suite,
    black_scholes_generator,
    build_grid,
    build_lattice,
    classify_generator,
    domination_generator,
    linear_generator,
    random_claim,
    verify_lipschitz,
    zero_generator,
)
from gmech.analysis import AxiomCheck, _reach_mask
from gmech.engine import PRICE_TOL

from util import price_at_only, random_lipschitz_generator

LAWFUL = [zero_generator(), domination_generator(0.5), abs_z_generator(0.3),
          linear_generator(-0.2, 0.4),
          black_scholes_generator(BSMarketParams(r=0.05, b=0.08, sigma=0.2)),
          random_lipschitz_generator(np.random.default_rng(61))]


def _rogue_fn(t, y, z):
    y, z = np.asarray(y, float), np.asarray(z, float)
    return (0.3 * np.abs(z) + 3.0 * np.maximum(np.abs(y) - 2.5, 0.0)
            + 0.2 * np.sin(3.0 * t) + 0.1 * y * z)


# breaks its declared mu outside |y| <= 2.5, is nonzero at the origin, and is
# neither convex, concave, homogeneous nor independent of y or z
ROGUE = Generator(fn=_rogue_fn, mu=0.5, name="rogue")
# every sample violates zero_at_zero and zero_rate by exactly 1
CONSTANT = Generator(fn=lambda t, y, z: 1.0 + 0.0 * np.asarray(y, float), mu=0.0,
                     name="constant")
# with z held at 0 every pair's increment ratio is exactly 1
IDENTITY_Y = Generator(fn=lambda t, y, z: np.asarray(y, float) + 0.0 * np.asarray(z, float),
                       mu=0.5, name="y")
DRIVERS = LAWFUL + [ROGUE, CONSTANT, IDENTITY_Y]
# drivers at the float edges: +/-1e308 by the sign of y, so a pair of opposite
# signs overflows to a ratio of inf; inf at both points of every pair; NaN at
# the points with y > 4.5 only
EDGES = [Generator(fn=lambda t, y, z: 1e308 * np.sign(np.asarray(y, float)), mu=1.0,
                   name="overflowing"),
         Generator(fn=lambda t, y, z: np.inf + 0.0 * np.asarray(y, float), mu=1.0, name="inf"),
         Generator(fn=lambda t, y, z: np.where(np.asarray(y, float) > 4.5, np.nan, 0.0),
                   mu=1.0, name="nan-above-4.5")]


# -- reference loops ------------------------------------------------------------

def _verdict(violations, checks):
    if not violations:
        return PropertyVerdict(holds=True, checks=checks)
    worst = max(violations, key=lambda mv: mv[0])
    return PropertyVerdict(holds=False, checks=checks, witness=worst[1])


def _reference_classify(g, samples, box=((-5.0, 5.0), (-5.0, 5.0)), seed=0,
                        t_range=(0.0, 1.0), tol=1e-9):
    rng = np.random.default_rng(seed)
    viol = {name: [] for name in StructureReport.__dataclass_fields__}
    for _ in range(samples):
        t = float(rng.uniform(*t_range))
        (y1,), (z1,) = rng.uniform(*box[0], size=1), rng.uniform(*box[1], size=1)
        (y2,), (z2,) = rng.uniform(*box[0], size=1), rng.uniform(*box[1], size=1)
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 3.0))

        g11 = float(g(t, y1, z1))
        g22 = float(g(t, y2, z2))
        scale = 1.0 + abs(g11) + abs(g22)

        v = abs(float(g(t, 0.0, 0.0)))
        if v > tol:
            viol["zero_at_zero"].append((v, {"t": t, "value": v}))

        mix = float(g(t, alpha * y1 + (1 - alpha) * y2, alpha * z1 + (1 - alpha) * z2))
        blend = alpha * g11 + (1 - alpha) * g22
        if mix - blend > tol * scale:
            viol["convex"].append((mix - blend, {"t": t, "y": y1, "z": z1, "y2": y2,
                                                 "z2": z2, "alpha": alpha}))
        if blend - mix > tol * scale:
            viol["concave"].append((blend - mix, {"t": t, "y": y1, "z": z1, "y2": y2,
                                                  "z2": z2, "alpha": alpha}))

        v = abs(float(g(t, lam * y1, lam * z1)) - lam * g11)
        if v > tol * (1.0 + lam) * scale:
            viol["positively_homogeneous"].append(
                (v, {"t": t, "y": y1, "z": z1, "lambda": lam}))

        v = float(g(t, y1 + y2, z1 + z2)) - (g11 + g22)
        if v > tol * scale:
            viol["subadditive"].append((v, {"t": t, "y": y1, "z": z1, "y2": y2, "z2": z2}))

        v = abs(float(g(t, y2, z1)) - g11)
        if v > tol * scale:
            viol["y_independent"].append((v, {"t": t, "y": y1, "y2": y2, "z": z1}))

        v = abs(float(g(t, y1, z2)) - g11)
        if v > tol * scale:
            viol["z_independent"].append((v, {"t": t, "y": y1, "z": z1, "z2": z2}))

        v = abs(float(g(t, y1, 0.0)))
        if v > tol * scale:
            viol["zero_rate"].append((v, {"t": t, "y": y1}))

        v = -float(g(t, -y1, -z1)) - g11
        if v > tol * scale:
            viol["sellers_condition"].append((v, {"t": t, "y": y1, "z": z1}))
    return StructureReport(**{name: _verdict(v, samples) for name, v in viol.items()})


def _reference_lipschitz(g, samples, box=((-5.0, 5.0), (-5.0, 5.0)), seed=0,
                         t_range=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(*t_range, size=samples)
    y1, z1 = rng.uniform(*box[0], size=samples), rng.uniform(*box[1], size=samples)
    y2, z2 = rng.uniform(*box[0], size=samples), rng.uniform(*box[1], size=samples)
    worst, witness = 0.0, None
    for k in range(samples):
        sep = abs(y1[k] - y2[k]) + abs(z1[k] - z2[k])
        if sep < 1e-12:
            continue
        g1, g2 = float(g(ts[k], y1[k], z1[k])), float(g(ts[k], y2[k], z2[k]))
        for v, y, z in ((g1, y1[k], z1[k]), (g2, y2[k], z2[k])):
            if not math.isfinite(v):
                raise NonFiniteValue(f"driver value is {v} at t={float(ts[k])!r}, "
                                     f"y={float(y)!r}, z={float(z)!r}")
        ratio = abs(g1 - g2) / sep
        if ratio > worst:
            worst = ratio
            witness = {"t": float(ts[k]), "y": float(y1[k]), "z": float(z1[k]),
                       "y2": float(y2[k]), "z2": float(z2[k]), "ratio": float(ratio)}
    ok = worst <= g.mu * (1.0 + 1e-9)
    return LipschitzReport(ok=ok, worst_ratio=worst, witness=None if ok else witness,
                           samples=samples)


class _Law:
    def __init__(self, name):
        self.check = AxiomCheck(name=name, passed=True, samples=0)

    def record(self, violation, witness):
        c = self.check
        c.samples += 1
        if violation > PRICE_TOL:
            c.passed = False
            c.failures += 1
            if violation > c.worst_margin:
                c.worst_margin, c.witness = violation, witness


def _reference_axioms(mech, lattice, samples, seed):
    """The law suite sample by sample, each leg one ``price_rows`` row."""
    rng = np.random.default_rng(seed)
    n = lattice.n_steps
    laws = [_Law(name) for name in ("monotonicity", "identity", "time_consistency",
                                    "locality", "splitting", "zero_preservation",
                                    "locality_with_zero")]
    mono, ident, tower, local, split, zero, local0 = laws

    def price(s, t, row):
        return mech.price_rows(s, t, [row])[0]

    for k in range(samples):
        t = int(rng.integers(2, n + 1))
        s = int(rng.integers(1, t))
        r = int(rng.integers(0, s))
        x_vals = random_claim(rng).values(lattice, t)
        lower = x_vals - np.abs(random_claim(rng, bound=0.5, slope=0.5).values(lattice, t))
        event = np.flatnonzero(rng.random(s + 1) < 0.5)
        if event.size == 0:
            event = np.array([int(rng.integers(0, s + 1))])
        cone = _reach_mask(s, t, event)
        bump = np.where(cone, 0.0, rng.normal(size=t + 1))
        other_vals = random_claim(rng).values(lattice, t)
        comp = np.setdiff1d(np.arange(s + 1), event)

        pa = price(s, t, x_vals)
        viol = float(np.max(price(s, t, lower) - pa))
        mono.record(viol, {"sample": k, "s": s, "t": t, "violation": viol})

        viol = float(np.max(np.abs(price(t, t, x_vals) - x_vals)))
        ident.record(viol, {"sample": k, "t": t, "violation": viol})

        viol = float(np.max(np.abs(price(r, s, pa) - price(r, t, x_vals))))
        tower.record(viol, {"sample": k, "r": r, "s": s, "t": t, "violation": viol})

        viol = float(np.max(np.abs(price(s, t, x_vals + bump)[event] - pa[event])))
        local.record(viol, {"sample": k, "s": s, "t": t,
                            "event": event.tolist(), "violation": viol})

        if comp.size:
            other_vals = np.where(cone & _reach_mask(s, t, comp), x_vals, other_vals)
            po = price(s, t, other_vals)
            pblend = price(s, t, np.where(cone, x_vals, other_vals))
            expected = np.where(np.isin(np.arange(s + 1), event), pa, po)
            viol = float(np.max(np.abs(pblend - expected)))
            split.record(viol, {"sample": k, "s": s, "t": t,
                                "event": event.tolist(), "violation": viol})

        viol = float(np.max(np.abs(price(s, t, np.zeros(t + 1)))))
        zero.record(viol, {"sample": k, "s": s, "t": t, "violation": viol})

        pk = price(s, t, np.where(cone, x_vals, 0.0))
        viol = float(np.max(np.abs(pk[event] - pa[event])))
        outside = np.convolve(cone, np.ones(t - s + 1), "valid") == 0
        if outside.any():
            viol = max(viol, float(np.max(np.abs(pk[outside]))))
        local0.record(viol, {"sample": k, "s": s, "t": t,
                             "event": event.tolist(), "violation": viol})
    return [law.check for law in laws]


# -- black boxes ----------------------------------------------------------------

def _peeker(base):
    """Every price leans on the claim's value at the lowest terminal node."""
    def price_at(s, t, claim, dividends=None):
        vals = base.price_at(s, t, claim, dividends)
        if s == t:
            return vals
        return vals + 0.05 * float(claim.values(base.lattice, t)[0])
    return MechanismHandle(base.lattice, price_at, mu=base.mu)


def _constant_box(lattice):
    """Prices every claim at 1: zero preservation fails by exactly 1 each time."""
    return MechanismHandle(lattice, lambda s, t, c, d=None: np.ones(s + 1), mu=0.0)


def _black_boxes(steps=8):
    half = build_lattice(build_grid(0.0, 1.0, steps // 2))
    lat = build_lattice(build_grid(0.0, 1.0, steps))
    base = as_mechanism(domination_generator(0.3), lat)
    boxes = [(as_mechanism(g, lat), lat) for g in LAWFUL]
    # mu sqrt(dt) = 1.5 at 4 steps: the one-step map decreases in a child value
    boxes.append((as_mechanism(abs_z_generator(3.0), half), half))
    boxes.append((_peeker(base), lat))
    boxes.append((_constant_box(lat), lat))
    return boxes


def _wave_calls(n, samples, seed):
    """The ``(s, t)`` of every ``price_at`` call the suite asks of a black box on
    ``n`` steps: per wave, each distinct ``(s, t)`` in order of first use, once
    per row; the draws are the reference loop's."""
    rng = np.random.default_rng(seed)
    legs, nested = {}, {}
    for _ in range(samples):
        t = int(rng.integers(2, n + 1))
        s = int(rng.integers(1, t))
        r = int(rng.integers(0, s))
        random_claim(rng), random_claim(rng, bound=0.5, slope=0.5)
        event = rng.random(s + 1) < 0.5
        if not event.any():
            event[int(rng.integers(0, s + 1))] = True
        rng.normal(size=t + 1)
        random_claim(rng)
        for key, rows in (((s, t), 5 if event.all() else 7), ((t, t), 1), ((r, t), 1)):
            legs[key] = legs.get(key, 0) + rows
        nested[(r, s)] = nested.get((r, s), 0) + 1
    return [key for wave in (legs, nested) for key, rows in wave.items() for _ in range(rows)]


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("g", DRIVERS, ids=lambda g: g.name)
def test_classify_matches_the_per_property_lists(g):
    for seed, samples, box in ((0, 1, ((-5.0, 5.0), (-5.0, 5.0))),
                               (3, 60, ((-5.0, 5.0), (-5.0, 5.0))),
                               (11, 40, ((-4.0, 4.0), (-1.0, 3.0)))):
        got = classify_generator(g, samples, box=box, seed=seed)
        want = _reference_classify(g, samples, box=box, seed=seed)
        assert repr(got) == repr(want)
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())


@pytest.mark.parametrize("g", DRIVERS, ids=lambda g: g.name)
def test_lipschitz_matches_the_worst_ratio_loop(g):
    for seed, samples, box in ((0, 1, ((-5.0, 5.0), (-5.0, 5.0))),
                               (5, 300, ((-5.0, 5.0), (-5.0, 5.0))),
                               (7, 50, ((-1.0, 1.0), (0.0, 0.0)))):
        got = verify_lipschitz(g, samples, box=box, seed=seed)
        assert repr(got) == repr(_reference_lipschitz(g, samples, box=box, seed=seed))
    understated = Generator(fn=g.fn, mu=0.5 * g.mu, name=g.name)
    assert (repr(verify_lipschitz(understated, 200, seed=9))
            == repr(_reference_lipschitz(understated, 200, seed=9)))


def _outcome(check, *args, **kwargs) -> str:
    """The repr of ``check``'s report, or the type and text of its error."""
    try:
        return repr(check(*args, **kwargs))
    except NonFiniteValue as err:
        return f"NonFiniteValue: {err}"


@pytest.mark.parametrize("g", EDGES, ids=lambda g: g.name)
def test_lipschitz_matches_the_worst_ratio_loop_at_the_float_edges(g):
    # an overflowing pair is a ratio of inf, not an error; a NaN or inf driver
    # value is named by its t, y and z
    for seed, samples in ((5, 300), (7, 50)):
        got = _outcome(verify_lipschitz, g, samples, seed=seed)
        assert got == _outcome(_reference_lipschitz, g, samples, seed=seed)
        assert ("NonFiniteValue" in got) == (g.name != "overflowing")


@pytest.mark.parametrize("case", range(len(LAWFUL) + 3))
def test_axiom_suite_matches_the_per_law_loop(case):
    # the suite evaluates claims per maturity and reduces each law per (s, t)
    # group; at 8 steps also at the bench's shape (200 samples, three seeds
    # through the handle, one through its price_at alone), and at 16 and 64
    # steps; a failing box's witnesses match bit for bit (repr round-trips)
    for steps, runs, blind_runs in (
            (8, ((0, 1), (13, 40), (3, 200), (5, 200), (7, 200)), ((0, 1), (13, 40), (5, 200))),
            (16, ((2, 24),), ((2, 24),)), (64, ((4, 8),), ((4, 8),))):
        mech, lat = _black_boxes(steps)[case]
        for handle, seeds in ((mech, runs), (price_at_only(mech)[0], blind_runs)):
            for seed, samples in seeds:
                report = axiom_suite(handle, lat, samples=samples, seed=seed)
                want = _reference_axioms(handle, lat, samples, seed)
                assert repr(report.checks()) == repr(want), (steps, seed)
                assert json.dumps(report.as_dict()) == json.dumps(
                    {c.name: {"passed": c.passed, "samples": c.samples, "failures": c.failures,
                              "worst_margin": c.worst_margin, "witness": c.witness}
                     for c in want})


@pytest.mark.parametrize("seed", [7, 11])
def test_a_black_box_sees_one_call_per_row_in_two_waves(seed):
    # one price_rows call per distinct (s, t) in each wave, rows in sample
    # order: 1,950 price_at calls at seed 7, the sample-by-sample row build's count
    lat = build_lattice(build_grid(0.0, 1.0, 8))
    base = as_mechanism(domination_generator(0.5), lat)
    calls = []

    def price_at(s, t, claim, dividends=None):
        calls.append((s, t))
        return base.price_at(s, t, claim, dividends)

    axiom_suite(MechanismHandle(lat, price_at, mu=0.5), lat, samples=200, seed=seed)
    assert calls == _wave_calls(8, 200, seed)
    if seed == 7:
        assert len(calls) == 1950


def test_a_tie_keeps_the_first_sample():
    report = classify_generator(CONSTANT, 30, seed=4)
    first_t = float(np.random.default_rng(4).uniform(0.0, 1.0))
    assert report.zero_at_zero.witness == {"t": first_t, "value": 1.0}
    assert report.zero_rate.witness["t"] == first_t

    report = verify_lipschitz(IDENTITY_Y, 30, box=((-1.0, 1.0), (0.0, 0.0)), seed=4)
    assert not report.ok and report.worst_ratio == 1.0
    assert report.witness["t"] == float(np.random.default_rng(4).uniform(0.0, 1.0, 30)[0])

    lat8 = build_lattice(build_grid(0.0, 1.0, 8))
    law = axiom_suite(_constant_box(lat8), lat8, samples=30, seed=4).zero_preservation
    assert (law.failures, law.worst_margin, law.witness["sample"]) == (30, 1.0, 0)
