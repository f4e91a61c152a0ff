"""Black-box analysis of pricing mechanisms.

Treats a :class:`~gmech.engine.MechanismHandle` as an opaque map from claims
to node prices and provides, in increasing order of ambition:

* a randomized structural-law suite (monotonicity, identity, time
  consistency, locality, splitting, zero preservation),
* the discrete decomposition of a supermartingale into a price plus a unique
  increasing payout stream,
* extraction of the realized driver and hedge processes of any dominated
  mechanism, with the ``mu * (|y| + |z|)`` envelope enforced,
* probes that read the generating function off input-output behaviour, and
  the full tabulated recovery of that function on a sample grid.

Locality note: claims on a recombining lattice are functions of the terminal
node only, so the locality laws are checked through reachable sets.  A time-s
event is a set of step-s nodes; the nodes it can reach at maturity form its
cone, and the laws say prices on the event depend only on payoff values
inside the cone.  That is the exact lattice content of the indicator
identities for measurable events.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BoundViolated,
    ContractionViolation,
    DominationViolated,
    InvalidParams,
    NotSupermartingale,
    StepOutOfRange,
)
from .generators import Generator, _count, _tallies, _witnessed
from .lattice import AdaptedProcess, Lattice, _max_gap, _worst_node, one_step_mz
from .engine import (
    PICARD_TOL,
    PRICE_TOL,
    DividendStream,
    MechanismHandle,
    TerminalClaim,
    _check_finite,
    _check_steps,
    _increment_at,
    _own_lattice,
    _same_lattice,
    _witness,
    as_mechanism,
    check_domination,
    claim_from_values,
    random_claim,
    require_monotone,
    solve_bsde,
)

# Slack of the driver envelope ``mu (|y| + |z|)`` for float noise.
ENVELOPE_TOL = 1e-6
RECOVERY_SLACK = 1e-6  # of the recovery certificate (Lipschitz ratio, zero defect)
REBUILD_TOL = 1e-2  # worst price gap of the rebuilt system that still passes
# what a one-step decomposition forms, in order; the first NaN or inf is named
_ONE_STEP = ("one-step mean", "hedge", "driver", "one-step defect")


# =====================================================================
# structural-law suite
# =====================================================================

@dataclass
class AxiomCheck:
    name: str
    passed: bool
    samples: int
    failures: int = 0
    worst_margin: float = 0.0
    witness: Optional[dict] = None


@dataclass
class AxiomReport:
    """Per-law verdicts with a counterexample witness on failure: the first
    sample with the law's worst violation."""

    monotonicity: AxiomCheck = _witnessed("sample", "s", "t", "violation")
    identity: AxiomCheck = _witnessed("sample", "t", "violation")
    time_consistency: AxiomCheck = _witnessed("sample", "r", "s", "t", "violation")
    locality: AxiomCheck = _witnessed("sample", "s", "t", "event", "violation")
    splitting: AxiomCheck = _witnessed("sample", "s", "t", "event", "violation")
    zero_preservation: AxiomCheck = _witnessed("sample", "s", "t", "violation")
    locality_with_zero: AxiomCheck = _witnessed("sample", "s", "t", "event", "violation")

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks())

    def checks(self):
        return [getattr(self, f.name) for f in fields(self)]

    def as_dict(self) -> dict:
        return {c.name: {k: v for k, v in asdict(c).items() if k != "name"}
                for c in self.checks()}


def _reach_mask(step_s: int, step_t: int, nodes_s: np.ndarray) -> np.ndarray:
    """Terminal-node mask of the cone reachable from the given step-s nodes."""
    hit = np.zeros(step_s + 1)
    hit[nodes_s] = 1.0
    return np.convolve(hit, np.ones(step_t - step_s + 1)) > 0


def _price_legs(mech: MechanismHandle, legs: list) -> list:
    """Prices of ``legs[k]``, sample ``k``'s list of ``(s, t, row)``, in the
    same nesting; one ``price_rows`` call per distinct ``(s, t)``."""
    groups = {}
    for k, sample in enumerate(legs):
        for m, (s, t, row) in enumerate(sample):
            groups.setdefault((s, t), []).append((k, m, row))
    out = [[None] * len(sample) for sample in legs]
    for (s, t), members in groups.items():
        prices = mech.price_rows(s, t, [row for _, _, row in members])
        for (k, m, _), p in zip(members, prices):
            out[k][m] = p
    return out


def axiom_suite(mech: MechanismHandle, lattice: Lattice | None, samples: int,
                seed: int = 0) -> AxiomReport:
    """Randomized falsification suite for the pricing-system laws.

    Claims are random piecewise-linear payoffs; events are random node
    subsets at the evaluation step.  Deterministic given ``seed``.
    ``lattice`` is the handle's own or ``None``.

    Every sample is drawn first and kept as terminal node rows (all samples'
    rows are held at once).  The rows are then priced in two waves with one
    ``price_rows`` call per distinct ``(s, t)`` in each: first the rows that
    need no price (the ``(s, t)`` legs, the identity leg ``(t, t)`` and the
    direct leg ``(r, t)``), then the nested leg ``(r, s)`` on the step-``s``
    prices of the claim.  The laws are tallied in sample order.  A black box
    is therefore called in a different order than sample by sample; it must
    be pure, as every handle must.
    """
    lattice = _own_lattice(mech, lattice)
    _count("samples", samples)
    rng = np.random.default_rng(seed)
    n = lattice.n_steps
    if n < 3:
        raise InvalidParams("lattice must have at least 3 steps for nested checks")

    draws, legs = [], []
    for _ in range(samples):
        t = int(rng.integers(2, n + 1))
        s = int(rng.integers(1, t))
        r = int(rng.integers(0, s))
        x_vals = random_claim(rng).values(lattice, t)
        # monotonicity: subtract a nonnegative payoff
        lower = x_vals - np.abs(random_claim(rng, bound=0.5, slope=0.5).values(lattice, t))
        event = np.flatnonzero(rng.random(s + 1) < 0.5)
        if event.size == 0:
            event = np.array([int(rng.integers(0, s + 1))])
        cone = _reach_mask(s, t, event)
        # locality: perturb the payoff outside the event's cone
        bump = np.where(cone, 0.0, rng.normal(size=t + 1))
        other_vals = random_claim(rng).values(lattice, t)
        rows = [x_vals, lower, x_vals + bump, np.zeros(t + 1), np.where(cone, x_vals, 0.0)]
        # splitting: a claim assembled from two claims along the event cone
        # (the claims agree where the cones overlap, which is the
        # measurability constraint of the lattice)
        comp = np.setdiff1d(np.arange(s + 1), event)
        if comp.size:
            other_vals = np.where(cone & _reach_mask(s, t, comp), x_vals, other_vals)
            rows += [other_vals, np.where(cone, x_vals, other_vals)]
        draws.append((s, t, r, x_vals, event, cone))
        legs.append([(s, t, row) for row in rows] + [(t, t, x_vals), (r, t, x_vals)])
    priced = _price_legs(mech, legs)
    nested = _price_legs(mech, [[(r, s, p[0])] for (s, t, r, *_), p in zip(draws, priced)])

    tallies = _tallies(AxiomReport)
    mono, ident, tower, local, split, zero, local0 = tallies
    for k, ((s, t, r, x_vals, event, cone), p, (pn,)) in enumerate(zip(draws, priced, nested)):
        pa, pb, pp, pz, pk, *split_prices, same, direct = p
        # monotonicity: the lowered claim prices lower
        mono.record(float(np.max(pb - pa)), PRICE_TOL, k)
        # identity: pricing at its own maturity returns the payoff
        ident.record(float(np.max(np.abs(same - x_vals))), PRICE_TOL, k)
        # time consistency: price of the intermediate value slice re-prices
        tower.record(float(np.max(np.abs(pn - direct))), PRICE_TOL, k)
        # locality: prices on the event ignore the payoff outside its cone
        local.record(float(np.max(np.abs(pp[event] - pa[event]))), PRICE_TOL, k)

        if split_prices:
            po, pblend = split_prices
            expected = np.where(np.isin(np.arange(s + 1), event), pa, po)
            split.record(float(np.max(np.abs(pblend - expected))), PRICE_TOL, k)

        zero.record(float(np.max(np.abs(pz))), PRICE_TOL, k)

        # locality with zero: kill the payoff outside the cone; prices on the
        # event are unchanged and prices on nodes whose cones miss it vanish
        viol = float(np.max(np.abs(pk[event] - pa[event])))
        outside = np.convolve(cone, np.ones(t - s + 1), "valid") == 0
        if outside.any():
            viol = max(viol, float(np.max(np.abs(pk[outside]))))
        local0.record(viol, PRICE_TOL, k)

    def named(k, worst):
        s, t, r, _, event, _ = draws[k]
        return {"sample": k, "r": r, "s": s, "t": t, "event": event.tolist(),
                "violation": worst}

    return AxiomReport(*(AxiomCheck(name=f.name, passed=not tally.failures,
                                    samples=tally.samples, failures=tally.failures,
                                    worst_margin=tally.worst, witness=tally.witness(named))
                         for f, tally in zip(fields(AxiomReport), tallies)))


# =====================================================================
# decomposition of supermartingales
# =====================================================================

@dataclass
class DecompositionResult:
    """Unique increasing payout stream extracted from a supermartingale.

    ``increments.at(i)`` is the per-node payout earned over step ``i``; the
    cumulative compensator is their running sum along a path (it recombines
    only when the increments do, so the increments are the primary object).
    Reconstruction: re-pricing the terminal slice with the extracted stream
    added to the original one reproduces the input node-wise.
    """

    increments: AdaptedProcess
    reconstruction_error: float

    def is_increasing(self) -> bool:
        """Every increment is at least ``-PICARD_TOL``, the solver's stopping gap."""
        return all(np.all(s >= -PICARD_TOL) for s in self.increments.slices)


def doob_meyer(
    g: Generator,
    y: AdaptedProcess,
    dividends: Optional[DividendStream],
    lattice: Lattice,
) -> DecompositionResult:
    """Decompose a supermartingale of the driver-priced system.

    The increment at node ``(i, j)`` is the one-step defect

        a(i,j) = y(i,j) - m(i,j) - g(t_i, y(i,j), z(i,j)) dt - dK(i,j),

    the unique extra payout making ``y`` the one-step price of the next
    slice.  Nonnegative defects at every node are exactly the supermartingale
    property; a defect below ``-PRICE_TOL`` raises :class:`NotSupermartingale`.
    ``lattice`` must equal ``y``'s own.  When the worst defect is too low or
    not finite, or a hedge is NaN or inf where its defect is finite (as under
    a driver that ignores ``z``), the first NaN or inf mean, hedge, driver
    value or defect raises :class:`NonFiniteValue` by step and node instead;
    any other NaN or inf defect makes the rebuilt surface raise it.
    """
    _same_lattice(lattice, y.lattice, "process's")
    _check_steps(y.start, y.stop, lattice, dividends)
    require_monotone(g.mu, lattice)
    if y.stop - y.start < 1:
        raise StepOutOfRange("need at least one step to decompose")
    dt = lattice.dt
    dks = [_increment_at(dividends, i) for i in range(y.start, y.stop)]

    def steps(named=False):
        # each step's defect and whether every NaN or inf hedge shows in its
        # defect or, if named, (step, its _ONE_STEP values): the defect alone
        # frees the rest with its step (1.7 MB less peak at 2,000 steps)
        for i, (cur, nxt, dk) in enumerate(zip(y.slices, y.slices[1:], dks), y.start):
            m, zz = one_step_mz(nxt, lattice.sqrt_dt)
            drv = g(lattice.grid.time(i), cur, zz)
            a = cur - m - drv * dt - dk
            seen = np.isfinite(zz).all() or not np.isfinite(a[~np.isfinite(zz)]).any()
            yield (i, (m, zz, drv, a)) if named else (a, seen)

    with np.errstate(over="ignore", invalid="ignore"):
        incs, seen = zip(*steps())
        worst, node = _worst_node(incs, y.start)
        if worst < -PRICE_TOL or not math.isfinite(worst) or not all(seen):
            for i, values in steps(named=True):
                for what, v in zip(_ONE_STEP, values):
                    _check_finite(np.broadcast_to(v, values[0].shape), i, what)
            raise NotSupermartingale(
                f"one-step defect {worst:.3g} at {_witness(node[0], node[1:])}; "
                "input is not a supermartingale at this tolerance"
            )

    inc_proc = AdaptedProcess(lattice, y.start, incs)
    total = DividendStream.from_arrays(lattice, [dk + a for dk, a in zip(dks, incs)], start=y.start)
    rebuilt = solve_bsde(g, claim_from_values(lattice, y.stop, y.slices[-1]),
                         total, lattice, t_step=y.stop, s_step=y.start).y
    err = _max_gap(rebuilt.slices, y.slices)
    return DecompositionResult(increments=inc_proc, reconstruction_error=err)


# =====================================================================
# driver representation of a dominated mechanism
# =====================================================================

@dataclass
class RepresentationResult:
    """Realized driver and hedge processes of one priced claim.

    ``driver.at(i)`` is the one-step residual per unit time; ``integrand`` the
    hedge coefficients; ``values`` the mechanism's own price surface.  For a
    dominated mechanism the driver obeys ``|driver| <= mu (|value| + |hedge|)``
    node-wise.
    """

    driver: AdaptedProcess
    integrand: AdaptedProcess
    values: AdaptedProcess


def _realized_driver(price, m, z, dk, dt: float, mu: float):
    """Realized one-step driver ``(price - m - dk) / dt`` and its excess over
    the envelope ``mu (|price| + |z|)``, node-wise: the driver is evaluated at
    the price it produces."""
    drv = (price - m - dk) / dt
    return drv, np.abs(drv) - mu * (np.abs(price) + np.abs(z))


def _declared_mu(mech: MechanismHandle) -> float:
    """The handle's declared domination constant; raises if it has none."""
    if mech.mu is None:
        raise InvalidParams("mechanism must declare a domination constant mu")
    return mech.mu


def represent(
    mech: MechanismHandle,
    claim: TerminalClaim,
    dividends: Optional[DividendStream],
    lattice: Lattice | None,
) -> RepresentationResult:
    """Extract the realized driver of a mechanism on one claim.

    Needs a declared ``mech.mu``; raises :class:`BoundViolated` when the
    extracted driver escapes the envelope by more than ``ENVELOPE_TOL`` (the
    declared constant is too small, or the mechanism is not dominated).
    A NaN or inf one-step mean, hedge or driver raises :class:`NonFiniteValue`
    naming its step and node first.  ``lattice`` is the handle's own or ``None``.
    """
    lattice = _own_lattice(mech, lattice)
    mu = _declared_mu(mech)
    dt = lattice.dt
    surface = mech.price_surface(lattice.n_steps, claim, dividends)

    drivers, hedges = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (price, nxt) in enumerate(zip(surface.slices, surface.slices[1:])):
            m, zz = one_step_mz(nxt, lattice.sqrt_dt)
            drv, excess = _realized_driver(price, m, zz, _increment_at(dividends, i), dt, mu)
            if not np.isfinite(excess).all():  # as it is wherever m, zz or drv is NaN or inf
                for what, v in zip(_ONE_STEP, (m, zz, drv)):
                    _check_finite(v, i, what)
            j = int(np.argmax(excess))
            if excess[j] > ENVELOPE_TOL:
                raise BoundViolated(f"driver {drv[j]:.6g} escapes mu-envelope by "
                                    f"{excess[j]:.3g} at {_witness(i, (j,))}")
            drivers.append(drv)
            hedges.append(zz)
    return RepresentationResult(
        driver=AdaptedProcess(lattice, 0, drivers),
        integrand=AdaptedProcess(lattice, 0, hedges),
        values=surface,
    )


def pairwise_representation_gap(a: RepresentationResult, b: RepresentationResult,
                                mu: float) -> float:
    """Worst excess of ``|driver gap| - mu (|value gap| + |hedge gap|)``.

    Nonpositive (up to tolerance) for any two claims priced by one dominated
    mechanism.  Both must be priced on one lattice.
    """
    _same_lattice(b.values.lattice, a.values.lattice, "first result's")
    slices = zip(a.driver.slices, b.driver.slices, a.values.slices[:-1], b.values.slices[:-1],
                 a.integrand.slices, b.integrand.slices, strict=True)
    return max(float(np.max(np.abs(da - db) - mu * (np.abs(va - vb) + np.abs(ha - hb))))
               for da, db, va, vb, ha, hb in slices)


# =====================================================================
# probes
# =====================================================================

def _anchor_node(t_step: int, anchor: int | None) -> int:
    """A probe's anchor node at ``t_step``, by default the middle one."""
    if t_step < 0:
        raise StepOutOfRange(f"probe step {t_step} is negative")
    j0 = t_step // 2 if anchor is None else int(anchor)
    if not 0 <= j0 <= t_step:
        raise StepOutOfRange(f"anchor {j0} is not a step-{t_step} node")
    return j0


def z_probe(mech: MechanismHandle, zbar: float, t_step: int, T_step: int,
            anchor: int | None = None) -> float:
    """Read the driver value at hedge level ``zbar`` off the mechanism.

    Prices the claim ``zbar * (B_T - B_t)`` anchored at one step-``t`` node
    and divides by the horizon.  Exact for drivers depending on ``z`` alone.
    """
    if not 0 <= t_step < T_step <= mech.lattice.n_steps:
        raise StepOutOfRange(f"need 0 <= t={t_step} < T={T_step}")
    lat = mech.lattice
    j0 = _anchor_node(t_step, anchor)
    b0 = float(lat.node_values(t_step)[j0])
    with np.errstate(over="ignore", invalid="ignore"):  # price_rows names a NaN or inf
        row = zbar * (lat.node_values(T_step) - b0)
    vals = mech.price_rows(t_step, T_step, [row])[0]
    horizon = lat.grid.time(T_step) - lat.grid.time(t_step)
    return float(vals[j0]) / horizon


def _euler_step(state, b, sigma, dt: float, sqrt_dt: float) -> np.ndarray:
    """One forward Euler step of the node states on the last axis: children at ``state
    + b dt -/+ sigma sqrt(dt)``, where two meet their mean (the lattice recombines)."""
    drift = state + b * dt
    spread = sigma * sqrt_dt
    down, up = drift - spread, drift + spread
    return np.concatenate([down[..., :1], 0.5 * (down[..., 1:] + up[..., :-1]),
                           up[..., -1:]], axis=-1)


def infinitesimal_probe(
    mech: MechanismHandle,
    x: float,
    p: float,
    y: float,
    b_fn: Callable,
    sigma_fn: Callable,
    eps_steps: int,
    t_step: int = 0,
    anchor: int | None = None,
) -> float:
    """Finite-horizon difference quotient of the mechanism at state ``x``.

    Runs the forward Euler state process from one anchor node, prices
    ``y + p (X_{t+eps} - x)`` over ``eps_steps`` lattice steps and returns
    ``(price - y) / eps``.  The caller extrapolates ``eps -> 0``; the limit is
    the driver at ``(t, y, sigma(x) p)`` plus ``p b(x)``.
    """
    _count("eps_steps", eps_steps)
    lat = mech.lattice
    if t_step + eps_steps > lat.n_steps:
        raise StepOutOfRange("probe window exceeds the lattice horizon")
    j0 = _anchor_node(t_step, anchor)
    dt, sdt = lat.dt, lat.sqrt_dt

    # forward Euler on the subtree below the anchor; off-subtree nodes clamp
    # to the nearest edge value, which a local mechanism never reads.  A row
    # that overflows is named by price_rows, not by numpy.
    state = np.array([float(x)])
    t_end = t_step + eps_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(eps_steps):
            state = _euler_step(state, np.asarray(b_fn(state), float),
                                np.asarray(sigma_fn(state), float), dt, sdt)
        row = (y + p * (state - x))[np.clip(np.arange(t_end + 1) - j0, 0, eps_steps)]
    vals = mech.price_rows(t_step, t_end, [row])[0]
    eps = eps_steps * dt
    return (float(vals[j0]) - y) / eps


# =====================================================================
# generating-function recovery
# =====================================================================

@dataclass
class ProbePath:
    """One-step forward probes with constant hedge level ``z`` and extremal drift.

    ``y`` and ``z`` are floats or ``(P,)`` arrays, one probe per entry.  Each
    starts at value ``y`` on one anchor node at lattice step ``t_step``; its two
    children at ``t_step + 1`` are ``y - g_mu(y, z) dt -/+ z sqrt(dt)``.
    ``slices`` is ``[[y], [down, up]]`` with the nodes on the last axis, of
    shapes ``(1,), (2,)`` or ``(P, 1), (P, 2)``.  By construction ``y`` solves
    ``y = m + mu (|y| + |z|) dt`` with the children's own ``m`` and ``z``, a
    fixed point that is unique while ``mu dt < 1``: each probe is a one-step
    price path of the extremal-driver system, hence a supermartingale under any
    mechanism dominated at level ``mu``.
    """

    lattice: Lattice
    t_step: int
    anchor: int
    y: np.ndarray
    z: np.ndarray
    mu: float
    slices: list


def build_probe_path(
    lattice: Lattice,
    t_step: int,
    y,
    z,
    mu: float,
    anchor: int | None = None,
) -> ProbePath:
    """The one-step extremal-drift probes from ``(t_step, y)`` at hedge ``z``,
    for float or ``(P,)`` array ``y`` and ``z``.  A child that overflows
    raises :class:`NonFiniteValue` naming its step, probe row and node."""
    if t_step >= lattice.n_steps:
        raise StepOutOfRange("probe step must fit inside the lattice")
    j0 = _anchor_node(t_step, anchor)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    start, hedge = y[..., None], z[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        children = _euler_step(start, -mu * (np.abs(start) + np.abs(hedge)), hedge,
                               lattice.dt, lattice.sqrt_dt)
    return ProbePath(lattice=lattice, t_step=t_step, anchor=j0, y=y, z=z, mu=float(mu),
                     slices=[start, _check_finite(children, t_step + 1, "probe child")])


def _decompose_probe(probe: ProbePath, one_step: np.ndarray) -> np.ndarray:
    """Decompose ``P`` probes under the mechanism's one-step operator.

    ``one_step`` is the ``(P,)`` vector of the mechanism's step-``t_step``
    prices at the anchor of each probe's children.  Returns the realized
    drivers there after checking that each probe's ``_ONE_STEP`` values are
    finite (:class:`NonFiniteValue`), then the supermartingale property and
    then the driver envelope; the first failing probe in point order raises.
    """
    lat = probe.lattice
    m, hedge = one_step_mz(probe.slices[1], lat.sqrt_dt)
    defect = probe.y - one_step
    driver, excess = _realized_driver(one_step, m[:, 0], hedge[:, 0], 0.0, lat.dt, probe.mu)
    low = defect < -PRICE_TOL
    # excess is NaN or inf wherever the mean, hedge or driver is, and may be
    # where only the envelope overflows: such a probe passes every check
    finite = np.isfinite(excess) & np.isfinite(defect)
    for p in np.flatnonzero(~finite | low | (excess > ENVELOPE_TOL)):
        what = f"probe (y={probe.y[p]:g}, z={probe.z[p]:g})"
        at = _witness(probe.t_step, (probe.anchor,))
        for name, v in zip(_ONE_STEP, (m[:, 0], hedge[:, 0], driver, defect)):
            _check_finite(v[p:p + 1], probe.t_step, f"{what} {name}", at)
        if low[p]:
            raise DominationViolated(f"{what} has defect {defect[p]:.3g} at {at}; "
                                     f"mechanism is not dominated at mu={probe.mu:g}")
        if excess[p] > ENVELOPE_TOL:
            raise BoundViolated(f"{what} driver {driver[p]:.6g} escapes mu-envelope "
                                f"by {excess[p]:.3g} at {at}")
    return driver


def _cell(axis: np.ndarray, v):
    """Cell index and weight of ``v`` clamped to the sorted grid ``axis``.  A
    clamped query is never below the first cell; a singleton axis aliases its
    only cell, and a unit denominator keeps the weight at zero."""
    v = np.clip(np.asarray(v, dtype=float), axis[0], axis[-1])
    i = np.minimum(axis.searchsorted(v, side="right") - 1, len(axis) - 2)
    v0, v1 = axis[i], axis[i + 1]
    return i, (v - v0) / np.where(v1 > v0, v1 - v0, 1.0)


@dataclass
class RecoveredGenerator:
    """Tabulated generating function read off a black-box mechanism.

    ``table[ti, pi]`` is the recovered value at probe time ``times[ti]`` and
    sample point ``points[pi]``.  Every construction (``replace`` too) derives
    from them ``lipschitz_ratio``, the worst sampled increment ratio over the
    table (certified ``<= mu`` up to discretization), ``zero_defect``, the
    worst ``|ghat(t, 0, 0)|`` when the origin was sampled, and ``grid``.
    """

    level: int
    mu: float
    times: np.ndarray
    points: list
    table: np.ndarray
    lipschitz_ratio: float = field(init=False)
    zero_defect: Optional[float] = field(init=False)
    grid: Optional[tuple] = field(init=False)

    def __post_init__(self):
        # Lipschitz certificate, one (P, P) matrix at a time; only coincident
        # points are skipped, so an overflowing ratio cannot read as 0
        pts = np.asarray(self.points)
        sep = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
        apart = sep > 0
        with np.errstate(over="ignore"):
            self.lipschitz_ratio = float(np.max(
                [np.max(np.abs(v[:, None] - v[None, :])[apart] / sep[apart], initial=0.0)
                 for v in self.table]))
        self.zero_defect = None
        origin = [c for c, p in enumerate(self.points) if p == (0.0, 0.0)]
        if origin:
            self.zero_defect = float(np.max(np.abs(self.table[:, origin[0]])))
        self.grid = _detect_grid(self.points)

    def certificate_ok(self) -> bool:
        """The recovery certificate: the Lipschitz ratio within ``mu`` and the zero
        defect, if the origin was sampled, within 0, both up to ``RECOVERY_SLACK``."""
        return (self.lipschitz_ratio <= self.mu + RECOVERY_SLACK
                and (self.zero_defect is None or self.zero_defect <= RECOVERY_SLACK))

    def rows(self):
        for ti, t in enumerate(self.times):
            for pi, (yv, zv) in enumerate(self.points):
                yield float(t), float(yv), float(zv), float(self.table[ti, pi])

    def _z_sheet(self, t: float, z):
        """``(ys, sheet, iz, wz)``: the sheet at ``t``; the cell and weight of clamped ``z``."""
        if self.grid is None:
            raise InvalidParams("sample points do not form a full (y, z) grid")
        ys, zs = self.grid
        ti = max(int(self.times.searchsorted(t, side="right")) - 1, 0)
        return ys, self.table[ti].reshape(len(ys), len(zs)), *_cell(zs, z)

    def value(self, t: float, y, z):
        """Interpolated value: previous probe time, bilinear in ``(y, z)``.

        Points must form a full grid; queries clamp to the grid box, which
        preserves the Lipschitz certificate.
        """
        ys, sheet, iz, wz = self._z_sheet(t, z)
        iy, wy = _cell(ys, y)
        lo, hi = ((1 - wz) * sheet[k, iz] + wz * sheet[k, iz + 1] for k in (iy, iy + 1))
        return (1 - wy) * lo + wy * hi

    def _exact_step(self, t, nxt, dk, dt, out):
        """Closed form of ``y = m + value(t, y, z) dt + dk``, ``m, z =
        one_step_mz(nxt, sqrt(dt))``, into new arrays.  For fixed ``(t, z)``
        ``h(y) = y - dt value - m - dk`` is piecewise linear, with knots at
        ``ys`` and slope 1 outside them, and increasing unless a segment's
        slope ``s`` has ``s dt >= 1`` (:class:`ContractionViolation`).  The knots
        where ``h < 0`` give the segment, and one linear solve on it gives ``y``."""
        m, z = one_step_mz(nxt, math.sqrt(dt))
        ys, sheet, iz, wz = self._z_sheet(t, z)
        # h at the knots on a first axis, padded with knots 1 below and above
        knots = (1 - wz) * np.take(sheet, iz, axis=1) + wz * np.take(sheet, iz + 1, axis=1)
        h = ys.reshape((-1,) + (1,) * wz.ndim) - dt * knots - (m + dk)
        h = np.concatenate([h[:1] - 1.0, h, h[-1:] + 1.0])
        dh = h[1:] - h[:-1]
        if (dh[1:-1] <= 0.0).any():
            k, *node = np.argwhere(dh[1:-1] <= 0.0)[0]
            slope = (knots[(k + 1, *node)] - knots[(k, *node)]) / (ys[k + 1] - ys[k])
            raise ContractionViolation(
                f"{_witness(None, node)}: the recovered driver's y-slope {slope:.6g} between "
                f"y={ys[k]:g} and y={ys[k + 1]:g} makes slope * dt >= 1 (t={t:.6g})")
        # the root's segment starts at the last padded knot with h < 0
        a = np.count_nonzero(h[1:-1] < 0.0, axis=0)
        at = a * a.size + np.arange(a.size).reshape(a.shape)
        yp = np.concatenate([[ys[0] - 1.0], ys, [ys[-1] + 1.0]])
        return yp[a] - np.take(h, at) * np.diff(yp)[a] / np.take(dh, at)

    def to_generator(self) -> Generator:
        """Interpolating driver usable by the backward solver, in closed form."""
        return Generator(
            fn=lambda t, y, z: self.value(t, y, z) + 0.0 * (np.asarray(y) + np.asarray(z)),
            mu=self.mu,
            name=f"recovered(level={self.level})",
            exact_step=self._exact_step,
        )

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "mu": self.mu,
            "lipschitz_ratio": self.lipschitz_ratio,
            "zero_defect": self.zero_defect,
            "rows": [
                {"t": t, "y": yv, "z": zv, "g": gv}
                for t, yv, zv, gv in self.rows()
            ],
        }


def _detect_grid(points):
    # interpolation reshapes table rows to (len(ys), len(zs)), so the points
    # must be exactly the row-major grid enumeration, not any permutation
    ys = np.array(sorted({p[0] for p in points}))
    zs = np.array(sorted({p[1] for p in points}))
    if len(ys) * len(zs) != len(points):
        return None
    if points != grid_points(ys, zs):
        return None
    return ys, zs


def grid_points(ys, zs) -> list:
    """Row-major (y, z) grid as a sample-point list for the recovery."""
    return [(float(a), float(b)) for a in ys for b in zs]


def recover_generator(
    mech: MechanismHandle,
    level: int,
    sample_points: Sequence,
    lattice: Lattice | None = None,
) -> RecoveredGenerator:
    """Tabulate the generating function of a dominated mechanism.

    For every dyadic time ``t_i = i T / 2^level`` and every sample point
    ``(y, z)``: launch the one-step extremal-drift probe from ``(t_i, y)`` at
    hedge level ``z``, decompose it as a supermartingale under the mechanism's
    one-step operator, and record the realized driver at the probe's start.
    Each dyadic time is one array probe build for all sample points, one
    ``price_rows`` call that prices them and one array decomposition.
    ``lattice`` defaults to the handle's own; any other raises
    :class:`InvalidParams`.

    The lattice step count must be divisible by ``2^level`` so dyadic times
    sit on the grid.  A probe whose one-step defect dips below
    ``-PRICE_TOL`` raises :class:`DominationViolated`: the mechanism
    is not dominated at its declared ``mu``.
    """
    lat = _own_lattice(mech, lattice)
    mu = _declared_mu(mech)
    if level < 0:
        raise InvalidParams(f"level must be >= 0, got {level}")
    if lat.n_steps % (1 << level) != 0:
        raise InvalidParams(
            f"lattice step count {lat.n_steps} is not divisible by 2^{level}"
        )
    require_monotone(mu, lat)
    points = [(float(a), float(b)) for a, b in sample_points]
    if not points:
        raise InvalidParams("need at least one sample point")

    steps = range(0, lat.n_steps, lat.n_steps >> level)

    # each price_rows row is one probe's two children, clamped across the slice;
    # numpy stays silent on overflow: the probe build, price_rows or decomposition names it
    pts = np.asarray(points)
    table = np.zeros((len(steps), len(points)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t_step in enumerate(steps):
            probe = build_probe_path(lat, t_step, pts[:, 0], pts[:, 1], mu)
            cols = np.clip(np.arange(t_step + 2) - probe.anchor, 0, 1)
            one_steps = mech.price_rows(t_step, t_step + 1, probe.slices[1][:, cols])
            table[i] = _decompose_probe(probe, one_steps[:, probe.anchor])

    times = np.array([lat.grid.time(t_step) for t_step in steps])
    return RecoveredGenerator(level=level, mu=float(mu), times=times, points=points, table=table)


@dataclass
class MainTheoremVerdict:
    """Outcome of rebuilding a mechanism from its recovered generator."""

    max_discrepancy: float
    axioms_ok: bool
    domination_ok: bool
    recovered: RecoveredGenerator

    def passed(self) -> bool:
        return self.axioms_ok and self.domination_ok and self.max_discrepancy <= REBUILD_TOL


def verify_main_theorem(
    mech: MechanismHandle,
    lattice: Lattice | None = None,
    samples: int = 10,
    seed: int = 0,
    level: int | None = None,
    ys: Sequence[float] = (-2.0, -1.0, 0.0, 1.0, 2.0),
    zs: Sequence[float] = (-2.0, -1.0, 0.0, 1.0, 2.0),
) -> MainTheoremVerdict:
    """Recover the generator, rebuild the pricing system, compare prices.

    Preconditions are exercised first at small sample counts: the structural
    laws and the domination cap on random claim pairs.  Then random bounded
    claims are priced under both the black box (one ``price_surfaces`` batch
    of their terminal node values) and the rebuilt system (one batched kernel
    pass for all claims) and the worst node discrepancy over all claims and
    steps is reported.  ``lattice`` defaults to the handle's own; any other
    raises :class:`InvalidParams`.  ``level`` defaults to the largest whose
    ``2**level`` divides the step count.  ``ys`` and ``zs``, the recovery
    grid's axes, must be strictly increasing (else :class:`InvalidParams`,
    before any price is asked).
    """
    lat = _own_lattice(mech, lattice)
    mu = _declared_mu(mech)
    _count("samples", samples)
    for name, axis in (("ys", ys), ("zs", zs)):
        axis = [float(v) for v in axis]
        if not all(b > a for a, b in zip(axis, axis[1:])):
            raise InvalidParams(f"{name} must be strictly increasing, got {axis}")
    if level is None:
        level = (lat.n_steps & -lat.n_steps).bit_length() - 1
    rng = np.random.default_rng(seed)

    report = axiom_suite(mech, lat, samples=max(4, samples // 2), seed=seed)
    dom_ok = True
    for _ in range(max(2, samples // 4)):
        a = random_claim(rng)
        b = random_claim(rng)
        if not check_domination(mech, a, b, mu, lat).passed:
            dom_ok = False
            break

    recovered = recover_generator(mech, level, grid_points(ys, zs), lat)

    # both sides price every claim in one price_surfaces batch, the rebuilt
    # side in one kept-surface kernel pass; each row is bitwise its own surface
    n = lat.n_steps
    rows = np.array([random_claim(rng).values(lat, n) for _ in range(samples)])
    blackbox = mech.price_surfaces(n, rows)
    rebuilt = as_mechanism(recovered.to_generator(), lat).price_surfaces(n, rows)
    worst = _max_gap(blackbox, rebuilt)
    return MainTheoremVerdict(max_discrepancy=worst,
                              axioms_ok=report.all_passed(),
                              domination_ok=dom_ok,
                              recovered=recovered)
