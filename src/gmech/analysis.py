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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BoundViolated,
    DominationViolated,
    InvalidParams,
    NotSupermartingale,
    StepOutOfRange,
)
from .generators import Generator, GeneratorFlags
from .lattice import AdaptedProcess, Lattice, _max_gap, _worst_node, one_step_mz
from .engine import (
    DividendStream,
    MechanismHandle,
    TerminalClaim,
    _backward,
    _increment_at,
    _own_lattice,
    _witness,
    check_domination,
    claim_from_values,
    random_claim,
    require_monotone,
    solve_bsde,
)

AXIOM_TOL = 1e-9


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
    """Per-law verdicts with a counterexample witness on failure."""

    monotonicity: AxiomCheck
    identity: AxiomCheck
    time_consistency: AxiomCheck
    locality: AxiomCheck
    splitting: AxiomCheck
    zero_preservation: AxiomCheck
    locality_with_zero: AxiomCheck
    seed: int = 0

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks())

    def checks(self):
        return [self.monotonicity, self.identity, self.time_consistency,
                self.locality, self.splitting, self.zero_preservation,
                self.locality_with_zero]

    def as_dict(self) -> dict:
        out = {}
        for c in self.checks():
            out[c.name] = {
                "passed": c.passed,
                "samples": c.samples,
                "failures": c.failures,
                "worst_margin": c.worst_margin,
                "witness": c.witness,
            }
        return out


class _LawTally:
    """Accumulates violations of one law across samples."""

    def __init__(self, name):
        self.name = name
        self.samples = 0
        self.failures = 0
        self.worst = 0.0
        self.witness = None

    def record(self, violation: float, witness: dict):
        self.samples += 1
        if violation > AXIOM_TOL:
            self.failures += 1
            if violation > self.worst:
                self.worst = violation
                self.witness = witness

    def check(self) -> AxiomCheck:
        return AxiomCheck(name=self.name, passed=self.failures == 0,
                          samples=self.samples, failures=self.failures,
                          worst_margin=self.worst, witness=self.witness)


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


def axiom_suite(mech: MechanismHandle, lattice: Lattice, samples: int,
                seed: int = 0) -> AxiomReport:
    """Randomized falsification suite for the pricing-system laws.

    Claims are random piecewise-linear payoffs; events are random node
    subsets at the evaluation step.  Deterministic given ``seed``.
    ``lattice`` must be the handle's own.

    Every sample is drawn first and kept as terminal node rows (all samples'
    rows are held at once).  The rows are then priced in two waves with one
    ``price_rows`` call per distinct ``(s, t)`` in each: first the rows that
    need no price (the ``(s, t)`` legs, the identity leg ``(t, t)`` and the
    direct leg ``(r, t)``), then the nested leg ``(r, s)`` on the step-``s``
    prices of the claim.  The laws are tallied in sample order.  A black box
    is therefore called in a different order than sample by sample; it must
    be pure, as every handle must.
    """
    _own_lattice(mech, lattice)
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
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

    mono = _LawTally("monotonicity")
    ident = _LawTally("identity")
    tower = _LawTally("time_consistency")
    local = _LawTally("locality")
    split = _LawTally("splitting")
    zero = _LawTally("zero_preservation")
    local0 = _LawTally("locality_with_zero")
    for k, ((s, t, r, x_vals, event, cone), p, (pn,)) in enumerate(zip(draws, priced, nested)):
        pa, pb, pp, pz, pk, *split_prices, same, direct = p
        viol = float(np.max(pb - pa))  # monotonicity: the lowered claim prices lower
        mono.record(viol, {"sample": k, "s": s, "t": t, "violation": viol})

        # identity: pricing at its own maturity returns the payoff
        viol = float(np.max(np.abs(same - x_vals)))
        ident.record(viol, {"sample": k, "t": t, "violation": viol})

        # time consistency: price of the intermediate value slice re-prices
        viol = float(np.max(np.abs(pn - direct)))
        tower.record(viol, {"sample": k, "r": r, "s": s, "t": t, "violation": viol})

        # locality: prices on the event ignore the payoff outside its cone
        viol = float(np.max(np.abs(pp[event] - pa[event])))
        local.record(viol, {"sample": k, "s": s, "t": t,
                            "event": event.tolist(), "violation": viol})

        if split_prices:
            po, pblend = split_prices
            expected = np.where(np.isin(np.arange(s + 1), event), pa, po)
            viol = float(np.max(np.abs(pblend - expected)))
            split.record(viol, {"sample": k, "s": s, "t": t,
                                "event": event.tolist(), "violation": viol})

        viol = float(np.max(np.abs(pz)))
        zero.record(viol, {"sample": k, "s": s, "t": t, "violation": viol})

        # locality with zero: kill the payoff outside the cone; prices on the
        # event are unchanged and prices on nodes whose cones miss it vanish
        viol = float(np.max(np.abs(pk[event] - pa[event])))
        outside = np.convolve(cone, np.ones(t - s + 1), "valid") == 0
        if outside.any():
            viol = max(viol, float(np.max(np.abs(pk[outside]))))
        local0.record(viol, {"sample": k, "s": s, "t": t,
                             "event": event.tolist(), "violation": viol})

    return AxiomReport(
        monotonicity=mono.check(),
        identity=ident.check(),
        time_consistency=tower.check(),
        locality=local.check(),
        splitting=split.check(),
        zero_preservation=zero.check(),
        locality_with_zero=local0.check(),
        seed=seed,
    )


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

    def is_increasing(self, tol: float = 1e-12) -> bool:
        return all(np.all(s >= -tol) for s in self.increments.slices)


def doob_meyer(
    g: Generator,
    y: AdaptedProcess,
    dividends: Optional[DividendStream],
    lattice: Lattice,
    tol: float = 1e-9,
) -> DecompositionResult:
    """Decompose a supermartingale of the driver-priced system.

    The increment at node ``(i, j)`` is the one-step defect

        a(i,j) = y(i,j) - m(i,j) - g(t_i, y(i,j), z(i,j)) dt - dK(i,j),

    the unique extra payout making ``y`` the one-step price of the next
    slice.  Nonnegative defects at every node are exactly the supermartingale
    property; a defect below ``-tol`` raises :class:`NotSupermartingale`.
    ``lattice`` must equal ``y``'s own.
    """
    if lattice != y.lattice:
        raise InvalidParams(f"lattice {lattice.grid} is not the process's "
                            f"lattice {y.lattice.grid}")
    require_monotone(g.mu, lattice)
    if y.stop - y.start < 1:
        raise StepOutOfRange("need at least one step to decompose")
    dt = lattice.dt

    incs = []
    for i in range(y.start, y.stop):
        m, zz = one_step_mz(y.at(i + 1), lattice.sqrt_dt)
        dk = _increment_at(dividends, i)
        incs.append(y.at(i) - m - g(lattice.grid.time(i), y.at(i), zz) * dt - dk)
    worst, node = _worst_node(incs, y.start)
    if worst < -tol:
        raise NotSupermartingale(
            f"one-step defect {worst:.3g} at {_witness(node[0], node[1:])}; "
            "input is not a supermartingale at this tolerance"
        )

    inc_proc = AdaptedProcess(lattice, y.start, incs)
    total = DividendStream.from_arrays(
        lattice,
        [_increment_at(dividends, i) + incs[i - y.start] for i in range(y.start, y.stop)],
        start=y.start,
    )
    rebuilt = solve_bsde(g, claim_from_values(lattice, y.stop, y.at(y.stop)),
                         total, lattice, t_step=y.stop, s_step=y.start).y
    err = _max_gap(rebuilt.at, y.at, range(y.start, y.stop + 1))
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


def _realized_driver(price, y, m, z, dk, dt: float, mu: float):
    """Realized one-step driver ``(price - m - dk) / dt`` and its excess over
    the envelope ``mu (|y| + |z|)``, node-wise."""
    drv = (price - m - dk) / dt
    return drv, np.abs(drv) - mu * (np.abs(y) + np.abs(z))


def represent(
    mech: MechanismHandle,
    claim: TerminalClaim,
    dividends: Optional[DividendStream],
    lattice: Lattice,
    t_step: int | None = None,
    bound_tol: float = 1e-6,
) -> RepresentationResult:
    """Extract the realized driver of a mechanism on one claim.

    Needs a declared ``mech.mu``; raises :class:`BoundViolated` when the
    extracted driver escapes the envelope by more than ``bound_tol`` (the
    declared constant is too small, or the mechanism is not dominated).
    ``lattice`` must be the handle's own.
    """
    _own_lattice(mech, lattice)
    if mech.mu is None:
        raise InvalidParams("mechanism must declare a domination constant mu")
    t = lattice.n_steps if t_step is None else t_step
    dt = lattice.dt
    surface = mech.price_surface(t, claim, dividends)

    drivers, hedges = [], []
    for i in range(t):
        m, zz = one_step_mz(surface.at(i + 1), surface.lattice.sqrt_dt)
        drv, excess = _realized_driver(surface.at(i), surface.at(i), m, zz,
                                       _increment_at(dividends, i), dt, mech.mu)
        j = int(np.argmax(excess))
        if excess[j] > bound_tol:
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
    mechanism.
    """
    worst = -np.inf
    for i in range(len(a.driver.slices)):
        gap = np.abs(a.driver.at(i) - b.driver.at(i))
        cap = mu * (np.abs(a.values.at(i) - b.values.at(i))
                    + np.abs(a.integrand.at(i) - b.integrand.at(i)))
        worst = max(worst, float(np.max(gap - cap)))
    return worst


# =====================================================================
# probes
# =====================================================================

def _anchor_node(t_step: int, anchor: int | None) -> int:
    """A probe's anchor node at ``t_step``, by default the middle one."""
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
    vals = mech.price_rows(t_step, T_step, [zbar * (lat.node_values(T_step) - b0)])[0]
    horizon = lat.grid.time(T_step) - lat.grid.time(t_step)
    return float(vals[j0]) / horizon


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
    if eps_steps < 1:
        raise InvalidParams("eps_steps must be >= 1")
    lat = mech.lattice
    if t_step + eps_steps > lat.n_steps:
        raise StepOutOfRange("probe window exceeds the lattice horizon")
    j0 = _anchor_node(t_step, anchor)
    dt, sdt = lat.dt, lat.sqrt_dt

    # forward Euler on the subtree below the anchor
    state = _forward_subtree(
        x, eps_steps,
        lambda cur: (cur + np.asarray(b_fn(cur), float) * dt,
                     np.asarray(sigma_fn(cur), float) * sdt))[-1]

    # off-subtree nodes clamp to the nearest edge value, which a local
    # mechanism never reads
    t_end = t_step + eps_steps
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


def _forward_subtree(start: float, window: int, move: Callable) -> list:
    """Forward recursion on the subtree below one node, for the Euler probe;
    ``slices[k]`` holds the ``k + 1`` values ``k`` steps on.  ``move(cur)``
    gives each node's drift and spread: children sit at ``drift -/+ spread``,
    and a recombining node averages its two parent propagations."""
    slices = [np.array([float(start)])]
    for _ in range(window):
        drift, spread = move(slices[-1])
        down, up = drift - spread, drift + spread
        nxt = np.empty(down.size + 1)
        nxt[0] = down[0]
        nxt[-1] = up[-1]
        nxt[1:-1] = 0.5 * (down[1:] + up[:-1])
        slices.append(nxt)
    return slices


def build_probe_path(
    lattice: Lattice,
    t_step: int,
    y,
    z,
    mu: float,
    anchor: int | None = None,
) -> ProbePath:
    """The one-step extremal-drift probes from ``(t_step, y)`` at hedge ``z``,
    for float or ``(P,)`` array ``y`` and ``z``."""
    if t_step >= lattice.n_steps:
        raise StepOutOfRange("probe step must fit inside the lattice")
    j0 = _anchor_node(t_step, anchor)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    # one step, so nothing recombines: the children are drift -/+ spread
    drift = y - mu * (np.abs(y) + np.abs(z)) * lattice.dt
    spread = z * lattice.sqrt_dt
    return ProbePath(lattice=lattice, t_step=t_step, anchor=j0, y=y, z=z, mu=float(mu),
                     slices=[y[..., None], np.stack([drift - spread, drift + spread], -1)])


def _decompose_probe(probe: ProbePath, one_step: np.ndarray,
                     supermartingale_tol: float) -> np.ndarray:
    """Decompose ``P`` probes under the mechanism's one-step operator.

    ``one_step`` is the ``(P,)`` vector of the mechanism's step-``t_step``
    prices at the anchor of each probe's children.  Returns the realized
    drivers there after checking the supermartingale property and then the
    driver envelope; the first failing probe in point order raises.
    """
    lat = probe.lattice
    m, hedge = one_step_mz(probe.slices[1], lat.sqrt_dt)
    defect = probe.y - one_step
    driver, excess = _realized_driver(one_step, probe.y, m[:, 0], hedge[:, 0], 0.0,
                                      lat.dt, probe.mu)
    low = defect < -supermartingale_tol
    failed = np.flatnonzero(low | (excess > 1e-6))
    if failed.size:
        p = failed[0]
        what = f"probe (y={probe.y[p]:g}, z={probe.z[p]:g})"
        at = _witness(probe.t_step, (probe.anchor,))
        if low[p]:
            raise DominationViolated(f"{what} has defect {defect[p]:.3g} at {at}; "
                                     f"mechanism is not dominated at mu={probe.mu:g}")
        raise BoundViolated(f"{what} driver {driver[p]:.6g} escapes mu-envelope "
                            f"by {excess[p]:.3g} at {at}")
    return driver


@dataclass
class RecoveredGenerator:
    """Tabulated generating function read off a black-box mechanism.

    ``table[ti, pi]`` is the recovered value at probe time ``times[ti]`` and
    sample point ``points[pi]``.  ``lipschitz_ratio`` is the worst sampled
    increment ratio over the table (certified ``<= mu`` up to discretization)
    and ``zero_defect`` the worst ``|ghat(t, 0, 0)|`` when the origin was
    sampled.
    """

    level: int
    mu: float
    times: np.ndarray
    time_indices: np.ndarray
    points: list
    table: np.ndarray
    lipschitz_ratio: float
    zero_defect: Optional[float]
    grid: Optional[tuple] = None

    def rows(self):
        for ti, t in enumerate(self.times):
            for pi, (yv, zv) in enumerate(self.points):
                yield float(t), float(yv), float(zv), float(self.table[ti, pi])

    def value(self, t: float, y, z):
        """Interpolated value: previous probe time, bilinear in ``(y, z)``.

        Points must form a full grid; queries clamp to the grid box, which
        preserves the Lipschitz certificate.
        """
        if self.grid is None:
            raise InvalidParams("sample points do not form a full (y, z) grid")
        ys, zs = self.grid
        ti = int(np.clip(np.searchsorted(self.times, t, side="right") - 1,
                         0, len(self.times) - 1))
        sheet = self.table[ti].reshape(len(ys), len(zs))
        y = np.clip(np.asarray(y, dtype=float), ys[0], ys[-1])
        z = np.clip(np.asarray(z, dtype=float), zs[0], zs[-1])
        iy = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
        iz = np.clip(np.searchsorted(zs, z, side="right") - 1, 0, len(zs) - 2)
        y0, y1 = ys[iy], ys[iy + 1]
        z0, z1 = zs[iz], zs[iz + 1]
        # singleton axes alias their only cell; the clipped query then sits
        # on the lower edge, so a unit denominator keeps the weight at zero
        wy = (y - y0) / np.where(y1 > y0, y1 - y0, 1.0)
        wz = (z - z0) / np.where(z1 > z0, z1 - z0, 1.0)
        v00 = sheet[iy, iz]
        v01 = sheet[iy, iz + 1]
        v10 = sheet[iy + 1, iz]
        v11 = sheet[iy + 1, iz + 1]
        return ((1 - wy) * (1 - wz) * v00 + (1 - wy) * wz * v01
                + wy * (1 - wz) * v10 + wy * wz * v11)

    def to_generator(self) -> Generator:
        """Interpolating driver usable by the backward solver."""
        return Generator(
            fn=lambda t, y, z: self.value(t, y, z) + 0.0 * (np.asarray(y) + np.asarray(z)),
            mu=self.mu,
            flags=GeneratorFlags(zero_at_zero=self.zero_defect is not None
                                 and self.zero_defect <= 1e-6),
            name=f"recovered(level={self.level})",
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
    time_indices: Sequence[int] | None = None,
    supermartingale_tol: float = 1e-9,
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
    sit on the grid.  A probe whose one-step defect dips below the tolerance
    raises :class:`DominationViolated`: the mechanism is not dominated at its
    declared ``mu``.
    """
    lat = _own_lattice(mech, lattice)
    if mech.mu is None:
        raise InvalidParams("mechanism must declare a domination constant mu")
    if level < 0 or lat.n_steps % (1 << level) != 0:
        raise InvalidParams(
            f"lattice step count {lat.n_steps} is not divisible by 2^{level}"
        )
    require_monotone(mech.mu, lat)
    points = [(float(a), float(b)) for a, b in sample_points]
    if not points:
        raise InvalidParams("need at least one sample point")

    stride = lat.n_steps // (1 << level)
    idx = (np.arange(1 << level, dtype=int) if time_indices is None
           else np.asarray(sorted(set(int(i) for i in time_indices)), dtype=int))
    if idx.size == 0 or idx[0] < 0 or idx[-1] >= (1 << level):
        raise InvalidParams(f"time indices must lie in [0, {(1 << level) - 1}]")

    # each price_rows row is one probe's two children, clamped across the slice
    pts = np.asarray(points)
    table = np.zeros((idx.size, len(points)))
    for row, i in enumerate(idx):
        t_step = int(i) * stride
        probe = build_probe_path(lat, t_step, pts[:, 0], pts[:, 1], mech.mu)
        cols = np.clip(np.arange(t_step + 2) - probe.anchor, 0, 1)
        one_steps = mech.price_rows(t_step, t_step + 1, probe.slices[1][:, cols])
        table[row] = _decompose_probe(probe, one_steps[:, probe.anchor],
                                      supermartingale_tol)

    # Lipschitz certificate, one (P, P) matrix at a time; only coincident
    # points are skipped, so an overflowing ratio cannot read as 0
    sep = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    apart = sep > 0
    with np.errstate(over="ignore"):
        worst_ratio = float(np.max(
            [np.max(np.abs(v[:, None] - v[None, :])[apart] / sep[apart], initial=0.0)
             for v in table]))

    zero_defect = None
    origin = [c for c, p in enumerate(points) if p == (0.0, 0.0)]
    if origin:
        zero_defect = float(np.max(np.abs(table[:, origin[0]])))

    times = np.array([lat.grid.time(int(i) * stride) for i in idx])
    return RecoveredGenerator(
        level=level, mu=float(mech.mu), times=times, time_indices=idx,
        points=points, table=table, lipschitz_ratio=worst_ratio,
        zero_defect=zero_defect, grid=_detect_grid(points),
    )


@dataclass
class MainTheoremVerdict:
    """Outcome of rebuilding a mechanism from its recovered generator."""

    max_discrepancy: float
    axioms_ok: bool
    domination_ok: bool
    recovered: RecoveredGenerator

    def passed(self, tol: float = 1e-2) -> bool:
        return self.axioms_ok and self.domination_ok and self.max_discrepancy <= tol


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
    claims are priced under both the black box (one ``price_surface`` each)
    and the rebuilt system (one batched kernel pass for all claims) and the
    worst node discrepancy over all steps is reported.  ``lattice`` defaults to
    the handle's own; any other raises :class:`InvalidParams`.
    """
    lat = _own_lattice(mech, lattice)
    if mech.mu is None:
        raise InvalidParams("mechanism must declare a domination constant mu")
    if level is None:
        level = int(round(math.log2(lat.n_steps)))
    rng = np.random.default_rng(seed)

    report = axiom_suite(mech, lat, samples=max(4, samples // 2), seed=seed)
    dom_ok = True
    for _ in range(max(2, samples // 4)):
        a = random_claim(rng)
        b = random_claim(rng)
        if not check_domination(mech, a, b, mech.mu, lat).passed:
            dom_ok = False
            break

    recovered = recover_generator(mech, level, grid_points(ys, zs), lat)

    # the rebuilt side is the lab's own: one kept-surface kernel pass prices
    # every claim, each row bitwise its single solve
    n = lat.n_steps
    claims = [random_claim(rng) for _ in range(samples)]
    rows = np.array([c.values(lat, n) for c in claims]).reshape(len(claims), n + 1)
    rebuilt, _, _ = _backward(recovered.to_generator(), rows, lat, n, 0, None,
                              keep_surface=True)
    worst = 0.0
    for k, claim in enumerate(claims):
        sa = mech.price_surface(n, claim)
        worst = max(worst, _max_gap(sa.at, lambda i: rebuilt[i][k], range(n + 1)))
    return MainTheoremVerdict(max_discrepancy=worst,
                              axioms_ok=report.all_passed(),
                              domination_ok=dom_ok,
                              recovered=recovered)
