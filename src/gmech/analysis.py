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
from .generators import Generator, _count, _integer, _seed, _tallies, _witnessed
from .lattice import AdaptedProcess, Lattice, _max_gap, _worst_node, one_step_mz
from .engine import (
    PICARD_TOL,
    PRICE_TOL,
    DividendStream,
    MechanismHandle,
    TerminalClaim,
    _check_finite,
    _check_steps,
    _claim_rows,
    _draw_claim,
    _increment_at,
    _name_failure,
    _own_lattice,
    _same_lattice,
    _sweep,
    _witness,
    as_mechanism,
    check_domination,
    random_claim,
    require_monotone,
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


def _reach_mask(step_s: int, step_t: int, nodes_s) -> np.ndarray:
    """Terminal-node mask of the cone reachable from the given step-s nodes, an
    index array or a boolean mask, or of each mask of a ``(k, step_s + 1)`` batch:
    terminal node ``j`` is reached from nodes ``j - (step_t - step_s) .. j``,
    whose count is a difference of two running counts."""
    hit = np.asarray(nodes_s)
    if hit.dtype != bool:
        hit = np.isin(np.arange(step_s + 1), hit)
    counts = np.zeros(hit.shape[:-1] + (step_s + 2,), dtype=int)
    np.cumsum(hit, axis=-1, out=counts[..., 1:])
    j = np.arange(step_t + 1)
    return counts[..., np.minimum(j, step_s) + 1] > counts[..., np.maximum(j - step_t + step_s, 0)]


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


def _row_max(values: np.ndarray, where=True) -> np.ndarray:
    """Each row's largest value among ``where``; ``-inf`` where it holds none."""
    return np.max(values, axis=-1, where=where, initial=-np.inf)


def axiom_suite(mech: MechanismHandle, lattice: Lattice | None, samples: int,
                seed: int = 0) -> AxiomReport:
    """Randomized falsification suite for the pricing-system laws.

    Claims are random piecewise-linear payoffs; events are random node
    subsets at the evaluation step.  Deterministic given ``seed``.
    ``lattice`` is the handle's own or ``None``.

    Every sample is drawn first, its claims as parameters.  The claims that
    mature at ``t`` are evaluated in one array pass, and the samples that
    share ``(s, t)`` build their rows as one array each (all samples' rows are
    held at once).  The rows are then priced in two waves with one
    ``price_rows`` call per distinct ``(s, t)`` in each: first the rows that
    need no price (the ``(s, t)`` legs, the identity leg ``(t, t)`` and the
    direct leg ``(r, t)``), then the nested leg ``(r, s)`` on the step-``s``
    prices of the claim.  Each law is a row maximum per ``(s, t)`` group,
    tallied in sample order.  A black box is therefore called in a different
    order than sample by sample; it must be pure, as every handle must.
    """
    lattice = _own_lattice(mech, lattice)
    _count("samples", samples)
    _seed(seed)
    rng = np.random.default_rng(seed)
    n = lattice.n_steps
    if n < 3:
        raise InvalidParams("lattice must have at least 3 steps for nested checks")

    # a sample is drawn as (r, s, t, claim parameters, event, bump normals)
    draws = []
    for _ in range(samples):
        t = int(rng.integers(2, n + 1))
        s = int(rng.integers(1, t))
        r = int(rng.integers(0, s))
        claims = [_draw_claim(rng), _draw_claim(rng, bound=0.5, slope=0.5)]
        event = rng.random(s + 1) < 0.5  # a mask of the step-s nodes
        if not event.any():
            event[int(rng.integers(0, s + 1))] = True
        normals = rng.normal(size=t + 1)
        draws.append((r, s, t, claims + [_draw_claim(rng)], event, normals))
    by_t, by_st = {}, {}
    for k, (_, s, t, *_) in enumerate(draws):
        by_t.setdefault(t, []).append(k)
        by_st.setdefault((s, t), []).append(k)
    # payoffs[t][i, c] is claim c of the i-th sample maturing at t
    payoffs = {t: _claim_rows(lattice, t, [c for k in ks for c in draws[k][3]]).reshape(
        len(ks), 3, t + 1) for t, ks in by_t.items()}
    slot = {k: i for ks in by_t.values() for i, k in enumerate(ks)}

    groups, legs = [], [None] * samples
    for (s, t), ks in by_st.items():
        x, nonneg, other = payoffs[t][[slot[k] for k in ks]].transpose(1, 0, 2)
        event = np.array([draws[k][4] for k in ks])
        cone = _reach_mask(s, t, event)
        # monotonicity: subtract a nonnegative payoff; locality: perturb the
        # payoff outside the event's cone; splitting: a claim assembled from
        # two claims along the event cone (the claims agree where the cones
        # overlap, which is the measurability constraint of the lattice)
        bump = np.where(cone, 0.0, np.array([draws[k][5] for k in ks]))
        other = np.where(cone & _reach_mask(s, t, ~event), x, other)
        rows = [x, x - np.abs(nonneg), x + bump, np.zeros_like(x), np.where(cone, x, 0.0),
                other, np.where(cone, x, other)]
        split = ~event.all(axis=1)
        for i, k in enumerate(ks):
            legs[k] = ([(s, t, row[i]) for row in rows[:7 if split[i] else 5]]
                       + [(t, t, x[i]), (draws[k][0], t, x[i])])
        groups.append((s, t, ks, x, event, cone, split))
    priced = _price_legs(mech, legs)
    nested = _price_legs(mech, [[(r, s, p[0])] for (r, s, *_), p in zip(draws, priced)])

    # each law's violation by sample; NaN where a sample has no splitting check
    mono, ident, tower, local, split_v, zero, local0 = viol = np.full((7, len(draws)), np.nan)
    for s, t, ks, x, event, cone, split in groups:
        pa, pb, pp, pz, pk, same = (np.array([priced[k][m] for k in ks])
                                    for m in (0, 1, 2, 3, 4, -2))
        # the nested and direct legs hold r + 1 <= s prices, padded with zeros
        pn, direct = np.zeros((2, len(ks), s))
        for i, k in enumerate(ks):
            pn[i, :draws[k][0] + 1], direct[i, :draws[k][0] + 1] = nested[k][0], priced[k][-1]
        mono[ks] = _row_max(pb - pa)  # the lowered claim prices lower
        ident[ks] = _row_max(np.abs(same - x))  # its own maturity returns the payoff
        tower[ks] = _row_max(np.abs(pn - direct))  # the step-s value slice re-prices
        local[ks] = _row_max(np.abs(pp - pa), event)  # the event ignores the bump
        zero[ks] = _row_max(np.abs(pz))
        # locality with zero: prices on the event are unchanged, and prices on
        # nodes whose cones miss the event's cone vanish; node j is one if no
        # event node lies within t - s of it, as the event's cone over
        # 2 (t - s) steps shows at its node j + t - s
        outside = ~_reach_mask(s, 2 * t - s, event)[:, t - s:t + 1]
        local0[ks] = np.maximum(_row_max(np.abs(pk - pa), event), _row_max(np.abs(pk), outside))
        if split.any():
            ss = [k for k, one in zip(ks, split) if one]
            po, pblend = (np.array([priced[k][m] for k in ss]) for m in (5, 6))
            split_v[ss] = _row_max(np.abs(pblend - np.where(event[split], pa[split], po)))

    tallies = _tallies(AxiomReport)
    for tally, values in zip(tallies, viol.tolist()):
        for k, v in enumerate(values):
            if not math.isnan(v):
                tally.record(v, PRICE_TOL, k)

    def named(k, worst):
        r, s, t, _, event, _ = draws[k]
        return {"sample": k, "r": r, "s": s, "t": t, "event": np.flatnonzero(event).tolist(),
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

    The rebuild is one kernel sweep from the terminal slice, each step paying
    ``dK + a``; it folds in each step's gap to ``y`` as the step is made and
    keeps neither the payouts nor the rebuilt surface, so the result holds
    ``y`` and the increments plus one rebuilt step at a time.
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

    def payout(i):
        return dks[i - y.start] + incs[i - y.start]

    err = 0.0  # the rebuild starts from y's own terminal slice
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rebuilt, *_ in _sweep(g, y.slices[-1], lattice, y.stop, y.start, payout):
            err = max(err, float(np.max(np.abs(rebuilt - y.at(i)))))
        # every node feeds the step-start slice: a NaN or inf anywhere shows there
        if not np.isfinite(rebuilt).all():
            _name_failure(g, y.slices[-1], lattice, y.stop, y.start, payout)
    return DecompositionResult(increments=AdaptedProcess(lattice, y.start, incs),
                               reconstruction_error=err)


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

def _anchor_node(t_step: int) -> int:
    """A lone probe's anchor: the middle step-``t_step`` node."""
    if _integer("t_step", t_step) < 0:
        raise StepOutOfRange(f"probe step {t_step} is negative")
    return t_step // 2


def z_probe(mech: MechanismHandle, zbar: float, t_step: int, T_step: int) -> float:
    """Read the driver value at hedge level ``zbar`` off the mechanism.

    Prices the claim ``zbar * (B_T - B_t)`` anchored at the middle step-``t``
    node and divides by the horizon.  Exact for drivers depending on ``z`` alone.
    """
    if not 0 <= t_step < T_step <= mech.lattice.n_steps:
        raise StepOutOfRange(f"need 0 <= t={t_step} < T={T_step}")
    lat = mech.lattice
    j0 = _anchor_node(t_step)
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
) -> float:
    """Finite-horizon difference quotient of the mechanism at state ``x``.

    Runs the forward Euler state process from the middle step-``t`` node, prices
    ``y + p (X_{t+eps} - x)`` over ``eps_steps`` lattice steps and returns
    ``(price - y) / eps``.  The caller extrapolates ``eps -> 0``; the limit is
    the driver at ``(t, y, sigma(x) p)`` plus ``p b(x)``.
    """
    _count("eps_steps", eps_steps)
    lat = mech.lattice
    if t_step + eps_steps > lat.n_steps:
        raise StepOutOfRange("probe window exceeds the lattice horizon")
    j0 = _anchor_node(t_step)
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

def build_probe_path(lattice: Lattice, t_step: int, y, z, mu: float) -> np.ndarray:
    """The children ``[down, up] = y - g_mu(y, z) dt -/+ z sqrt(dt)`` at step
    ``t_step + 1`` of one-step extremal-drift probes from ``(t_step, y)`` at
    hedge ``z``: shape ``(2,)`` for float ``y`` and ``z``, ``(P, 2)`` for
    ``(P,)`` arrays of one length; other shapes raise
    :class:`StepOutOfRange`.  ``y`` solves ``y = m + mu (|y| + |z|) dt`` with
    the children's own ``m`` and ``z``, a fixed point unique while ``mu dt <
    1``, so each probe is a supermartingale under any mechanism dominated at
    level ``mu``.  A child that overflows raises :class:`NonFiniteValue`
    naming its step, probe row and node."""
    if t_step >= lattice.n_steps:
        raise StepOutOfRange("probe step must fit inside the lattice")
    _anchor_node(t_step)  # raises on a negative step
    start, hedge = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    if start.ndim > 1 or start.shape != hedge.shape:
        raise StepOutOfRange(f"probe y and z must be two floats or two (P,) arrays, "
                             f"got shapes {start.shape} and {hedge.shape}")
    start, hedge = start[..., None], hedge[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        children = _euler_step(start, -mu * (np.abs(start) + np.abs(hedge)), hedge,
                               lattice.dt, lattice.sqrt_dt)
    return _check_finite(children, t_step + 1, "probe child")


def _decompose_probe(lattice: Lattice, steps: Sequence[int], points: np.ndarray, mu: float,
                     children: np.ndarray, one_step: np.ndarray,
                     anchors: np.ndarray) -> np.ndarray:
    """Decompose ``P`` probes, their ``(P, 2)`` ``points`` and ``children``,
    under the mechanism's one-step operator at each of the ``T`` ``steps``.

    ``one_step`` is the ``(T, P)`` table of the mechanism's prices at
    ``anchors``, each probe's anchor node above its children at that step.
    Returns the realized drivers there after checking that each probe's
    ``_ONE_STEP`` values are finite (:class:`NonFiniteValue`), then the
    supermartingale property and then the driver envelope; the first failing
    probe in (step, point) order raises, its witness naming that step and anchor.
    """
    y, z = points[:, 0], points[:, 1]
    m, hedge = (v[:, 0] for v in one_step_mz(children, lattice.sqrt_dt))
    defect = y - one_step
    driver, excess = _realized_driver(one_step, m, hedge, 0.0, lattice.dt, mu)
    low = defect < -PRICE_TOL
    # excess is NaN or inf wherever the mean, hedge or driver is, and may be
    # where only the envelope overflows: such a probe passes every check
    finite = np.isfinite(excess) & np.isfinite(defect)
    for i, p in np.argwhere(~finite | low | (excess > ENVELOPE_TOL)):
        what = f"probe (y={y[p]:g}, z={z[p]:g})"
        at = _witness(steps[i], (anchors[i, p],))
        for name, v in zip(_ONE_STEP, (m, hedge, driver[i], defect[i])):
            _check_finite(v[p:p + 1], steps[i], f"{what} {name}", at)
        if low[i, p]:
            raise DominationViolated(f"{what} has defect {defect[i, p]:.3g} at {at}; "
                                     f"mechanism is not dominated at mu={mu:g}")
        if excess[i, p] > ENVELOPE_TOL:
            raise BoundViolated(f"{what} driver {driver[i, p]:.6g} escapes mu-envelope "
                                f"by {excess[i, p]:.3g} at {at}")
    return driver


def _packed_rows(children: np.ndarray, t_step: int):
    """The ``(P, 2)`` children of ``P`` probes from step ``t_step``, side by
    side in step-``(t_step + 1)`` rows, and each probe's ``(row, anchor)``.

    A row holds ``k = min(P, t_step // 2 + 1)`` probes in one block centred on
    a lone probe's anchor, ``base = t_step // 2 - (k - 1)``: probe ``q`` of a
    row is anchored at step-``t_step`` node ``base + 2 q``, its children at
    step-``(t_step + 1)`` nodes ``base + 2 q`` and ``base + 2 q + 1``.  The
    nodes outside the block, and past the last probe of a partly filled last
    row, clamp to the nearest child; a local mechanism never reads them.
    There are ``ceil(P / k)`` rows.  With ``k = 1`` a row is one probe's
    children clamped across the slice, anchored at the middle node.
    """
    n_probes = len(children)
    k = min(n_probes, t_step // 2 + 1)
    base = _anchor_node(t_step) - (k - 1)
    block = np.clip(np.arange(t_step + 2) - base, 0, 2 * k - 1)
    nodes = 2 * k * np.arange(-(-n_probes // k))[:, None] + block
    p = np.arange(n_probes)
    return children.reshape(-1)[np.minimum(nodes, 2 * n_probes - 1)], (p // k, base + 2 * (p % k))


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


def _dyadic_stride(level: int, lattice: Lattice) -> int:
    """Steps between the dyadic times ``i T / 2^level``; raises :class:`InvalidParams`
    unless ``level >= 0`` and ``2^level`` divides the lattice's step count."""
    if _integer("level", level) < 0:
        raise InvalidParams(f"level must be >= 0, got {level}")
    if lattice.n_steps % (1 << level) != 0:
        raise InvalidParams(f"lattice step count {lattice.n_steps} is not divisible by 2^{level}")
    return lattice.n_steps >> level


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
    One array probe build serves every dyadic time, and each time is one
    ``price_rows`` call, up to ``t // 2 + 1`` probes side by side in a row
    (:func:`_packed_rows`).  One decomposition of the table raises the first
    failure in (time, point) order, after every time is priced; an error of
    ``price_rows`` waits for the earlier times to pass.  A closed-form
    driver prices each node on its own, so its table does not depend on the
    packing; a Picard row stops when all its nodes meet the stop test, so a
    probe's last bits may depend on its row-mates.  ``lattice`` defaults to
    the handle's own; any other raises :class:`InvalidParams`.

    The lattice step count must be divisible by ``2^level`` so dyadic times
    sit on the grid.  A probe whose one-step defect dips below
    ``-PRICE_TOL`` raises :class:`DominationViolated`: the mechanism
    is not dominated at its declared ``mu``.
    """
    lat = _own_lattice(mech, lattice)
    mu = _declared_mu(mech)
    steps = range(0, lat.n_steps, _dyadic_stride(level, lat))
    require_monotone(mu, lat)
    points = [(float(a), float(b)) for a, b in sample_points]
    if not points:
        raise InvalidParams("need at least one sample point")

    # numpy stays silent on overflow: the probe build, price_rows or decomposition names it
    pts = np.asarray(points)
    one_steps, anchors = (np.zeros((len(steps), len(points)), dtype) for dtype in (float, int))
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        children = build_probe_path(lat, 0, pts[:, 0], pts[:, 1], mu)
        for i, t_step in enumerate(steps):
            rows, (row, anchor) = _packed_rows(children, t_step)
            anchors[i] = anchor
            try:
                prices = mech.price_rows(t_step, t_step + 1, rows)
            except Exception as err:  # raised once the earlier dyadic times pass
                failure, steps = err, steps[:i]
                break
            one_steps[i] = prices[row, anchor]
        table = _decompose_probe(lat, steps, pts, mu, children, one_steps[:len(steps)], anchors)
    if failure is not None:
        raise failure

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
    grid's axes, must be nonempty and strictly increasing; they, ``level`` and
    ``mu`` are checked as :func:`recover_generator` checks them, before any
    price is asked.
    """
    lat = _own_lattice(mech, lattice)
    mu = _declared_mu(mech)
    _count("samples", samples)
    _seed(seed)
    for name, axis in (("ys", ys), ("zs", zs)):
        axis = [float(v) for v in axis]
        if not axis:
            raise InvalidParams(f"{name} must hold at least one value")
        if not all(b > a for a, b in zip(axis, axis[1:])):
            raise InvalidParams(f"{name} must be strictly increasing, got {axis}")
    if level is None:
        level = (lat.n_steps & -lat.n_steps).bit_length() - 1
    _dyadic_stride(level, lat)
    require_monotone(mu, lat)
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
    rows = _claim_rows(lat, n, [_draw_claim(rng) for _ in range(samples)])
    blackbox = mech.price_surfaces(n, rows)
    rebuilt = as_mechanism(recovered.to_generator(), lat).price_surfaces(n, rows)
    worst = _max_gap(blackbox, rebuilt)
    return MainTheoremVerdict(max_discrepancy=worst,
                              axioms_ok=report.all_passed(),
                              domination_ok=dom_ok,
                              recovered=recovered)
