"""Backward solver for driver-priced claims on the binomial lattice.

The one-step scheme is implicit in ``y``: at each node the solver finds

    y = m + g(t_i, y, z) * dt + dK_i

where ``m`` is the one-step conditional expectation of the next slice, ``z``
its martingale-increment coefficient and ``dK_i`` the dividend paid over the
step.  The fixed point is found by Picard iteration started at ``m``, which
contracts whenever ``mu * dt < 1``.

One private kernel, ``_backward``, runs this recursion over the last axis of
its input.  It has three entry points: :func:`solve_bsde` keeps the whole
``y`` surface of one claim with its dividends, :func:`solve_terminal_batch`
keeps only the root values of many terminal rows, and the ``price_rows`` of an
:func:`as_mechanism` handle keeps the step-``s`` values of many rows with
their dividends.  ``z`` is never stored: it is read off ``y`` (see
:class:`PricingResult`).  A :class:`MechanismHandle` is built from a black-box
``price_at`` alone; only :func:`as_mechanism` handles reach the kernel.
A NaN or inf raises :class:`NonFiniteValue` naming the step and node where it
first appears.

Order-sensitive verdicts (comparison, domination) additionally require the
monotone-scheme condition ``mu * (sqrt(dt) + dt) <= 1``; without it the
one-step map need not be nondecreasing in the next-step values and discrete
order verdicts are unreliable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadPartition,
    BadStepOrder,
    ContractionViolation,
    InvalidParams,
    NonFiniteValue,
    PicardDivergence,
    SchemeNotMonotone,
    StepOutOfRange,
)
from .generators import Generator, domination_generator
from .lattice import AdaptedProcess, Lattice, _max_gap, _worst_node, one_step_mz, one_step_z

PICARD_TOL = 1e-12
PICARD_CAP = 100
PICARD_FAIL = 1e-9


# -- claims and dividend streams ----------------------------------------------

@dataclass(frozen=True)
class TerminalClaim:
    """A payoff that is a pure function of the walk value at maturity."""

    payoff: Callable
    name: str = ""

    def values(self, lattice: Lattice, step: int) -> np.ndarray:
        raw = np.asarray(self.payoff(lattice.node_values(step)), dtype=float)
        vals = np.array(np.broadcast_to(raw, (step + 1,)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise _non_finite(vals, step, f"claim {self.name!r}")
        return vals


def claim_from_values(lattice: Lattice, step: int, values) -> TerminalClaim:
    """Wrap a slice of node values as a claim maturing at ``step``.

    The payoff looks walk values up by node index, so it reproduces the given
    values exactly on the lattice (off-grid queries clamp to the range).
    """
    vals = np.array(values, dtype=float)
    if vals.shape != (step + 1,):
        raise StepOutOfRange(f"need {step + 1} node values, got shape {vals.shape}")
    return TerminalClaim(lambda b: vals[lattice.node_index(step, b)], name=f"slice@{step}")


def make_underlying_map(s0: float, sigma: float, horizon: float, drift: float = 0.0):
    """Terminal stock map ``B -> s0 * exp(sigma * B + (drift - sigma^2/2) * horizon)``."""

    def terminal_price(b):
        return s0 * np.exp(sigma * np.asarray(b, dtype=float)
                           + (drift - 0.5 * sigma * sigma) * horizon)

    return terminal_price


def random_claim(rng, bound: float = 1.0, slope: float = 1.0, kinks: int = 3,
                 knot_range: float = 2.0) -> TerminalClaim:
    """Random bounded piecewise-linear payoff of the terminal walk value.

    The result is clipped to ``[-bound, bound]`` and has total slope at most
    ``slope``; clipping preserves the Lipschitz bound.
    """
    knots = rng.uniform(-knot_range, knot_range, size=kinks)
    w = rng.normal(size=kinks + 1)
    w *= slope / max(float(np.sum(np.abs(w))), 1e-12)
    const = float(rng.uniform(-0.5 * bound, 0.5 * bound))

    def payoff(b):
        b = np.asarray(b, dtype=float)
        out = const + w[0] * b
        for k in range(kinks):
            out = out + w[k + 1] * (np.abs(b - knots[k]) - abs(knots[k]))
        return np.clip(out, -bound, bound)

    return TerminalClaim(payoff, name="random")


class DividendStream:
    """Per-step, per-node payout increments ``dK_i`` (cumulative value starts at 0).

    The increment at step ``i`` accrues to the price at step ``i`` during the
    backward pass, i.e. it is the payout earned between ``t_i`` and
    ``t_{i+1}``.  A stream is *increasing* when every increment is >= 0.
    """

    __slots__ = ("increments",)

    def __init__(self, increments: AdaptedProcess):
        if increments.stop > increments.lattice.n_steps - 1:
            raise StepOutOfRange("dividend increments may cover steps 0..n-1 only")
        self.increments = increments

    @property
    def lattice(self) -> Lattice:
        return self.increments.lattice

    def increment(self, i: int) -> np.ndarray:
        """Increment slice at step ``i``; zero outside the defined range."""
        if self.increments.start <= i <= self.increments.stop:
            return self.increments.at(i)
        return np.zeros(i + 1)

    def is_increasing(self, tol: float = 0.0) -> bool:
        return all(np.all(s >= -tol) for s in self.increments.slices)

    @classmethod
    def from_rate(cls, lattice: Lattice, rate: float) -> "DividendStream":
        """Constant payout rate: every node of every step pays ``rate * dt``."""
        return cls(AdaptedProcess.constant(lattice, rate * lattice.dt, 0,
                                           lattice.n_steps - 1))

    @classmethod
    def from_arrays(cls, lattice: Lattice, arrays: Sequence, start: int = 0) -> "DividendStream":
        return cls(AdaptedProcess(lattice, start, arrays))

    def difference(self, other: "DividendStream") -> "DividendStream":
        """Node-wise increment difference ``self - other`` on steps 0..n-1."""
        return _payout_gap(self, other, self.lattice)


def _increment_at(dividends: Optional[DividendStream], i: int):
    if dividends is None:
        return 0.0
    return dividends.increment(i)


def _payout_gap(a: Optional[DividendStream], b: Optional[DividendStream],
                lattice: Lattice) -> Optional[DividendStream]:
    """Node-wise increments ``a - b`` on steps 0..n-1, where ``None`` pays
    nothing; ``None`` when neither side pays."""
    if a is None and b is None:
        return None
    return DividendStream.from_arrays(
        lattice, [_increment_at(a, i) - _increment_at(b, i) for i in range(lattice.n_steps)])


# -- one-step kernel -----------------------------------------------------------

def monotone_condition(mu: float, lattice: Lattice) -> bool:
    return mu * (lattice.sqrt_dt + lattice.dt) <= 1.0


def require_monotone(mu: float, lattice: Lattice) -> None:
    if not monotone_condition(mu, lattice):
        raise SchemeNotMonotone(
            f"mu * (sqrt(dt) + dt) = {mu * (lattice.sqrt_dt + lattice.dt):.6g} > 1; "
            "refine the grid or lower mu"
        )


def _non_finite(values: np.ndarray, step: int, what: str) -> NonFiniteValue:
    """Error naming the first NaN or inf entry of a step slice or batch of slices."""
    where = tuple(int(k) for k in np.argwhere(~np.isfinite(values))[0])
    return NonFiniteValue(f"{what} is {values[where]} at {_witness(step, where)}")


def _witness(step: int, where: tuple) -> str:
    """``step i, [row r, ]node j`` for an index into a slice or batch of slices."""
    row = f"row {where[0]}, " if len(where) > 1 else ""
    return f"step {step}, {row}node {where[-1]}"


def _implicit_step(g: Generator, step: int, t: float, m, z, dk, dt: float):
    """Solve ``y = m + g(t, y, z) dt + dk`` by Picard iteration from ``y0 = m``.

    In a ``(rows, nodes)`` batch each row stops on its own residual and is then
    frozen, so a row's bits do not depend on its batch.  Drivers that carry a
    closed-form one-step inverse bypass the iteration.
    """
    if g.exact_step is not None:
        return np.asarray(g.exact_step(t, m, z, dk, dt), dtype=float), 1, 0.0
    y = np.asarray(m, dtype=float)
    done = None
    for iters in range(1, PICARD_CAP + 1):
        y_next = m + g(t, y, z) * dt + dk
        if done is not None:
            y_next[done] = y[done]
        gap = np.abs(y_next - y)
        resid = float(np.max(gap)) if gap.size else 0.0
        if not math.isfinite(resid):
            raise _non_finite(y_next - y, step, "Picard update")
        y = y_next
        if resid <= PICARD_TOL:
            break
        if y.ndim > 1:
            done = np.max(gap, axis=-1) <= PICARD_TOL
    if resid > PICARD_FAIL:
        where = np.unravel_index(np.argmax(gap), gap.shape)
        raise PicardDivergence(f"Picard iteration stuck at residual {resid:.3g} "
                               f"at {_witness(step, where)} (t={t:.6g})")
    return y, iters, resid


# -- the backward kernel ----------------------------------------------------------

def _sweep(g: Generator, cur: np.ndarray, lattice: Lattice, n: int, s: int,
           dividends: Optional[DividendStream]):
    """Yield ``(i, y_i, iters, resid)`` for steps ``n - 1`` down to ``s``."""
    dt, sqrt_dt = lattice.dt, lattice.sqrt_dt
    for i in range(n - 1, s - 1, -1):
        m, z = one_step_mz(cur, sqrt_dt)
        cur, iters, resid = _implicit_step(g, i, lattice.grid.time(i), m, z,
                                           _increment_at(dividends, i), dt)
        yield i, cur, iters, resid


def _backward(g: Generator, cur: np.ndarray, lattice: Lattice, n: int, s: int,
              dividends: Optional[DividendStream], keep_surface: bool):
    """Backward induction of the step-``n`` values ``cur`` (nodes on the last
    axis) down to step ``s``.  Returns the ``y`` slices of steps ``s..n`` (only
    the step-``s`` one unless ``keep_surface``), the worst Picard iteration
    count and residual.  The ``z`` of each step is used and dropped.

    Every node feeds the step-``s`` slice, so one check there catches any
    NaN or inf; only then is the sweep re-run to locate it.
    """
    if g.mu * lattice.dt >= 1.0:
        raise ContractionViolation(
            f"mu * dt = {g.mu * lattice.dt:.6g} >= 1; refine the grid"
        )
    y_slices = [cur]
    worst_iters, worst_resid = 0, 0.0
    for _, y, iters, resid in _sweep(g, cur, lattice, n, s, dividends):
        worst_iters = max(worst_iters, iters)
        worst_resid = max(worst_resid, resid)
        if not keep_surface:
            y_slices.clear()
        y_slices.append(y)
    if not np.isfinite(y_slices[-1]).all():
        for i, y, *_ in _sweep(g, cur, lattice, n, s, dividends):
            if not np.isfinite(y).all():
                raise _non_finite(y, i, "price")
    y_slices.reverse()
    return y_slices, worst_iters, worst_resid


# -- full solves ----------------------------------------------------------------

@dataclass
class PricingResult:
    """Solution of the backward recursion: value process and hedge process.

    ``y.at(i)`` are node prices; the terminal slice equals the claim payoff
    bitwise.  ``z.at(i)`` are the martingale-increment coefficients used over
    step ``i``.  Only ``y`` is stored: ``z`` is derived from it on first read
    by the kernel's own child operator, so it is bitwise the ``z`` the solve
    used.  A zero-step solve has one all-zero ``z`` slice.
    """

    y: AdaptedProcess
    picard_iters: int
    residual: float

    @cached_property
    def z(self) -> AdaptedProcess:
        y = self.y
        slices = [one_step_z(y, i) for i in range(y.start, y.stop)]
        return AdaptedProcess(y.lattice, y.start, slices or [y.at(y.start) * 0.0])


def solve_bsde(
    g: Generator,
    claim: TerminalClaim,
    dividends: Optional[DividendStream],
    lattice: Lattice,
    t_step: int | None = None,
    s_step: int = 0,
) -> PricingResult:
    """Backward-solve the claim plus dividend stream from ``t_step`` to ``s_step``."""
    n = lattice.n_steps if t_step is None else t_step
    if not 0 <= s_step <= n <= lattice.n_steps:
        raise BadStepOrder(f"need 0 <= s={s_step} <= t={n} <= {lattice.n_steps}")
    y_slices, iters, resid = _backward(
        g, claim.values(lattice, n), lattice, n, s_step, dividends, keep_surface=True)
    return PricingResult(y=AdaptedProcess(lattice, s_step, y_slices),
                         picard_iters=iters, residual=resid)


def price(
    g: Generator,
    s_step: int,
    t_step: int,
    claim: TerminalClaim,
    dividends: Optional[DividendStream],
    lattice: Lattice,
) -> np.ndarray:
    """Node prices at ``s_step`` of a claim maturing at ``t_step``.

    With ``s_step == t_step`` this is the payoff itself (the identity leg of
    the pricing system): a zero-step solve returns the claim slice bitwise.
    """
    return solve_bsde(g, claim, dividends, lattice, t_step=t_step,
                      s_step=s_step).y.at(s_step)


def solve_terminal_batch(
    g: Generator,
    terminal: np.ndarray,
    lattice: Lattice,
    t_step: int | None = None,
) -> np.ndarray:
    """Backward-solve a batch of terminal payoff rows; returns root values.

    ``terminal`` has shape ``(batch, t_step + 1)``.  No dividends, no surface
    retention: this is the bulk kernel for inequality audits.
    """
    n = lattice.n_steps if t_step is None else t_step
    cur = np.atleast_2d(np.asarray(terminal, dtype=float))
    if cur.shape[1] != n + 1:
        raise StepOutOfRange(f"terminal rows must have {n + 1} entries")
    if not np.isfinite(cur).all():
        raise _non_finite(cur, n, "terminal value")
    (root,), _, _ = _backward(g, cur, lattice, n, 0, None, keep_surface=False)
    return root[:, 0]


# -- mechanism handles -----------------------------------------------------------

class MechanismHandle:
    """Black-box dynamic pricing interface over one lattice.

    ``price_at(s_step, t_step, claim, dividends)`` returns node values at
    ``s_step``; it must be pure and reentrant.  ``mu`` is the declared
    domination constant (``None`` when unknown).  :meth:`price_rows` and
    :meth:`price_surface` call ``price_at`` once per row or step.  Every price
    is checked for shape and finiteness, so a NaN or inf raises
    :class:`NonFiniteValue` instead of becoming a result.

    :func:`as_mechanism` overrides only the hooks ``_rows`` and ``_surface``,
    to run the backward kernel; the public methods stay on this class, where
    ``bench/tracing.py`` patches them.
    """

    def __init__(self, lattice: Lattice, price_at: Callable, mu: Optional[float],
                 name: str = ""):
        self.lattice = lattice
        self._price_at = price_at
        self.mu = mu
        self.name = name

    def _check_steps(self, s_step: int, t_step: int) -> None:
        if not 0 <= s_step <= t_step <= self.lattice.n_steps:
            raise BadStepOrder(f"need 0 <= s={s_step} <= t={t_step} <= {self.lattice.n_steps}")

    def price_at(self, s_step: int, t_step: int, claim: TerminalClaim,
                 dividends: Optional[DividendStream] = None) -> np.ndarray:
        self._check_steps(s_step, t_step)
        return _checked_prices(self._price_at(s_step, t_step, claim, dividends),
                               (s_step + 1,), s_step)

    def price_rows(self, s_step: int, t_step: int, rows,
                   dividends: Optional[DividendStream] = None) -> np.ndarray:
        """Prices at ``s_step`` of a ``(k, t_step + 1)`` batch of terminal node
        values, as ``(k, s_step + 1)``; row ``r`` equals ``price_at`` of
        ``claim_from_values(lattice, t_step, rows[r])``."""
        self._check_steps(s_step, t_step)
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != t_step + 1:
            raise StepOutOfRange(f"rows must have {t_step + 1} entries, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise _non_finite(rows, t_step, "terminal value")
        return _checked_prices(self._rows(s_step, t_step, rows, dividends),
                               (rows.shape[0], s_step + 1), s_step)

    def price_surface(self, t_step: int, claim: TerminalClaim,
                      dividends: Optional[DividendStream] = None) -> AdaptedProcess:
        """Prices at every step 0..t_step."""
        self._check_steps(0, t_step)
        return self._surface(t_step, claim, dividends)

    def _rows(self, s_step, t_step, rows, dividends):
        # one price_at call per row; price_rows checks the whole batch for NaN
        # and inf, so a witness names the row
        out = np.empty((rows.shape[0], s_step + 1))
        for r, row in enumerate(rows):
            claim = claim_from_values(self.lattice, t_step, row)
            out[r] = _checked_prices(self._price_at(s_step, t_step, claim, dividends),
                                     (s_step + 1,), s_step, finite=False)
        return out

    def _surface(self, t_step, claim, dividends):
        return AdaptedProcess(self.lattice, 0, [self.price_at(s, t_step, claim, dividends)
                                                for s in range(t_step + 1)])


def _checked_prices(values, shape: tuple, step: int, finite: bool = True) -> np.ndarray:
    """A black box's step-``step`` prices as floats; raises unless they have
    ``shape`` and, if ``finite``, no NaN or inf, naming its step, row and node."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != shape:
        raise StepOutOfRange(f"mechanism returned shape {vals.shape} at step {step}, "
                             f"expected {shape}")
    if finite and not np.isfinite(vals).all():
        raise _non_finite(vals, step, "mechanism price")
    return vals


def _own_lattice(mech: MechanismHandle, lattice: Optional[Lattice]) -> Lattice:
    """The handle's lattice, which ``lattice`` must equal unless ``None``."""
    if lattice is not None and lattice != mech.lattice:
        raise InvalidParams(f"lattice {lattice.grid} is not the mechanism's "
                            f"lattice {mech.lattice.grid}")
    return mech.lattice


class _DriverMechanism(MechanismHandle):
    """A driver's backward solver as a handle: ``price_at`` is :func:`price`,
    rows run the kernel in one pass and surfaces are one :func:`solve_bsde`."""

    def __init__(self, g: Generator, lattice: Lattice):
        super().__init__(lattice, lambda s, t, claim, dividends:
                         price(g, s, t, claim, dividends, lattice),
                         mu=g.mu, name=g.name or "mechanism")
        self._g = g

    def _rows(self, s_step, t_step, rows, dividends):
        (y,), _, _ = _backward(self._g, rows, self.lattice, t_step, s_step, dividends,
                               keep_surface=False)
        return y

    def _surface(self, t_step, claim, dividends):
        return solve_bsde(self._g, claim, dividends, self.lattice, t_step=t_step).y


def as_mechanism(g: Generator, lattice: Lattice) -> MechanismHandle:
    """Wrap a driver's backward solver as a pricing mechanism on the lattice."""
    return _DriverMechanism(g, lattice)


def paste(mechs: Sequence[MechanismHandle], boundaries: Sequence[int]) -> MechanismHandle:
    """Join mechanisms end to end along a step partition of ``[0, n]``.

    ``boundaries`` is the full partition ``0 = c_0 < c_1 < ... < c_N = n``
    with ``mechs[k]`` governing ``[c_k, c_{k+1}]``.  Within one segment the
    pasted mechanism delegates; across segments it prices the inner value
    slice as one ``price_rows`` row, which is the unique consistent extension.
    """
    if not mechs:
        raise BadPartition("need at least one mechanism")
    lattice = mechs[0].lattice
    for m in mechs:
        if m.lattice != lattice:
            raise BadPartition("all mechanisms must share one lattice")
    cuts = [int(c) for c in boundaries]
    n = lattice.n_steps
    if (len(cuts) != len(mechs) + 1 or cuts[0] != 0 or cuts[-1] != n
            or any(a >= b for a, b in zip(cuts, cuts[1:]))):
        raise BadPartition(f"boundaries {cuts} do not partition [0, {n}] "
                           f"into {len(mechs)} segments")

    def price_at(s_step, t_step, claim, dividends):
        step, vals = t_step, claim.values(lattice, t_step)
        while step > s_step:
            # segment k covers (c_k, c_{k+1}]
            k = bisect.bisect_left(cuts, step) - 1
            lo = max(cuts[k], s_step)
            step, vals = lo, mechs[k].price_rows(lo, step, vals[None], dividends)[0]
        return vals

    mus = [m.mu for m in mechs]
    mu = None if any(v is None for v in mus) else max(mus)
    return MechanismHandle(lattice, price_at, mu=mu,
                           name="paste(" + ",".join(m.name for m in mechs) + ")")


# -- order verdicts ---------------------------------------------------------------

@dataclass
class ComparisonVerdict:
    applicable: bool
    passed: Optional[bool]
    worst_margin: float = 0.0
    worst_node: Optional[tuple] = None
    reason: str = ""


def compare(
    g: Generator,
    claim_a: TerminalClaim,
    dividends_a: Optional[DividendStream],
    claim_b: TerminalClaim,
    dividends_b: Optional[DividendStream],
    lattice: Lattice,
    tol: float = 1e-9,
) -> ComparisonVerdict:
    """Order verdict: larger payoff and larger payouts give larger prices.

    Applicable only when the terminal payoffs are ordered node-wise and the
    payout difference is an increasing stream; otherwise the verdict is
    "not applicable" rather than a failure.
    """
    require_monotone(g.mu, lattice)
    n = lattice.n_steps
    xa = claim_a.values(lattice, n)
    xb = claim_b.values(lattice, n)
    if np.min(xa - xb) < -tol:
        return ComparisonVerdict(applicable=False, passed=None,
                                 reason="terminal payoffs are not ordered")
    gap = _payout_gap(dividends_a, dividends_b, lattice)
    if gap is not None and not gap.is_increasing(tol=tol):
        return ComparisonVerdict(applicable=False, passed=None,
                                 reason="payout difference is not increasing")

    ya = solve_bsde(g, claim_a, dividends_a, lattice).y
    yb = solve_bsde(g, claim_b, dividends_b, lattice).y
    worst_margin, worst_node = _worst_node(ya.at(i) - yb.at(i) for i in range(n + 1))
    return ComparisonVerdict(applicable=True, passed=bool(worst_margin >= -tol),
                             worst_margin=worst_margin, worst_node=worst_node)


@dataclass
class DominationVerdict:
    passed: bool
    worst_margin: float
    worst_node: Optional[tuple] = None


def check_domination(
    mech: MechanismHandle,
    claim_a: TerminalClaim,
    claim_b: TerminalClaim,
    mu: float,
    lattice: Lattice,
    dividends_a: Optional[DividendStream] = None,
    dividends_b: Optional[DividendStream] = None,
    tol: float = 1e-9,
) -> DominationVerdict:
    """Check that the mechanism's price spread is capped by the mu-driver price.

    At every node of every step the spread ``mech(A) - mech(B)`` must not
    exceed the extremal-driver price of the difference claim (with the
    difference payout stream); the worst margin ``cap - spread`` is reported.
    ``lattice`` must be the handle's own.
    """
    _own_lattice(mech, lattice)
    require_monotone(mu, lattice)
    n = lattice.n_steps
    sa = mech.price_surface(n, claim_a, dividends_a)
    sb = mech.price_surface(n, claim_b, dividends_b)

    diff_claim = TerminalClaim(
        lambda b: np.asarray(claim_a.payoff(b), dtype=float)
        - np.asarray(claim_b.payoff(b), dtype=float),
        name="difference",
    )
    cap = solve_bsde(domination_generator(mu), diff_claim,
                     _payout_gap(dividends_a, dividends_b, lattice), lattice).y

    worst_margin, worst_node = _worst_node(cap.at(i) - (sa.at(i) - sb.at(i))
                                           for i in range(n + 1))
    return DominationVerdict(passed=bool(worst_margin >= -tol),
                             worst_margin=worst_margin, worst_node=worst_node)


@dataclass
class SignFlipVerdict:
    passed: bool
    max_error: float


def sign_flip_check(
    g: Generator,
    claim: TerminalClaim,
    dividends: Optional[DividendStream],
    lattice: Lattice,
    tol: float = 1e-10,
) -> SignFlipVerdict:
    """Duality identity: negating claim and payouts under the reflected driver
    ``g_(t,y,z) = -g(t,-y,-z)`` negates every node price."""
    reflected = Generator(
        fn=lambda t, y, z: -g(t, -np.asarray(y, float), -np.asarray(z, float)),
        mu=g.mu,
        name=f"reflected({g.name})",
    )
    neg_claim = TerminalClaim(lambda b: -np.asarray(claim.payoff(b), dtype=float))
    neg_div = _payout_gap(None, dividends, lattice)

    y = solve_bsde(g, claim, dividends, lattice).y
    y_neg = solve_bsde(reflected, neg_claim, neg_div, lattice).y
    err = _max_gap(y_neg.at, lambda i: -y.at(i), range(lattice.n_steps + 1))
    return SignFlipVerdict(passed=bool(err <= tol), max_error=err)
