"""Backward solver for driver-priced claims on the binomial lattice.

The one-step scheme is implicit in ``y``: at each node the solver finds

    y = m + g(t_i, y, z) * dt + dK_i

where ``m`` is the one-step conditional expectation of the next slice, ``z``
its martingale-increment coefficient and ``dK_i`` the dividend paid over the
step.  The fixed point is found by Picard iteration from ``m`` plus one Aitken
step (see :func:`_implicit_step`), which contracts whenever ``mu * dt < 1``.

One private kernel, ``_backward``, runs this recursion over the last axis of
its input.  It has two entry points: :func:`solve_bsde` keeps the whole ``y``
surface of one claim with its dividends, and the ``_batch`` hook of an
:func:`as_mechanism` handle prices many rows with their dividends in one pass,
keeping the step-``s`` values (``price_rows``) or every step's
(``price_surfaces``).  The handle's ``price_at`` and
:func:`solve_terminal_batch` are views of that batch: one row, and the root
values of many.  ``doob_meyer``'s rebuild runs the kernel's step loop,
:func:`_sweep`, itself and keeps one step at a time.  A closed-form driver
steps from the next slice into per-call column-major scratch arrays that the
built-in closed forms overwrite in place (see :func:`_sweep`); its input is
never written and its results are fresh row-major arrays.  ``z`` is never stored, and no built-in closed form forms
it.  Under a linear driver a root price is also one binomial sum,
:func:`_linear_root`, which the chain audit uses for the payoff rows that keep
the extremal driver linear.  A :class:`MechanismHandle` is built from a black-box
``price_at`` alone; only :func:`as_mechanism` handles reach the kernel.
A NaN or inf raises :class:`NonFiniteValue` naming the step and node where it
first appears.

Order-sensitive verdicts (comparison, domination) additionally require the
monotone-scheme condition ``mu * (sqrt(dt) + dt) <= 1``; without it the
one-step map need not be nondecreasing in the next-step values and discrete
order verdicts are unreliable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadStepOrder,
    ContractionViolation,
    InvalidParams,
    NonFiniteValue,
    PicardDivergence,
    SchemeNotMonotone,
    StepOutOfRange,
)
from .generators import (_LIPSCHITZ_SLACK, Generator, _answer_shape, _declared, _finite,
                         _integer, domination_generator)
from .lattice import AdaptedProcess, Lattice, _worst_node, one_step_mz

PICARD_TOL = 1e-12
PICARD_CAP = 100
PICARD_FAIL = 1e-9
PICARD_ULPS = 1
PRICE_TOL = 1e-9  # price slack of the order, law, defect and audit verdicts
# work-array bytes per row block of a large closed-form batch (see _backward):
# with its two scratch arrays a block takes about 1.5 MiB, inside a 2 MiB L2
_BLOCK_BYTES = 1 << 19


# -- claims and dividend streams ----------------------------------------------

@dataclass(frozen=True)
class TerminalClaim:
    """A payoff that is a pure function of the walk value at maturity."""

    payoff: Callable
    name: str = ""

    def values(self, lattice: Lattice, step: int) -> np.ndarray:
        # a payoff that overflows is named by the finiteness check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.asarray(self.payoff(lattice.node_values(step)), dtype=float)
        if raw.ndim > 1 or raw.size not in (1, step + 1):  # numpy would not broadcast it
            raise StepOutOfRange(f"claim {self.name!r} returned shape {raw.shape} at step "
                                 f"{step}, need {step + 1} values")
        return _check_finite(np.array(np.broadcast_to(raw, (step + 1,)), dtype=float),
                             step, f"claim {self.name!r}")


def claim_from_values(lattice: Lattice, step: int, values) -> TerminalClaim:
    """Wrap a slice of node values as a claim maturing at ``step``.

    The payoff looks walk values up by node index, so it reproduces the given
    values exactly on the lattice (off-grid queries clamp to the range).
    """
    need = f"need {step + 1} node values"
    vals = _float_array(values, need).copy()
    if vals.shape != (step + 1,):
        raise StepOutOfRange(f"{need}, got shape {vals.shape}")
    return TerminalClaim(lambda b: vals[lattice.node_index(step, b)], name=f"slice@{step}")


def make_underlying_map(s0: float, sigma: float, horizon: float, drift: float = 0.0):
    """Terminal stock map ``B -> s0 * exp(sigma * B + (drift - sigma^2/2) * horizon)``.
    Raises :class:`InvalidParams` unless every argument and the exponent's
    shift ``(drift - sigma^2/2) * horizon`` are finite and ``s0 > 0``.  A price
    that overflows comes back as ``inf``, for the claim's finiteness check to
    name its step and node."""
    if not _finite("s0", s0) > 0:
        raise InvalidParams(f"s0 must be > 0, got {s0}")
    for name, value in (("sigma", sigma), ("horizon", horizon), ("drift", drift)):
        _finite(name, value)
    shift = _finite("(drift - sigma^2/2) * horizon", (drift - 0.5 * sigma * sigma) * horizon)

    def terminal_price(b):
        with np.errstate(over="ignore"):
            return s0 * np.exp(sigma * np.asarray(b, dtype=float) + shift)

    return terminal_price


def _draw_claim(rng, bound: float = 1.0, slope: float = 1.0) -> tuple:
    """The parameters ``(knots, w, const, bound)`` of a :func:`random_claim`,
    drawn from ``rng`` in its order."""
    knots = rng.uniform(-2.0, 2.0, size=3)
    w = rng.normal(size=4)
    w *= slope / max(float(np.abs(w).sum()), 1e-12)
    const = float(rng.uniform(-0.5 * bound, 0.5 * bound))
    return knots, w, const, bound


def _claim_payoff(b, knots, w, const, bound):
    """The payoff of :func:`random_claim` at walk values ``b``.  With ``(3, k, 1)``
    knots, ``(4, k, 1)`` weights and ``(k, 1)`` const and bound it is ``k``
    claims' payoffs, one row each, every entry formed in the one claim's order."""
    out = const + w[0] * b
    for k in range(3):
        out = out + w[k + 1] * (np.abs(b - knots[k]) - abs(knots[k]))
    return np.clip(out, -bound, bound)


def _claim_rows(lattice: Lattice, step: int, params: Sequence[tuple]) -> np.ndarray:
    """The ``(k, step + 1)`` node values of ``k`` random claims given by their
    :func:`_draw_claim` parameters: row ``i`` is bitwise claim ``i``'s ``values``."""
    knots, w, const, bound = (np.array(p, dtype=float) for p in zip(*params))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _claim_payoff(lattice.node_values(step), knots.T[..., None], w.T[..., None],
                             const[:, None], bound[:, None])
    return _check_finite(rows, step, "claim 'random'")


def random_claim(rng, bound: float = 1.0, slope: float = 1.0) -> TerminalClaim:
    """Random bounded piecewise-linear payoff of the terminal walk value.

    It has three kinks, drawn from ``[-2, 2]``.  The result is clipped to
    ``[-bound, bound]`` and has total slope at most ``slope``; clipping
    preserves the Lipschitz bound.
    """
    params = _draw_claim(rng, bound, slope)
    return TerminalClaim(lambda b: _claim_payoff(np.asarray(b, dtype=float), *params),
                         name="random")


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
            return self.increments.slices[i - self.increments.start]
        return np.zeros(i + 1)

    def is_increasing(self) -> bool:
        """Every increment is at least ``-PRICE_TOL``."""
        return all(np.all(s >= -PRICE_TOL) for s in self.increments.slices)

    @classmethod
    def from_rate(cls, lattice: Lattice, rate: float) -> "DividendStream":
        """Constant payout rate: every node of every step pays ``rate * dt``.
        The slice of step ``i`` is the first ``i + 1`` entries of one read-only
        row, so the stream holds ``n`` values, not ``n (n + 1) / 2``."""
        row = np.full(lattice.n_steps, _finite("rate", rate) * lattice.dt)
        row.flags.writeable = False
        return cls.from_arrays(lattice, [row[:i + 1] for i in range(lattice.n_steps)])

    @classmethod
    def from_arrays(cls, lattice: Lattice, arrays: Sequence, start: int = 0) -> "DividendStream":
        return cls(AdaptedProcess(lattice, start, arrays))


def _increment_at(dividends: Optional[DividendStream], i: int):
    if dividends is None:
        return 0.0
    return dividends.increment(i)


def _payout_gap(a: Optional[DividendStream], b: Optional[DividendStream],
                lattice: Lattice) -> Optional[DividendStream]:
    """Node-wise increments ``a - b`` on steps 0..n-1, where ``None`` pays
    nothing; ``None`` when neither side pays."""
    _check_steps(0, lattice.n_steps, lattice, a, b)
    if a is None and b is None:
        return None
    return DividendStream.from_arrays(
        lattice, [_increment_at(a, i) - _increment_at(b, i) for i in range(lattice.n_steps)])


# -- one-step kernel -----------------------------------------------------------

def require_monotone(mu: float, lattice: Lattice) -> None:
    lhs = _declared("mu", mu) * (lattice.sqrt_dt + lattice.dt)
    if not lhs <= 1.0:
        raise SchemeNotMonotone(
            f"mu * (sqrt(dt) + dt) = {lhs:.6g} > 1; refine the grid or lower mu")


def _check_finite(values: np.ndarray, step: int, what: str,
                  at: Optional[str] = None) -> np.ndarray:
    """``values``, a step slice or batch of slices, unless it holds a NaN or
    inf: then :class:`NonFiniteValue` names the first by step, row and node,
    or by the witness ``at`` of a value with a place of its own (a probe's)."""
    if not np.isfinite(values).all():
        where = tuple(int(k) for k in np.argwhere(~np.isfinite(values))[0])
        raise NonFiniteValue(f"{what} is {values[where]} at {at or _witness(step, where)}")
    return values


def _witness(step: Optional[int], where: tuple) -> str:
    """``[step i, ][row r, ]node j`` for an index into a slice or batch of slices."""
    row = f"row {where[0]}, " if len(where) > 1 else ""
    return ("" if step is None else f"step {step}, ") + f"{row}node {where[-1]}"


def _same_lattice(lattice: Lattice, own: Lattice, owner: str, what: str = "lattice") -> None:
    """Raise unless ``lattice`` equals ``own``: "{what} ... is not the {owner} lattice ..."."""
    if lattice != own:
        raise InvalidParams(f"{what} {lattice.grid} is not the {owner} lattice {own.grid}")


def _check_steps(s_step: int, t_step: int, lattice: Lattice, *streams) -> tuple:
    """The steps as ints; raises unless they are integers, ``0 <= s <= t <= n``,
    and each payout stream (or ``None``) is built on ``lattice``: its
    increments are amounts per step of its ``dt``."""
    s_step, t_step = _integer("s_step", s_step), _integer("t_step", t_step)
    if not 0 <= s_step <= t_step <= lattice.n_steps:
        raise BadStepOrder(f"need 0 <= s={s_step} <= t={t_step} <= {lattice.n_steps}")
    for d in streams:
        if d is not None:
            _same_lattice(d.lattice, lattice, "pricing", what="dividend stream lattice")
    return s_step, t_step


def _implicit_step(g: Generator, step: int, t: float, m, z, dk, dt: float):
    """Solve ``y = m + g(t, y, z) dt + dk`` by Picard iteration from ``y0 = m``.

    After the second update, a node whose updates' ratio ``r = d2 / d1`` has
    ``|r| <= mu dt`` (up to float noise) takes one Aitken step ``y2 + d2 r /
    (1 - r)``, exact on one linear piece of ``g(t, ., z)``.  The stopping test
    is the plain gap ``|F(y) - y| <= PICARD_TOL`` or, from the third update
    on, at most ``PICARD_ULPS`` float spacings of the row's largest ``|y|`` (a
    floor above ``PICARD_TOL`` only from ``|y| = 8192`` up).  The iteration
    count is the driver calls.  In a batch of two or more rows each row stops
    on its own test and is then frozen, Aitken step included, so a row's bits
    do not depend on its batch.  Closed-form drivers never come here (see
    :func:`_sweep`).
    """
    y = np.asarray(m, dtype=float)
    batched = y.ndim > 1 and len(y) > 1
    done = d2 = None
    for iters in range(1, PICARD_CAP + 1):
        drv = g(t, y, z)
        try:
            y_next = m + drv * dt + dk
        except ValueError:  # numpy refused to broadcast the driver's answer
            _answer_shape("driver", drv, y.shape, f"step {step}")
            raise
        if done is not None:
            y_next[done] = y[done]
        d1, d2 = d2, y_next - y
        gap = np.abs(d2)
        resid = float(gap.max()) if gap.size else 0.0
        if not math.isfinite(resid):
            _check_finite(d2, step, "Picard update")
        y = y_next
        if resid <= PICARD_TOL:
            break
        if batched or iters >= 3:
            floor = PICARD_ULPS * np.spacing(np.abs(y).max(axis=-1)) if iters >= 3 else 0.0
            stop = gap.max(axis=-1) <= np.maximum(PICARD_TOL, floor)
            if stop.all():
                break
            done = stop if batched else None
        if iters == 2:
            # |r| < mu dt (+ slack) as a product, false at d1 = 0; r / (1 - r) = d2 / (d1 - d2)
            ok = gap < (g.mu * dt * (1.0 + _LIPSCHITZ_SLACK)) * np.abs(d1)
            if done is not None:
                ok &= ~done[..., None]
            q = np.divide(d2, d1 - d2, out=None, where=ok)
            np.add(y, np.multiply(d2, q, out=q, where=ok), out=y, where=ok)
    else:  # the cap was hit
        if resid > PICARD_FAIL:
            where = np.unravel_index(np.argmax(gap), gap.shape)
            raise PicardDivergence(f"Picard iteration stuck at residual {resid:.3g} "
                                   f"at {_witness(step, where)} (t={t:.6g})")
    return y, iters, resid


# -- the backward kernel ----------------------------------------------------------

def _sweep(g: Generator, cur: np.ndarray, lattice: Lattice, n: int, s: int,
           payout: Callable):
    """Yield ``(i, y_i, iters, resid)`` for steps ``n - 1`` down to ``s``,
    where ``payout(i)`` is the increment paid over step ``i``.

    For a closed form, ``cur`` is copied once into a column-major work array,
    so the node slice ``[..., :k]`` of a ``(rows, nodes)`` batch is one
    contiguous block, and the closed form steps from it into two scratch
    arrays of that layout (see :class:`Generator`).  A returned ``out[0]`` is
    swapped in as the work array; any other ``y`` is adopted as it is.  A
    yielded ``y_i`` may therefore be scratch, valid only until the next step;
    a :class:`ContractionViolation` gains the step.  A Picard step allocates
    its ``y`` anyway and hands ``m`` and ``z`` to driver code, which ran up to
    14% slower on column-major batches of few rows, so it gets fresh
    row-major ``m`` and ``z``.
    """
    dt, sqrt_dt, exact_step = lattice.dt, lattice.sqrt_dt, g.exact_step
    if exact_step is not None:
        work = cur = np.array(cur, dtype=float, order="F")
        y_buf, spare = np.empty_like(work), np.empty_like(work)
    for i in range(n - 1, s - 1, -1):
        t, dk = lattice.grid.time(i), payout(i)
        if exact_step is None:
            cur, iters, resid = _implicit_step(g, i, t, *one_step_mz(cur, sqrt_dt), dk, dt)
        else:
            try:
                cur = np.asarray(exact_step(t, cur, dk, dt, (y_buf[..., :i + 1],
                                                             spare[..., :i + 1])), dtype=float)
            except ContractionViolation as err:
                raise ContractionViolation(f"step {i}, {err}") from None
            iters, resid = 1, 0.0
            if cur.base is y_buf:
                work, y_buf = y_buf, work
        yield i, cur, iters, resid


def _backward(g: Generator, cur: np.ndarray, lattice: Lattice, n: int, s: int,
              dividends: Optional[DividendStream], keep_surface: bool):
    """Backward induction of the step-``n`` values ``cur`` (nodes on the last
    axis) down to step ``s``.  Returns the ``y`` slices of steps ``s..n`` (only
    the step-``s`` one unless ``keep_surface``), the worst Picard iteration
    count and residual.  The ``z`` of each step is used and dropped.

    ``cur`` is never written.  Every returned slice is a fresh row-major
    array: ``cur`` is copied only when it is returned, scratch once when kept.

    A closed-form batch whose step-``s`` slice alone is kept is swept in
    ``ceil(rows / max(1, _BLOCK_BYTES // (8 (n + 1))))`` row blocks whose
    sizes differ by at most one, each over all steps, so a block's work and
    scratch arrays stay in the L2 cache; their step-``s`` rows are joined.
    Rows never mix and every pass is elementwise, so no bit moves.  Picard
    batches (blocks would multiply the driver calls), kept surfaces (they
    would be held twice) and single claims are one block.

    Every node feeds the step-``s`` slice, so one check there catches any
    NaN or inf.  That, or a :class:`ContractionViolation` or
    :class:`NonFiniteValue` in one of two or more blocks, re-sweeps the whole
    batch once through :func:`_name_failure`, naming the failing step and
    batch row.  The sweeps run with numpy's overflow and invalid warnings off.
    """
    if not g.mu * lattice.dt < 1.0:
        raise ContractionViolation(
            f"mu * dt = {g.mu * lattice.dt:.6g} >= 1; refine the grid"
        )
    payout = functools.partial(_increment_at, dividends)
    y_slices = [np.array(cur, dtype=float, order="C")] if keep_surface or s == n else []
    worst_iters, worst_resid = 0, 0.0
    blocks = 1
    if g.exact_step is not None and not keep_surface and s < n and np.ndim(cur) == 2:
        blocks = max(1, -(-len(cur) // max(1, _BLOCK_BYTES // (8 * (n + 1)))))
    resweep_on = (ContractionViolation, NonFiniteValue) if blocks > 1 else ()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for part in np.array_split(cur, blocks) if blocks > 1 else (cur,):
                for i, y, iters, resid in _sweep(g, part, lattice, n, s, payout):
                    worst_iters = max(worst_iters, iters)
                    worst_resid = max(worst_resid, resid)
                    if keep_surface or i == s:
                        y_slices.append(_owned(y))
        except resweep_on:
            pass
        else:
            if blocks > 1:
                y_slices = [np.concatenate(y_slices)]
            if np.isfinite(y_slices[-1]).all():
                y_slices.reverse()
                return y_slices, worst_iters, worst_resid
        _name_failure(g, cur, lattice, n, s, payout)


def _name_failure(g: Generator, cur: np.ndarray, lattice: Lattice, n: int, s: int,
                  payout: Callable):
    """Re-sweep ``cur`` as :func:`_sweep` and raise at the first failure: a
    NaN or inf slice is :class:`NonFiniteValue` naming its step, row and node.
    Call it with numpy's overflow and invalid warnings off."""
    for i, y, *_ in _sweep(g, cur, lattice, n, s, payout):
        _check_finite(y, i, "price")
    raise RuntimeError("the whole-batch re-sweep met no failure: is the driver deterministic?")


def _owned(y: np.ndarray) -> np.ndarray:
    """``y`` if it is a row-major array of its own, else a row-major copy."""
    return y if y.base is None and y.flags.c_contiguous else y.copy()


# -- full solves ----------------------------------------------------------------

@dataclass
class PricingResult:
    """Solution of the backward recursion: the value process and its solver stats.

    ``y.at(i)`` are node prices; the terminal slice equals the claim payoff
    bitwise.  The hedge ``z`` over step ``i`` is ``one_step_mz(y.at(i + 1),
    sqrt_dt)[1]``: bitwise the ``z`` a Picard step or the recovered driver's
    closed form used; no built-in closed form forms it.
    """

    y: AdaptedProcess
    picard_iters: int
    residual: float


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
    s_step, n = _check_steps(s_step, n, lattice, dividends)
    y_slices, iters, resid = _backward(
        g, claim.values(lattice, n), lattice, n, s_step, dividends, keep_surface=True)
    return PricingResult(y=AdaptedProcess(lattice, s_step, y_slices),
                         picard_iters=iters, residual=resid)


def solve_terminal_batch(g: Generator, terminal: np.ndarray, lattice: Lattice,
                         t_step: int | None = None) -> np.ndarray:
    """Root values of ``(batch, t_step + 1)`` terminal payoff rows (or one
    row), no dividends: ``as_mechanism(g, lattice).price_rows(0, t_step,
    terminal)[:, 0]``.  The inequality audit prices through this entry."""
    n = lattice.n_steps if t_step is None else t_step
    rows = np.atleast_2d(_float_array(terminal, f"rows must have {n + 1} entries"))
    return as_mechanism(g, lattice).price_rows(0, n, rows)[:, 0]


def _linear_root(rows: np.ndarray, a, b: float, lattice: Lattice) -> np.ndarray:
    """Root values of ``(k, n + 1)`` terminal rows under the linear driver
    ``a y + b z``, no dividends, as one sum that shares no code with the kernel.

    The one-step map ``(m + b z dt) / (1 - a dt)`` weighs the up child by
    ``p = (1 + b sqrt(dt)) / 2``, so the root is ``(1 - a dt)^(-n) (rows @ w)``
    with ``w`` the n-step binomial law at ``p``, built by n two-point
    convolutions (tail weights that underflow to 0 do no harm).  ``a`` is one
    number or one per row.  Equal to the kernel's price up to rounding.
    """
    n = rows.shape[-1] - 1
    # the larger weight is >= 1/2, so 1 - it is exact and the two weights sum
    # to 1: a rounded pair would drift the law's mass by n roundings
    big = 0.5 * (1.0 + abs(b) * lattice.sqrt_dt)
    up, down = (big, 1.0 - big) if b >= 0 else (1.0 - big, big)
    w = np.zeros(n + 1)
    w[0] = 1.0
    for k in range(1, n + 1):
        w[1:k + 1] = down * w[1:k + 1] + up * w[:k]
        w[0] *= down
    return (1.0 - np.asarray(a, dtype=float) * lattice.dt) ** -n * (rows @ w)


# -- mechanism handles -----------------------------------------------------------

class MechanismHandle:
    """Black-box dynamic pricing interface over one lattice.

    ``price_at(s_step, t_step, claim, dividends)`` returns node values at
    ``s_step``; it must be pure and reentrant.  ``mu`` is the declared
    domination constant, checked as a :class:`Generator`'s, or ``None`` when
    unknown; it and ``lattice`` are read-only, fixed where the handle is
    built.  :meth:`price_rows` and :meth:`price_surface` call ``price_at``
    once per row or step, and :meth:`price_surfaces` prices one surface per
    row.  ``price_at`` is called in one place, ``_answer``, which checks
    each answer's shape and copies it as it arrives, so a black box that
    writes every answer into one buffer is judged on the answers it gave, not
    on the buffer's last.  Every step's prices are checked for NaN and inf,
    which raise :class:`NonFiniteValue` instead of becoming a result; a batch
    is checked once it is whole, so its witness names the row.  No result
    shares memory with the input rows.

    :func:`as_mechanism` overrides only the hooks ``_answer``, ``_batch`` and
    ``_surface``, whose results are arrays of their own, and its ``price_at``
    is its ``_batch`` on the claim's 1-d slice: bitwise one row of its batch,
    with the witness of :func:`solve_bsde`; the public methods stay on this
    class, where ``bench/tracing.py`` patches them.
    """

    def __init__(self, lattice: Lattice, price_at: Callable, mu: Optional[float]):
        self._lattice = lattice
        self._price_at = price_at
        self._mu = mu if mu is None else _declared("mu", mu)

    @property
    def lattice(self) -> Lattice:
        return self._lattice

    @property
    def mu(self) -> Optional[float]:
        return self._mu

    def price_at(self, s_step: int, t_step: int, claim: TerminalClaim,
                 dividends: Optional[DividendStream] = None) -> np.ndarray:
        s_step, t_step = _check_steps(s_step, t_step, self.lattice, dividends)
        return _check_finite(self._answer(s_step, t_step, claim, dividends), s_step,
                             "mechanism price")

    def price_rows(self, s_step: int, t_step: int, rows,
                   dividends: Optional[DividendStream] = None) -> np.ndarray:
        """Prices at ``s_step`` of a ``(k, t_step + 1)`` batch of terminal node
        values, as ``(k, s_step + 1)``; row ``r`` equals ``price_at`` of
        ``claim_from_values(lattice, t_step, rows[r])``.  The result never
        shares memory with ``rows``, also at ``s_step == t_step``."""
        return self._checked_batch(s_step, t_step, rows, dividends, keep_surface=False)[0]

    def price_surface(self, t_step: int, claim: TerminalClaim,
                      dividends: Optional[DividendStream] = None) -> AdaptedProcess:
        """Prices at every step 0..t_step."""
        t_step = _check_steps(0, t_step, self.lattice, dividends)[1]
        return self._surface(t_step, claim, dividends)

    def price_surfaces(self, t_step: int, rows,
                       dividends: Optional[DividendStream] = None) -> list:
        """Prices at every step 0..t_step of a ``(k, t_step + 1)`` batch of
        terminal node values: entry ``i`` is the ``(k, i + 1)`` slice of step
        ``i``, and its row ``r`` equals ``price_surface`` of
        ``claim_from_values(lattice, t_step, rows[r])`` at step ``i``."""
        return self._checked_batch(0, t_step, rows, dividends, keep_surface=True)

    def _checked_batch(self, s_step, t_step, rows, dividends, keep_surface):
        s_step, t_step = _check_steps(s_step, t_step, self.lattice, dividends)
        rows = _terminal_rows(rows, t_step)
        return [_check_finite(v, i, "mechanism price") for i, v in
                enumerate(self._batch(s_step, t_step, rows, dividends, keep_surface), s_step)]

    def _answer(self, s_step, t_step, claim, dividends):
        # the one call of the black box; its answer is copied as it arrives, so
        # a buffer it reuses cannot change a price already checked
        vals = np.array(self._price_at(s_step, t_step, claim, dividends), dtype=float)
        if vals.shape != (s_step + 1,):
            raise StepOutOfRange(f"mechanism returned shape {vals.shape} at step {s_step}, "
                                 f"expected {(s_step + 1,)}")
        return vals

    def _batch(self, s_step, t_step, rows, dividends, keep_surface):
        # one answer per row and kept step, row by row; the public methods check
        # each step's batch for NaN and inf, so a witness names the row
        steps = range(s_step, t_step + 1) if keep_surface else (s_step,)
        out = [np.empty((len(rows), s + 1)) for s in steps]
        for r, row in enumerate(rows):
            claim = claim_from_values(self.lattice, t_step, row)
            for prices, s in zip(out, steps):
                prices[r] = self._answer(s, t_step, claim, dividends)
        return out

    def _surface(self, t_step, claim, dividends):
        # one answer per step
        return AdaptedProcess(self.lattice, 0, [
            _check_finite(self._answer(s, t_step, claim, dividends), s, "mechanism price")
            for s in range(t_step + 1)])


def _terminal_rows(rows, t_step: int) -> np.ndarray:
    """``rows`` as a float ``(k, t_step + 1)`` batch; raises unless it has
    that shape and no NaN or inf, naming its row and node."""
    need = f"rows must have {t_step + 1} entries"
    rows = _float_array(rows, need)
    if rows.ndim != 2 or rows.shape[1] != t_step + 1:
        raise StepOutOfRange(f"{need}, got shape {rows.shape}")
    return _check_finite(rows, t_step, "terminal value")


def _float_array(values, need: str) -> np.ndarray:
    """``values`` as a float array; a ragged sequence, whose entries differ in
    shape at any depth, also inside an object array, raises
    :class:`StepOutOfRange` with the message ``need``."""
    try:
        return np.asarray(values, float)
    except ValueError:
        try:  # ragged: numpy cannot shape it, or an entry (of an object array) is a sequence
            if any(np.ndim(v) for v in np.array(values, dtype=object).flat):
                raise ValueError("ragged")
        except ValueError:
            raise StepOutOfRange(f"{need}, got a ragged sequence") from None
        raise


def _own_lattice(mech: MechanismHandle, lattice: Optional[Lattice]) -> Lattice:
    """The handle's lattice, which ``lattice`` must equal unless ``None``."""
    if lattice is not None:
        _same_lattice(lattice, mech.lattice, "mechanism's")
    return mech.lattice


class _DriverMechanism(MechanismHandle):
    """A driver's backward solver as a handle: rows, and the surfaces of many
    rows, run the kernel in one pass; ``price_at`` is one such pass over one
    claim's slice and one claim's surface is one :func:`solve_bsde`."""

    def __init__(self, g: Generator, lattice: Lattice):
        super().__init__(lattice, self._answer, mu=g.mu)
        self._g = g

    def _answer(self, s_step, t_step, claim, dividends):
        # one pass over the claim's slice, whose result is the kernel's own array
        return self._batch(s_step, t_step, claim.values(self.lattice, t_step), dividends,
                           keep_surface=False)[0]

    def _batch(self, s_step, t_step, rows, dividends, keep_surface):
        return _backward(self._g, rows, self.lattice, t_step, s_step, dividends,
                         keep_surface)[0]

    def _surface(self, t_step, claim, dividends):
        return solve_bsde(self._g, claim, dividends, self.lattice, t_step=t_step).y


def as_mechanism(g: Generator, lattice: Lattice) -> MechanismHandle:
    """Wrap a driver's backward solver as a pricing mechanism on the lattice."""
    return _DriverMechanism(g, lattice)


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
    if np.min(xa - xb) < -PRICE_TOL:
        return ComparisonVerdict(applicable=False, passed=None,
                                 reason="terminal payoffs are not ordered")
    gap = _payout_gap(dividends_a, dividends_b, lattice)
    if gap is not None and not gap.is_increasing():
        return ComparisonVerdict(applicable=False, passed=None,
                                 reason="payout difference is not increasing")

    ya = solve_bsde(g, claim_a, dividends_a, lattice).y
    yb = solve_bsde(g, claim_b, dividends_b, lattice).y
    worst_margin, worst_node = _worst_node(a - b for a, b in zip(ya.slices, yb.slices))
    return ComparisonVerdict(applicable=True, passed=bool(worst_margin >= -PRICE_TOL),
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
    lattice: Optional[Lattice],
    dividends_a: Optional[DividendStream] = None,
    dividends_b: Optional[DividendStream] = None,
) -> DominationVerdict:
    """Check that the mechanism's price spread is capped by the mu-driver price.

    At every node of every step the spread ``mech(A) - mech(B)`` must not
    exceed the extremal-driver price of the two claims' terminal node values'
    difference (with the difference payout stream) by more than ``PRICE_TOL``;
    the worst margin ``cap - spread`` is reported.  ``lattice`` is the
    handle's own or ``None``.
    """
    lattice = _own_lattice(mech, lattice)
    require_monotone(mu, lattice)
    n = lattice.n_steps
    sa = mech.price_surface(n, claim_a, dividends_a)
    sb = mech.price_surface(n, claim_b, dividends_b)

    with np.errstate(over="ignore", invalid="ignore"):
        diff = claim_a.values(lattice, n) - claim_b.values(lattice, n)
    cap = solve_bsde(domination_generator(mu), claim_from_values(
        lattice, n, _check_finite(diff, n, "claim 'difference'")),
        _payout_gap(dividends_a, dividends_b, lattice), lattice).y

    worst_margin, worst_node = _worst_node(c - (a - b) for c, a, b in zip(
        cap.slices, sa.slices, sb.slices, strict=True))
    return DominationVerdict(passed=bool(worst_margin >= -PRICE_TOL),
                             worst_margin=worst_margin, worst_node=worst_node)
