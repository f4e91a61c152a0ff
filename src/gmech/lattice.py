"""Uniform time grid and recombining binomial random-walk lattice.

The lattice carries a one-dimensional driving noise: over each step of size
``dt`` the walk moves by +/- sqrt(dt) with equal weight, so one-step
increments have mean zero and variance ``dt`` exactly.  Node ``(i, j)``
(step ``i``, ``j`` up-moves) holds the walk value ``(2j - i) * sqrt(dt)``.
All objects here are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonPositiveHorizon, StepOutOfRange, ZeroSteps
from .generators import _integer


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of ``[t0, T]`` into ``n_steps`` equal steps."""

    t0: float
    T: float
    n_steps: int

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def time(self, i: int) -> float:
        """Grid time ``t_i``; the last grid time is ``T`` exactly."""
        if not 0 <= _integer("step", i) <= self.n_steps:
            raise StepOutOfRange(f"step {i} outside [0, {self.n_steps}]")
        if i == self.n_steps:
            return float(self.T)
        return float(self.t0 + i * self.dt)


def build_grid(t0: float, T: float, n_steps: int) -> TimeGrid:
    """Validate and build a uniform time grid."""
    if _integer("n_steps", n_steps) < 1:
        raise ZeroSteps(f"n_steps must be >= 1, got {n_steps}")
    if not np.isfinite([t0, T]).all():
        raise InvalidParams(f"t0 and T must be finite, got t0={t0}, T={T}")
    if not T > t0:
        raise NonPositiveHorizon(f"need T > t0, got t0={t0}, T={T}")
    return TimeGrid(float(t0), float(T), int(n_steps))


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial tree of the driving walk over a :class:`TimeGrid`.

    Step ``i`` has ``i + 1`` nodes; node ``j`` has walk value
    ``(2j - i) * sqrt(dt)``.  From node ``(i, j)`` an up move leads to
    ``(i + 1, j + 1)`` and a down move to ``(i + 1, j)``.
    """

    grid: TimeGrid

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.grid.dt))

    def node_values(self, i: int) -> np.ndarray:
        """Walk values at every node of step ``i``, ordered bottom to top."""
        i = _integer("step", i)  # a plain int: -i of an unsigned numpy integer wraps
        if not 0 <= i <= self.n_steps:
            raise StepOutOfRange(f"step {i} outside [0, {self.n_steps}]")
        return np.arange(-i, i + 1, 2, dtype=float) * self.sqrt_dt

    def node_index(self, i: int, values) -> np.ndarray:
        """Invert node values back to node indices at step ``i`` (clipped)."""
        j = np.rint((np.asarray(values, dtype=float) / self.sqrt_dt + i) / 2.0)
        return np.clip(j.astype(int), 0, i)


def build_lattice(grid: TimeGrid) -> Lattice:
    return Lattice(grid)


class AdaptedProcess:
    """Node-indexed values over a contiguous range of lattice steps.

    ``slices[k]`` holds the values at step ``start + k`` and must have
    ``start + k + 1`` entries, one per node.  Node-measurability is the
    lattice stand-in for adaptedness.
    """

    __slots__ = ("lattice", "start", "slices")

    def __init__(self, lattice: Lattice, start: int, slices):
        slices = [np.asarray(s, dtype=float) for s in slices]
        for k, s in enumerate(slices):
            if s.shape != (start + k + 1,):
                raise StepOutOfRange(
                    f"slice at step {start + k} has shape {s.shape}, "
                    f"expected ({start + k + 1},)"
                )
        if start < 0 or start + len(slices) - 1 > lattice.n_steps:
            raise StepOutOfRange("process range falls outside the lattice")
        self.lattice = lattice
        self.start = start
        self.slices = slices

    @property
    def stop(self) -> int:
        """Last step (inclusive) at which the process is defined."""
        return self.start + len(self.slices) - 1

    def at(self, i: int) -> np.ndarray:
        if not self.start <= i <= self.stop:
            raise StepOutOfRange(
                f"process defined on steps [{self.start}, {self.stop}], asked {i}"
            )
        return self.slices[i - self.start]


def one_step_mz(nxt: np.ndarray, sqrt_dt: float):
    """Child average ``m`` and ``z = (up - down) / (2 sqrt(dt))`` of next-step
    values on the last axis of ``nxt`` (one slice or a ``(rows, nodes)`` batch).
    ``z`` is the conditional covariance with the one-step noise over ``dt``.
    """
    up, down = nxt[..., 1:], nxt[..., :-1]
    return 0.5 * (up + down), (up - down) / (2.0 * sqrt_dt)


def _worst_node(slices, first: int = 0):
    """Smallest entry over the slices of steps ``first, first + 1, ...`` and
    its ``(step, node)``; ties keep the earliest."""
    worst, node = np.inf, None
    for i, v in enumerate(slices, first):
        j = int(np.argmin(v))
        if v[j] < worst:
            worst, node = float(v[j]), (i, j)
    return worst, node


def _max_gap(a, b) -> float:
    """Largest ``|a[k] - b[k]|`` over two equally long lists of slices."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b, strict=True))
