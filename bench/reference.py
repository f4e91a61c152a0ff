"""Fixed reference computations that measure how fast the machine is right now.

On a shared virtual machine the processor's speed drifts by a fifth or more
over tens of seconds, and process time drifts with it, so a pass time alone
does not repeat from one run to the next.  Timing a reference computation
beside the workload, and dividing, cancels most of that drift.  Drift does not
slow every kind of work alike, so each workload is divided by the reference
whose work resembles its own:

- ``INTERPRETER``: many numpy calls on a few lattice nodes, a sweep over a
  20,001-node slice and a Python dict loop; like Picard steps, mechanism
  calls and report building.
- ``MEMORY``: a backward sweep over a 128 x 1025 block of rows, a few
  megabytes of temporaries per step; like the audit's batch kernel.

They share no code with gmech and must never change: a change would rescale
every figure measured before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_NARROW = np.linspace(-1.0, 1.0, 9)
_WIDE = np.linspace(-1.0, 1.0, 20001)
_ROWS = np.tile(np.linspace(-1.0, 1.0, 1025), (128, 1))


def _backward(values: np.ndarray, steps: int) -> float:
    y = values
    for _ in range(steps):
        m = 0.5 * (y[1:] + y[:-1])
        z = np.abs(y[1:] - y[:-1])
        y = np.concatenate((m + 0.1 * z, m[-1:]))
    return float(np.max(np.abs(y)))


def _bookkeeping(rounds: int) -> float:
    table = {}
    for i in range(rounds):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    return table[0]


def _interpreter() -> None:
    _backward(_NARROW, 2000)
    _backward(_WIDE, 270)
    _bookkeeping(100_000)


def _memory() -> None:
    y = _ROWS
    for _ in range(24):
        m = 0.5 * (y[:, 1:] + y[:, :-1])
        z = np.abs(y[:, 1:] - y[:, :-1])
        y = np.where(m >= 0.0, m + 0.1 * z, m - 0.1 * z)


@dataclass(frozen=True)
class Reference:
    name: str
    work: Callable[[], None]
    # median seconds of one round on the machine the benchmark was written on
    # (2-vCPU Intel Xeon virtual machine at 2.1 GHz, Python 3.11.7, numpy
    # 2.4.6); a time divided by a round and multiplied by this is that time in
    # seconds at that machine's typical speed
    nominal_s: float

    def time_s(self) -> float:
        """Seconds taken by one round (about 50 ms)."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


INTERPRETER = Reference("interpreter", _interpreter, 0.046)
MEMORY = Reference("memory", _memory, 0.050)
