"""Memory held by the decomposition and by a constant-rate payout stream.

A 2,000-step surface of one claim is about 16 MB, so these checks read
allocations in units of ``SURFACE`` bytes: the 2,001,000 increments of a
2,000-step decomposition, 8 bytes each.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from gmech import (
    DividendStream,
    build_grid,
    build_lattice,
    domination_generator,
    doob_meyer,
    random_claim,
    solve_bsde,
)

STEPS = 2000
SURFACE = 8 * STEPS * (STEPS + 1) // 2


def _peak_above_start(call):
    """``call()``'s result and the peak bytes traced while it ran, above what
    was held when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


@pytest.fixture(scope="module")
def lat2000():
    return build_lattice(build_grid(0.0, 1.0, STEPS))


@pytest.mark.parametrize("rate", [None, 0.1], ids=["no_payouts", "from_rate"])
def test_decomposition_holds_its_increments_and_one_rebuilt_step(lat2000, rate):
    # y and the stream are inputs; the increments are one surface, and the
    # rebuild adds one step at a time (three surfaces when it was kept whole)
    g = domination_generator(0.3)
    stream = None if rate is None else DividendStream.from_rate(lat2000, rate)
    y = solve_bsde(g, random_claim(np.random.default_rng(34)), stream, lat2000).y
    result, peak = _peak_above_start(lambda: doob_meyer(g, y, stream, lat2000))
    assert result.reconstruction_error <= 1e-9
    assert peak <= 1.25 * SURFACE, f"{peak / SURFACE:.2f} surfaces"


def test_from_rate_allocates_one_row(lat2000):
    # one row of STEPS values; each of the STEPS slices is a view of it, whose
    # array header (about 110 bytes) is the rest
    tracemalloc.start()
    try:
        stream = DividendStream.from_rate(lat2000, 0.1)
        snapshot = tracemalloc.take_snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = sum(stat.size for stat in data.statistics("filename"))
    assert held < 64 * 1024, f"{held} bytes of array data"
    assert peak < 512 * 1024, f"{peak} bytes at peak"
    assert len(stream.increments.slices) == STEPS
