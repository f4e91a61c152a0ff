"""The backward kernel's scratch buffers: bits, inputs and the closed forms.

For a closed-form driver ``engine._backward`` works in column-major scratch
arrays and lets the built-in closed forms overwrite them.  These tests hold
it to a row-major, allocating kernel written out here, bit for bit, on the
closed-form path (each built-in step spelled out from the children, and the
recovered driver's closed form, which returns a new array) and on the
Picard path with its Aitken step, and check that no input is ever written.
The binomial sum ``engine._linear_root``, which shares no code with the
kernel, is an exact oracle for both paths under linear drivers and under
the extremal driver on one-signed monotone rows.  Every built-in closed
form, which never forms ``m`` or ``z``, is held to its own Picard path,
which steps from ``one_step_mz``, on any rows.  On monotone rows of its
direction the tilted extremal driver's is also held to the extremal
driver's closed form.  A closed-form batch swept in row blocks, whose sizes
differ by at most one row, is held bit for bit to its one-block sweep, and its
errors to the same witnesses.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gmech import (
    BSMarketParams,
    NonFiniteValue,
    abs_z_generator,
    as_mechanism,
    black_scholes_generator,
    build_grid,
    build_lattice,
    domination_generator,
    linear_generator,
    recover_generator,
    solve_terminal_batch,
    zero_generator,
)
from gmech import engine
from gmech.analysis import grid_points
from gmech.engine import PICARD_CAP, PICARD_TOL, PICARD_ULPS, _backward, _linear_root
from gmech.generators import _LIPSCHITZ_SLACK

from util import random_lipschitz_generator, signed_stream

BS = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
THETA = (BS.b - BS.r) / BS.sigma


def _mz(nxt, dt):
    """Child average and coefficient of the next slice, allocated."""
    up, down = nxt[..., 1:], nxt[..., :-1]
    return 0.5 * (up + down), (up - down) / (2.0 * np.sqrt(dt))


def _where_gmu(mu):
    """The extremal driver's step as the sign of ``q = m + mu |z| dt + dk``
    picks its denominator."""
    def step(t, m, z, dk, dt):
        q = m + mu * np.abs(z) * dt + dk
        return np.where(q >= 0, q / (1.0 - mu * dt), q / (1.0 + mu * dt))
    return step


def _fused_gmu(mu):
    """The extremal driver's step from the children, spelled out: ``2q``
    scales the branch of its sign."""
    def step(t, nxt, dk, dt):
        up, down = nxt[..., 1:], nxt[..., :-1]
        q = (up + down) + mu * np.sqrt(dt) * np.abs(up - down) + 2.0 * dk
        return np.where(q >= 0, q * (0.5 / (1.0 - mu * dt)), q * (0.5 / (1.0 + mu * dt)))
    return step


def _fused_tilted(mu, z_sign):
    """The tilted extremal driver's step from the children, spelled out: the
    children weighed by ``a (1 +/- z_sign mu sqrt(dt))``, the negative branch
    scaled down."""
    def step(t, nxt, dk, dt):
        a, c = 0.5 / (1.0 - mu * dt), mu * np.sqrt(dt)
        q = nxt[..., 1:] * (a * (1.0 + z_sign * c)) + nxt[..., :-1] * (a * (1.0 - z_sign * c))
        q = q + 2.0 * a * dk
        return np.maximum(q, q * ((1.0 - mu * dt) / (1.0 + mu * dt)))
    return step


def _fused_abs_z(coef):
    """The ``coef |z|`` driver's step from the children, spelled out: ``2y``
    halved."""
    def step(t, nxt, dk, dt):
        up, down = nxt[..., 1:], nxt[..., :-1]
        q = (up + down) + coef * np.sqrt(dt) * np.abs(up - down) + 2.0 * dk
        return q * 0.5
    return step


def _fused_linear(a, b):
    """The linear driver's step from the children, spelled out: the children
    weighed by ``w (1 +/- b sqrt(dt))``, ``w = 0.5 / (1 - a dt)``."""
    def step(t, nxt, dk, dt):
        w, c = 0.5 / (1.0 - a * dt), b * np.sqrt(dt)
        return nxt[..., 1:] * (w * (1.0 + c)) + nxt[..., :-1] * (w * (1.0 - c)) + 2.0 * w * dk
    return step


GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
RECOVERED = recover_generator(
    as_mechanism(random_lipschitz_generator(np.random.default_rng(53)),
                 build_lattice(build_grid(0.0, 1.0, 24))),
    3, grid_points(GRID, GRID)).to_generator()

# each built-in closed form next to its allocating expression, and
# the recovered driver's own closed form, allocating; ``None`` is the Picard path
DRIVERS = [
    (zero_generator(), _fused_linear(0.0, 0.0)),
    (domination_generator(0.4), _fused_gmu(0.4)),
    (domination_generator(0.4, z_sign=1), _fused_tilted(0.4, 1.0)),
    (domination_generator(0.4, z_sign=-1), _fused_tilted(0.4, -1.0)),
    (abs_z_generator(0.3), _fused_abs_z(0.3)),
    (linear_generator(-0.25, 0.35), _fused_linear(-0.25, 0.35)),
    (black_scholes_generator(BS), _fused_linear(-BS.r, -THETA)),
    (RECOVERED, lambda t, nxt, dk, dt: RECOVERED.exact_step(t, nxt, dk, dt, None)),
    (random_lipschitz_generator(np.random.default_rng(41)), None),
]


def _row_major_backward(g, step_fn, cur, lattice, n, s, dividends, keep_surface):
    """The kernel without scratch buffers: every step allocates its ``y``
    (and a Picard step its ``m`` and ``z``) from the row-major slice above."""
    dt = lattice.dt
    y_slices, worst_iters, worst_resid = [cur], 0, 0.0
    for i in range(n - 1, s - 1, -1):
        t = lattice.grid.time(i)
        dk = 0.0 if dividends is None else dividends.increment(i)
        if step_fn is not None:
            cur, iters, resid = np.asarray(step_fn(t, cur, dk, dt), dtype=float), 1, 0.0
        else:
            m, z = _mz(cur, dt)
            y, done, steps = m, None, []
            for iters in range(1, PICARD_CAP + 1):
                y_next = m + g(t, y, z) * dt + dk
                if done is not None:
                    y_next[done] = y[done]
                steps.append(y_next - y)
                gap = np.abs(steps[-1])
                resid = float(np.max(gap)) if gap.size else 0.0
                y = y_next
                if resid <= PICARD_TOL:
                    break
                stop = np.max(gap, axis=-1) <= PICARD_TOL
                if iters >= 3:
                    # or within PICARD_ULPS float spacings of the row's largest |y|
                    floor = PICARD_ULPS * np.spacing(np.max(np.abs(y), axis=-1))
                    stop = stop | (np.max(gap, axis=-1) <= floor)
                    if np.all(stop):
                        break
                if y.ndim > 1:
                    done = stop
                if iters == 2:
                    # one Aitken step y2 + d2 r / (1 - r), r = d2 / d1, where
                    # |r| is below mu dt with the kernel's slack, in rows
                    # that have not stopped
                    d1, d2 = steps
                    ok = np.abs(d2) < (g.mu * dt * (1.0 + _LIPSCHITZ_SLACK)) * np.abs(d1)
                    if done is not None:
                        ok &= ~done[:, None]
                    with np.errstate(divide="ignore", invalid="ignore"):  # d1 = d2
                        y = np.where(ok, y + d2 * (d2 / (d1 - d2)), y)
            cur = y
        worst_iters, worst_resid = max(worst_iters, iters), max(worst_resid, resid)
        if not keep_surface:
            y_slices.clear()
        y_slices.append(cur)
    return y_slices[::-1], worst_iters, worst_resid


@pytest.mark.parametrize("g, step_fn", DRIVERS, ids=lambda v: getattr(v, "name", ""))
def test_kernel_matches_row_major_allocating_kernel(g, step_fn):
    n = 24
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rng = np.random.default_rng(43)
    stream = signed_stream(rng, lat, scale=0.3)
    inputs = {"1-d": rng.uniform(-2.0, 2.0, n + 1),
              "one row": rng.uniform(-2.0, 2.0, (1, n + 1)),
              "batch": rng.uniform(-2.0, 2.0, (5, n + 1)),
              # rows where the float spacing of y passes PICARD_TOL
              "large batch": rng.uniform(-2.0, 2.0, (3, n + 1)) * [[1.0], [1e5], [1e8]]}
    for shape, cur in inputs.items():
        for dividends in (None, stream):
            for s in (0, n // 2, n - 2, n - 1, n):
                for keep in (False, True):
                    case = (shape, dividends is not None, s, keep)
                    got, iters, resid = _backward(g, cur, lat, n, s, dividends, keep)
                    want, w_iters, w_resid = _row_major_backward(
                        g, step_fn, cur, lat, n, s, dividends, keep)
                    assert (iters, resid) == (w_iters, w_resid), case
                    assert len(got) == len(want), case
                    for a, b in zip(got, want):
                        assert a.shape == b.shape, case
                        assert a.flags.c_contiguous, case
                        assert a.tobytes() == b.tobytes(), case


def _frozen(a):
    a = np.array(a, order="K")
    a.flags.writeable = False
    return a


def test_inputs_are_never_written(lat16):
    rng = np.random.default_rng(47)
    batch = rng.uniform(-1.0, 1.0, (4, 17))
    cases = {"batch": _frozen(batch),
             "one row": _frozen(batch[:1]),
             "fortran batch": _frozen(np.asfortranarray(batch))}
    for g, _ in DRIVERS:
        mech = as_mechanism(g, lat16)
        for name, rows in cases.items():
            before = rows.tobytes(order="A")
            want = solve_terminal_batch(g, np.array(rows, order="C"), lat16)
            # read-only inputs: any write raises, and the bits stay
            assert solve_terminal_batch(g, rows, lat16).tobytes() == want.tobytes(), name
            got = mech.price_rows(0, 16, rows)
            assert got[:, 0].tobytes() == want.tobytes(), name
            _backward(g, rows, lat16, 16, 5, None, keep_surface=True)
            assert rows.tobytes(order="A") == before, (g.name, name)


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                    2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -3.5])


@pytest.mark.parametrize("mu", [0.0, 0.4, 3.0])
def test_fused_step_equals_the_where_form(mu):
    dt = 1.0 / 8.0
    # every pairing of special down and up children, one node per row
    nxt = np.stack(np.meshgrid(SPECIAL, SPECIAL), axis=-1).reshape(-1, 2)
    g = domination_generator(mu)
    for dk in (0.0, -0.0, 1e-310, np.resize(SPECIAL, (len(nxt), 1))):
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf give NaN
            want = _fused_gmu(mu)(0.0, nxt, dk, dt)
            old = _where_gmu(mu)(0.0, *_mz(nxt, dt), dk, dt)
            got = g.exact_step(0.0, nxt, dk, dt, None)
            out = (np.full_like(want, 7.0), np.full_like(want, 7.0))
            in_scratch = g.exact_step(0.0, nxt, dk, dt, out)
        assert in_scratch is out[0]
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(old), nan)
        for y in (got, in_scratch):
            assert np.array_equal(np.isnan(y), nan)
            assert y[~nan].tobytes() == want[~nan].tobytes()


ORACLE_STEPS = 2000


def _kernel_paths(g):
    """The driver and its fn-only copy, which takes the Picard path."""
    return {"closed form": g, "Picard": replace(g, exact_step=None)}


def _signed_monotone_rows(rng, k, n, sign_y, sign_z):
    """``k`` random rows of ``n + 1`` nodes, one-signed with sign ``sign_y``
    and monotone across nodes with sign ``sign_z``, with flat stretches."""
    steps = rng.uniform(0.0, 1.0, (k, n + 1)) * (rng.uniform(size=(k, n + 1)) < 0.3)
    base = np.cumsum(steps, axis=1)
    base *= rng.uniform(0.5, 2.0, (k, 1)) / base[:, -1:]
    return sign_y * base[:, ::sign_y * sign_z]


@pytest.mark.parametrize("a, b", [(-0.25, 0.35), (0.4, -0.3), (0.0, 0.0)])
def test_linear_root_is_the_kernel_price_under_a_linear_driver(a, b):
    lat = build_lattice(build_grid(0.0, 1.0, ORACLE_STEPS))
    rows = np.random.default_rng(61).uniform(-2.0, 2.0, (4, ORACLE_STEPS + 1))
    want = _linear_root(rows, a, b, lat)
    for path, g in _kernel_paths(linear_generator(a, b)).items():
        gap = np.abs(solve_terminal_batch(g, rows, lat) - want).max()
        assert gap <= 1e-12 * (1.0 + np.abs(rows).max()), (path, gap)


@pytest.mark.parametrize("sign_y", [1, -1])
@pytest.mark.parametrize("sign_z", [1, -1])
def test_linear_root_is_the_extremal_price_of_signed_monotone_rows(sign_y, sign_z):
    # the monotone scheme keeps every slice one-signed and monotone, so
    # mu (|y| + |z|) is the linear driver sign_y mu y + sign_z mu z throughout
    mu = 0.5
    lat = build_lattice(build_grid(0.0, 1.0, ORACLE_STEPS))
    rng = np.random.default_rng([67, sign_y + 1, sign_z + 1])
    rows = _signed_monotone_rows(rng, 4, ORACLE_STEPS, sign_y, sign_z)
    want = _linear_root(rows, sign_y * mu, sign_z * mu, lat)
    for path, g in _kernel_paths(domination_generator(mu)).items():
        gap = np.abs(solve_terminal_batch(g, rows, lat) - want).max()
        assert gap <= 1e-12 * (1.0 + np.abs(rows).max()), (path, gap)


# every built-in closed form; the Picard path steps from one_step_mz's m and z
BUILT_IN = [zero_generator(), abs_z_generator(0.3), linear_generator(-0.25, 0.35),
            black_scholes_generator(BS), domination_generator(0.5),
            domination_generator(0.5, z_sign=1), domination_generator(0.5, z_sign=-1)]


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("driver", BUILT_IN, ids=lambda g: g.name)
def test_closed_form_is_its_picard_path(driver, n):
    # signed rows that are not monotone, so the step takes both branches and
    # z both signs; the closed form and the iteration share no step code
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rng = np.random.default_rng([71, n])
    rows = np.concatenate([rng.uniform(-2.0, 2.0, (3, n + 1)),
                           np.cumsum(rng.normal(0.0, 3.0 / np.sqrt(n), (3, n + 1)), axis=1)])
    bound = 1e-12 * (1.0 + np.abs(rows).max(axis=1))
    for dividends in (None, signed_stream(rng, lat, scale=0.5)):
        exact, picard = (as_mechanism(g, lat).price_surfaces(n, rows, dividends)
                         for g in _kernel_paths(driver).values())
        for i, (a, b) in enumerate(zip(exact, picard)):
            gap = np.abs(a - b).max(axis=1)
            assert (gap <= bound).all(), (dividends is not None, i, gap.max())


@pytest.mark.parametrize("z_sign", [1, -1])
def test_tilted_closed_form_is_its_picard_path(z_sign):
    # arbitrary rows: the step takes both branches, and z has both signs
    n = ORACLE_STEPS
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rng = np.random.default_rng([73, z_sign + 1])
    rows = np.concatenate([rng.uniform(-2.0, 2.0, (2, n + 1)),
                           np.cumsum(rng.normal(0.0, 3.0 / np.sqrt(n), (2, n + 1)), axis=1)])
    bound = 1e-12 * (1.0 + np.abs(rows).max(axis=1))
    for dividends in (None, signed_stream(rng, lat, scale=0.5)):
        exact, picard = (as_mechanism(g, lat).price_rows(0, n, rows, dividends)[:, 0]
                         for g in _kernel_paths(domination_generator(0.5, z_sign=z_sign)).values())
        gap = np.abs(exact - picard)
        assert (gap <= bound).all(), (dividends is not None, gap.max())


@pytest.mark.parametrize("z_sign", [1, -1])
def test_tilted_closed_form_is_the_extremal_price_of_monotone_rows(z_sign):
    # mixed-sign rows, monotone with sign z_sign and with flat stretches: the
    # tilted step keeps every slice so, and then its z has the sign z_sign
    n, mu, rel = 1024, 0.5, 1e-13
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rng = np.random.default_rng([79, z_sign + 1])
    rows = _signed_monotone_rows(rng, 64, n, 1, z_sign)
    rows -= rng.uniform(0.0, 1.0, (64, 1)) * rows.max(axis=1, keepdims=True)
    assert ((rows < 0).any(axis=1) & (rows > 0).any(axis=1)).all()
    want = solve_terminal_batch(domination_generator(mu), rows, lat)
    got = solve_terminal_batch(domination_generator(mu, z_sign=z_sign), rows, lat)
    # relative to the row's largest payoff, the scale of its price
    gap = np.abs(got - want) / np.abs(rows).max(axis=1)
    assert gap.max() <= rel, gap.max()


def _counted(g):
    """The driver and a list that gains one entry per ``exact_step`` call: the
    batch shape of the next slice it steps from."""
    calls = []

    def exact_step(t, nxt, *args):
        calls.append(nxt.shape[:-1])
        return g.exact_step(t, nxt, *args)
    return replace(g, exact_step=exact_step), calls


# one block at this budget for every batch below
ONE_BLOCK = 1 << 40


@pytest.mark.parametrize("g", [g for g, step_fn in DRIVERS if step_fn is not None],
                         ids=lambda g: g.name)
def test_blocked_sweep_is_the_one_block_sweep_bitwise(g, monkeypatch):
    # 7 rows in blocks of 1 (also when the budget is below one row, or one
    # byte short of two), 2 and 3 (a ragged last block) and 7 (one block, the
    # unblocked sweep)
    n = 16
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rng = np.random.default_rng(83)
    rows = np.concatenate([rng.uniform(-2.0, 2.0, (4, n + 1)),
                           np.cumsum(rng.normal(0.0, 0.75, (3, n + 1)), axis=1)])
    counted, calls = _counted(g)
    mech = as_mechanism(counted, lat)
    for dividends in (None, signed_stream(rng, lat, scale=0.5)):
        for t_step in (n, n - 3):
            for s in (0, t_step // 2, t_step - 1, t_step):
                case = (dividends is not None, t_step, s)
                monkeypatch.setattr(engine, "_BLOCK_BYTES", ONE_BLOCK)
                want = mech.price_rows(s, t_step, rows[:, :t_step + 1], dividends)
                for block, budget in ((1, 1), (1, 8 * (t_step + 1)), (1, 16 * (t_step + 1) - 1),
                                      (2, 16 * (t_step + 1) + 7),
                                      (3, 24 * (t_step + 1)), (7, 56 * (t_step + 1))):
                    monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
                    calls.clear()
                    got = mech.price_rows(s, t_step, rows[:, :t_step + 1], dividends)
                    assert len(calls) == -(-7 // block) * (t_step - s), (case, block)
                    assert got.flags.c_contiguous, (case, block)
                    assert got.tobytes() == want.tobytes(), (case, block)
                    if s == 0 and dividends is None:
                        root = solve_terminal_batch(counted, rows[:, :t_step + 1], lat, t_step)
                        assert root.tobytes() == want[:, 0].tobytes(), (case, block)


def test_row_blocks_differ_by_at_most_one_row(monkeypatch):
    # 7 rows at a budget of 5 rows' worth: 2 blocks of 4 and 3 rows, not a
    # full block of 5 and a sliver of 2, bitwise the one-block sweep
    n = 16
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rows = np.random.default_rng(101).uniform(-2.0, 2.0, (7, n + 1))
    g, calls = _counted(domination_generator(0.5))
    mech = as_mechanism(g, lat)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", ONE_BLOCK)
    want = mech.price_rows(0, n, rows)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 5 * 8 * (n + 1))
    calls.clear()
    got = mech.price_rows(0, n, rows)
    assert calls == [(4,)] * n + [(3,)] * n
    assert got.tobytes() == want.tobytes()


def test_the_audit_batches_split_under_the_real_budget(monkeypatch):
    # the chain audit's call_put and put_call caps: (132, 1025) rows at 1,024
    # steps in 3 blocks and (380, 257) rows at 256 steps in 2, each bitwise
    # the one-block sweep
    rng = np.random.default_rng(89)
    for (k, n), blocks in {(132, 1024): 3, (380, 256): 2}.items():
        lat = build_lattice(build_grid(0.0, 1.0, n))
        rows = np.sort(rng.uniform(-2.0, 2.0, (k, n + 1)), axis=1)
        g, calls = _counted(domination_generator(0.5, z_sign=1))
        got = solve_terminal_batch(g, rows, lat)
        assert len(calls) == blocks * n, (k, n)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_BLOCK_BYTES", ONE_BLOCK)
            assert got.tobytes() == solve_terminal_batch(g, rows, lat).tobytes(), (k, n)


def test_blocked_overflow_names_the_batch_row(monkeypatch):
    # an overflowing row in the last of 3 blocks: the witness names its row in
    # the batch, as the unblocked sweep's does, and numpy stays silent
    n = 8
    lat = build_lattice(build_grid(0.0, 1.0, n))
    rows = np.random.default_rng(97).uniform(-1.0, 1.0, (7, n + 1))
    rows[6, 3:5] = 1.7e308
    g = domination_generator(0.5)
    messages = []
    for budget in (ONE_BLOCK, 24 * (n + 1)):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
        with warnings.catch_warnings(), pytest.raises(NonFiniteValue) as err:
            warnings.simplefilter("error")
            as_mechanism(g, lat).price_rows(0, n, rows)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "price is inf at step 7, row 6, node 2"
