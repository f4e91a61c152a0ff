"""Price generating functions ``g(t, y, z)`` and their structural checks.

A generator is a pure function of time, price level ``y`` and hedge
coefficient ``z``, together with a declared Lipschitz constant ``mu`` in the
``|dy| + |dz|`` norm.  Structural properties (convexity, homogeneity, ...)
are established by seeded sampling with a witness reported on failure: they
are falsification checks, not proofs.  A sampled driver value that is NaN or
inf raises :class:`~gmech.errors.NonFiniteValue` naming its ``t``, ``y`` and ``z``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParams, NegativeMu, NonFiniteValue

# Pairs closer than this in the sum norm are skipped in Lipschitz sampling.
_MIN_SEPARATION = 1e-12
# Relative slack for float noise: Lipschitz ratios, Aitken guard, classification.
_LIPSCHITZ_SLACK = 1e-9


@dataclass(frozen=True)
class GeneratorFlags:
    """Advisory structural metadata declared by a generator's constructor."""

    zero_at_zero: bool = False
    y_independent: bool = False


@dataclass(frozen=True)
class Generator:
    """A driver ``g(t, y, z)`` with declared Lipschitz constant ``mu``, which
    must be finite (else :class:`InvalidParams`) and nonnegative (else
    :class:`NegativeMu`).

    ``fn`` must be deterministic, side-effect free and vectorized over
    numpy arrays in ``y`` and ``z`` (``t`` is always a scalar).

    ``exact_step(t, nxt, dk, dt, out)``, when present, solves the implicit
    one-step equation ``y = m + fn(t, y, z) dt + dk``, where ``m, z =
    one_step_mz(nxt, sqrt(dt))``, in closed form from the ``(..., k + 1)``
    next slice ``nxt``; the backward solver uses it in place of the
    fixed-point iteration.  It must return the fixed point the iteration
    would converge to, up to rounding, and never write ``nxt``.  ``out`` is
    two scratch arrays of the result's shape that the solver owns and never
    reads again: a closed form may overwrite both and return ``out[0]``, or
    return a new array; a caller outside the solver passes ``None``.  A
    :class:`ContractionViolation` it raises names the node; the solver adds
    the step.  The built-in closed forms never form ``m`` or ``z``.
    """

    fn: Callable
    mu: float
    flags: GeneratorFlags = field(default_factory=GeneratorFlags)
    name: str = ""
    exact_step: Optional[Callable] = None

    def __post_init__(self):
        _declared("mu", self.mu)

    def __call__(self, t, y, z):
        return self.fn(t, y, z)


@dataclass(frozen=True)
class BSMarketParams:
    """Short rate, stock drift and volatility of the one-stock market model."""

    r: float
    b: float
    sigma: float

    def __post_init__(self):
        for name in ("r", "b", "sigma"):
            _finite(name, getattr(self, name))
        if self.sigma <= 0:
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")


# -- constructors ------------------------------------------------------------

def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParams(f"{name} must be finite, got {value}")
    return value


def _declared(name: str, value) -> float:
    """A declared constant: finite, else :class:`InvalidParams`; >= 0, else :class:`NegativeMu`."""
    value = _finite(name, value)
    if value < 0:
        raise NegativeMu(f"{name} must be >= 0, got {value}")
    return value


def _count(name: str, value) -> None:
    """Raise :class:`InvalidParams` unless the count ``value`` is an integer
    (``operator.index`` takes it, as it takes numpy's) of at least 1."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name} must be an integer >= 1") from None
    if value < 1:
        raise InvalidParams(f"{name} must be >= 1")


def _closed_form(a_abs: float, a: float, coef: float, *, abs_z: bool) -> Callable:
    """The ``exact_step`` of the driver ``a_abs |y| + a y + coef |z|`` (``abs_z``)
    or ``a_abs |y| + a y + coef z``, ``a_abs >= 0``, under ``(a +/- a_abs) dt < 1``.

    ``y = p + (a_abs |y| + a y) dt``, ``p = m + coef |z| dt + dk`` (or ``coef
    z``), is the larger of two increasing affine contractions of ``y``, so ``y``
    is the larger of their fixed points ``p / (1 - (a +/- a_abs) dt)`` (one if
    ``a_abs = 0``).  ``2p`` is ``(up + down) + coef sqrt(dt) |up - down| + 2
    dk`` or ``up (1 + coef sqrt(dt)) + down (1 - coef sqrt(dt)) + 2 dk``: no
    ``m`` or ``z``.  The scratch the solver hands it (see :class:`Generator`)
    is overwritten in the order of the plain expressions in the comments.
    """
    def exact_step(t, nxt, dk, dt, out):
        up, down = nxt[..., 1:], nxt[..., :-1]
        q, s = (None, None) if out is None else out
        hi, lo = 1.0 - (a + a_abs) * dt, 1.0 - (a - a_abs) * dt
        # a zero dk is skipped under the max only: added, it turns -0.0 into +0.0
        add_dk = np.ndim(dk) or dk or not a_abs
        if abs_z:
            # q = 2p, never -0.0; y = max(q * 0.5 / hi, q * 0.5 / lo): 8 array passes
            q, s = np.add(up, down, out=q), np.subtract(up, down, out=s)
            q += np.multiply(np.abs(s, out=s), coef * math.sqrt(dt), out=s)
            if add_dk:
                q += 2.0 * dk
            s = np.multiply(q, 0.5 / lo, out=s) if a_abs else None
            q = np.multiply(q, 0.5 / hi, out=q)
        else:
            # q = p / hi = up w (1 + c) + down w (1 - c) + 2 w dk, w = 0.5 / hi, c =
            # coef sqrt(dt); y = max(q, q hi / lo): 5 array passes
            w, c = 0.5 / hi, coef * math.sqrt(dt)
            q = np.multiply(up, w * (1.0 + c), out=q)
            q += np.multiply(down, w * (1.0 - c), out=s)
            if add_dk:
                q += 2.0 * w * dk
            s = np.multiply(q, hi / lo, out=s) if a_abs else None
        return q if s is None else np.maximum(q, s, out=q)

    return exact_step


def zero_generator() -> Generator:
    """The linear-expectation driver ``g == 0``."""
    return Generator(
        fn=lambda t, y, z: np.zeros(np.broadcast(y, z).shape),
        mu=0.0,
        flags=GeneratorFlags(zero_at_zero=True, y_independent=True),
        name="zero",
        exact_step=_closed_form(0.0, 0.0, 0.0, abs_z=False),
    )


def domination_generator(mu: float, *, z_sign: float = 0.0) -> Generator:
    """The extremal dominating driver ``mu * |y| + mu * |z|``.

    Every mu-Lipschitz driver vanishing at the origin is bounded by it, which
    is what makes it the yardstick in domination tests.

    ``z_sign = +1`` or ``-1`` gives the tilted driver ``mu |y| + z_sign mu
    z``.  Its step weighs the children by ``1 +/- z_sign mu sqrt(dt)``, both
    nonnegative under :func:`~gmech.engine.require_monotone`, so on terminal
    rows nondecreasing (``+1``) or nonincreasing (``-1``) across nodes every
    step's ``z`` has the sign ``z_sign``: the tilted driver prices as the
    extremal one, up to rounding, in 5 array passes per step against 8.
    """
    mu = float(mu)
    if z_sign not in (0.0, 1.0, -1.0):
        raise InvalidParams(f"z_sign must be 0, 1 or -1, got {z_sign}")
    z_sign = float(z_sign)
    return Generator(
        fn=(lambda t, y, z: mu * np.abs(y) + z_sign * mu * z) if z_sign
        else (lambda t, y, z: mu * (np.abs(y) + np.abs(z))),
        mu=mu,
        flags=GeneratorFlags(zero_at_zero=True),
        name=f"gmu:{mu:g},z_sign={z_sign:+g}" if z_sign else f"gmu:{mu:g}",
        exact_step=_closed_form(mu, 0.0, z_sign * mu if z_sign else mu, abs_z=not z_sign),
    )


def abs_z_generator(coef: float) -> Generator:
    """Driver ``coef * |z|``: depends on the hedge coefficient only."""
    coef = _declared("coef", coef)
    return Generator(
        fn=lambda t, y, z: coef * np.abs(z) + 0.0 * y,
        mu=coef,
        flags=GeneratorFlags(zero_at_zero=True, y_independent=True),
        name=f"abs_z:{coef:g}",
        exact_step=_closed_form(0.0, 0.0, coef, abs_z=True),
    )


def linear_generator(a: float, b: float) -> Generator:
    """Affine driver ``a * y + b * z`` (no constant term)."""
    a, b = _finite("a", a), _finite("b", b)
    return Generator(
        fn=lambda t, y, z: a * y + b * z,
        mu=max(abs(a), abs(b)),
        flags=GeneratorFlags(zero_at_zero=True, y_independent=(a == 0.0)),
        name=f"linear:{a:g},{b:g}",
        exact_step=_closed_form(0.0, a, b, abs_z=False),
    )


def black_scholes_generator(params: BSMarketParams) -> Generator:
    """Replication driver of the one-stock market: ``-r y - ((b - r)/sigma) z``.

    It is ``linear_generator(-r, -(b - r) / sigma)`` under a ``bs:`` name; the
    declared constant ``max(r, |b - r| / sigma)`` is the Lipschitz constant
    of the affine map in the sum norm.
    """
    theta = (params.b - params.r) / params.sigma
    return replace(linear_generator(-params.r, -theta),
                   name=f"bs:r={params.r:g},b={params.b:g},sigma={params.sigma:g}")


# -- sampled structural checks -----------------------------------------------

class _Tally:
    """One sampled check: the samples recorded, the failures ``v > limit``,
    and the worst failing ``v`` with the key of the first sample to reach it.

    ``names`` are the check's witness entries, in order.
    """

    def __init__(self, names=()):
        self.names = names
        self.samples = self.failures = 0
        self.worst, self.key = 0.0, None

    def record(self, v, limit, key) -> None:
        self.samples += 1
        if v > limit:
            self.failures += 1
            # the first failure is kept even below 0, where a limit is negative
            if self.failures == 1 or v > self.worst:
                self.worst, self.key = v, key

    def witness(self, named: Callable) -> Optional[dict]:
        """The entries ``names`` of ``named(key, worst)``, the kept sample's
        values by name; ``None`` when no sample failed."""
        if not self.failures:
            return None
        values = named(self.key, self.worst)
        return {k: values[k] for k in self.names}


def _witnessed(*names):
    """A report field whose verdict's witness holds ``names``, in order."""
    return field(metadata={"witness": names})


def _tallies(report) -> list:
    """One tally per field of the report dataclass, in field order."""
    return [_Tally(f.metadata["witness"]) for f in fields(report)]


@dataclass(frozen=True)
class LipschitzReport:
    ok: bool
    worst_ratio: float
    witness: Optional[dict] = None
    samples: int = 0


def _driver_values(g: Generator, t, points) -> list:
    """``g(t, y, z)`` at one sample's points; a NaN or inf raises :class:`NonFiniteValue`."""
    values = [float(g(t, y, z)) for y, z in points]
    if not math.isfinite(sum(values)):  # one test per sample; a finite sum may overflow
        for (y, z), v in zip(points, values):
            if not math.isfinite(v):
                raise NonFiniteValue(f"driver value is {v} at t={float(t)!r}, "
                                     f"y={float(y)!r}, z={float(z)!r}")
    return values


def _sample_box(rng, box, n):
    (y_lo, y_hi), (z_lo, z_hi) = box
    ys = rng.uniform(y_lo, y_hi, size=n)
    zs = rng.uniform(z_lo, z_hi, size=n)
    return ys, zs


def verify_lipschitz(
    g: Generator,
    samples: int,
    box=((-5.0, 5.0), (-5.0, 5.0)),
    seed: int = 0,
) -> LipschitzReport:
    """Sample point pairs, at times in ``[0, 1]``, and compare increment ratios to ``g.mu``.

    ``ok`` means no sampled pair exceeded ``mu`` beyond float slack; it does
    not prove the Lipschitz property.
    """
    _count("samples", samples)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, size=samples)
    y1, z1 = _sample_box(rng, box, samples)
    y2, z2 = _sample_box(rng, box, samples)

    # every positive ratio competes for the worst, which is then held to mu
    tally = _Tally()
    for k in range(samples):
        sep = abs(y1[k] - y2[k]) + abs(z1[k] - z2[k])
        if sep < _MIN_SEPARATION:
            continue
        g1, g2 = float(g(ts[k], y1[k], z1[k])), float(g(ts[k], y2[k], z2[k]))
        if not math.isfinite(g1 - g2):  # evaluate the pair again to name the NaN or inf
            _driver_values(g, ts[k], ((y1[k], z1[k]), (y2[k], z2[k])))
        tally.record(abs(g1 - g2) / sep, 0.0, k)
    worst, k = tally.worst, tally.key
    ok = worst <= g.mu * (1.0 + _LIPSCHITZ_SLACK)
    witness = None if ok else {
        "t": float(ts[k]),
        "y": float(y1[k]), "z": float(z1[k]),
        "y2": float(y2[k]), "z2": float(z2[k]),
        "ratio": float(worst),
    }
    return LipschitzReport(ok=ok, worst_ratio=worst, witness=witness, samples=samples)


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    checks: int
    witness: Optional[dict] = None


@dataclass(frozen=True)
class StructureReport:
    """Sampled verdicts for the structural properties a driver may carry."""

    zero_at_zero: PropertyVerdict = _witnessed("t", "value")
    convex: PropertyVerdict = _witnessed("t", "y", "z", "y2", "z2", "alpha")
    concave: PropertyVerdict = _witnessed("t", "y", "z", "y2", "z2", "alpha")
    positively_homogeneous: PropertyVerdict = _witnessed("t", "y", "z", "lambda")
    subadditive: PropertyVerdict = _witnessed("t", "y", "z", "y2", "z2")
    y_independent: PropertyVerdict = _witnessed("t", "y", "y2", "z")
    z_independent: PropertyVerdict = _witnessed("t", "y", "z", "z2")
    zero_rate: PropertyVerdict = _witnessed("t", "y")
    sellers_condition: PropertyVerdict = _witnessed("t", "y", "z")

    def as_dict(self) -> dict:
        return {f.name: asdict(getattr(self, f.name)) for f in fields(self)}


def classify_generator(
    g: Generator,
    samples: int,
    box=((-5.0, 5.0), (-5.0, 5.0)),
    seed: int = 0,
) -> StructureReport:
    """Sampled classification of a driver's structural properties.

    Times are drawn from ``[0, 1]``, and verdicts are deterministic given
    ``(samples, box, seed)``.  Each failed property carries a witness point:
    the first sample with its worst violation.  A property holds up to
    ``_LIPSCHITZ_SLACK`` times the scale of the driver values it compares.
    """
    _count("samples", samples)
    rng = np.random.default_rng(seed)

    tallies = _tallies(StructureReport)
    zero, conv, conc, hom, sub, yind, zind, zr, sell = tallies
    slack = _LIPSCHITZ_SLACK
    for _ in range(samples):
        t = float(rng.uniform(0.0, 1.0))
        (y1,), (z1,) = _sample_box(rng, box, 1)
        (y2,), (z2,) = _sample_box(rng, box, 1)
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 3.0))
        key = (t, y1, z1, y2, z2, alpha, lam)

        g11, g22, g00, mix, g_lam, g_sum, g21, g12, g10, g_neg = _driver_values(g, t, (
            (y1, z1), (y2, z2), (0.0, 0.0),
            (alpha * y1 + (1 - alpha) * y2, alpha * z1 + (1 - alpha) * z2),
            (lam * y1, lam * z1), (y1 + y2, z1 + z2), (y2, z1), (y1, z2), (y1, 0.0), (-y1, -z1)))
        scale = 1.0 + abs(g11) + abs(g22)

        zero.record(abs(g00), slack, key)
        blend = alpha * g11 + (1 - alpha) * g22
        conv.record(mix - blend, slack * scale, key)
        conc.record(blend - mix, slack * scale, key)
        hom.record(abs(g_lam - lam * g11), slack * (1.0 + lam) * scale, key)
        sub.record(g_sum - (g11 + g22), slack * scale, key)
        yind.record(abs(g21 - g11), slack * scale, key)
        zind.record(abs(g12 - g11), slack * scale, key)
        zr.record(abs(g10), slack * scale, key)
        sell.record(-g_neg - g11, slack * scale, key)

    def named(key, worst):
        return dict(zip(("t", "y", "z", "y2", "z2", "alpha", "lambda"), key), value=worst)

    return StructureReport(*(PropertyVerdict(holds=not tally.failures, checks=samples,
                                             witness=tally.witness(named))
                             for tally in tallies))
