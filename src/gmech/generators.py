"""Price generating functions ``g(t, y, z)`` and their structural checks.

A generator is a pure function of time, price level ``y`` and hedge
coefficient ``z``, together with a declared Lipschitz constant ``mu`` in the
``|dy| + |dz|`` norm.  Structural properties (convexity, homogeneity, ...)
are established by seeded sampling with a witness reported on failure: they
are falsification checks, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParams, NegativeMu

# Pairs closer than this in the sum norm are skipped in Lipschitz sampling.
_MIN_SEPARATION = 1e-12
# Multiplicative slack absorbing float noise in ratio comparisons.
_LIPSCHITZ_SLACK = 1e-9


@dataclass(frozen=True)
class GeneratorFlags:
    """Advisory structural metadata declared by a generator's constructor."""

    zero_at_zero: bool = False
    y_independent: bool = False


@dataclass(frozen=True)
class Generator:
    """A driver ``g(t, y, z)`` with declared Lipschitz constant ``mu``.

    ``fn`` must be deterministic, side-effect free and vectorized over
    numpy arrays in ``y`` and ``z`` (``t`` is always a scalar).

    ``exact_step``, when present, solves the implicit one-step equation
    ``y = m + fn(t, y, z) dt + dk`` in closed form; the backward solver uses
    it in place of the fixed-point iteration.  It must return the same fixed
    point the iteration would converge to.  The solver passes scratch ``m``
    and ``z`` that it owns and never reads again; a closed form may overwrite
    both and return ``m``, or return a new array.  The built-in closed forms
    do overwrite them, so a caller outside the solver passes copies.
    """

    fn: Callable
    mu: float
    flags: GeneratorFlags = field(default_factory=GeneratorFlags)
    name: str = ""
    exact_step: Optional[Callable] = None

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
            if not np.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        if self.sigma <= 0:
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")


# -- constructors ------------------------------------------------------------

def _finite(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParams(f"{name} must be finite, got {value}")
    return value


# The closed-form steps below overwrite the scratch ``m`` and ``z`` the
# solver hands them (see :class:`Generator`) with the operations, in the
# order, of the plain expressions in their comments, so the bits are the same.

def _abs_z_part(z, coef: float, dt: float):
    """``coef * |z| * dt``, written over ``z``."""
    return np.multiply(np.multiply(np.abs(z, out=z), coef, out=z), dt, out=z)


def zero_generator() -> Generator:
    """The linear-expectation driver ``g == 0``."""
    return Generator(
        fn=lambda t, y, z: np.zeros(np.broadcast(y, z).shape),
        mu=0.0,
        flags=GeneratorFlags(zero_at_zero=True, y_independent=True),
        name="zero",
        # m + dk
        exact_step=lambda t, m, z, dk, dt: np.add(m, dk, out=m),
    )


def domination_generator(mu: float) -> Generator:
    """The extremal dominating driver ``mu * |y| + mu * |z|``.

    Every mu-Lipschitz driver vanishing at the origin is bounded by it, which
    is what makes it the yardstick in domination tests.
    """
    mu = _finite("mu", mu)
    if mu < 0:
        raise NegativeMu(f"mu must be >= 0, got {mu}")

    def exact_step(t, m, z, dk, dt):
        # y = m + mu (|y| + |z|) dt + dk is piecewise linear in y with one
        # kink at 0; the fixed point follows the sign of the affine part
        # q = m + mu |z| dt + dk, so y = q / (1 - copysign(mu dt, q)); for
        # q < 0 the denominator 1 - (-mu dt) is 1 + mu dt exactly
        q = np.add(np.add(m, _abs_z_part(z, mu, dt), out=m), dk, out=m)
        den = np.subtract(1.0, np.copysign(mu * dt, q, out=z), out=z)
        return np.divide(q, den, out=q)

    return Generator(
        fn=lambda t, y, z: mu * (np.abs(y) + np.abs(z)),
        mu=mu,
        flags=GeneratorFlags(zero_at_zero=True),
        name=f"gmu:{mu:g}",
        exact_step=exact_step,
    )


def abs_z_generator(coef: float) -> Generator:
    """Driver ``coef * |z|``: depends on the hedge coefficient only."""
    coef = _finite("coef", coef)
    if coef < 0:
        raise NegativeMu(f"coef must be >= 0, got {coef}")
    return Generator(
        fn=lambda t, y, z: coef * np.abs(z) + 0.0 * y,
        mu=coef,
        flags=GeneratorFlags(zero_at_zero=True, y_independent=True),
        name=f"abs_z:{coef:g}",
        # m + coef |z| dt + dk
        exact_step=lambda t, m, z, dk, dt:
            np.add(np.add(m, _abs_z_part(z, coef, dt), out=m), dk, out=m),
    )


def linear_generator(a: float, b: float) -> Generator:
    """Affine driver ``a * y + b * z`` (no constant term)."""
    a, b = _finite("a", a), _finite("b", b)

    def exact_step(t, m, z, dk, dt):
        # (m + b z dt + dk) / (1 - a dt)
        bz = np.multiply(np.multiply(z, b, out=z), dt, out=z)
        q = np.add(np.add(m, bz, out=m), dk, out=m)
        return np.divide(q, 1.0 - a * dt, out=q)

    return Generator(
        fn=lambda t, y, z: a * y + b * z,
        mu=max(abs(a), abs(b)),
        flags=GeneratorFlags(zero_at_zero=True, y_independent=(a == 0.0)),
        name=f"linear:{a:g},{b:g}",
        exact_step=exact_step,
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

@dataclass(frozen=True)
class LipschitzReport:
    ok: bool
    worst_ratio: float
    witness: Optional[dict] = None
    samples: int = 0


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
    t_range=(0.0, 1.0),
) -> LipschitzReport:
    """Sample point pairs and compare increment ratios against ``g.mu``.

    ``ok`` means no sampled pair exceeded ``mu`` beyond float slack; it does
    not prove the Lipschitz property.
    """
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(*t_range, size=samples)
    y1, z1 = _sample_box(rng, box, samples)
    y2, z2 = _sample_box(rng, box, samples)

    worst = 0.0
    witness = None
    for k in range(samples):
        sep = abs(y1[k] - y2[k]) + abs(z1[k] - z2[k])
        if sep < _MIN_SEPARATION:
            continue
        dg = abs(float(g(ts[k], y1[k], z1[k])) - float(g(ts[k], y2[k], z2[k])))
        ratio = dg / sep
        if ratio > worst:
            worst = ratio
            witness = {
                "t": float(ts[k]),
                "y": float(y1[k]), "z": float(z1[k]),
                "y2": float(y2[k]), "z2": float(z2[k]),
                "ratio": float(ratio),
            }
    ok = worst <= g.mu * (1.0 + _LIPSCHITZ_SLACK)
    return LipschitzReport(ok=ok, worst_ratio=worst,
                           witness=None if ok else witness, samples=samples)


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    checks: int
    witness: Optional[dict] = None


@dataclass(frozen=True)
class StructureReport:
    """Sampled verdicts for the structural properties a driver may carry."""

    zero_at_zero: PropertyVerdict
    convex: PropertyVerdict
    concave: PropertyVerdict
    positively_homogeneous: PropertyVerdict
    subadditive: PropertyVerdict
    y_independent: PropertyVerdict
    z_independent: PropertyVerdict
    zero_rate: PropertyVerdict
    sellers_condition: PropertyVerdict

    def as_dict(self) -> dict:
        return {name: asdict(getattr(self, name)) for name in self.__dataclass_fields__}


def _verdict(violations, checks):
    """violations: list of (margin, witness_dict); keep the worst one."""
    if not violations:
        return PropertyVerdict(holds=True, checks=checks)
    worst = max(violations, key=lambda mv: mv[0])
    return PropertyVerdict(holds=False, checks=checks, witness=worst[1])


def classify_generator(
    g: Generator,
    samples: int,
    box=((-5.0, 5.0), (-5.0, 5.0)),
    seed: int = 0,
    t_range=(0.0, 1.0),
    tol: float = 1e-9,
) -> StructureReport:
    """Sampled classification of a driver's structural properties.

    Verdicts are deterministic given ``(samples, box, seed)``.  Each failed
    property carries a witness point.
    """
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    rng = np.random.default_rng(seed)

    zero_viol, conv_viol, conc_viol, hom_viol = [], [], [], []
    sub_viol, yind_viol, zind_viol, zr_viol, sell_viol = [], [], [], [], []

    for _ in range(samples):
        t = float(rng.uniform(*t_range))
        (y1,), (z1,) = _sample_box(rng, box, 1)
        (y2,), (z2,) = _sample_box(rng, box, 1)
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 3.0))

        g11 = float(g(t, y1, z1))
        g22 = float(g(t, y2, z2))
        scale = 1.0 + abs(g11) + abs(g22)

        v = abs(float(g(t, 0.0, 0.0)))
        if v > tol:
            zero_viol.append((v, {"t": t, "value": v}))

        mix = float(g(t, alpha * y1 + (1 - alpha) * y2, alpha * z1 + (1 - alpha) * z2))
        blend = alpha * g11 + (1 - alpha) * g22
        if mix - blend > tol * scale:
            conv_viol.append((mix - blend, {"t": t, "y": y1, "z": z1, "y2": y2,
                                            "z2": z2, "alpha": alpha}))
        if blend - mix > tol * scale:
            conc_viol.append((blend - mix, {"t": t, "y": y1, "z": z1, "y2": y2,
                                            "z2": z2, "alpha": alpha}))

        v = abs(float(g(t, lam * y1, lam * z1)) - lam * g11)
        if v > tol * (1.0 + lam) * scale:
            hom_viol.append((v, {"t": t, "y": y1, "z": z1, "lambda": lam}))

        v = float(g(t, y1 + y2, z1 + z2)) - (g11 + g22)
        if v > tol * scale:
            sub_viol.append((v, {"t": t, "y": y1, "z": z1, "y2": y2, "z2": z2}))

        v = abs(float(g(t, y2, z1)) - g11)
        if v > tol * scale:
            yind_viol.append((v, {"t": t, "y": y1, "y2": y2, "z": z1}))

        v = abs(float(g(t, y1, z2)) - g11)
        if v > tol * scale:
            zind_viol.append((v, {"t": t, "y": y1, "z": z1, "z2": z2}))

        v = abs(float(g(t, y1, 0.0)))
        if v > tol * scale:
            zr_viol.append((v, {"t": t, "y": y1}))

        v = -float(g(t, -y1, -z1)) - g11
        if v > tol * scale:
            sell_viol.append((v, {"t": t, "y": y1, "z": z1}))

    return StructureReport(
        zero_at_zero=_verdict(zero_viol, samples),
        convex=_verdict(conv_viol, samples),
        concave=_verdict(conc_viol, samples),
        positively_homogeneous=_verdict(hom_viol, samples),
        subadditive=_verdict(sub_viol, samples),
        y_independent=_verdict(yind_viol, samples),
        z_independent=_verdict(zind_viol, samples),
        zero_rate=_verdict(zr_viol, samples),
        sellers_condition=_verdict(sell_viol, samples),
    )
