"""Option-chain ingestion and domination audits.

Chain CSV schema (header required, one row per strike, times in days at
365 days/year):

    as_of_days,expiry_days,underlying,strike,call_mid,put_mid

The audit tests, for every ordered strike pair and each of the four payoff
families (call-call, put-put, call-put, put-call), whether the market price
spread is capped by the extremal-driver lattice price of the payoff
difference.  Terminal payoffs are mapped through a driftless lognormal
underlying ``S_T = S0 exp(sigma B_T - sigma^2 tau / 2)`` on the terminal
nodes.  Rows that contradict pointwise payoff ordering across strikes are
flagged separately as monotonicity anomalies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    EmptyChain,
    InvalidParams,
    InvariantError,
    ParseError,
    SchemaError,
)
from .generators import BSMarketParams, _finite, domination_generator
from .engine import (
    PRICE_TOL,
    _linear_root,
    make_underlying_map,
    require_monotone,
    solve_terminal_batch,
)
from .lattice import build_grid, build_lattice

DAYS_PER_YEAR = 365.0

_CHAIN_COLUMNS = ("as_of_days", "expiry_days", "underlying", "strike",
                  "call_mid", "put_mid")

_FAMILIES = ("call_call", "put_put", "call_put", "put_call")


# -- closed-form references ----------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(s0: float, strike: float, r: float, sigma: float, tau: float) -> float:
    """Lognormal closed-form call value; degenerates to intrinsic at tau or sigma 0."""
    if tau <= 0 or sigma <= 0:
        return max(s0 - strike, 0.0)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    return s0 * _norm_cdf(d1) - strike * math.exp(-r * tau) * _norm_cdf(d2)


def bs_put(s0: float, strike: float, r: float, sigma: float, tau: float) -> float:
    if tau <= 0 or sigma <= 0:
        return max(strike - s0, 0.0)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    return strike * math.exp(-r * tau) * _norm_cdf(-d2) - s0 * _norm_cdf(-d1)


# -- chain data ------------------------------------------------------------------

@dataclass
class OptionChain:
    """One expiry's quotes: strictly increasing strikes, nonnegative mids."""

    as_of: float
    expiry: float
    underlying: float
    strikes: np.ndarray
    call_mids: np.ndarray
    put_mids: np.ndarray

    def __post_init__(self):
        self.strikes = np.asarray(self.strikes, dtype=float)
        self.call_mids = np.asarray(self.call_mids, dtype=float)
        self.put_mids = np.asarray(self.put_mids, dtype=float)
        for name in ("as_of", "expiry", "underlying"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.expiry > self.as_of:
            raise InvariantError(
                f"expiry {self.expiry} must lie after as_of {self.as_of}"
            )
        if self.strikes.size and np.any(np.diff(self.strikes) <= 0):
            raise InvariantError("strikes must be strictly increasing")
        for name in ("strikes", "call_mids", "put_mids"):
            arr = getattr(self, name)
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise InvariantError(f"{name} must be finite and >= 0")
        if not (self.strikes.size == self.call_mids.size == self.put_mids.size):
            raise InvariantError("strike/call/put columns must align")
        if self.underlying <= 0:
            raise InvariantError("underlying must be > 0")

    @property
    def n_strikes(self) -> int:
        return int(self.strikes.size)

    @property
    def tau(self) -> float:
        return self.expiry - self.as_of

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_CHAIN_COLUMNS)
            for k in range(self.n_strikes):
                w.writerow([
                    repr(float(self.as_of * DAYS_PER_YEAR)),
                    repr(float(self.expiry * DAYS_PER_YEAR)),
                    repr(float(self.underlying)),
                    repr(float(self.strikes[k])),
                    repr(float(self.call_mids[k])),
                    repr(float(self.put_mids[k])),
                ])


def load_chain(path: str) -> OptionChain:
    """Parse and validate a chain CSV (see the module docstring for the schema)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, expected header")
        missing = set(_CHAIN_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise SchemaError(f"{path}: missing columns {sorted(missing)}")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            try:
                row = {c: float(raw[c]) for c in _CHAIN_COLUMNS}
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            for c in _CHAIN_COLUMNS:
                if not math.isfinite(row[c]):
                    raise ParseError(f"{path}: line {lineno}: column {c} is not finite: {raw[c]!r}")
            rows.append(row)
    if not rows:
        raise EmptyChain(f"{path}: no data rows")

    for col in ("as_of_days", "expiry_days", "underlying"):
        vals = {r[col] for r in rows}
        if len(vals) > 1:
            raise InvariantError(f"{path}: column {col} is not constant")
    return OptionChain(
        as_of=rows[0]["as_of_days"] / DAYS_PER_YEAR,
        expiry=rows[0]["expiry_days"] / DAYS_PER_YEAR,
        underlying=rows[0]["underlying"],
        strikes=np.array([r["strike"] for r in rows]),
        call_mids=np.array([r["call_mid"] for r in rows]),
        put_mids=np.array([r["put_mid"] for r in rows]),
    )


def synth_chain(
    params: BSMarketParams,
    s0: float,
    strikes,
    as_of: float,
    expiry: float,
    seed: Optional[int] = None,
    noise: float = 0.0,
) -> OptionChain:
    """Synthetic chain with closed-form lognormal mids.

    ``noise`` (finite, >= 0) adds centred gaussian perturbations (clipped at
    zero) for fault-detection experiments; the noiseless chain satisfies
    put-call parity row by row.  A NaN or inf argument, or strikes that are
    not finite, > 0 and strictly increasing, raise :class:`InvalidParams`
    naming them.
    """
    s0, as_of, expiry, noise = (_finite(name, v) for name, v in (
        ("s0", s0), ("as_of", as_of), ("expiry", expiry), ("noise", noise)))
    if s0 <= 0:
        raise InvalidParams(f"s0 must be > 0, got {s0}")
    if noise < 0:
        raise InvalidParams(f"noise must be >= 0, got {noise}")
    tau = expiry - as_of
    if tau <= 0:
        raise InvalidParams("expiry must lie after as_of")
    strikes = np.asarray(strikes, dtype=float)
    ok = np.isfinite(strikes) & (strikes > 0)
    ok[1:] &= strikes[1:] > strikes[:-1]
    if not ok.all():
        k = int(np.argmin(ok))
        raise InvalidParams(f"strikes must be finite, > 0 and strictly increasing; "
                            f"strike {k} is {strikes[k]}")
    calls = np.array([bs_call(s0, k, params.r, params.sigma, tau) for k in strikes])
    puts = np.array([bs_put(s0, k, params.r, params.sigma, tau) for k in strikes])
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        calls = np.clip(calls + rng.normal(0.0, noise, calls.size), 0.0, None)
        puts = np.clip(puts + rng.normal(0.0, noise, puts.size), 0.0, None)
    return OptionChain(as_of=as_of, expiry=expiry, underlying=s0,
                       strikes=strikes, call_mids=calls, put_mids=puts)


# -- domination audit --------------------------------------------------------------

@dataclass
class FamilyCount:
    tested: int = 0
    passed: int = 0
    violated: int = 0


@dataclass
class DominationReport:
    """Audit outcome: per-family counts plus itemized violations and anomalies."""

    mu: float
    n_steps: int
    vol: float
    families: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)

    @property
    def total_tested(self) -> int:
        return sum(c.tested for c in self.families.values())

    @property
    def total_violated(self) -> int:
        return sum(c.violated for c in self.families.values())

    def clean(self) -> bool:
        return self.total_violated == 0 and not self.anomalies

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "n_steps": self.n_steps,
            "vol": self.vol,
            "families": {name: asdict(c) for name, c in self.families.items()},
            "total_tested": self.total_tested,
            "total_violated": self.total_violated,
            "violations": self.violations,
            "anomalies": self.anomalies,
        }


def _scan_anomalies(chain: OptionChain) -> list:
    """Adjacent-strike contradictions of pointwise payoff ordering.

    Calls shrink pointwise as the strike rises, puts grow; a strict inversion
    of either order cannot come from any monotone pricing map.
    """
    out = []
    families = (("call", chain.call_mids, 1.0), ("put", chain.put_mids, -1.0))
    for k in range(chain.n_strikes - 1):
        for family, mids, sign in families:
            if sign * mids[k] < sign * mids[k + 1]:
                out.append({
                    "family": family, "i": k, "j": k + 1,
                    "strike_i": float(chain.strikes[k]),
                    "strike_j": float(chain.strikes[k + 1]),
                    "price_i": float(mids[k]),
                    "price_j": float(mids[k + 1]),
                })
    return out


def _require_sign_pattern(name: str, rows: np.ndarray, sign_y: Optional[float],
                          sign_z: float, ii: np.ndarray, jj: np.ndarray) -> None:
    """Raise :class:`InvariantError` naming the family, the pair and the first
    node of a row that is not one-signed with sign ``sign_y`` (unless it is
    ``None``) or not monotone across nodes with sign ``sign_z``."""
    if sign_y is None:
        bad = np.zeros(rows.shape, dtype=bool)
    else:
        bad = rows < 0.0 if sign_y > 0 else rows > 0.0
    steps = np.diff(rows, axis=1)
    bad[:, 1:] |= steps < 0.0 if sign_z > 0 else steps > 0.0
    if bad.any():
        r, j = np.argwhere(bad)[0]
        leaves = "" if sign_y is None else f"sign {sign_y:+g} or "
        raise InvariantError(f"{name} pair ({ii[r]}, {jj[r]}): payoff row leaves "
                             f"{leaves}direction {sign_z:+g} at node {j}")


def _monotone_caps(strikes: np.ndarray, s_term: np.ndarray, ii: np.ndarray,
                   jj: np.ndarray, mu: float, lattice) -> dict:
    """Extremal-driver caps of the call_call and put_put families, each row
    priced by one binomial sum.

    A pair's strike order ``sz`` is its rows' direction across nodes.  Built as
    ``sz clip(s - K_lo, 0, K_hi - K_lo)`` (calls) and ``-sz clip(K_hi - s, 0,
    K_hi - K_lo)`` (puts), a row is the payoff difference up to the rounding
    of ``s - K``, one-signed with sign ``sy`` (``sz`` for calls, ``-sz`` for
    puts) and exactly monotone.  The monotone scheme keeps every slice of the
    solve so, where ``mu (|y| + |z|)`` is the linear driver ``sy mu y + sz mu
    z``: the cap is :func:`_linear_root`, one binomial law per ``sz``.
    """
    caps = {"call_call": np.empty(ii.size), "put_put": np.empty(ii.size)}
    for sz in (1.0, -1.0):
        pick = np.flatnonzero(np.sign(jj - ii) == sz)
        lo = strikes[np.minimum(ii, jj)[pick]][:, None]
        hi = strikes[np.maximum(ii, jj)[pick]][:, None]
        calls = sz * np.clip(s_term - lo, 0.0, hi - lo)
        puts = -sz * np.clip(hi - s_term, 0.0, hi - lo)
        _require_sign_pattern("call_call", calls, sz, sz, ii[pick], jj[pick])
        _require_sign_pattern("put_put", puts, -sz, sz, ii[pick], jj[pick])
        roots = _linear_root(np.concatenate((calls, puts)),
                             np.repeat([sz * mu, -sz * mu], pick.size), sz * mu, lattice)
        caps["call_call"][pick], caps["put_put"][pick] = np.split(roots, 2)
    return caps


def _tilted_cap(name: str, rows: np.ndarray, sz: float, ii: np.ndarray,
                jj: np.ndarray, mu: float, lattice) -> np.ndarray:
    """Extremal-driver caps of the call_put (``sz = +1``) or put_call (``sz =
    -1``) rows, one kernel batch under the tilted driver ``mu |y| + sz mu z``.

    A call minus a put is nondecreasing across nodes and a put minus a call
    nonincreasing, so each row is monotone with sign ``sz``.  The tilted
    closed form keeps every slice so (see :func:`domination_generator`), its
    ``z`` has the sign ``sz`` throughout and ``mu |z|`` is ``sz mu z``: the
    cap is the extremal driver's price up to rounding.
    """
    _require_sign_pattern(name, rows, None, sz, ii, jj)
    return solve_terminal_batch(domination_generator(mu, z_sign=sz), rows, lattice)


def run_domination_test(
    chain: OptionChain,
    mu: float,
    n_steps: int,
    vol_for_lattice: float,
) -> DominationReport:
    """Audit all four inequality families over every ordered strike pair.

    The right-hand sides are lattice prices of the payoff differences under
    the extremal driver at level ``mu``; a pair violates when the market
    spread exceeds its cap by more than ``PRICE_TOL``.  The call_call and
    put_put caps are binomial sums (see :func:`_monotone_caps`), and the
    call_put and put_call caps are kernel batches under the tilted driver (see
    :func:`_tilted_cap`), 5 array passes per step; each equals the extremal
    closed form's price up to rounding.  A payoff row that breaks the sign or
    direction its family's shortcut rests on raises :class:`InvariantError`
    naming the family, the pair and the node.  Deterministic given ``(chain,
    mu, n_steps, vol_for_lattice)``.  A chain of fewer than 2 strikes has no
    pair to test and raises :class:`EmptyChain`.
    """
    if chain.n_strikes < 2:
        raise EmptyChain(f"need at least 2 strikes, chain has {chain.n_strikes}: "
                         "no strike pair can be tested")
    if _finite("vol_for_lattice", vol_for_lattice) <= 0:
        raise InvalidParams("vol_for_lattice must be > 0")
    lattice = build_lattice(build_grid(0.0, chain.tau, n_steps))
    require_monotone(mu, lattice)

    s_term = make_underlying_map(chain.underlying, vol_for_lattice, chain.tau)(
        lattice.node_values(n_steps))
    mids = {"call": chain.call_mids, "put": chain.put_mids}
    pays = {"call": np.maximum(s_term[None, :] - chain.strikes[:, None], 0.0),
            "put": np.maximum(chain.strikes[:, None] - s_term[None, :], 0.0)}
    m = chain.n_strikes
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    keep = ii.ravel() != jj.ravel()
    ii, jj = ii.ravel()[keep], jj.ravel()[keep]
    # the kernel runs before the sums: after them, the process's peak RSS rose
    # by about 0.2 MB more over a 12-strike audit at 1,024 steps
    caps = {f"{a}_{b}": _tilted_cap(f"{a}_{b}", pays[a][ii] - pays[b][jj], sz,
                                    ii, jj, float(mu), lattice)
            for a, b, sz in (("call", "put", 1.0), ("put", "call", -1.0))}
    caps.update(_monotone_caps(chain.strikes, s_term, ii, jj, float(mu), lattice))

    report = DominationReport(mu=float(mu), n_steps=int(n_steps),
                              vol=float(vol_for_lattice))
    for name in _FAMILIES:
        left, right = name.split("_")
        lhs = mids[left][ii] - mids[right][jj]
        rhs = caps[name]
        bad = lhs > rhs + PRICE_TOL
        count = FamilyCount(tested=int(lhs.size),
                            passed=int(lhs.size - np.count_nonzero(bad)),
                            violated=int(np.count_nonzero(bad)))
        report.families[name] = count
        for k in np.flatnonzero(bad):
            report.violations.append({
                "family": name, "i": int(ii[k]), "j": int(jj[k]),
                "lhs": float(lhs[k]), "rhs": float(rhs[k]),
                "margin": float(rhs[k] - lhs[k]),
            })
    report.violations.sort(key=lambda v: (v["family"], v["i"], v["j"]))
    report.anomalies = _scan_anomalies(chain)
    return report
