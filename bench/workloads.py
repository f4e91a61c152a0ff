"""The benchmark's three workloads: set-up, the fixed list of operations of one
pass, the independent reference checks, and the layers each one must reach.

Each operation returns its canonical report bytes: the ``--out`` file of a CLI
command (prefixed with its exit code), or sorted-key JSON of a library
result.  The first pass of a run is checked against references that do not
share code with gmech's solvers; every later pass must reproduce its bytes.
Set-up draws every input from the workload seed.  Seeds only move values,
never how much work a pass does, so run time stays comparable across seeds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import INTERPRETER, MEMORY, Reference

# Recovery sample grid: the CLI's default 5 x 5 (y, z) grid.
GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
# Kinks of the benchmark driver sit on interior grid lines.  The recovered
# table is interpolated bilinearly between grid lines, so the rebuild check
# then measures recovery error rather than the interpolation error of a kink
# that falls between two sample points.
KINK_LINES = (-1.0, 0.0, 1.0)
LIPSCHITZ_SAMPLES = 4000
# Pinned acceptance tolerances (tests/test_acceptance.py).
REBUILD_TOL = 1e-2
RECOVER_TOL = 1e-2
BS_TOL = 0.05
ROUND_TRIP_TOL = 1e-9
PRICE_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], bytes]
    # check(bytes) -> worst deviation from an independent reference (0.0
    # when the reference is a verdict, not a number); raises CheckFailed
    check: Callable[[bytes], float]


@dataclass
class Workload:
    name: str
    setup: Callable  # (gm, workdir, seed) -> list[Op]
    reference: Reference  # the reference computation whose work resembles it
    # span or counter metrics that must be nonzero / zero in a traced pass
    exercised: tuple
    bypassed: tuple


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def slices_digest(slices) -> str:
    h = hashlib.sha256()
    for s in slices:
        h.update(np.ascontiguousarray(s, dtype=float).tobytes())
    return h.hexdigest()


def random_driver(gm, rng, mu: float = 0.5, kinks: int = 2):
    """Random driver vanishing at the origin, with no closed-form step.

    From the family of the test suite's ``random_lipschitz_generator``:
    piecewise linear in y and in z separately, with a declared ``mu`` above
    the sums of absolute slopes.  Two restrictions keep a pass's work
    independent of the seed.  The y part is ``+-s (|y - p| - |p|)``, so
    ``|dg/dy| = s`` on every segment and each Picard iteration contracts by
    exactly ``s * dt``; the z part is scaled to slope sum ``s``.  ``s`` is
    ``0.8 mu``, which keeps the driver strictly inside the ``mu`` envelope
    away from the origin.  Kinks are drawn from ``KINK_LINES``.
    """
    slope = 0.8 * mu
    sy = rng.choice((-1.0, 1.0)) * slope
    py = float(rng.choice(KINK_LINES))
    az = rng.normal()
    cz = rng.normal(size=kinks)
    pz = rng.choice(KINK_LINES, size=kinks)
    scale = slope / max(abs(az) + float(np.sum(np.abs(cz))), 1e-12)
    az, cz = az * scale, cz * scale

    def fn(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = sy * (np.abs(y - py) - abs(py)) + az * z
        for k in range(kinks):
            out = out + cz[k] * (np.abs(z - pz[k]) - abs(pz[k]))
        return out

    gen = gm.Generator(fn=fn, mu=float(mu),
                       flags=gm.GeneratorFlags(zero_at_zero=True), name="random")
    report = gm.verify_lipschitz(gen, LIPSCHITZ_SAMPLES, seed=int(rng.integers(2**31)))
    if not report.ok:
        raise CheckFailed(f"benchmark driver breaks its declared mu: {report.witness}")
    return gen


def cli_op(gm, name, argv, out_path, check) -> Op:
    """A ``gmech`` command whose report goes to ``out_path``."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gm.cli.main(argv + ["--out", str(out_path)])
        with open(out_path, "rb") as fh:
            return b"rc=%d\n" % rc + fh.read()
    return Op(name, run, check)


def split_cli(out: bytes):
    head, _, body = out.partition(b"\n")
    return int(head[3:]), body


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- independent references ------------------------------------------------------

def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_call_ref(s0, strike, r, sigma, tau):
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    return s0 * norm_cdf(d1) - strike * math.exp(-r * tau) * norm_cdf(d2)


def bs_put_ref(s0, strike, r, sigma, tau):
    return bs_call_ref(s0, strike, r, sigma, tau) - s0 + strike * math.exp(-r * tau)


def parse_chain(data: bytes):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    return col


def cap_prices(terminal: np.ndarray, mu: float, tau: float, n: int) -> np.ndarray:
    """Root prices of terminal rows under ``mu (|y| + |z|)``.

    Each one-step equation ``y = m + mu (|y| + |z|) dt`` is solved from the
    sign of its affine part; written here from the scheme's definition.
    """
    dt = tau / n
    sdt = math.sqrt(dt)
    cur = terminal
    for _ in range(n):
        up, down = cur[:, 1:], cur[:, :-1]
        q = 0.5 * (up + down) + mu * np.abs(up - down) / (2.0 * sdt) * dt
        cur = np.where(q >= 0.0, q / (1.0 - mu * dt), q / (1.0 + mu * dt))
    return cur[:, 0]


def audit_reference(chain_bytes: bytes, mu: float, n: int, vol: float):
    """Violations and anomalies of the four-family audit, recomputed."""
    c = parse_chain(chain_bytes)
    tau = (c["expiry_days"][0] - c["as_of_days"][0]) / 365.0
    s0 = c["underlying"][0]
    strikes, calls, puts = c["strike"], c["call_mid"], c["put_mid"]
    b = (2.0 * np.arange(n + 1) - n) * math.sqrt(tau / n)
    s_term = s0 * np.exp(vol * b - 0.5 * vol * vol * tau)
    call_pay = np.maximum(s_term[None, :] - strikes[:, None], 0.0)
    put_pay = np.maximum(strikes[:, None] - s_term[None, :], 0.0)
    fam = {"call_call": (calls, call_pay, calls, call_pay),
           "put_put": (puts, put_pay, puts, put_pay),
           "call_put": (calls, call_pay, puts, put_pay),
           "put_call": (puts, put_pay, calls, call_pay)}
    m = strikes.size
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    margins = {}
    for name, (lm, lp, rm, rp) in fam.items():
        lhs = lm[ii] - rm[jj]
        rhs = cap_prices(lp[ii] - rp[jj], mu, tau, n)
        for k in range(ii.size):
            margins[(name, int(ii[k]), int(jj[k]))] = (float(lhs[k]), float(rhs[k]))
    anomalies = []
    for k in range(m - 1):
        if calls[k] < calls[k + 1]:
            anomalies.append(("call", k, k + 1))
        if puts[k] > puts[k + 1]:
            anomalies.append(("put", k, k + 1))
    return margins, anomalies


def check_audit(out: bytes, chain_path, mu, n, vol) -> float:
    rc, body = split_cli(out)
    report = json.loads(body)
    with open(chain_path, "rb") as fh:
        margins, anomalies = audit_reference(fh.read(), mu, n, vol)
    require(report["total_tested"] == len(margins),
            f"audit tested {report['total_tested']} pairs, expected {len(margins)}")
    got = {(v["family"], v["i"], v["j"]): v for v in report["violations"]}
    worst = 0.0
    for key, (lhs, rhs) in margins.items():
        # pairs within rounding of the boundary may land on either side
        scale = 1.0 + abs(lhs) + abs(rhs)
        near = abs(lhs - rhs - PRICE_TOL) <= 1e-9 * scale
        expect = lhs > rhs + PRICE_TOL
        if key in got:
            worst = max(worst, abs(got[key]["rhs"] - rhs), abs(got[key]["lhs"] - lhs))
        require(near or (key in got) == expect,
                f"audit pair {key}: violation={key in got}, reference says {expect}")
    got_anom = [(a["family"], a["i"], a["j"]) for a in report["anomalies"]]
    require(sorted(got_anom) == sorted(anomalies),
            f"audit anomalies {got_anom} != reference {anomalies}")
    clean = not got and not anomalies
    require(rc == (0 if clean else 1), f"audit exit code {rc}, clean={clean}")
    require(worst <= 1e-9, f"audit violation values off by {worst:.3g}")
    return worst


# -- blackbox --------------------------------------------------------------------

def setup_blackbox(gm, work, seed):
    rng = np.random.default_rng([seed, 1])
    driver = random_driver(gm, rng)
    lat8 = gm.build_lattice(gm.build_grid(0.0, 1.0, 8))
    lat256 = gm.build_lattice(gm.build_grid(0.0, 1.0, 256))
    mech8 = gm.as_mechanism(driver, lat8)
    mech256 = gm.as_mechanism(driver, lat256)
    axiom_seed = int(rng.integers(2**31))
    cli_seed = int(rng.integers(2**31))

    def axioms_random():
        rep = gm.axiom_suite(mech8, lat8, samples=200, seed=axiom_seed)
        return canonical({"all_passed": rep.all_passed(), "laws": rep.as_dict()})

    def check_axioms(out):
        require(json.loads(out)["all_passed"], "axiom suite failed on a lawful driver")
        return 0.0

    def check_cli_axioms(out):
        rc, body = split_cli(out)
        require(rc == 0 and json.loads(body)["all_passed"], "gmech axioms failed")
        return 0.0

    def check_recover(out):
        rc, body = split_cli(out)
        rep = json.loads(body)
        require(rc == 0 and rep["certificate_ok"], "gmech recover certificate failed")
        require(len(rep["rows"]) == 256 * len(GRID) ** 2, "recover table size")
        err = max(abs(r["g"] - 0.5 * (abs(r["y"]) + abs(r["z"]))) for r in rep["rows"])
        require(err <= RECOVER_TOL, f"recovered gmu:0.5 off by {err:.3g}")
        return err

    def theorem():
        # the theorem's own sampling seed is fixed: with four axiom samples at
        # 256 steps its random solve lengths would make pass time seed-bound
        v = gm.verify_main_theorem(mech256, lat256, samples=6, seed=108, level=8,
                                   ys=GRID, zs=GRID)
        return canonical({"max_discrepancy": v.max_discrepancy,
                          "axioms_ok": v.axioms_ok, "domination_ok": v.domination_ok,
                          "lipschitz_ratio": v.recovered.lipschitz_ratio,
                          "table": slices_digest([v.recovered.table])})

    def check_theorem(out):
        v = json.loads(out)
        require(v["axioms_ok"] and v["domination_ok"], "theorem preconditions failed")
        require(v["max_discrepancy"] <= REBUILD_TOL,
                f"rebuild discrepancy {v['max_discrepancy']:.3g} > {REBUILD_TOL}")
        return v["max_discrepancy"]

    return [
        Op("axiom_suite.random", axioms_random, check_axioms),
        cli_op(gm, "cli.axioms", ["axioms", "--gen", "gmu:0.5", "--samples", "200",
                                  "--steps", "8", "--seed", str(cli_seed)],
               work / "axioms.json", check_cli_axioms),
        cli_op(gm, "cli.recover", ["recover", "--gen-hidden", "gmu:0.5", "--level", "8"],
               work / "recover.json", check_recover),
        Op("verify_main_theorem.random", theorem, check_theorem),
    ]


# -- chain_audit -----------------------------------------------------------------

def setup_chain_audit(gm, work, seed):
    rng = np.random.default_rng([seed, 2])
    s0 = float(rng.uniform(50.0, 200.0))
    sigma = float(rng.uniform(0.15, 0.35))
    r = float(rng.uniform(0.0, 0.06))
    b = float(r + rng.uniform(-0.02, 0.05))
    tau_days = float(rng.uniform(36.5, 365.0))
    noise_seed = int(rng.integers(2**31))
    mu = max(0.5, r, abs(b - r) / sigma)
    market = ["--s0", repr(s0), "--r", repr(r), "--b", repr(b), "--sigma", repr(sigma),
              "--lo", repr(0.8 * s0), "--hi", repr(1.2 * s0),
              "--expiry-days", repr(tau_days)]
    clean, noisy = work / "clean.csv", work / "noisy.csv"
    audit = ["--mu", repr(mu), "--vol", repr(sigma)]

    def synth(path, argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gm.cli.main(["synth"] + argv + ["--out", str(path)])
            with open(path, "rb") as fh:
                return b"rc=%d\n" % rc + fh.read()
        return run

    def check_synth(noise):
        def check(out):
            rc, body = split_cli(out)
            require(rc == 0, f"gmech synth exit code {rc}")
            c = parse_chain(body)
            tau = (c["expiry_days"][0] - c["as_of_days"][0]) / 365.0
            require(np.allclose(c["strike"], np.linspace(0.8 * s0, 1.2 * s0,
                                                         c["strike"].size)),
                    "synth strikes")
            if noise:
                return 0.0
            ref_c = [bs_call_ref(s0, k, r, sigma, tau) for k in c["strike"]]
            ref_p = [bs_put_ref(s0, k, r, sigma, tau) for k in c["strike"]]
            err = float(max(np.max(np.abs(c["call_mid"] - ref_c)),
                            np.max(np.abs(c["put_mid"] - ref_p))))
            require(err <= 1e-9 * s0, f"synth mids off closed form by {err:.3g}")
            return err
        return check

    return [
        Op("cli.synth.clean", synth(clean, market + ["--n-strikes", "12"]),
           check_synth(False)),
        cli_op(gm, "cli.audit.1024", ["audit", "--chain", str(clean), "--steps", "1024"]
               + audit, work / "audit_clean.json",
               lambda out: check_audit(out, clean, mu, 1024, sigma)),
        Op("cli.synth.noisy", synth(noisy, market + ["--n-strikes", "20", "--noise", "0.5",
                                                     "--seed", str(noise_seed)]),
           check_synth(True)),
        cli_op(gm, "cli.audit.256", ["audit", "--chain", str(noisy), "--steps", "256"]
               + audit, work / "audit_noisy.json",
               lambda out: check_audit(out, noisy, mu, 256, sigma)),
    ]


# -- deep_surface ----------------------------------------------------------------

def setup_deep_surface(gm, work, seed):
    rng = np.random.default_rng([seed, 3])
    driver = random_driver(gm, rng)
    lat2000 = gm.build_lattice(gm.build_grid(0.0, 1.0, 2000))
    lat512 = gm.build_lattice(gm.build_grid(0.0, 1.0, 512))
    div_rate = float(rng.uniform(0.05, 0.2))
    dividends = gm.DividendStream.from_rate(lat2000, div_rate)
    claim = gm.random_claim(rng)
    claim_a, claim_b = gm.random_claim(rng), gm.random_claim(rng)
    strike = float(rng.uniform(90.0, 110.0))
    mech512 = gm.as_mechanism(driver, lat512)

    def check_price(out):
        rc, body = split_cli(out)
        require(rc == 0, f"gmech price exit code {rc}")
        err = abs(json.loads(body)["y0"] - bs_call_ref(100.0, strike, 0.05, 0.2, 1.0))
        require(err <= BS_TOL, f"call price off closed form by {err:.3g}")
        return err

    def check_decompose(out):
        rc, body = split_cli(out)
        rep = json.loads(body)
        err = max(rep["max_increment_error"], rep["reconstruction_error"])
        require(rc == 0 and rep["passed"] and rep["increasing"] and err <= ROUND_TRIP_TOL,
                f"gmech decompose round trip off by {err:.3g}")
        return err

    def surface_round_trip():
        res = gm.solve_bsde(driver, claim, dividends, lat2000)
        dm = gm.doob_meyer(driver, res.y, dividends, lat2000)
        extra = max(float(np.max(np.abs(s))) for s in dm.increments.slices)
        return canonical({"y0": float(res.y.at(0)[0]),
                          "surface": slices_digest(res.y.slices),
                          "terminal_matches": bool(np.array_equal(
                              res.y.at(2000), claim.values(lat2000, 2000))),
                          "reconstruction_error": dm.reconstruction_error,
                          "extra_payout": extra})

    def check_round_trip(out):
        v = json.loads(out)
        err = max(v["reconstruction_error"], v["extra_payout"])
        require(v["terminal_matches"], "surface terminal slice differs from the claim")
        require(err <= ROUND_TRIP_TOL, f"surface round trip off by {err:.3g}")
        return err

    def domination():
        v = gm.check_domination(mech512, claim_a, claim_b, driver.mu, lat512)
        return canonical({"passed": v.passed, "worst_margin": v.worst_margin,
                          "worst_node": list(v.worst_node)})

    def check_domination(out):
        v = json.loads(out)
        require(v["passed"] and v["worst_margin"] >= -PRICE_TOL,
                f"domination failed, margin {v['worst_margin']:.3g}")
        return 0.0

    return [
        cli_op(gm, "cli.price", ["price", "--gen", "bs:r=0.05,b=0.08,sigma=0.2",
                                 "--payoff", f"call:{strike!r}", "--s0", "100",
                                 "--steps", "2000"],
               work / "price.json", check_price),
        cli_op(gm, "cli.decompose", ["decompose", "--gen", "gmu:0.3", "--payoff", "bm",
                                     "--steps", "2000", "--div-rate", repr(div_rate)],
               work / "decompose.json", check_decompose),
        Op("solve_bsde+doob_meyer.random", surface_round_trip, check_round_trip),
        Op("check_domination.random", domination, check_domination),
    ]


_COMMON = ("lattice.node_values.calls", "generators.exact_step.calls", "cli.main.calls")

WORKLOADS = {
    "blackbox": Workload(
        "blackbox",
        setup_blackbox,
        INTERPRETER,
        exercised=_COMMON + (
            "lattice.process.builds", "generators.driver.evals", "engine.solve.calls",
            "engine.picard.iters_per_step", "engine.mech.calls", "engine.verdict.self_s",
            "analysis.axioms.calls", "analysis.recover.calls", "analysis.probe.builds",
            "analysis.rebuild.calls"),
        bypassed=("engine.batch.calls",),
    ),
    "chain_audit": Workload(
        "chain_audit",
        setup_chain_audit,
        MEMORY,
        exercised=_COMMON + (
            "engine.batch.calls", "engine.batch.rows", "market.audit.pairs",
            "market.chain_io_s"),
        bypassed=("generators.driver.evals", "analysis.axioms.calls",
                  "analysis.recover.calls", "analysis.probe.builds",
                  "analysis.decompose.calls", "analysis.rebuild.calls"),
    ),
    "deep_surface": Workload(
        "deep_surface",
        setup_deep_surface,
        INTERPRETER,
        exercised=_COMMON + (
            "lattice.process.builds", "generators.driver.evals", "engine.solve.calls",
            "engine.picard.iters_per_step", "engine.mech.calls", "engine.verdict.self_s",
            "analysis.decompose.calls"),
        bypassed=("engine.batch.calls",),
    ),
}
