"""Batch command surface: price, axioms, decompose, probe, recover, audit, synth.

Reports are JSON by default (sorted keys, so a fixed config and seed gives a
byte-identical report); the tabular commands also emit CSV.  Exit codes:
0 pass, 1 numerical failure (including :class:`~gmech.errors.NonFiniteValue`)
or failed verdict, 2 usage, 3 bad input data.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import operator
import sys

import numpy as np

from . import __version__
from .errors import ChainDataError, GmechError, InvalidParams
from .generators import (
    BSMarketParams,
    Generator,
    _finite,
    abs_z_generator,
    black_scholes_generator,
    domination_generator,
    zero_generator,
)
from .lattice import _max_gap, build_grid, build_lattice
from .engine import (
    PRICE_TOL,
    DividendStream,
    TerminalClaim,
    as_mechanism,
    make_underlying_map,
    solve_bsde,
)
from .analysis import (
    axiom_suite,
    doob_meyer,
    grid_points,
    recover_generator,
    z_probe,
)
from .market import DAYS_PER_YEAR, load_chain, run_domination_test, synth_chain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


# -- spec parsers -------------------------------------------------------------

def parse_generator(spec: str) -> Generator:
    """zero | gmu:MU | abs_z:C | bs:r=..,b=..,sigma=.."""
    kind, _, rest = spec.partition(":")
    if kind == "zero":
        return zero_generator()
    if kind == "gmu":
        return domination_generator(_number(spec, "mu", rest))
    if kind == "abs_z":
        return abs_z_generator(_number(spec, "coef", rest))
    if kind == "bs":
        return black_scholes_generator(_bs_params(rest))
    raise ValueError(f"unknown generator spec {spec!r}")


def _number(spec: str, key: str, text: str) -> float:
    """``float(text)``, or a ``ValueError`` naming the spec and the key."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"spec {spec!r}: {key} must be a number, got {text!r}") from None


def _option_number(option: str, item: str, value) -> float:
    """``float(value)`` for one item of a list option: a ``ValueError`` naming
    the option and the item when it is not a number, :class:`InvalidParams`
    when it is not finite."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{option} {item} must be a number, got {value!r}") from None
    return _finite(f"{option} {item}", number)


def _number_list(option: str, text: str) -> list:
    """The finite numbers of a comma-list option (see :func:`_option_number`)."""
    return [_option_number(option, f"item {k}", v)
            for k, v in enumerate(text.split(","), start=1)]


def _points_file(path: str) -> list:
    """The ``[[y, z], ...]`` pairs of a ``--points`` JSON file, each a finite
    number (see :func:`_option_number`)."""
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError(f"--points must hold a list of [y, z] pairs, got {entries!r}")
    pts = []
    for k, entry in enumerate(entries, start=1):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"--points entry {k} must be a [y, z] pair, got {entry!r}")
        pts.append(tuple(_option_number("--points", f"entry {k} ({name})", v)
                         for name, v in zip("yz", entry)))
    return pts


def _bs_params(rest: str) -> BSMarketParams:
    """Market parameters of a ``bs:r=..,b=..,sigma=..`` spec, exactly as typed.
    An item that is not ``key=value``, an unknown key or a repeated key is
    named in a ``ValueError``."""
    kv = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"bs: spec item {item!r} is not key=value")
        if key not in ("r", "b", "sigma"):
            raise ValueError(f"bs: spec has unknown key {key!r}; keys are r, b and sigma")
        if key in kv:
            raise ValueError(f"bs: spec repeats key {key!r}")
        kv[key] = value
    missing = [k for k in ("r", "b", "sigma") if k not in kv]
    if missing:
        raise ValueError(f"bs: spec needs r, b and sigma; missing {', '.join(missing)}")
    return BSMarketParams(**{k: _number(f"bs:{rest}", k, v) for k, v in kv.items()})


def parse_payoff(spec: str, args) -> TerminalClaim:
    """bm | linbm:Z | const:C | call:K | put:K"""
    kind, _, rest = spec.partition(":")
    if kind == "bm":
        return TerminalClaim(lambda b: np.asarray(b, dtype=float), name="bm")
    if kind == "linbm":
        zbar = _number(spec, "zbar", rest)
        return TerminalClaim(lambda b: zbar * np.asarray(b, dtype=float),
                             name=spec)
    if kind == "const":
        c = _number(spec, "constant", rest)
        return TerminalClaim(lambda b: c + 0.0 * np.asarray(b, dtype=float),
                             name=spec)
    if kind in ("call", "put"):
        strike = _number(spec, "strike", rest)
        s0, vol, drift = _underlying_args(args)
        to_price = make_underlying_map(s0, vol, args.T - args.t0, drift)
        if kind == "call":
            return TerminalClaim(lambda b: np.maximum(to_price(b) - strike, 0.0),
                                 name=spec)
        return TerminalClaim(lambda b: np.maximum(strike - to_price(b), 0.0),
                             name=spec)
    raise ValueError(f"unknown payoff spec {spec!r}")


def _underlying_args(args):
    s0 = args.s0
    vol = args.vol
    drift = args.drift
    kind, _, rest = args.gen.partition(":")
    if kind == "bs":
        params = _bs_params(rest)
        vol = vol if vol is not None else params.sigma
        drift = drift if drift is not None else params.b
    missing = [name for name, v in (("--s0", s0), ("--vol", vol)) if v is None]
    if missing:
        raise ValueError(f"call/put payoffs need {' and '.join(missing)}"
                         + (" (or a bs:... generator)" if vol is None else ""))
    return s0, vol, (0.0 if drift is None else drift)


def _emit(args, payload: dict | list) -> None:
    """Write the report to ``--out`` or stdout: a dict as JSON, a list of rows
    as CSV.

    The JSON is byte for byte ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a newline, without the stdlib's pure-Python indenting
    encoder wherever :func:`_json_chunks` has a faster spelling of the same
    bytes (``tests/test_cli.py::TestJsonReports`` and CI compare them).  It
    is streamed chunk by chunk, never held as one string, so that peak
    memory stays flat: a level-8 recovery table is half a megabyte of text,
    a 2,000-step surface tens of megabytes.
    """
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(payload, dict):
            fh.writelines(_json_chunks(payload))
            fh.write("\n")
        else:
            csv.writer(fh).writerows(payload)


_INDENT = "  "
_INDENTED = json.JSONEncoder(sort_keys=True, indent=len(_INDENT))
_ROWS_PER_FILL = 64


def _json_chunks(value, level: int = 0):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, in chunks,
    for ``value`` nested ``level`` containers deep.

    Three spellings give the stdlib's bytes:
    - a leaf container (a list, tuple or dict holding no container) is one
      call of the C encoder, whose item separator carries the newline and
      indent of its depth;
    - in a list whose first item is a flat dict with ``str`` keys (a
      recovery table's rows), each run of up to ``_ROWS_PER_FILL`` items
      that are dicts with those keys and finite ``float`` values fills one
      template, each value spelt by ``float.__repr__`` as ``json`` does; any
      other run is spelt item by item;
    - everything else (a scalar, an empty container, a dict with a key that
      is not a ``str``) goes through the stdlib encoder, its newlines shifted
      to this depth.  A JSON text holds no raw newline inside a string.
    """
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    is_dict = isinstance(value, dict)
    if (not isinstance(value, (dict, list, tuple)) or not value
            or is_dict and not all(isinstance(k, str) for k in value)):
        for chunk in _INDENTED.iterencode(value):
            yield chunk.replace("\n", outer)
        return
    if not any(issubclass(t, (dict, list, tuple))
               for t in set(map(type, value.values() if is_dict else value))):
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        yield text[0] + inner + text[1:-1] + outer + text[-1]
        return
    if is_dict:
        sep = "{" + inner
        for key, child in sorted(value.items()):
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(child, level + 1)
            sep = "," + inner
        yield outer + "}"
        return
    fill = _row_filler(value[0], level + 1)
    sep = "[" + inner
    for start in range(0, len(value), _ROWS_PER_FILL):
        rows = value[start:start + _ROWS_PER_FILL]
        text = fill(rows)
        if text is None:
            for child in rows:
                yield sep
                yield from _json_chunks(child, level + 1)
                sep = "," + inner
        else:
            yield sep + text
            sep = "," + inner
    yield outer + "]"


def _row_filler(first, level: int):
    """A function that spells a run of rows, ``level`` containers deep and
    joined as list items, if ``first`` and every row are dicts with
    ``first``'s ``str`` keys and finite ``float`` values, and returns ``None``
    otherwise."""
    if not (type(first) is dict and first and all(isinstance(k, str) for k in first)):
        return lambda rows: None
    keys = sorted(first)
    get = operator.itemgetter(*keys)
    inner = "\n" + _INDENT * (level + 1)
    # "%r" of a float is float.__repr__, as json spells it; of a subclass it may not be
    row = ("{" + ",".join(inner + json.dumps(k).replace("%", "%%") + ": %r" for k in keys)
           + "\n" + _INDENT * level + "}")
    sep = ",\n" + _INDENT * level

    def fill(rows):
        if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
            return None
        try:
            values = tuple(itertools.chain.from_iterable(map(get, rows)) if len(keys) > 1
                           else map(get, rows))
        except KeyError:
            return None
        if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
            return None
        return sep.join([row] * len(rows)) % values

    return fill


def _lattice(args):
    return build_lattice(build_grid(args.t0, args.T, args.steps))


# -- subcommands ---------------------------------------------------------------

def cmd_price(args) -> int:
    gen = parse_generator(args.gen)
    lattice = _lattice(args)
    claim = parse_payoff(args.payoff, args)
    dividends = (DividendStream.from_rate(lattice, args.div_rate)
                 if args.div_rate else None)
    res = solve_bsde(gen, claim, dividends, lattice)
    report = {
        "command": "price",
        "gen": args.gen,
        "payoff": args.payoff,
        "steps": args.steps,
        "t0": args.t0,
        "T": args.T,
        "y0": float(res.y.at(0)[0]),
        "picard_iters": res.picard_iters,
        "residual": res.residual,
    }
    if args.surface:
        report["surface"] = [s.tolist() for s in res.y.slices]
    _emit(args, report)
    return EXIT_OK


def cmd_axioms(args) -> int:
    gen = parse_generator(args.gen)
    lattice = _lattice(args)
    mech = as_mechanism(gen, lattice)
    report = axiom_suite(mech, lattice, samples=args.samples, seed=args.seed)
    _emit(args, {
        "command": "axioms",
        "gen": args.gen,
        "samples": args.samples,
        "seed": args.seed,
        "all_passed": report.all_passed(),
        "laws": report.as_dict(),
    })
    return EXIT_OK if report.all_passed() else EXIT_FAIL


def cmd_decompose(args) -> int:
    gen = parse_generator(args.gen)
    lattice = _lattice(args)
    claim = parse_payoff(args.payoff, args)
    stream = DividendStream.from_rate(lattice, args.div_rate)
    surface = solve_bsde(gen, claim, stream, lattice).y
    result = doob_meyer(gen, surface, None, lattice)
    worst = _max_gap(result.increments.slices, stream.increments.slices)
    ok = worst <= PRICE_TOL and result.reconstruction_error <= PRICE_TOL
    _emit(args, {
        "command": "decompose",
        "gen": args.gen,
        "payoff": args.payoff,
        "div_rate": args.div_rate,
        "max_increment_error": worst,
        "reconstruction_error": result.reconstruction_error,
        "increasing": result.is_increasing(),
        "passed": ok,
    })
    return EXIT_OK if ok else EXIT_FAIL


def cmd_probe(args) -> int:
    gen = parse_generator(args.gen)
    lattice = _lattice(args)
    mech = as_mechanism(gen, lattice)
    keys = {}
    for k, z in enumerate(_number_list("--zbar", args.zbar), start=1):
        j, seen = keys.setdefault(f"{z:g}", (k, z))
        if j != k:
            raise ValueError(f"--zbar items {j} ({seen!r}) and {k} ({z!r}) both print as {z:g}")
    probes = {key: z_probe(mech, z, 0, lattice.n_steps) for key, (_, z) in keys.items()}
    _emit(args, {
        "command": "probe",
        "gen": args.gen,
        "horizon": args.T - args.t0,
        "probes": probes,
    })
    return EXIT_OK


def cmd_recover(args) -> int:
    gen = parse_generator(args.gen_hidden)
    if args.level < 0:
        raise InvalidParams(f"level must be >= 0, got {args.level}")
    steps = args.steps if args.steps else 2 ** args.level
    lattice = build_lattice(build_grid(args.t0, args.T, steps))
    mech = as_mechanism(gen, lattice)
    if args.points:
        pts = _points_file(args.points)
    else:
        pts = grid_points(_number_list("--y-grid", args.y_grid),
                          _number_list("--z-grid", args.z_grid))
    recovered = recover_generator(mech, args.level, pts, lattice)
    ok = recovered.certificate_ok()
    if args.format == "csv":
        _emit(args, [["t", "y", "z", "g"], *([repr(v) for v in row] for row in recovered.rows())])
    else:
        _emit(args, {
            "command": "recover",
            "gen_hidden": args.gen_hidden,
            "level": args.level,
            "certificate_ok": ok,
            **recovered.as_dict(),
        })
    return EXIT_OK if ok else EXIT_FAIL


def cmd_audit(args) -> int:
    chain = load_chain(args.chain)
    report = run_domination_test(chain, mu=args.mu, n_steps=args.steps,
                                 vol_for_lattice=args.vol)
    if args.format == "csv":
        _emit(args, [["family", "tested", "passed", "violated"],
                     *([name, count.tested, count.passed, count.violated]
                       for name, count in report.families.items()),
                     ["anomalies", len(report.anomalies), "", ""]])
    else:
        _emit(args, {"command": "audit", "chain": args.chain,
                     **report.as_dict()})
    return EXIT_OK if report.clean() else EXIT_FAIL


def cmd_synth(args) -> int:
    if args.n_strikes < 1:
        raise ValueError(f"--n-strikes must be >= 1, got {args.n_strikes}")
    lo, hi = _finite("--lo", args.lo), _finite("--hi", args.hi)
    if not lo > 0:
        raise ValueError(f"--lo must be > 0, got {lo}")
    strikes = np.linspace(lo, hi, args.n_strikes)
    if not np.all(np.diff(strikes) > 0):
        raise ValueError(f"--lo {lo} and --hi {hi} do not span "
                         f"{args.n_strikes} strictly increasing strikes")
    params = BSMarketParams(r=args.r, b=args.b, sigma=args.sigma)
    chain = synth_chain(params, args.s0, strikes,
                        as_of=args.as_of_days / DAYS_PER_YEAR,
                        expiry=args.expiry_days / DAYS_PER_YEAR,
                        seed=args.seed, noise=args.noise)
    chain.to_csv(args.out)
    print(f"wrote {args.out} ({chain.n_strikes} strikes)")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------

def _add_lattice_args(p, steps_default=64):
    p.add_argument("--t0", type=float, default=0.0, help="start time (years)")
    p.add_argument("--T", type=float, default=1.0, help="horizon (years)")
    p.add_argument("--steps", type=int, default=steps_default,
                   help="lattice steps")


def _add_payoff_args(p):
    p.add_argument("--payoff", required=True,
                   help="bm | linbm:Z | const:C | call:K | put:K")
    p.add_argument("--s0", type=float, default=None, help="spot for call/put")
    p.add_argument("--vol", type=float, default=None,
                   help="volatility of the underlying map")
    p.add_argument("--drift", type=float, default=None,
                   help="drift of the underlying map")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gmech",
        description="Nonlinear pricing-mechanism laboratory on a binomial lattice",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one claim under a named generator")
    p.add_argument("--gen", required=True,
                   help="zero | gmu:MU | abs_z:C | bs:r=..,b=..,sigma=..")
    _add_payoff_args(p)
    _add_lattice_args(p)
    p.add_argument("--div-rate", type=float, default=0.0,
                   help="constant payout rate")
    p.add_argument("--surface", action="store_true",
                   help="include the full node surface in the report")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("axioms", help="run the structural-law suite")
    p.add_argument("--gen", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_lattice_args(p, steps_default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("decompose",
                       help="round-trip a constructed supermartingale")
    p.add_argument("--gen", required=True)
    _add_payoff_args(p)
    _add_lattice_args(p, steps_default=16)
    p.add_argument("--div-rate", type=float, default=0.1,
                   help="payout rate of the constructed stream")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("probe", help="read driver values off a mechanism")
    p.add_argument("--gen", required=True)
    p.add_argument("--zbar", default="1.0", help="comma list of hedge levels")
    _add_lattice_args(p, steps_default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("recover",
                       help="tabulate the generating function of a hidden generator")
    p.add_argument("--gen-hidden", required=True)
    p.add_argument("--level", type=int, default=6, help="dyadic refinement level")
    p.add_argument("--points", default=None,
                   help="JSON file with [[y, z], ...] sample points")
    p.add_argument("--y-grid", default="-2,-1,0,1,2")
    p.add_argument("--z-grid", default="-2,-1,0,1,2")
    p.add_argument("--steps", type=int, default=0,
                   help="lattice steps (default 2^level)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("audit", help="domination audit of an option chain")
    p.add_argument("--chain", required=True, help="chain CSV path")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--vol", type=float, default=0.2,
                   help="volatility of the lattice underlying map")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("synth", help="write a synthetic chain CSV")
    p.add_argument("--s0", type=float, default=100.0)
    p.add_argument("--r", type=float, default=0.05)
    p.add_argument("--b", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--n-strikes", type=int, default=20)
    p.add_argument("--lo", type=float, default=80.0)
    p.add_argument("--hi", type=float, default=120.0)
    p.add_argument("--as-of-days", type=float, default=0.0)
    p.add_argument("--expiry-days", type=float, default=91.25)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ChainDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GmechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
