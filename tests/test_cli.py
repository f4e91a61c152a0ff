"""Command surface: outputs, exit codes, and report determinism."""

import argparse
import importlib
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmech
from gmech import (
    BSMarketParams,
    DividendStream,
    TerminalClaim,
    as_mechanism,
    black_scholes_generator,
    build_grid,
    build_lattice,
    domination_generator,
    make_underlying_map,
    recover_generator,
    solve_bsde,
    synth_chain,
)
from gmech.analysis import grid_points
from gmech.cli import _emit as emit, main, parse_generator

from util import BS_CALL_ATM, random_lipschitz_generator


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPrice:
    def test_zero_generator_prices_walk_to_zero(self, capsys):
        code, out = run_cli(capsys, "price", "--gen", "zero",
                            "--payoff", "bm", "--steps", "4")
        assert code == 0
        assert json.loads(out)["y0"] == 0.0

    def test_hedge_only_closed_form(self, capsys):
        code, out = run_cli(capsys, "price", "--gen", "abs_z:0.1",
                            "--payoff", "linbm:2", "--t0", "0", "--T", "1",
                            "--steps", "32")
        assert code == 0
        assert json.loads(out)["y0"] == pytest.approx(0.2, abs=1e-12)

    def test_black_scholes_call(self, capsys):
        code, out = run_cli(capsys, "price",
                            "--gen", "bs:r=0.05,b=0.08,sigma=0.2",
                            "--payoff", "call:100", "--s0", "100",
                            "--T", "1", "--steps", "2000")
        assert code == 0
        assert json.loads(out)["y0"] == pytest.approx(BS_CALL_ATM, abs=0.05)

    def test_unknown_generator_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "price", "--gen", "nope",
                          "--payoff", "bm", "--steps", "4")
        assert code == 2

    def test_call_payoff_needs_spot(self, capsys):
        code, _ = run_cli(capsys, "price", "--gen", "zero",
                          "--payoff", "call:100", "--steps", "4")
        assert code == 2

    @pytest.mark.parametrize("gen, spot, missing", [
        ("zero", [], "--s0 and --vol (or a bs:... generator)"),
        ("bs:r=0.05,b=0.08,sigma=0.2", [], "--s0"),
        ("zero", ["--s0", "100"], "--vol (or a bs:... generator)"),
    ], ids=["both", "spot", "vol"])
    def test_call_payoff_names_what_is_missing(self, capsys, gen, spot, missing):
        code = main(["price", "--gen", gen, "--payoff", "call:100", "--steps", "4", *spot])
        assert code == 2
        assert capsys.readouterr().err == f"error: call/put payoffs need {missing}\n"

    @pytest.mark.parametrize("spec, missing", [
        ("b=0.08,sigma=0.2", "r"), ("r=0.05,sigma=0.2", "b"),
        ("r=0.05,b=0.08", "sigma"), ("r=0.05", "b, sigma"),
    ])
    def test_bs_spec_names_every_missing_key(self, capsys, spec, missing):
        code = main(["price", "--gen", f"bs:{spec}", "--payoff", "bm", "--steps", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bs: spec needs r, b and sigma; missing {missing}\n")

    @pytest.mark.parametrize("spec, message", [
        ("r=0.05,b,sigma=0.2", "bs: spec item 'b' is not key=value"),
        ("r=0.05,b=0.1,sigma=0.2,q=1", "bs: spec has unknown key 'q'; keys are r, b and sigma"),
        ("r=0.05,b=0.1,sigma=0.2,r=0.07", "bs: spec repeats key 'r'"),
    ], ids=["not-key-value", "unknown-key", "repeated-key"])
    def test_bs_spec_names_the_bad_item(self, capsys, spec, message):
        # these exited 2 with Python's own dict message, or priced silently
        # without q or with the last r
        code = main(["price", "--gen", f"bs:{spec}", "--payoff", "bm", "--steps", "4"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, spec, key, text", [
        ("--gen", "gmu:abc", "mu", "abc"),
        ("--gen", "gmu:", "mu", ""),
        ("--gen", "abs_z:x", "coef", "x"),
        ("--gen", "bs:r=abc,b=0.1,sigma=0.2", "r", "abc"),
        ("--gen", "bs:r=0.05,b=0.1,sigma=2O", "sigma", "2O"),
        ("--payoff", "call:abc", "strike", "abc"),
        ("--payoff", "put:1e", "strike", "1e"),
        ("--payoff", "const:x", "constant", "x"),
        ("--payoff", "linbm:two", "zbar", "two"),
    ])
    def test_spec_value_that_is_not_a_number_is_named(self, capsys, flag, spec, key, text):
        # these exited 2 with Python's bare "could not convert string to float"
        argv = {"--gen": "zero", "--payoff": "bm", flag: spec}
        code = main(["price", "--gen", argv["--gen"], "--payoff", argv["--payoff"],
                     "--s0", "100", "--vol", "0.2", "--steps", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: spec {spec!r}: {key} must be a number, got {text!r}\n")

    def test_bs_parameters_are_used_as_typed(self, capsys):
        # sigma has more digits than the generator's display name keeps
        code, out = run_cli(capsys, "price",
                            "--gen", "bs:r=0.05,b=0.08,sigma=0.123456789",
                            "--payoff", "call:100", "--s0", "100",
                            "--steps", "200")
        assert code == 0
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.123456789)
        to_price = make_underlying_map(100.0, params.sigma, 1.0, params.b)
        claim = TerminalClaim(lambda b: np.maximum(to_price(b) - 100.0, 0.0))
        lattice = build_lattice(build_grid(0.0, 1.0, 200))
        want = solve_bsde(black_scholes_generator(params), claim, None,
                          lattice).y.at(0)[0]
        assert json.loads(out)["y0"] == want
        assert want == pytest.approx(7.627153511497915, abs=1e-12)

    def test_surface_is_the_library_surface(self, capsys):
        code, out = run_cli(capsys, "price", "--gen", "gmu:0.5", "--payoff", "bm",
                            "--steps", "8", "--div-rate", "0.1", "--surface")
        assert code == 0
        report = json.loads(out)
        lattice = build_lattice(build_grid(0.0, 1.0, 8))
        walk = TerminalClaim(lambda b: np.asarray(b, dtype=float))
        want = solve_bsde(domination_generator(0.5), walk,
                          DividendStream.from_rate(lattice, 0.1), lattice).y
        assert len(report["surface"]) == 9
        for i, nodes in enumerate(report["surface"]):
            assert np.array(nodes).tobytes() == want.at(i).tobytes(), i
        assert report["surface"][0][0] == report["y0"]

    def test_put_payoff_is_the_library_put(self, capsys):
        code, out = run_cli(capsys, "price", "--gen", "gmu:0.5", "--payoff", "put:105",
                            "--s0", "100", "--vol", "0.2", "--steps", "64")
        assert code == 0
        to_price = make_underlying_map(100.0, 0.2, 1.0)
        put = TerminalClaim(lambda b: np.maximum(105.0 - to_price(b), 0.0))
        lattice = build_lattice(build_grid(0.0, 1.0, 64))
        want = solve_bsde(domination_generator(0.5), put, None, lattice).y.at(0)[0]
        assert json.loads(out)["y0"] == want > 0.0

    def test_unknown_payoff_is_named(self, capsys):
        code = main(["price", "--gen", "zero", "--payoff", "digital:100", "--steps", "4"])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown payoff spec 'digital:100'\n"

    def test_non_finite_claim_is_numerical_failure(self, capsys):
        code, _ = run_cli(capsys, "price", "--gen", "zero",
                          "--payoff", "const:nan", "--steps", "4")
        assert code == 1

    @pytest.mark.parametrize("spec, name", [("gmu:nan", "mu"), ("gmu:inf", "mu"),
                                            ("abs_z:nan", "coef"), ("abs_z:-inf", "coef")])
    def test_non_finite_driver_constant_is_named(self, capsys, spec, name):
        code = main(["price", "--gen", spec, "--payoff", "bm", "--steps", "8"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite, got ")

    @pytest.mark.parametrize("command, rate", [("price", "nan"), ("price", "-inf"),
                                               ("decompose", "inf")])
    def test_non_finite_payout_rate_is_named(self, capsys, command, rate):
        # a NaN rate came back as "price is nan at step 3, node 0"; an inf one
        # leaked a numpy RuntimeWarning from decompose
        code = main([command, "--gen", "gmu:0.3", "--payoff", "bm", "--steps", "4",
                     f"--div-rate={rate}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: rate must be finite, got {rate}\n"

    @pytest.mark.parametrize("spot, message", [
        ("-100", "s0 must be > 0, got -100.0"), ("0", "s0 must be > 0, got 0.0"),
        ("nan", "s0 must be finite, got nan"), ("-inf", "s0 must be finite, got -inf")])
    def test_non_positive_spot_is_named_before_any_solve(self, capsys, monkeypatch, spot,
                                                         message):
        # a spot of -100 priced the call at 0.0 and exited 0
        monkeypatch.setattr("gmech.cli.solve_bsde", None)
        code = main(["price", "--gen", "zero", "--payoff", "call:100", f"--s0={spot}",
                     "--vol", "0.2", "--steps", "8"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, message, payoff", [
        *((flag, message, payoff) for flag, message in [
            ("--drift=-inf", "drift must be finite, got -inf"),
            ("--drift=nan", "drift must be finite, got nan"),
            ("--vol=inf", "sigma must be finite, got inf"),
            ("--vol=1e200", "(drift - sigma^2/2) * horizon must be finite, got -inf")]
          for payoff in ("call:100", "put:100")),
        # only the call sees the stock price overflow
        ("--drift=1e308", "claim 'call:100' is inf at step 4, node 0", "call:100")])
    def test_non_finite_underlying_is_named(self, capsys, payoff, flag, message):
        # a drift of -inf priced the call at 0.0 and the put at 100.0 and exited 0;
        # a vol of inf leaked a numpy RuntimeWarning; a vol of 1e200 overflowed
        # sigma^2 and priced the put at 100.0; a drift of 1e308 overflowed exp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the last --vol wins
            code = main(["price", "--gen", "zero", "--payoff", payoff, "--s0", "100",
                         "--vol", "0.2", flag, "--steps", "4"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_solver_failure_exit_code(self, capsys):
        # mu * dt >= 1 on a 2-step unit grid
        code, _ = run_cli(capsys, "price", "--gen", "gmu:2.5",
                          "--payoff", "bm", "--steps", "2")
        assert code == 1


class TestAxioms:
    def test_clean_mechanism_exits_zero(self, capsys):
        code, out = run_cli(capsys, "axioms", "--gen", "gmu:0.5",
                            "--samples", "200", "--seed", "7", "--steps", "8")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert set(report["laws"]) == {
            "monotonicity", "identity", "time_consistency", "locality",
            "splitting", "zero_preservation", "locality_with_zero"}

    def test_non_monotone_scheme_exits_one(self, capsys):
        code, out = run_cli(capsys, "axioms", "--gen", "abs_z:3.0",
                            "--samples", "60", "--seed", "1", "--steps", "4")
        assert code == 1
        assert json.loads(out)["laws"]["monotonicity"]["passed"] is False

    def test_reports_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["axioms", "--gen", "gmu:0.4", "--samples", "20",
                         "--seed", "3", "--steps", "8",
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestDecomposeProbeRecover:
    def test_decompose_round_trip(self, capsys):
        code, out = run_cli(capsys, "decompose", "--gen", "gmu:0.3",
                            "--payoff", "bm", "--steps", "16",
                            "--div-rate", "0.1")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["increasing"]

    def test_probe_values(self, capsys):
        code, out = run_cli(capsys, "probe", "--gen", "abs_z:0.3",
                            "--zbar", "1,2", "--steps", "32")
        assert code == 0
        probes = json.loads(out)["probes"]
        assert probes["1"] == pytest.approx(0.3, abs=1e-12)
        assert probes["2"] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("zbar, message", [
        ("1,1.0000001,1", "--zbar items 1 (1.0) and 2 (1.0000001) both print as 1"),
        ("0.5,2,0.5", "--zbar items 1 (0.5) and 3 (0.5) both print as 0.5"),
        ("1e-7,1.0000001e-7", "--zbar items 1 (1e-07) and 2 (1.0000001e-07) both print as 1e-07"),
    ])
    def test_probe_levels_that_print_alike_are_named(self, capsys, monkeypatch, zbar,
                                                     message):
        # the report is keyed by each level as printed: the last level of a
        # key overwrote the others, and the command exited 0
        monkeypatch.setattr("gmech.cli.z_probe", None)
        assert main(["probe", "--gen", "gmu:0.5", f"--zbar={zbar}", "--steps", "8"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # every one-step mean overflows: a NaN or inf, not a supermartingale verdict
        ("decompose --gen zero --payoff const:1e308 --steps 4",
         "one-step mean is inf at step 0, node 0"),
        # the probe's one-step mean overflows: a NaN or inf, not an envelope verdict
        ("recover --gen-hidden zero --level 2 --y-grid=1e308,-1e308 --z-grid 0",
         "probe (y=1e+308, z=0) one-step mean is inf at step 0, node 0"),
        # the payoff and the probe row overflow before the kernel
        ("decompose --gen zero --payoff linbm:1e308 --steps 4",
         "claim 'linbm:1e308' is -inf at step 4, node 0"),
        ("probe --gen zero --zbar 1e308", "terminal value is -inf at step 64, row 0, node 0"),
    ], ids=["decompose-mean", "recover-probe-mean", "decompose-payoff", "probe-row"])
    def test_overflow_is_named_without_a_warning(self, capsys, argv, message):
        # one error line: no numpy RuntimeWarning, which would be a traceback here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(shlex.split(argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_recover_json(self, capsys):
        # leading-dash grid values must use the --opt=value form
        code, out = run_cli(capsys, "recover", "--gen-hidden", "abs_z:0.3",
                            "--level", "5", "--y-grid", "0,1",
                            "--z-grid=-1,0,1")
        assert code == 0
        report = json.loads(out)
        assert report["certificate_ok"] is True
        by_point = {(r["y"], r["z"]): r["g"] for r in report["rows"]
                    if r["t"] == 0.0}
        assert by_point[(1.0, 1.0)] == pytest.approx(0.3, abs=1e-9)
        assert by_point[(0.0, 0.0)] == pytest.approx(0.0, abs=1e-12)

    def test_recover_extremal_driver_on_multi_step_intervals(self, capsys):
        # 64 steps at level 4: each dyadic interval spans four lattice steps
        code, out = run_cli(capsys, "recover", "--gen-hidden", "gmu:0.5",
                            "--level", "4", "--steps", "64")
        assert code == 0
        report = json.loads(out)
        assert report["certificate_ok"] is True
        assert max(abs(r["g"] - 0.5 * (abs(r["y"]) + abs(r["z"])))
                   for r in report["rows"]) <= 1e-12

    @pytest.mark.parametrize("spec", ["gmu:0.5", "abs_z:0.3", "random"])
    def test_recover_certificate_is_the_library_s(self, capsys, monkeypatch, spec):
        # the report's certificate_ok and the exit code read the recovery's own
        # certificate; a random driver's ratio sits O(dt) above its mu at 64 steps
        gen = (random_lipschitz_generator(np.random.default_rng(202)) if spec == "random"
               else parse_generator(spec))
        monkeypatch.setattr("gmech.cli.parse_generator", lambda _: gen)
        code, out = run_cli(capsys, "recover", "--gen-hidden", spec, "--level", "6")
        lattice = build_lattice(build_grid(0.0, 1.0, 64))
        grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
        ok = recover_generator(as_mechanism(gen, lattice), 6, grid_points(grid, grid),
                               lattice).certificate_ok()
        assert ok is (spec != "random")
        assert json.loads(out)["certificate_ok"] is ok
        assert code == (0 if ok else 1)

    def test_recover_csv_header(self, capsys):
        code, out = run_cli(capsys, "recover", "--gen-hidden", "zero",
                            "--level", "3", "--y-grid", "0", "--z-grid", "1",
                            "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "t,y,z,g"

    @pytest.mark.parametrize("steps", [[], ["--steps", "64"]], ids=["default", "64"])
    def test_recover_negative_level_is_named(self, capsys, steps):
        code = main(["recover", "--gen-hidden", "zero", "--level", "-1", *steps])
        assert code == 1
        assert capsys.readouterr().err == "error: level must be >= 0, got -1\n"

    def test_recover_has_no_times_option(self, capsys):
        code = main(["recover", "--gen-hidden", "zero", "--level", "2", "--times", "0"])
        assert code == 2
        assert "unrecognized arguments: --times" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["probe", "--gen", "gmu:0.5", "--zbar", "0.5,abc"],
         "--zbar item 2 must be a number, got 'abc'"),
        (["recover", "--gen-hidden", "gmu:0.5", "--level", "2", "--y-grid", "1,x"],
         "--y-grid item 2 must be a number, got 'x'"),
        (["recover", "--gen-hidden", "gmu:0.5", "--level", "2", "--z-grid", "1,,2"],
         "--z-grid item 2 must be a number, got ''"),
    ])
    def test_list_item_that_is_not_a_number_is_named(self, capsys, argv, message):
        # these exited 2 with Python's bare "could not convert string to float"
        assert main(argv + ["--steps", "8"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["probe", "--gen", "gmu:0.5", "--zbar", "0.5,nan"],
         "--zbar item 2 must be finite, got nan"),
        (["recover", "--gen-hidden", "gmu:0.5", "--level", "2", "--y-grid", "inf,1"],
         "--y-grid item 1 must be finite, got inf"),
        (["recover", "--gen-hidden", "gmu:0.5", "--level", "2", "--z-grid=1,-inf"],
         "--z-grid item 2 must be finite, got -inf"),
    ])
    def test_non_finite_list_item_is_named_before_any_solve(self, capsys, argv, message):
        # these reached the solve and failed there on a NaN terminal value,
        # some after a numpy RuntimeWarning
        assert main(argv + ["--steps", "8"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, code, message", [
        ('{"y": 1}', 2, "--points must hold a list of [y, z] pairs, got {'y': 1}"),
        ("[[1, 2, 3]]", 2, "--points entry 1 must be a [y, z] pair, got [1, 2, 3]"),
        ("[[0, 0], 1]", 2, "--points entry 2 must be a [y, z] pair, got 1"),
        ('[["abc", 1]]', 2, "--points entry 1 (y) must be a number, got 'abc'"),
        ("[[1, NaN]]", 1, "--points entry 1 (z) must be finite, got nan"),
        ("[[-Infinity, 0]]", 1, "--points entry 1 (y) must be finite, got -inf"),
    ])
    def test_bad_points_entry_is_named(self, capsys, tmp_path, text, code, message):
        # these exited 2 with "too many values to unpack", raised a TypeError
        # traceback or failed in the solve on a NaN terminal value
        points = tmp_path / "points.json"
        points.write_text(text)
        assert main(["recover", "--gen-hidden", "gmu:0.5", "--level", "2",
                     "--points", str(points)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_recover_points_file(self, capsys, tmp_path):
        points = tmp_path / "grid.json"
        points.write_text(json.dumps([[1.0, 1.0], [0.0, 0.0]]))
        code, out = run_cli(capsys, "recover", "--gen-hidden", "abs_z:0.3",
                            "--level", "4", "--points", str(points))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert any(r["y"] == 1.0 and abs(r["g"] - 0.3) < 1e-9 for r in rows)


class TestAuditAndSynth:
    @pytest.fixture
    def chain_csv(self, tmp_path):
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        chain = synth_chain(params, 100.0, np.linspace(90, 110, 6), 0.0, 0.25)
        path = tmp_path / "chain.csv"
        chain.to_csv(str(path))
        return str(path)

    def test_clean_audit_exits_zero(self, capsys, chain_csv):
        code, out = run_cli(capsys, "audit", "--chain", chain_csv,
                            "--mu", "0.5", "--steps", "64", "--vol", "0.2")
        assert code == 0
        report = json.loads(out)
        assert report["total_violated"] == 0
        assert report["total_tested"] == 4 * 6 * 5

    @pytest.mark.parametrize("vol", ["nan", "inf"])
    def test_non_finite_vol_is_named(self, capsys, chain_csv, vol):
        code = main(["audit", "--chain", chain_csv, "--mu", "0.5", "--steps", "16",
                     "--vol", vol])
        assert code == 1
        assert capsys.readouterr().err == f"error: vol_for_lattice must be finite, got {vol}\n"

    @pytest.mark.parametrize("column, text", [
        ("underlying", "nan"), ("underlying", "inf"), ("expiry_days", "inf")])
    def test_non_finite_chain_field_is_data_error(self, capsys, chain_csv, column, text):
        with open(chain_csv) as fh:
            header, first, *rest = fh.read().splitlines()
        fields = first.split(",")
        fields[header.split(",").index(column)] = text
        with open(chain_csv, "w") as fh:
            fh.write("\n".join([header, ",".join(fields), *rest]) + "\n")
        code = main(["audit", "--chain", chain_csv, "--mu", "0.5", "--steps", "16",
                     "--vol", "0.2"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {chain_csv}: line 2: column {column} is not finite: '{text}'\n")

    def test_non_finite_mu_is_named(self, capsys, chain_csv):
        code = main(["audit", "--chain", chain_csv, "--mu", "nan", "--steps", "16",
                     "--vol", "0.2"])
        assert code == 1
        assert capsys.readouterr().err == "error: mu must be finite, got nan\n"

    def test_missing_file_is_data_error(self, capsys):
        code, _ = run_cli(capsys, "audit", "--chain", "/nonexistent.csv",
                          "--mu", "0.5")
        assert code == 3

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,chain\n1,2,3\n")
        code, _ = run_cli(capsys, "audit", "--chain", str(path), "--mu", "0.5")
        assert code == 3

    def test_corrupted_chain_exits_one(self, capsys, tmp_path):
        params = BSMarketParams(r=0.05, b=0.08, sigma=0.2)
        chain = synth_chain(params, 100.0, np.linspace(90, 110, 6), 0.0, 0.25)
        chain.put_mids[2] = chain.put_mids[3] + 1.0
        path = tmp_path / "bad_chain.csv"
        chain.to_csv(str(path))
        code, out = run_cli(capsys, "audit", "--chain", str(path),
                            "--mu", "0.5", "--steps", "32", "--vol", "0.2")
        assert code == 1
        assert json.loads(out)["anomalies"]

    @pytest.mark.parametrize("flag, value, name, shown", [
        ("--noise", "nan", "noise", "nan"), ("--noise", "inf", "noise", "inf"),
        ("--s0", "inf", "s0", "inf"), ("--s0", "nan", "s0", "nan"),
        ("--as-of-days", "nan", "as_of", "nan"), ("--expiry-days", "inf", "expiry", "inf"),
        # a non-finite strike bound was a usage error (exit 2)
        ("--lo", "inf", "--lo", "inf"), ("--lo", "nan", "--lo", "nan"),
        ("--hi", "inf", "--hi", "inf")])
    def test_non_finite_synth_argument_is_named(self, capsys, tmp_path, flag, value, name,
                                                shown):
        path = tmp_path / "chain.csv"
        code = main(["synth", "--n-strikes", "3", flag, value, "--out", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {name} must be finite, got {shown}\n"
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["axioms", "--gen", "gmu:0.5", "--seed", "-1"],
        ["synth", "--noise", "0.5", "--seed", "-1", "--out", "chain.csv"]], ids=["axioms", "synth"])
    def test_negative_seed_is_named(self, capsys, tmp_path, monkeypatch, argv):
        # numpy's "expected non-negative integer" exited 2; a bad seed exits 1, as
        # --samples 0 does, and synth writes no chain
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "chain.csv").exists()

    def test_negative_synth_noise_is_named(self, capsys, tmp_path):
        code = main(["synth", "--noise", "-1", "--out", str(tmp_path / "chain.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: noise must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_synth_without_strikes_is_named(self, capsys, tmp_path, count):
        # 0 wrote a header-only chain that the audit then rejected (exit 3)
        path = tmp_path / "chain.csv"
        assert main(["synth", "--n-strikes", count, "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: --n-strikes must be >= 1, got {count}\n"
        assert not path.exists()

    @pytest.mark.parametrize("argv, err", [
        # a bad range is a usage error named before any strike is priced
        (["--lo", "-10", "--hi", "80"], "--lo must be > 0, got -10.0"),
        (["--lo", "0"], "--lo must be > 0, got 0.0"),
        (["--lo", "-0"], "--lo must be > 0, got -0.0"),
        (["--lo", "120", "--hi", "80"], "--lo 120.0 and --hi 80.0 do not span "
                                        "3 strictly increasing strikes"),
        (["--lo", "90", "--hi", "90"], "--lo 90.0 and --hi 90.0 do not span "
                                       "3 strictly increasing strikes"),
        # above --lo, but by too little for five distinct strikes
        (["--n-strikes", "5", "--lo", "80", "--hi", "80.00000000000003"],
         "--lo 80.0 and --hi 80.00000000000003 do not span 5 strictly increasing strikes")])
    def test_bad_synth_strike_range_is_named(self, capsys, tmp_path, argv, err):
        path = tmp_path / "chain.csv"
        assert main(["synth", "--n-strikes", "3", *argv, "--out", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not path.exists()

    def test_one_strike_chain_does_not_audit(self, capsys, tmp_path):
        # synth may write one strike, but the audit has no pair to test in it
        path = tmp_path / "chain.csv"
        assert main(["synth", "--n-strikes", "1", "--lo", "120", "--hi", "80",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "audit.json"
        assert main(["audit", "--chain", str(path), "--mu", "0.5", "--steps", "32",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("error: need at least 2 strikes, chain has 1: "
                                           "no strike pair can be tested\n")
        assert not out.exists()

    def test_synth_then_audit_csv_format(self, capsys, tmp_path):
        path = tmp_path / "chain.csv"
        assert main(["synth", "--n-strikes", "5", "--lo", "95", "--hi", "105",
                     "--expiry-days", "60", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "audit", "--chain", str(path),
                            "--mu", "0.5", "--steps", "32", "--vol", "0.2",
                            "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "family,tested,passed,violated"


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_commands():
    """The commands of the fenced block under README's "## CLI" heading."""
    block = re.search(r"^## CLI\n+```\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # synth writes chain.csv into the working directory; audit reads it back
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    names = [argv[1] for argv in commands]
    assert names.index("synth") < names.index("audit")
    for argv in commands:
        assert argv[0] == "gmech"
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()


def test_readme_quickstart_runs(capsys):
    block = re.search(r"^## Quickstart\n+```python\n(.*?)^```", README.read_text(),
                      re.S | re.M).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[0]) == pytest.approx(0.6, abs=1e-12)  # g(2) * horizon


def test_readme_thresholds_match_the_code():
    # every row names a constant that holds its value, and every module-level
    # *_TOL and *_SLACK has a row
    table = re.search(r"^### Thresholds\n(.*?)(?=^#|\Z)", README.read_text(),
                      re.S | re.M).group(1)
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]+)`", table, re.M)
    assert rows
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"gmech.{module}"), name) == float(value), name
    declared = {(path.stem, name) for path in Path(gmech.__file__).parent.glob("*.py")
                for name in re.findall(r"^(_?[A-Z][A-Z0-9_]*_(?:TOL|SLACK)) =",
                                       path.read_text(), re.M)}
    assert declared and declared <= {(module, name) for module, name, _ in rows}


# -- JSON layout -----------------------------------------------------------------

_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                   1.1e-308, -2.5e-310, 1e308, 1 / 3, -1e16, 0.1]
_STRINGS = ["", "plain", "é", "☃ snow", "line\nbreak", 'quote"', "back\\slash",
            "tab\there", "\x00\x1f", "%s", "%(g)s %%", "\ud800", "{}", "\U0001f600"]


def _random_float(rng):
    if rng.random() < 0.3:
        return _SPECIAL_FLOATS[rng.integers(len(_SPECIAL_FLOATS))]
    return float(rng.standard_normal()) * 10.0 ** int(rng.integers(-320, 309))


def _random_scalar(rng):
    pick = rng.integers(8)
    if pick == 0:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 25))
    if pick == 1:
        return bool(rng.integers(2))
    if pick == 2:
        return None
    if pick == 3:
        return _STRINGS[rng.integers(len(_STRINGS))]
    if pick == 4:
        return np.float64(_random_float(rng))
    return _random_float(rng)


def _random_key(rng):
    return _STRINGS[rng.integers(len(_STRINGS))] + str(rng.integers(100))


def _random_rows(rng, depth):
    """A table of flat float rows sharing keys, some rows spoilt."""
    keys = [_random_key(rng) for _ in range(rng.integers(1, 5))]
    odd = [0.0, 0.005, 0.05][rng.integers(3)]
    rows = [{k: _random_float(rng) if rng.random() < odd else float(rng.standard_normal())
             for k in keys} for _ in range(rng.integers(0, 150))]
    for row in rows:
        spoil = rng.integers(int(4 / odd)) if odd else -1
        if spoil == 0:
            row.pop(keys[0])
        elif spoil == 1:
            row[_random_key(rng)] = 1.5
        elif spoil == 2:
            row[keys[-1]] = _random_scalar(rng)
        elif spoil == 3:
            row[keys[0]] = _random_value(rng, depth + 1)
    if rows and rng.integers(10) == 0:
        rows[rng.integers(len(rows))] = _random_value(rng, depth + 1)
    return rows


def _random_value(rng, depth=0):
    pick = rng.integers(7) if depth < 4 else 0
    if pick == 0:
        return _random_scalar(rng)
    if pick == 1:
        return _random_rows(rng, depth)
    if pick == 2:
        return [_random_scalar(rng) for _ in range(rng.integers(0, 6))]
    if pick == 3:
        # keys that are not str, of one type so that they sort
        make = [lambda: int(rng.integers(-50, 50)), lambda: _random_float(rng),
                lambda: bool(rng.integers(2))][rng.integers(3)]
        return {make(): _random_value(rng, depth + 1) for _ in range(rng.integers(0, 4))}
    items = [_random_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if pick == 4:
        return items
    if pick == 5:
        return tuple(items)
    return {_random_key(rng): v for v in items}


class TestJsonReports:
    """Every JSON report is ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, byte for byte."""

    @staticmethod
    def assert_stdlib_layout(path, payload):
        assert Path(path).read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_payloads(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "report.json"
        for _ in range(10):
            payload = {_random_key(rng): _random_value(rng) for _ in range(rng.integers(0, 6))}
            emit(argparse.Namespace(out=str(path)), payload)
            self.assert_stdlib_layout(path, payload)

    @pytest.fixture
    def noisy_chain(self, tmp_path):
        path = tmp_path / "noisy.csv"
        assert main(["synth", "--out", str(path), "--noise", "0.5", "--seed", "7"]) == 0
        return str(path)

    @pytest.fixture
    def points(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[0.5, 1.0], [-1.0, 0.25], [2.0, -0.75]]")
        return str(path)

    @pytest.mark.parametrize("argv", [
        "recover --gen-hidden gmu:0.3 --level 4",
        "recover --gen-hidden gmu:0.3 --level 4 --points {points}",
        "price --gen gmu:0.5 --payoff put:100 --s0 100 --vol 0.2 --steps 16 --surface",
        "axioms --gen gmu:0.3 --seed 7",
        "probe --gen gmu:0.3 --zbar 1,2,0.5",
        "audit --chain {noisy_chain} --steps 64 --mu 0.5 --vol 0.2",
    ])
    def test_real_reports(self, tmp_path, monkeypatch, capsys, points, noisy_chain, argv):
        payloads = []
        monkeypatch.setattr("gmech.cli._emit",
                            lambda args, payload: (payloads.append(payload), emit(args, payload)))
        path = tmp_path / "report.json"
        args = shlex.split(argv.format(points=points, noisy_chain=noisy_chain))
        assert main(args + ["--out", str(path)]) in (0, 1)
        assert capsys.readouterr().err == ""
        self.assert_stdlib_layout(path, *payloads)
