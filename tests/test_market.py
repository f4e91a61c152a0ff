"""Chain ingestion, synthesis, and the domination audit."""

import threading

import numpy as np
import pytest

from gmech import (
    BSMarketParams,
    EmptyChain,
    InvalidParams,
    InvariantError,
    OptionChain,
    ParseError,
    SchemaError,
    SchemeNotMonotone,
    bs_call,
    bs_put,
    build_grid,
    build_lattice,
    domination_generator,
    load_chain,
    run_domination_test,
    solve_terminal_batch,
    synth_chain,
)
from gmech import market

from util import BS_CALL_ATM, BS_CALL_OTM, BS_PUT_ATM, BS_PUT_ITM

PARAMS = BSMarketParams(r=0.05, b=0.08, sigma=0.2)


class TestClosedForm:
    def test_frozen_references(self):
        assert bs_call(100, 100, 0.05, 0.2, 1.0) == pytest.approx(
            BS_CALL_ATM, abs=1e-12)
        assert bs_put(100, 100, 0.05, 0.2, 1.0) == pytest.approx(
            BS_PUT_ATM, abs=1e-12)
        assert bs_call(100, 110, 0.03, 0.25, 0.5) == pytest.approx(
            BS_CALL_OTM, abs=1e-12)
        assert bs_put(95, 90, 0.01, 0.3, 0.25) == pytest.approx(
            BS_PUT_ITM, abs=1e-12)

    def test_degenerate_vol_limit(self):
        assert bs_call(100, 90, 0.0, 1e-12, 1.0) == pytest.approx(10.0, abs=1e-6)
        assert bs_call(100, 110, 0.0, 0.0, 1.0) == 0.0
        assert bs_put(100, 110, 0.0, 1e-12, 1.0) == pytest.approx(10.0, abs=1e-6)
        assert bs_put(100, 90, 0.0, 0.0, 1.0) == 0.0
        assert bs_put(90, 100, 0.05, 0.2, 0.0) == 10.0


class TestSynthChain:
    def test_put_call_parity_row_by_row(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(80, 120, 15), 0.0, 0.75)
        fwd = 100.0 - chain.strikes * np.exp(-PARAMS.r * 0.75)
        assert np.allclose(chain.call_mids - chain.put_mids, fwd,
                           atol=1e-10, rtol=0)

    def test_atm_value(self):
        chain = synth_chain(PARAMS, 100.0, [100.0], 0.0, 1.0)
        assert chain.call_mids[0] == pytest.approx(BS_CALL_ATM, abs=1e-12)

    def test_noise_keeps_prices_nonnegative(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(60, 140, 30), 0.0, 0.25,
                            seed=1, noise=5.0)
        assert np.all(chain.call_mids >= 0) and np.all(chain.put_mids >= 0)

    @pytest.mark.parametrize("name", ["s0", "as_of", "expiry", "noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_argument_is_named(self, name, value):
        # NaN noise used to read as no noise; an infinite s0 or expiry
        # surfaced as a chain invariant error
        kw = {"s0": 100.0, "as_of": 0.0, "expiry": 0.5, "noise": 0.0, name: value}
        with pytest.raises(InvalidParams, match=rf"^{name} must be finite, got {value}$"):
            synth_chain(PARAMS, strikes=[90.0, 110.0], seed=1, **kw)

    @pytest.mark.parametrize("strikes, k, shown", [
        ([-10.0, 35.0, 80.0], 0, "-10.0"), ([0.0, 60.0, 120.0], 0, "0.0"),
        ([90.0, float("nan")], 1, "nan"), ([90.0, float("inf")], 1, "inf"),
        ([120.0, 100.0, 80.0], 1, "100.0"), ([90.0, 100.0, 100.0], 2, "100.0")])
    def test_bad_strikes_are_named(self, strikes, k, shown, monkeypatch):
        # the strikes are checked before any closed-form price
        monkeypatch.setattr(market, "bs_call", None)
        with pytest.raises(InvalidParams, match=rf"^strikes must be finite, > 0 and strictly "
                                                rf"increasing; strike {k} is {shown}$"):
            synth_chain(PARAMS, 100.0, strikes, 0.0, 0.5)

    @pytest.mark.parametrize("kw, message", [
        ({"s0": 0.0}, r"s0 must be > 0, got 0\.0"),
        ({"s0": -5.0}, r"s0 must be > 0, got -5\.0"),
        ({"expiry": 0.0}, "expiry must lie after as_of")])
    def test_out_of_range_argument_is_named(self, kw, message):
        kw = {"s0": 100.0, "as_of": 0.0, "expiry": 0.5, **kw}
        with pytest.raises(InvalidParams, match=rf"^{message}$"):
            synth_chain(PARAMS, strikes=[90.0, 110.0], **kw)

    def test_negative_noise_is_rejected(self):
        with pytest.raises(InvalidParams, match=r"^noise must be >= 0, got -0\.5$"):
            synth_chain(PARAMS, 100.0, [90.0, 110.0], 0.0, 0.5, seed=1, noise=-0.5)


class TestChainValidation:
    def test_roundtrip_through_csv(self, tmp_path):
        chain = synth_chain(PARAMS, 100.0, [90.0, 100.0, 110.0], 10 / 365,
                            100 / 365)
        path = tmp_path / "chain.csv"
        chain.to_csv(str(path))
        back = load_chain(str(path))
        assert back.n_strikes == 3
        assert np.allclose(back.strikes, chain.strikes)
        assert np.allclose(back.call_mids, chain.call_mids)
        assert back.tau == pytest.approx(chain.tau, abs=1e-12)

    def test_duplicate_strike(self):
        with pytest.raises(InvariantError):
            OptionChain(0.0, 1.0, 100.0, [100.0, 100.0], [1.0, 1.0], [1.0, 1.0])

    def test_decreasing_strike(self):
        with pytest.raises(InvariantError):
            OptionChain(0.0, 1.0, 100.0, [110.0, 100.0], [1.0, 1.0], [1.0, 1.0])

    def test_negative_price(self):
        with pytest.raises(InvariantError):
            OptionChain(0.0, 1.0, 100.0, [100.0], [-1.0], [1.0])

    def test_expiry_before_as_of(self):
        with pytest.raises(InvariantError):
            OptionChain(1.0, 0.5, 100.0, [100.0], [1.0], [1.0])

    @pytest.mark.parametrize("underlying, calls, message", [
        (100.0, [1.0], "strike/call/put columns must align"),
        (0.0, [1.0, 1.0], "underlying must be > 0"),
        (-100.0, [1.0, 1.0], "underlying must be > 0")])
    def test_bad_columns_or_spot_are_named(self, underlying, calls, message):
        with pytest.raises(InvariantError, match=rf"^{message}$"):
            OptionChain(0.0, 1.0, underlying, [90.0, 100.0], calls, [1.0, 1.0])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match=r"blank\.csv: empty file, expected header$"):
            load_chain(str(path))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("as_of_days,expiry_days,underlying,strike,call_mid\n"
                        "0,30,100,90,12\n")
        with pytest.raises(SchemaError):
            load_chain(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "as_of_days,expiry_days,underlying,strike,call_mid,put_mid\n"
            "0,30,100,90,12,1\n"
            "0,30,100,95,oops,2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_chain(str(path))

    @pytest.mark.parametrize("column, text", [
        ("underlying", "nan"), ("underlying", "inf"), ("expiry_days", "inf"),
        ("as_of_days", "-inf"), ("strike", "nan"), ("put_mid", "inf")])
    def test_non_finite_field_is_a_parse_error(self, tmp_path, column, text):
        fields = {"as_of_days": "0", "expiry_days": "30", "underlying": "100",
                  "strike": "95", "call_mid": "9", "put_mid": "2"}
        path = tmp_path / "bad.csv"
        path.write_text(",".join(fields) + "\n0,30,100,90,12,1\n"
                        + ",".join({**fields, column: text}.values()) + "\n")
        with pytest.raises(ParseError, match=rf"line 3: column {column} is not finite: '{text}'$"):
            load_chain(str(path))

    @pytest.mark.parametrize("name", ["as_of", "expiry", "underlying"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalar(self, name, value):
        kw = {"as_of": 0.0, "expiry": 1.0, "underlying": 100.0, name: value}
        with pytest.raises(InvariantError, match=rf"^{name} must be finite, got {value}$"):
            OptionChain(**kw, strikes=[100.0], call_mids=[1.0], put_mids=[1.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "as_of_days,expiry_days,underlying,strike,call_mid,put_mid\n")
        with pytest.raises(EmptyChain):
            load_chain(str(path))

    def test_inconsistent_expiry(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "as_of_days,expiry_days,underlying,strike,call_mid,put_mid\n"
            "0,30,100,90,12,1\n"
            "0,60,100,95,9,2\n")
        with pytest.raises(InvariantError):
            load_chain(str(path))


def _pairs(m):
    return np.array([(i, j) for i in range(m) for j in range(m) if i != j]).T


def _terminal_spot(chain, n, vol):
    lat = build_lattice(build_grid(0.0, chain.tau, n))
    return chain.underlying * np.exp(vol * lat.node_values(n) - 0.5 * vol * vol * chain.tau)


def _family_terminals(chain, n, vol):
    """``(family, lhs, terminal rows)`` of the audit, in report order."""
    s = _terminal_spot(chain, n, vol)
    call = np.maximum(s[None, :] - chain.strikes[:, None], 0.0)
    put = np.maximum(chain.strikes[:, None] - s[None, :], 0.0)
    ii, jj = _pairs(chain.n_strikes)
    sides = (("call_call", chain.call_mids, call, chain.call_mids, call),
             ("put_put", chain.put_mids, put, chain.put_mids, put),
             ("call_put", chain.call_mids, call, chain.put_mids, put),
             ("put_call", chain.put_mids, put, chain.call_mids, call))
    return [(name, lm[ii] - rm[jj], lp[ii] - rp[jj]) for name, lm, lp, rm, rp in sides]


def _extremal_root(terminal, mu, dt):
    """Root value of one payoff row under ``y = m + mu (|y| + |z|) dt``,
    solved on each branch of the sign of ``y``."""
    y, sdt = np.asarray(terminal, dtype=float), np.sqrt(dt)
    while y.size > 1:
        up, down = y[1:], y[:-1]
        q = 0.5 * (up + down) + mu * np.abs(up - down) / (2.0 * sdt) * dt
        y = np.where(q >= 0.0, q / (1.0 - mu * dt), q / (1.0 + mu * dt))
    return float(y[0])


class TestDominationAudit:
    def test_noiseless_chain_is_clean(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(85, 115, 8), 0.0, 0.5)
        report = run_domination_test(chain, mu=0.5, n_steps=128,
                                     vol_for_lattice=PARAMS.sigma)
        assert report.total_violated == 0
        assert not report.anomalies
        assert report.total_tested == 4 * 8 * 7

    def test_counts_partition(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 5), 0.0, 0.5)
        report = run_domination_test(chain, mu=0.5, n_steps=64,
                                     vol_for_lattice=PARAMS.sigma)
        for count in report.families.values():
            assert count.tested == count.passed + count.violated

    def test_same_strike_pair_is_degenerate_for_every_row(self):
        # identical payoffs: spread 0 on the left, cap exactly 0 on the right
        chain = synth_chain(PARAMS, 100.0, np.linspace(85, 115, 12), 0.0, 0.5)
        lat = build_lattice(build_grid(0.0, chain.tau, 64))
        s = chain.underlying * np.exp(
            0.2 * lat.node_values(64) - 0.5 * 0.04 * chain.tau)
        for k in chain.strikes:
            pay = np.maximum(s - k, 0.0)
            cap = solve_terminal_batch(domination_generator(0.5),
                                       (pay - pay)[None, :], lat)
            assert cap[0] == 0.0
            pay = np.maximum(k - s, 0.0)
            cap = solve_terminal_batch(domination_generator(0.5),
                                       (pay - pay)[None, :], lat)
            assert cap[0] == 0.0

    def test_report_is_reproducible_bitwise(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 6), 0.0, 0.5)
        a = run_domination_test(chain, 0.5, 64, 0.2).as_dict()
        b = run_domination_test(chain, 0.5, 64, 0.2).as_dict()
        assert a == b

    def test_report_family_keys(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 6), 0.0, 0.5)
        families = run_domination_test(chain, 0.5, 64, 0.2).as_dict()["families"]
        assert list(families) == ["call_call", "put_put", "call_put", "put_call"]
        for counts in families.values():
            assert list(counts) == ["tested", "passed", "violated"]

    def test_corrupted_put_is_flagged(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 10), 0.0, 0.5)
        chain.put_mids[4] = chain.put_mids[5] + 1.0  # breaks put ordering
        report = run_domination_test(chain, 0.5, 32, 0.2)
        assert any(a["family"] == "put" and a["i"] == 4 for a in report.anomalies)

    def test_corrupted_call_is_flagged(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 10), 0.0, 0.5)
        chain.call_mids[7] = chain.call_mids[6] + 1.0  # breaks call ordering
        report = run_domination_test(chain, 0.5, 32, 0.2)
        assert any(a["family"] == "call" for a in report.anomalies)

    def test_monotone_guard(self):
        chain = synth_chain(PARAMS, 100.0, [100.0, 105.0], 0.0, 1.0)
        with pytest.raises(SchemeNotMonotone):
            run_domination_test(chain, mu=3.0, n_steps=4, vol_for_lattice=0.2)

    def test_empty_chain_guard(self):
        chain = synth_chain(PARAMS, 100.0, [100.0], 0.0, 1.0)
        chain.strikes = np.array([])
        chain.call_mids = np.array([])
        chain.put_mids = np.array([])
        with pytest.raises(EmptyChain):
            run_domination_test(chain, 0.5, 16, 0.2)

    def test_one_strike_chain_has_no_pair(self):
        chain = synth_chain(PARAMS, 100.0, [100.0], 0.0, 1.0)
        with pytest.raises(EmptyChain, match=r"^need at least 2 strikes, chain has 1: "
                                             r"no strike pair can be tested$"):
            run_domination_test(chain, 0.5, 16, 0.2)

    @pytest.mark.parametrize("vol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vol_is_named(self, vol):
        chain = synth_chain(PARAMS, 100.0, [100.0, 105.0], 0.0, 1.0)
        with pytest.raises(InvalidParams, match=rf"^vol_for_lattice must be finite, got {vol}$"):
            run_domination_test(chain, 0.5, 16, vol)

    @pytest.mark.parametrize("vol", [0.0, -0.2])
    def test_non_positive_vol_is_named(self, vol):
        chain = synth_chain(PARAMS, 100.0, [100.0, 105.0], 0.0, 1.0)
        with pytest.raises(InvalidParams, match=r"^vol_for_lattice must be > 0$"):
            run_domination_test(chain, 0.5, 16, vol)

    def test_families_are_priced_in_order_on_the_calling_thread(self, monkeypatch):
        chain = synth_chain(PARAMS, 100.0, np.linspace(90, 110, 6), 0.0, 0.5)
        calls, sums = [], []
        linear_root = market._linear_root

        def recording(g, terminal, lattice):
            calls.append((threading.get_ident(), terminal))
            return solve_terminal_batch(g, terminal, lattice)

        def recording_sum(rows, a, b, lattice):
            sums.append((rows, a, b))
            return linear_root(rows, a, b, lattice)

        monkeypatch.setattr(market, "solve_terminal_batch", recording)
        monkeypatch.setattr(market, "_linear_root", recording_sum)
        run_domination_test(chain, 0.5, 64, 0.2)
        # the kernel prices call_put, then put_call
        assert [ident for ident, _ in calls] == [threading.get_ident()] * 2
        want = _family_terminals(chain, 64, 0.2)
        assert [name for name, *_ in want] == list(market._FAMILIES)
        for (_, got), (_, _, terminal) in zip(calls, want[2:]):
            assert np.array_equal(got, terminal)
        # one sum per strike order prices that order's call_call rows, then its
        # put_put rows: the payoff differences up to the rounding of s - K
        ii, jj = _pairs(chain.n_strikes)
        tol = 2.0 * np.spacing(np.maximum(_terminal_spot(chain, 64, 0.2), chain.strikes[-1]))
        assert [b for *_, b in sums] == [0.5, -0.5]
        for rows, a, b in sums:
            pick = np.sign(jj - ii) == np.sign(b)
            diff = np.concatenate([want[0][2][pick], want[1][2][pick]])
            assert rows.shape == diff.shape
            assert np.all(np.abs(rows - diff) <= tol)
            assert np.array_equal(a, np.repeat([b, -b], np.count_nonzero(pick)))

    def test_wrong_way_node_is_named(self, monkeypatch):
        # a spot that falls from node 8 to node 9 turns the call_put row of
        # strikes 95 and 105 back there; the call_put guard runs first
        chain = synth_chain(PARAMS, 100.0, [95.0, 105.0], 0.0, 0.5)
        spot_map = market.make_underlying_map

        def bent(*args):
            def spot(b):
                s = spot_map(*args)(b)
                s[8], s[9] = 104.0, 96.0
                return s
            return spot

        monkeypatch.setattr(market, "make_underlying_map", bent)
        with pytest.raises(InvariantError, match=(
                r"^call_put pair \(0, 1\): payoff row leaves direction \+1 at node 9$")):
            run_domination_test(chain, 0.5, 16, 0.2)

    def test_call_put_row_that_turns_back_is_named(self, monkeypatch):
        # a spot that falls from node 15 to node 16, above the top strike: the
        # call_call and put_put rows are flat there, so only the call_put
        # direction guard sees it
        chain = synth_chain(PARAMS, 100.0, [95.0, 105.0], 0.0, 0.5)
        spot_map = market.make_underlying_map

        def bent(*args):
            def spot(b):
                s = spot_map(*args)(b)
                assert s[15] > 105.0
                s[15], s[16] = 170.0, 160.0
                return s
            return spot

        monkeypatch.setattr(market, "make_underlying_map", bent)
        with pytest.raises(InvariantError, match=(
                r"^call_put pair \(0, 1\): payoff row leaves direction \+1 at node 16$")):
            run_domination_test(chain, 0.5, 16, 0.2)

    def test_sign_and_direction_guards_name_the_node(self):
        # put_call rows may take either sign but must not rise across nodes;
        # call_call rows of a falling strike order must also stay <= 0
        ii, jj = np.array([0, 1]), np.array([1, 0])
        rows = np.array([[3.0, 1.0, -1.0, -1.0], [2.0, 2.0, -4.0, -3.0]])
        with pytest.raises(InvariantError, match=(
                r"^put_call pair \(1, 0\): payoff row leaves direction -1 at node 3$")):
            market._require_sign_pattern("put_call", rows, None, -1.0, ii, jj)
        market._require_sign_pattern("put_call", rows[:1], None, -1.0, ii, jj)
        with pytest.raises(InvariantError, match=(
                r"^call_call pair \(0, 1\): payoff row leaves sign -1 or "
                r"direction -1 at node 0$")):
            market._require_sign_pattern("call_call", rows[:1], -1.0, -1.0, ii, jj)
        market._require_sign_pattern("call_call", -rows[:1] - 1.0, -1.0, 1.0, ii, jj)

    def test_noisy_audit_matches_two_branch_recursion(self):
        chain = synth_chain(PARAMS, 100.0, np.linspace(85, 115, 8), 0.0, 0.5,
                            seed=5, noise=1.0)
        mu, n, vol = 0.5, 64, 0.2
        got = {(v["family"], v["i"], v["j"]): v
               for v in run_domination_test(chain, mu, n, vol).violations}
        assert len(got) > 5
        ii, jj = _pairs(chain.n_strikes)
        for name, lhs, terminal in _family_terminals(chain, n, vol):
            for k, row in enumerate(terminal):
                key, rhs = (name, int(ii[k]), int(jj[k])), _extremal_root(row, mu, chain.tau / n)
                if key in got:
                    assert abs(got[key]["lhs"] - lhs[k]) <= 1e-12
                    assert abs(got[key]["rhs"] - rhs) <= 1e-12
                # pairs within rounding of the boundary may land on either side
                gap, scale = lhs[k] - rhs - market.PRICE_TOL, 1.0 + abs(lhs[k]) + abs(rhs)
                assert abs(gap) <= 1e-9 * scale or (key in got) == (gap > 0), key
