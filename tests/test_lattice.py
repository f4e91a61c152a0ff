"""Grid and lattice construction, one-step operators, and their laws."""

import numpy as np
import pytest

from gmech import (
    AdaptedProcess,
    InvalidParams,
    NonPositiveHorizon,
    StepOutOfRange,
    ZeroSteps,
    build_grid,
    build_lattice,
    zero_generator,
    solve_bsde,
)

from gmech.lattice import one_step_mz

from util import binomial_expectation, random_pwl_claim


class TestGrid:
    def test_basic(self):
        grid = build_grid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert grid.time(2) == 0.5
        assert grid.time(4) == 1.0

    def test_zero_steps(self):
        with pytest.raises(ZeroSteps):
            build_grid(0.0, 1.0, 0)

    def test_non_positive_horizon(self):
        with pytest.raises(NonPositiveHorizon):
            build_grid(0.5, 0.5, 10)
        with pytest.raises(NonPositiveHorizon):
            build_grid(1.0, 0.5, 10)

    @pytest.mark.parametrize("t0, T", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_horizon_is_named(self, t0, T):
        with pytest.raises(InvalidParams, match=rf"^t0 and T must be finite, got t0={t0}, T={T}$"):
            build_grid(t0, T, 4)

    def test_times_increasing_and_exact_endpoint(self):
        for n in (1, 3, 7, 100):
            grid = build_grid(0.25, 2.0, n)
            ts = np.array([grid.time(i) for i in range(n + 1)])
            assert np.all(np.diff(ts) > 0)
            assert ts[0] == 0.25 and ts[-1] == 2.0
            assert grid.time(n) == 2.0


class TestLattice:
    def test_node_formula(self, lat4):
        assert lat4.node_values(2)[0] == -1.0
        assert lat4.node_values(2)[1] == 0.0
        assert lat4.node_values(4)[4] == 2.0
        assert lat4.node_values(0)[0] == 0.0

    @pytest.mark.parametrize("step", [-1, 9])
    def test_step_off_the_grid_raises(self, lat8, step):
        with pytest.raises(StepOutOfRange, match=rf"^step {step} outside \[0, 8\]$"):
            lat8.grid.time(step)
        with pytest.raises(StepOutOfRange, match=rf"^step {step} outside \[0, 8\]$"):
            lat8.node_values(step)

    def test_step_sizes(self, lat8):
        for i in range(9):
            assert lat8.node_values(i).shape == (i + 1,)

    def test_node_index_inverts_values(self, lat8):
        for i in (0, 3, 8):
            vals = lat8.node_values(i)
            assert np.array_equal(lat8.node_index(i, vals), np.arange(i + 1))

    def test_increment_moments(self, lat8):
        # one-step increments are +/- sqrt(dt): mean 0 exactly, second moment
        # dt up to the single rounding of the square
        up, dn = lat8.sqrt_dt, -lat8.sqrt_dt
        assert 0.5 * (up + dn) == 0.0
        assert 0.5 * (up * up + dn * dn) == pytest.approx(lat8.dt, abs=1e-16)


def _m(p, i):
    """One-step conditional expectation of the step ``i + 1`` slice of ``p``."""
    return one_step_mz(p.at(i + 1), p.lattice.sqrt_dt)[0]


def _z(p, i):
    """Martingale-increment coefficient of the step ``i + 1`` slice of ``p``."""
    return one_step_mz(p.at(i + 1), p.lattice.sqrt_dt)[1]


class TestOneStepOperators:
    def test_expectation_of_constant(self, lat4):
        p = AdaptedProcess(lat4, 0, [np.full(i + 1, 3.5) for i in range(5)])
        assert np.array_equal(_m(p, 2), np.full(3, 3.5))

    def test_walk_is_a_martingale(self, lat8):
        # each node value is one rounded product, so the averaged children
        # agree with the parent to an ulp rather than bitwise
        walk = AdaptedProcess(lat8, 0, [lat8.node_values(i) for i in range(9)])
        for i in range(8):
            assert np.allclose(_m(walk, i), lat8.node_values(i), atol=1e-14, rtol=0)

    def test_symmetry_at_root(self, lat4):
        p = AdaptedProcess(lat4, 0, [np.array([0.0]),
                                     np.array([-lat4.sqrt_dt, lat4.sqrt_dt])])
        assert _m(p, 0)[0] == 0.0

    def test_z_of_linear_slice(self, lat4):
        walk = AdaptedProcess(lat4, 0, [2.0 * lat4.node_values(i) for i in range(5)])
        for i in range(4):
            assert np.allclose(_z(walk, i), 2.0, atol=0, rtol=0)

    def test_z_of_constant_is_zero(self, lat4):
        p = AdaptedProcess(lat4, 0, [np.full(i + 1, 7.0) for i in range(5)])
        assert np.array_equal(_z(p, 1), np.zeros(2))

    def test_z_explicit_value(self, lat4):
        # slice (0, 1) at step 1 with dt = 0.25: (1 - 0) / (2 * 0.5) = 1.0
        p = AdaptedProcess(lat4, 0, [np.array([0.0]), np.array([0.0, 1.0])])
        assert _z(p, 0)[0] == 1.0

    def test_out_of_range(self, lat4):
        p = AdaptedProcess(lat4, 0, [np.ones(i + 1) for i in range(3)])
        with pytest.raises(StepOutOfRange):
            _m(p, 2)

    def test_linearity(self, lat8):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = AdaptedProcess(lat8, 0, [rng.normal(size=i + 1) for i in range(9)])
            b = AdaptedProcess(lat8, 0, [rng.normal(size=i + 1) for i in range(9)])
            lam = float(rng.normal())
            comb = AdaptedProcess(
                lat8, 0, [a.at(i) + lam * b.at(i) for i in range(9)])
            for i in (0, 3, 7):
                for op in (_m, _z):
                    assert np.allclose(
                        op(comb, i), op(a, i) + lam * op(b, i),
                        atol=1e-12, rtol=0)


class TestTowerProperty:
    def test_iterated_expectation_matches_binomial_weights(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 13, 30):
            lat = build_lattice(build_grid(0.0, 1.0, n))
            claim = random_pwl_claim(rng, bound=3.0, slope=2.0)
            cur = claim.values(lat, n)
            for i in range(n - 1, -1, -1):
                cur = 0.5 * (cur[1:] + cur[:-1])
            assert abs(cur[0] - binomial_expectation(lat, claim)) <= 1e-12

    def test_engine_agrees_with_tower(self, lat16):
        rng = np.random.default_rng(6)
        claim = random_pwl_claim(rng)
        res = solve_bsde(zero_generator(), claim, None, lat16)
        assert abs(res.y.at(0)[0] - binomial_expectation(lat16, claim)) <= 1e-12


class TestAdaptedProcess:
    def test_shape_validation(self, lat4):
        with pytest.raises(StepOutOfRange,
                           match=r"slice at step 0 has shape \(2,\), expected \(1,\)"):
            AdaptedProcess(lat4, 0, [np.zeros(2)])

    def test_range_validation(self, lat4):
        with pytest.raises(StepOutOfRange):
            AdaptedProcess(lat4, 4, [np.zeros(5), np.zeros(6)])

    def test_at_bounds(self, lat4):
        p = AdaptedProcess(lat4, 1, [np.zeros(i + 1) for i in range(1, 4)])
        with pytest.raises(StepOutOfRange):
            p.at(0)
        with pytest.raises(StepOutOfRange):
            p.at(4)
