"""Generic bound-state solver, grid expectations, grid ladders."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum.errors import NoBoundState, SingularDerivative
from dipolesum.hydrogen import bound_state, channel, expectation_rho_power
from dipolesum.ladder import build_f_ladder
from dipolesum.potentials import (
    _BLOCK,
    COULOMB,
    LOG,
    _count_nodes,
    _default_rho_max,
    _log_grid_w,
    grid_expectation,
    grid_f_ladder,
    grid_overlap,
    power_law,
    solve_bound,
)


@pytest.fixture(scope="module")
def oscillator():
    return solve_bound(power_law(2), 0, 0)


@pytest.fixture(scope="module")
def log_ground():
    return solve_bound(LOG, 0, 0)


@pytest.fixture(scope="module")
def coulomb_21():
    return solve_bound(COULOMB, 1, 0)


class TestSolveBound:
    def test_coulomb_ground(self):
        st = solve_bound(COULOMB, 0, 0)
        assert st.energy == pytest.approx(-0.5, abs=1e-9)
        assert st.nodes == 0

    def test_oscillator_ground(self, oscillator):
        assert oscillator.energy == pytest.approx(1.5, abs=1e-9)

    def test_oscillator_spectrum(self):
        # eps = 2 n_r + l + 3/2
        assert solve_bound(power_law(2), 1, 1).energy == pytest.approx(4.5, abs=1e-8)
        assert solve_bound(power_law(2), 0, 2).energy == pytest.approx(5.5, abs=1e-8)

    def test_log_virial(self, log_ground):
        mean_log = grid_expectation(log_ground, np.log)
        assert mean_log == pytest.approx(log_ground.energy - 0.5, abs=1e-6)

    def test_coulomb_excited(self, coulomb_21):
        assert coulomb_21.energy == pytest.approx(-0.125, abs=1e-9)

    def test_no_bound_state_above_threshold(self):
        with pytest.raises(NoBoundState):
            solve_bound(COULOMB, 0, 60, rho_max=80.0)

    def test_steep_negative_power_tail(self):
        # levels of rho^-3/2 crowd towards 0 like n^-6: the default grid must
        # reach far enough out for the tail to die on the first attempt
        v0 = power_law(F(-3, 2))
        st = solve_bound(v0, 0, 2)
        assert st.nodes == 2
        assert st.grid[-1] == pytest.approx(_default_rho_max(v0, 0, 2))
        wide = solve_bound(v0, 0, 2, rho_max=1.5 * st.grid[-1])
        assert st.energy == pytest.approx(wide.energy, rel=1e-9)

    def test_level_too_shallow_for_float_grid(self):
        # the tail estimate of this level overflows a float
        with pytest.raises(NoBoundState):
            solve_bound(power_law(F(-1999, 1000)), 0, 1000)


def _grid(v0, l, rho_max, n_points=8192, rho_min=1e-8):
    """The per-attempt arrays solve_bound hands to the node-count kernel."""
    x = np.linspace(math.log(rho_min), math.log(rho_max), n_points)
    hx = x[1] - x[0]
    rho = np.exp(x)
    rho2 = rho**2
    veff = l * (l + 1) / rho2 + 2.0 * v0.v(rho)
    return rho2, veff, hx, math.exp((l + 0.5) * (x[0] - x[1]))


def _sequential_nodes(rho2, veff, energy, hx, w0):
    """Reference: the step-by-step forward Numerov sweep the kernel replaced.

    Returns the node count and whether the sweep had to rescale past 1e250.
    """
    f = (1.0 - (hx * hx / 12.0) * _log_grid_w(rho2, veff, energy)).tolist()
    nodes, rescaled = 0, False
    wp, wc = w0, 1.0
    for fprev, fcur, fnext in zip(f, f[1:], f[2:]):
        wn = ((12.0 - 10.0 * fcur) * wc - fprev * wp) / fnext
        if wn < 0.0 < wc or wc < 0.0 < wn:
            nodes += 1
        if abs(wn) > 1e250:
            wn *= 1e-200
            wc *= 1e-200
            rescaled = True
        wp, wc = wc, wn
    return nodes, rescaled


def _counts(grid, energy):
    """(kernel count, reference count, whether the reference rescaled)."""
    rho2, veff, hx, w0 = grid
    return (_count_nodes(rho2, veff, energy, hx, w0),
            *_sequential_nodes(rho2, veff, energy, hx, w0))


class TestNodeCountKernel:
    """The block kernel counts the same nodes as the sequential sweep."""

    @pytest.mark.parametrize("v0,l", [(COULOMB, 0), (COULOMB, 2), (power_law(2), 0),
                                      (power_law(2), 1), (power_law(1), 0), (power_law(1), 3),
                                      (power_law(F(1, 2)), 0), (power_law(F(1, 2)), 1),
                                      (power_law(-1), 0), (power_law(-1), 1),
                                      (LOG, 0), (LOG, 2)])
    def test_matches_sequential_sweep(self, v0, l):
        n_levels = 8
        # the default gamma=1/2 grid for 7 nodes is too wide to bracket from e = -1
        rho_max = 150.0 if v0 == power_law(F(1, 2)) else _default_rho_max(v0, l, n_levels - 1)
        grid = _grid(v0, l, rho_max)
        levels = [solve_bound(v0, l, k, rho_max=rho_max).energy for k in range(n_levels)]
        for k, e in enumerate(levels):
            below, above = sorted([e * (1.0 - 1e-9), e * (1.0 + 1e-9)])
            # the pair straddles the jump from k to k+1 nodes
            assert _counts(grid, below)[:2] == (k, k), e
            assert _counts(grid, above)[:2] == (k + 1, k + 1), e
        for e in [0.5 * (a + b) for a, b in zip(levels, levels[1:])]:
            got, want, _ = _counts(grid, e)
            assert got == want, e

    def test_grid_where_sequential_sweep_rescales(self):
        # the grid of `potential --potential gamma=1/2 --nodes 3`
        v0 = power_law(F(1, 2))
        grid = _grid(v0, 0, _default_rho_max(v0, 0, 3))
        rescaled = False
        for e in np.linspace(-1.0, 12.0, 27):
            got, want, big = _counts(grid, e)
            assert got == want, e
            rescaled |= big
        assert rescaled

    @pytest.mark.parametrize("n_points", [8, _BLOCK - 1, _BLOCK + 5, 2 * _BLOCK - 1])
    def test_grids_of_fewer_than_two_blocks(self, n_points):
        grid = _grid(power_law(2), 0, 6.0, n_points=n_points, rho_min=1e-2)
        for e in np.linspace(-1.0, 40.0, 42):
            got, want, _ = _counts(grid, e)
            assert got == want, e


class TestGridExpectation:
    def test_normalization(self, oscillator):
        assert grid_expectation(oscillator, lambda r: np.ones_like(r)) == pytest.approx(1.0, abs=1e-9)

    def test_coulomb_inverse_cube(self, coulomb_21):
        assert grid_expectation(coulomb_21, lambda r: r**-3.0) == pytest.approx(1 / 24, abs=1e-7)

    def test_oscillator_second_moment(self, oscillator):
        assert grid_expectation(oscillator, lambda r: r**2) == pytest.approx(1.5, abs=1e-7)

    @pytest.mark.parametrize("p", [-3, -2, -1, 1, 2])
    def test_numeric_matches_exact_moments(self, coulomb_21, p):
        exact = float(expectation_rho_power(bound_state(2, 1), p))
        got = grid_expectation(coulomb_21, lambda r: r**float(p))
        assert got == pytest.approx(exact, abs=1e-7 * max(1.0, abs(exact)))


class TestStructuralInvariants:
    @pytest.mark.parametrize("v0,l,nodes", [(power_law(2), 0, 0), (power_law(2), 1, 0),
                                            (LOG, 0, 0), (COULOMB, 0, 1),
                                            (power_law(F(3, 2)), 0, 0)])
    def test_virial(self, v0, l, nodes):
        st = solve_bound(v0, l, nodes)
        lhs = grid_expectation(st, lambda r: r * v0.dv(r, 1))
        rhs = 2.0 * (st.energy - grid_expectation(st, v0.v))
        assert lhs == pytest.approx(rhs, abs=1e-6 * max(1.0, abs(rhs)))

    def test_force_rule_l0(self, oscillator):
        force = grid_expectation(oscillator, lambda r: r)  # v0' for the oscillator
        assert force == pytest.approx(oscillator.c_origin() ** 2 / 2.0, abs=1e-5)

    def test_force_rule_l_positive(self):
        st = solve_bound(power_law(2), 1, 0)
        veff = grid_expectation(st, lambda r: r - 2.0 / r**3)
        assert abs(veff) < 1e-5

    def test_origin_coefficient_coulomb_ground(self):
        st = solve_bound(COULOMB, 0, 0)
        assert st.c_origin() == pytest.approx(2.0, abs=1e-5)
        # so <1/rho^2> = C0^2 / 2
        assert grid_expectation(st, lambda r: r**-2.0) == pytest.approx(2.0, abs=1e-6)


class TestGridLadder:
    def test_trk_oscillator(self, oscillator):
        ch = channel("plus", 0)
        f0 = grid_f_ladder(oscillator, power_law(2), ch, 0)
        f1 = grid_f_ladder(oscillator, power_law(2), ch, 1)
        s1 = float(ch.weight) * grid_overlap(f0, f1) * 3.0  # alpha^2 * 3 = 1 at l=0
        assert float(ch.weight) * grid_overlap(f0, f1) == pytest.approx(1.0, abs=1e-6)

    def test_second_order_oscillator(self, oscillator):
        ch = channel("plus", 0)
        f1 = grid_f_ladder(oscillator, power_law(2), ch, 1)
        s2 = float(ch.weight) * grid_overlap(f1, f1)
        assert s2 == pytest.approx(2.0, abs=1e-6)

    def test_grid_matches_exact_ladder_coulomb_ground(self):
        st = solve_bound(COULOMB, 0, 0)
        ch = channel("plus", 0)
        fam = build_f_ladder(bound_state(1, 0), ch, 1)
        got = [float(ch.weight) * grid_overlap(grid_f_ladder(st, COULOMB, ch, 0),
                                               grid_f_ladder(st, COULOMB, ch, j))
               for j in (0, 1)]
        want = [float(ch.weight * fam.pair_overlap(fam.positive[0], fam.positive[j]))
                for j in (0, 1)]
        assert got == pytest.approx(want, rel=1e-6)

    def test_coulomb_singular_ladder_rejected(self):
        st = solve_bound(COULOMB, 0, 0)
        with pytest.raises(SingularDerivative):
            grid_f_ladder(st, COULOMB, channel("plus", 0), 2)
