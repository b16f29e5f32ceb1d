"""Generic bound-state solver, grid expectations, grid ladders."""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum.errors import NoBoundState, NotConverged, QuadratureNotConverged, SingularDerivative
from dipolesum.hydrogen import bound_state, channel, expectation_rho_power
from dipolesum import potentials
from dipolesum.cli import main
from dipolesum.ladder import family
from dipolesum.potentials import (
    COULOMB,
    LOG,
    MESH_SIZES,
    _default_rho_max,
    derivative_rho,
    grid_expectation,
    grid_f_ladder,
    grid_overlap,
    mesh_spectrum,
    mesh_sum_rules,
    negative_sum_rules,
    power_law,
    solve_bound,
)
from dipolesum.sumrules import closed_form_power_law, constructive_value


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

    def test_negative_power_level_above_threshold(self):
        # the 60-node mesh level of this box is a continuum pseudostate
        with pytest.raises(NoBoundState, match="above the continuum threshold"):
            solve_bound(power_law(F(-1, 2)), 0, 60, rho_max=80.0)

    @pytest.mark.parametrize("nodes", [MESH_SIZES[-1] - 1, MESH_SIZES[-1]])
    def test_level_beyond_mesh_start_rejected(self, nodes):
        with pytest.raises(NoBoundState, match="mesh"):
            solve_bound(power_law(2), 0, nodes)

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

    @pytest.mark.parametrize("l, nodes", [(0, 5), (1, 4)])
    def test_bracket_seeded_from_mesh(self, l, nodes):
        # the default grid of these levels is wide (rho_max above 150): the
        # solve there agrees with one on a narrower grid
        v0 = power_law(F(1, 2))
        st = solve_bound(v0, l, nodes)
        assert st.nodes == nodes
        narrow = solve_bound(v0, l, nodes, rho_max=150.0)
        assert st.energy == pytest.approx(narrow.energy, rel=1e-9)

    def test_shallow_level_bracketed_from_mesh(self):
        # this level's tail needs rho_max ~ 1100
        v0 = power_law(F(-3, 2))
        st = solve_bound(v0, 0, 3)
        wide = solve_bound(v0, 0, 3, rho_max=1.5 * st.grid[-1])
        assert st.nodes == 3 and st.energy == pytest.approx(wide.energy, rel=1e-9)

    @pytest.mark.parametrize("v0,l", [(COULOMB, 0), (COULOMB, 2), (power_law(2), 0),
                                      (power_law(2), 1), (power_law(1), 0), (power_law(1), 3),
                                      (power_law(F(1, 2)), 0), (power_law(F(1, 2)), 1),
                                      (power_law(-1), 0), (power_law(-1), 1),
                                      (LOG, 0), (LOG, 2)])
    def test_levels_match_mesh(self, v0, l):
        # the shooter returns its own Numerov eigenvalue; it lands on the
        # mesh level it starts from, with that level's node count
        n_levels = 8
        rho_max = 150.0 if v0 == power_law(F(1, 2)) else _default_rho_max(v0, l, n_levels - 1)
        mesh = mesh_spectrum(v0, l, MESH_SIZES[-1], rho_max)[0]
        for k in range(n_levels):
            st = solve_bound(v0, l, k, rho_max=rho_max)
            assert st.nodes == k
            assert st.energy == pytest.approx(mesh[k], rel=1e-8), k

    @pytest.mark.parametrize("v0, l, nodes", [
        *[(power_law(3), 0, k) for k in range(1, 6)],
        (power_law(F(1, 2)), 0, 6), (power_law(F(1, 2)), 0, 7),
        (power_law(F(1, 2)), 1, 5), (power_law(F(1, 2)), 1, 6),
    ])
    def test_excited_levels_match_mesh(self, v0, l, nodes):
        # excited gamma = 3 and gamma = 1/2 levels on their wide default grids
        st = solve_bound(v0, l, nodes)
        mesh = mesh_spectrum(v0, l, MESH_SIZES[-1], _default_rho_max(v0, l, nodes))[0]
        assert st.nodes == nodes
        assert st.energy == pytest.approx(mesh[nodes], rel=1e-8)

    @pytest.mark.parametrize("g, l, nodes, energy", [
        (F(-7, 4), 0, 4, -2.011439572203e-06), (F(-7, 4), 1, 10, -4.895007303339e-12),
        (F(-5, 3), 0, 6, -5.288655629951e-07)])
    def test_level_far_from_mesh_level(self, g, l, nodes, energy):
        # the N = 180 mesh resolves the inner well of these steep potentials
        # poorly (gamma=-7/4, 4 nodes: mesh level -1.15e-6), so the start step
        # does not bracket the level; the bracket widens to halfway to the
        # neighbouring mesh levels.  Energies from an independent node-counting
        # bisection
        st = solve_bound(power_law(g), l, nodes)
        assert st.nodes == nodes and st.energy == pytest.approx(energy, rel=1e-9, abs=0)

    @pytest.mark.parametrize("l, nodes, energy", [(3, 12, -9.720243965898e-15),
                                                  (2, 12, -7.610103712194e-14)])
    def test_tiny_level_converges_relative(self, l, nodes, energy):
        # |E| far below 1e-9: the refinement tolerance follows the level, so it
        # converges as tightly as a deep one (an absolute floor of 1e-21 left the
        # l = 3 level 9e-8 relative off).  Energies from an independent
        # node-counting bisection
        st = solve_bound(power_law(F(-7, 4)), l, nodes)
        assert st.nodes == nodes and st.energy == pytest.approx(energy, rel=1e-9, abs=0)

    @pytest.mark.parametrize("scale, nodes, match", [
        (2.0, 1, "converged to 2 nodes instead of 1"),   # the bracket holds the 2-node level
        (0.25, 4, "no level within"),                    # the bracket holds no level
        (-1.0, 0, "mesh does not resolve this level")])  # the level lies below the potential
    def test_misplaced_mesh_start_raises(self, monkeypatch, scale, nodes, match):
        # with the oscillator's mesh spectrum scaled away from the true levels
        # the solver raises instead of returning a bracket end or a wrong level
        hamiltonian = potentials._mesh_hamiltonian
        monkeypatch.setattr(potentials, "_mesh_hamiltonian",
                            lambda *args: (scale * hamiltonian(*args)[0], None))
        with pytest.raises(NotConverged, match=match):
            solve_bound(power_law(2), 0, nodes)

    @pytest.mark.parametrize("fake, match", [
        ("raise", "rows at energy 1.4999.* are singular: zero or non-finite pivot"),
        (np.inf, "solve at energy 1.4999.* gives no finite defect"),
        (0.0, "solve at energy 1.4999.* gives no finite defect")])
    def test_singular_numerov_rows(self, monkeypatch, capsys, fake, match):
        # a zero or non-finite pivot, or a solve that gives no finite defect, is NotConverged
        # naming the energy, never an escaping ZeroDivisionError or an infinite defect
        def solve(a, b, c, d):
            if fake == "raise":
                raise ZeroDivisionError("zero or non-finite pivot")
            return np.full(len(d), fake)

        monkeypatch.setattr(potentials, "_tridiagonal_solve", solve)
        with pytest.raises(NotConverged, match=match):
            solve_bound(power_law(2), 0, 0)
        assert main(["potential", "--potential", "gamma=2"]) == 1
        assert capsys.readouterr().err.startswith("error: NotConverged: the Numerov")

    def test_highly_excited_oscillator(self):
        # eps = 2 n_r + 3/2 at l = 0; the Numerov step limits this level to ~1e-7
        st = solve_bound(power_law(2), 0, 20)
        assert st.nodes == 20 and st.energy == pytest.approx(41.5, rel=1e-6)

    @pytest.mark.parametrize("g, l, nodes", [
        (4, 0, 0), (4, 1, 2), (F(15, 4), 0, 0), (F(11, 3), 0, 0), (F(7, 2), 0, 0),
        (F(1, 3), 0, 0), (F(1, 4), 0, 0), (F(1, 4), 0, 5), (3, 0, 9)])
    def test_steep_confining_levels(self, g, l, nodes):
        # on the default extent Numerov's f = 1 - hx^2 W / 12 turns negative far out
        # and spurious nodes appeared; the solver ends the grid where hx^2 W / 12 is
        # about 1/2, and its level matches the mesh it started from
        v0 = power_law(g)
        st = solve_bound(v0, l, nodes)
        f = 1.0 - st.hx**2 / 12.0 * potentials._log_grid_w(
            st.grid**2, l * (l + 1) / st.grid**2 + 2.0 * v0.v(st.grid), st.energy)
        assert st.nodes == nodes and f.min() > 0.0
        mesh = mesh_spectrum(v0, l, MESH_SIZES[-1], st.grid[-1])[0][nodes]
        assert st.energy == pytest.approx(mesh, rel=1e-8, abs=0)

    @pytest.mark.parametrize("g", [60, 80, 100])
    def test_steep_wall_ground_level(self, monkeypatch, g):
        # the N = 180 mesh puts these ground levels 3.5e-6 relative or more above the
        # shooter's, and the window below them reaches under the potential everywhere:
        # it starts above the lowest energy with a classical region instead
        st = solve_bound(power_law(g), 0, 0)
        monkeypatch.setattr(potentials, "SHOOT_POINTS", 2 * potentials.SHOOT_POINTS)
        fine = solve_bound(power_law(g), 0, 0)
        assert st.nodes == 0 and st.energy < math.pi**2 / 2
        assert st.energy == pytest.approx(fine.energy, rel=2e-8, abs=0)


def _reference_match_defect(rho2, veff, energy, hx, w0):
    """The plain shooting loop the solver's Numerov solve replaced: outward and inward
    recurrences matched in log-derivative at the outermost turning point, with a
    per-step wn * wc < 0.0 test for a node.  Returns (defect, w, nodes)."""
    big_w = potentials._log_grid_w(rho2, veff, energy)
    f = (1.0 - (hx * hx / 12.0) * big_w).tolist()
    n = len(f)
    sign_change = np.nonzero(np.diff(np.signbit(big_w)))[0]
    if len(sign_change) == 0:
        raise NoBoundState("no classical region")
    m = int(sign_change[-1]) + 1
    if m < 4 or m > n - 4:
        raise NoBoundState("turning point too close to the grid edge")
    wout = [w0, 1.0] + [0.0] * m
    nodes = 0
    for i in range(2, m + 2):
        wout[i] = ((12.0 - 10.0 * f[i - 1]) * wout[i - 1] - f[i - 2] * wout[i - 2]) / f[i]
        if wout[i] * wout[i - 1] < 0.0:
            nodes += 1
    # inward from the last point, win[k] = w[m-1+k], rescaled before it overflows
    win = [0.0] * (n - m + 1)
    win[-1] = 1e-280
    win[-2] = win[-1] * math.exp(math.sqrt(max(big_w[-1], 1.0)) * hx)
    for k in range(n - m - 2, -1, -1):
        j = m - 1 + k
        win[k] = ((12.0 - 10.0 * f[j + 1]) * win[k + 1] - f[j + 2] * win[k + 2]) / f[j]
        if abs(win[k]) > 1e250:
            win[k:] = [v * 1e-200 for v in win[k:]]
        if win[k] * win[k + 1] < 0.0:
            nodes += 1
    if wout[m] == 0.0 or win[1] == 0.0:
        return math.inf, None, nodes
    scale = wout[m] / win[1]
    dout = (wout[m + 1] - wout[m - 1]) / (2 * hx)
    din = (win[2] * scale - win[0] * scale) / (2 * hx)
    defect = (dout - din) / max(abs(wout[m]), 1e-300)
    return defect, np.concatenate([wout[: m + 1], np.array(win[2:]) * scale]), nodes


def _reference_mesh_hamiltonian(v0, l, n, r_max):
    """The mesh Hamiltonian built from scratch: Laguerre zeros and (-1)^(i+j) by power."""
    k = np.arange(n)
    x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1))
    h, r = r_max / x[-1], r_max / x[-1] * x
    dx = np.subtract.outer(x, x) + np.eye(n)
    t = (-1.0) ** np.add.outer(k, k) * np.add.outer(x, x) / (np.sqrt(np.outer(x, x)) * dx * dx)
    np.fill_diagonal(t, (4.0 + (4 * n + 2) * x - x * x) / (12.0 * x * x))
    return t / (2.0 * h * h) + np.diag(l * (l + 1) / (2.0 * r * r) + v0.v(r)), r


def _spectral_sums(v0, l, nodes, chans, orders, n):
    """mesh_sum_rules summed over each channel's mesh spectrum at every order:
    w sum_k (2(E_k - E))^J <k|r|0>^2, with levels degenerate with E out of J < 0."""
    r_max = _default_rho_max(v0, l, nodes)
    e, c, r = mesh_spectrum(v0, l, n, r_max)
    sums = dict.fromkeys(orders, 0.0)
    for chan in chans:
        ek, ck, _ = mesh_spectrum(v0, chan.target_l, n, r_max)
        de = 2.0 * (ek - e[nodes])
        de[np.abs(de) < 1e-8] = 0.0
        me2 = float(chan.weight) * (ck.T @ (r * c[:, nodes])) ** 2
        for J in orders:
            power = de**J if J >= 0 else np.divide(1.0, de**-J, out=np.zeros(n), where=de != 0.0)
            sums[J] += float(power @ me2)
    return sums


# (potential, l, nodes) of the sweep's grids
_SWEEP_CASES = [
    (COULOMB, 0, 7), (COULOMB, 2, 7), (power_law(2), 0, 7), (power_law(1), 0, 7),
    (power_law(F(1, 2)), 0, 7), (power_law(-1), 0, 7), (power_law(F(-3, 2)), 0, 7), (LOG, 0, 7),
    (power_law(F(1, 2)), 0, 3)]


@functools.cache
def _sweep(v0, l, nodes):
    """The shooter's default grid of (l, nodes), the energies at and halfway between
    the first 8 levels of its N = 180 mesh, and the plain loop's result at each of
    them (None where it finds no bound state)."""
    rho_max = _default_rho_max(v0, l, nodes)
    x = np.linspace(math.log(1e-8), math.log(rho_max), 8192)
    rho2 = np.exp(x) ** 2
    veff = l * (l + 1) / rho2 + 2.0 * v0.v(np.exp(x))
    e = mesh_spectrum(v0, l, MESH_SIZES[-1], rho_max)[0][:8]
    hx, w0 = x[1] - x[0], math.exp((l + 0.5) * (x[0] - x[1]))
    energies = [float(energy) for energy in sorted([*e, *(0.5 * (e[1:] + e[:-1]))])]
    wanted = {}
    for energy in energies:
        try:
            wanted[energy] = _reference_match_defect(rho2, veff, energy, hx, w0)
        except NoBoundState:
            wanted[energy] = None
    return (rho2, veff, hx, w0), energies, wanted


def _reference_level(grid, a, b):
    """The root of _reference_match_defect(*grid[:2], energy, *grid[2:]) in [a, b] by
    regula falsi, halving the retained end's defect each step, to 1e-14 relative."""
    fa, fb = (_reference_match_defect(*grid[:2], energy, *grid[2:])[0] for energy in (a, b))
    assert fa * fb < 0.0
    for _ in range(200):
        if b - a <= 1e-14 * max(abs(a), abs(b)):
            return 0.5 * (a + b)
        c = min(max((a * fb - b * fa) / (fb - fa), a), b)
        fc = _reference_match_defect(*grid[:2], c, *grid[2:])[0]
        if fc * fb > 0.0:
            b, fb, fa = c, fc, 0.5 * fa
        else:
            a, fa, fb = c, fc, 0.5 * fb
    raise AssertionError(f"no reference level in [{a!r}, {b!r}]")


class TestKernelsMatchReference:
    """The solver's Numerov solve agrees with the plain shooting loop, and its mesh
    with the plain mesh Hamiltonian."""

    @pytest.mark.parametrize("v0, l, nodes", _SWEEP_CASES)
    def test_defect_sign(self, v0, l, nodes):
        # both defects have the sign of the Wronskian of the outward and inward
        # solutions: halfway between mesh levels they agree up to one global sign
        (rho2, veff, hx, w0), energies, wanted = _sweep(v0, l, nodes)
        signs = []
        for energy in energies[1::2]:
            if wanted[energy] is None:
                with pytest.raises(NoBoundState):
                    potentials._match_defect(rho2, veff, energy, hx, w0)
                continue
            defect = potentials._match_defect(rho2, veff, energy, hx, w0)[0]
            signs.append(math.copysign(1.0, defect) * math.copysign(1.0, wanted[energy][0]))
        assert len(signs) >= 6 and set(signs) == {-1.0}

    @pytest.mark.parametrize("v0, l, nodes", _SWEEP_CASES)
    def test_node_count(self, v0, l, nodes):
        # at the k-th mesh level the solve counts k nodes.  On the wide 7-node grids of
        # gamma = 1/2 and -3/2, f < 0 far out at the two lowest levels, where the plain
        # loop's growing inward pass counts 5 and 3, and 513 and 44 nodes; the solve's
        # tail underflows there instead
        (rho2, veff, hx, w0), energies, _ = _sweep(v0, l, nodes)
        counts = [potentials._match_defect(rho2, veff, energy, hx, w0)[2] for energy in energies[::2]]
        assert counts == list(range(8))

    @pytest.mark.parametrize("v0, l, nodes", _SWEEP_CASES)
    def test_levels(self, v0, l, nodes):
        # on the solver's own grid its level is the plain loop's root
        st = solve_bound(v0, l, nodes)
        rho2 = st.grid**2
        grid = (rho2, l * (l + 1) / rho2 + 2.0 * v0.v(st.grid), st.hx, math.exp(-(l + 0.5) * st.hx))
        a, b = sorted([st.energy * (1.0 - 1e-8), st.energy * (1.0 + 1e-8)])
        assert st.energy == pytest.approx(_reference_level(grid, a, b), rel=1e-10, abs=0)

    def test_grid_retries_until_the_tail_dies(self, monkeypatch):
        # rho_max = 12 leaves the Coulomb 1s tail alive, so the solver extends its
        # grid twice, and the third grid gives the exact level
        match_defect, sizes = potentials._match_defect, []

        def counted_shot(rho2, *args):
            sizes.append(len(rho2))
            return match_defect(rho2, *args)

        monkeypatch.setattr(potentials, "_match_defect", counted_shot)
        st = solve_bound(COULOMB, 0, 0, rho_max=12.0)
        assert len(set(sizes)) == 3
        assert st.energy == pytest.approx(-0.5, rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [60, 120, 180, 240])
    def test_mesh_hamiltonian(self, n):
        for v0 in (COULOMB, power_law(F(1, 2))):
            for l in range(4):
                got, want = potentials._mesh_hamiltonian(v0, l, n, 40.0), \
                    _reference_mesh_hamiltonian(v0, l, n, 40.0)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (v0, l)

    def test_laguerre_zeros_shared_read_only(self):
        # the zeros and the kinetic matrix are built once per mesh size and shared
        mesh = potentials._laguerre_mesh(MESH_SIZES[0])
        assert potentials._laguerre_mesh(MESH_SIZES[0]) is mesh
        for a in mesh:
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert potentials._laguerre_mesh.cache_parameters()["maxsize"] == len(MESH_SIZES)


class TestMesh:
    def test_nodes_are_laguerre_zeros(self):
        x = np.polynomial.laguerre.laggauss(60)[0]
        r = mesh_spectrum(LOG, 0, 60, x[-1])[2]
        assert np.max(np.abs(r - x)) < 1e-11

    def test_exact_levels(self):
        assert mesh_spectrum(power_law(2), 1, 120, 30.0)[0][:3] == pytest.approx(
            [2.5, 4.5, 6.5], abs=1e-10)
        assert mesh_spectrum(COULOMB, 0, 120, 40.0)[0][:2] == pytest.approx(
            [-0.5, -0.125], abs=1e-10)

    def test_no_runtime_warning_at_large_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, c, r = mesh_spectrum(LOG, 0, 240, 40.0)
        assert np.all(np.isfinite(e)) and r[-1] == pytest.approx(40.0)
        assert np.max(np.abs(c.T @ c - np.eye(240))) < 1e-12

    @pytest.mark.parametrize("n, l, direction", [(1, 0, "plus"), (2, 0, "plus"),
                                                 (2, 1, "plus"), (2, 1, "minus")])
    def test_coulomb_totals_match_constructive(self, n, l, direction):
        # a fourth route to the exact values; 2s and 2p- meet a degenerate
        # level, which counts in S_0 only
        orders = range(-4, 4 + l)
        for size in MESH_SIZES:
            got = mesh_sum_rules(COULOMB, l, n - l - 1, [channel(direction, l)], orders, size)
            for J in orders:
                want = float(constructive_value(n, l, direction, J))
                assert got[J] == pytest.approx(want, rel=1e-6), (size, J)

    @pytest.mark.parametrize("v0, top", [(power_law(2), 3), (power_law(1), 3),
                                         (power_law(F(1, 2)), 3), (power_law(F(-1, 2)), 2),
                                         (LOG, 3)])
    def test_totals_match_closed_forms(self, v0, top):
        st = solve_bound(v0, 0, 0)
        orders = range(top + 1)
        got = mesh_sum_rules(v0, 0, 0, [channel("plus", 0)], orders, MESH_SIZES[-1])
        for J in orders:
            assert got[J] == pytest.approx(closed_form_power_law(st, v0, J), abs=1e-6), J

    @pytest.mark.parametrize("v0, l, nodes, directions", [
        *((power_law(2), l, 0, ("plus", "minus")[: 1 + (l > 0)]) for l in range(4)),
        (power_law(1), 1, 1, ("plus", "minus")), (power_law(F(1, 2)), 0, 3, ("plus",)),
        (LOG, 0, 0, ("plus",)), (LOG, 2, 0, ("plus", "minus")), (power_law(F(-1, 2)), 0, 0, ("plus",)),
        (COULOMB, 0, 1, ("plus",)), (COULOMB, 1, 0, ("minus",))])   # 2s, and 2p- with its degenerate level
    def test_moments_match_channel_spectrum(self, v0, l, nodes, directions):
        # J < 0 is the spectral sum itself.  From J = 3 both routes round visibly: against the
        # exact moment of the same float matrix the spectral sums are off by up to 1.6e-10 at
        # J = 3 (Coulomb 2s) and 9.6e-9 at J = 4 (log), the moments by 2.3e-12 and 4.4e-9
        bound = {0: 1e-10, 1: 1e-10, 2: 1e-10, 3: 5e-10, 4: 2e-8}
        chans = [channel(d, l) for d in directions]
        orders = range(-4, 5)
        for size in MESH_SIZES:
            got = mesh_sum_rules(v0, l, nodes, chans, orders, size)
            want = _spectral_sums(v0, l, nodes, chans, orders, size)
            for J in orders:
                if J < 0:
                    assert got[J] == want[J], (size, J)
                else:
                    assert got[J] == pytest.approx(want[J], rel=bound[J], abs=0), (size, J)
        for J in orders:   # no row depends on the other orders asked for
            assert mesh_sum_rules(v0, l, nodes, chans, [J], MESH_SIZES[-1])[J] == got[J], J

    @pytest.mark.parametrize("l, k", [(0, 0), (1, 2), (2, 1), (3, 0), (0, 3)])
    def test_oscillator_channels_exact(self, l, k):
        # v0 = rho^2 / 2 links the level only to the adjacent shells, at 2(E_k - E) = +-2
        closed = {"plus": (k + l + F(3, 2), k), "minus": (k + 1, k + l + F(1, 2))}
        for d in ("plus", "minus")[: 1 + (l > 0)]:
            ch = channel(d, l)
            up, down = closed[d]
            got = mesh_sum_rules(power_law(2), l, k, [ch], range(-4, 5), MESH_SIZES[-1])
            for J, value in got.items():
                exact = float(ch.weight * (up * F(2) ** J + down * F(-2) ** J))
                assert value == pytest.approx(exact, rel=1e-10 if J <= 3 else 2e-6, abs=0), (d, J)

    def test_table_diagonalises_once_per_mesh(self, monkeypatch, capsys):
        # the J >= 0 channel sums are moments: only the state's own mesh spectrum is needed
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        main(["table", "--potential", "gamma=1", "--l", "1", "--nodes", "1", "--orders", "0..4"])
        assert sorted(calls) == sorted(MESH_SIZES)
        assert capsys.readouterr().out.count("J=") == 5

    def test_level_beyond_mesh_rejected(self):
        with pytest.raises(NotConverged):
            mesh_sum_rules(power_law(2), 0, 120, [channel("plus", 0)], [0], 120)

    def test_log_fourth_order_estimate_covers_gap(self):
        # S_4 of the log potential holds <rho^-2>, which the meshes resolve
        # poorly: the row fails, but its estimate must cover the gap
        coarse, fine = (mesh_sum_rules(LOG, 0, 0, [channel("plus", 0)], [4], n)[4]
                        for n in MESH_SIZES)
        gap = abs(fine - closed_form_power_law(solve_bound(LOG, 0, 0), LOG, 4))
        assert 1e-4 < gap <= abs(fine - coarse)


class TestNegativeSumRules:
    """Dalgarno-Lewis S_J, J < 0, on the shooter's grid for general potentials."""

    def test_oscillator(self, oscillator):
        # rho couples the ground state to one level, with 2(E_k - E) = 2 and S_0 = 1/2
        orders = [-1, -2, -3, -4]
        got = negative_sum_rules(oscillator, power_law(2), [channel("plus", 0)], orders)
        for J in orders:
            assert got[J] == pytest.approx(2.0 ** (J - 1), abs=1e-10), J

    @pytest.mark.parametrize("v0, nodes", [(power_law(F(1, 2)), 0), (power_law(F(1, 2)), 3),
                                           (LOG, 0), (power_law(F(-1, 2)), 0)])
    def test_matches_mesh(self, v0, nodes):
        # at 3 nodes 2(H' - E) is indefinite: the l' = 1 levels below E count too
        orders = [-1, -2, -3, -4]
        chans = [channel("plus", 0)]
        got = negative_sum_rules(solve_bound(v0, 0, nodes), v0, chans, orders)
        want = mesh_sum_rules(v0, 0, nodes, chans, orders, MESH_SIZES[-1])
        for J in orders:
            assert got[J] == pytest.approx(want[J], rel=1e-5), J


def _reference_dalgarno_lewis_sums(rho, u, v0, energy, chans, orders):
    """The plain Dalgarno-Lewis route the array kernel replaces: each rung is one Thomas
    sweep, without pivoting, over the same Numerov rows, point by point."""
    from scipy.integrate import simpson   # a test dependency only
    x = np.log(rho)
    h2 = ((x[-1] - x[0]) / (len(x) - 1)) ** 2 / 12.0
    root, rho2 = np.sqrt(rho), rho * rho
    sums = dict.fromkeys(orders, 0.0)
    for chan in chans:
        lp = chan.target_l
        hw = h2 * potentials._log_grid_w(rho2, lp * (lp + 1) / rho2 + 2.0 * v0.v(rho), energy)
        off, diag = (1.0 - hw).tolist(), (-2.0 - 10.0 * hw).tolist()
        f = [rho * u]
        for _ in range((1 - min(orders)) // 2):
            s = rho * root * f[-1]
            rhs = (-h2 * (s[:-2] + 10.0 * s[1:-1] + s[2:])).tolist()
            c, d, upper, phi = 0.0, 0.0, [], []
            for a, b, a_next, r in zip(off, diag[1:], off[2:], rhs):
                m = 1.0 / (b - a * c)
                c, d = a_next * m, (r - a * d) * m
                upper.append(c)
                phi.append(d)
            p = 0.0
            for i in range(len(phi) - 1, -1, -1):
                p = phi[i] - upper[i] * p
                phi[i] = p
            f.append(root * np.concatenate(([0.0], phi, [0.0])))
        for J in orders:
            k = -J // 2
            sums[J] += float(chan.weight) * float(simpson(f[k] * f[-J - k] * rho, x=x))
    return sums


def _exact_1s(rho_max):
    """The exact 1s state on an 8192-point log grid from rho = 1e-8."""
    rho = np.exp(np.linspace(math.log(1e-8), math.log(rho_max), 8192))
    return potentials.GridFunction(grid=rho, values=bound_state(1, 0).values(rho), l=0,
                                   energy=-0.5)


def _first_rung_rows(state, v0, chan):
    """(a, b, c, d) of the first Dalgarno-Lewis rung, as _dalgarno_lewis_sums builds them."""
    rho = state.grid
    x = np.log(rho)
    h2 = ((x[-1] - x[0]) / (len(x) - 1)) ** 2 / 12.0
    lp = chan.target_l
    hw = h2 * potentials._log_grid_w(rho * rho, lp * (lp + 1) / (rho * rho) + 2.0 * v0.v(rho),
                                     state.energy)
    s = rho * np.sqrt(rho) * rho * state.values
    off = 1.0 - hw
    return off[:-2], (-2.0 - 10.0 * hw)[1:-1], off[2:], -h2 * (s[:-2] + 10.0 * s[1:-1] + s[2:])


class TestDalgarnoLewisKernel:
    """The cyclic-reduction kernel against LAPACK, dense solves and the Thomas sweep it
    replaced, and its failure contract."""

    @pytest.mark.parametrize("v0, l, nodes, direction", [
        (COULOMB, 0, None, "plus"),   # the exact 1s state on the shooter's default grid
        (power_law(F(1, 2)), 0, 3, "plus"), (LOG, 1, 2, "minus"), (power_law(3), 2, 1, "plus")])
    def test_matches_lapack(self, v0, l, nodes, direction):
        from scipy.linalg import solve_banded   # a test dependency only
        # at 3 nodes the gamma=1/2 rows are indefinite: the l' = 1 levels below E count too
        state = (_exact_1s(_default_rho_max(COULOMB, 0, 0)) if nodes is None else
                 solve_bound(v0, l, nodes))
        a, b, c, d = _first_rung_rows(state, v0, channel(direction, l))
        banded = np.zeros((3, len(b)))
        banded[0, 1:], banded[1], banded[2, :-1] = c[:-1], b, a[1:]
        want = solve_banded((1, 1), banded, d)
        got = potentials._tridiagonal_solve(a, b, c, d)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [*range(1, 10), 1000, 1001])
    def test_padding_path(self, n):
        # odd and even lengths, so every level count and padding pattern of small n
        rng = np.random.default_rng(n)
        a, c, d = rng.standard_normal((3, n))
        b = 4.0 + rng.standard_normal(n)
        dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
        want = np.linalg.solve(dense, d)
        got = potentials._tridiagonal_solve(a, b, c, d)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("v0, l, nodes, direction", [
        (COULOMB, 0, 0, "plus"), (COULOMB, 1, 0, "plus"), (COULOMB, 2, 0, "plus"),
        (COULOMB, 3, 0, "plus"), (COULOMB, 4, 0, "plus"),
        (power_law(2), 0, 0, "plus"), (power_law(2), 1, 0, "plus"), (power_law(1), 0, 0, "plus"),
        (power_law(F(1, 2)), 0, 3, "plus"), (power_law(F(-1, 2)), 0, 0, "plus"),
        (power_law(3), 2, 1, "plus"), (LOG, 0, 0, "plus"), (LOG, 1, 2, "plus"),
        (LOG, 1, 2, "minus")])
    def test_matches_thomas_sweep(self, v0, l, nodes, direction):
        state, orders = solve_bound(v0, l, nodes), range(-8, 0)
        for k in (1, 2):   # the shooter's grid and the half grid of negative_sum_rules
            args = (state.grid[::k], state.values[::k], v0, state.energy, [channel(direction, l)],
                    orders)
            got, want = potentials._dalgarno_lewis_sums(*args), _reference_dalgarno_lewis_sums(*args)
            for J in orders:
                assert got[J] == pytest.approx(want[J], rel=2e-10), (k, J)

    @pytest.mark.parametrize("pivot", [0.0, math.inf, math.nan])
    def test_zero_or_nonfinite_pivot(self, pivot):
        # with a first pivot of 0 the system is nonsingular, but elimination without pivoting fails
        one = np.ones(3)
        with pytest.raises(ZeroDivisionError, match="pivot"):
            potentials._tridiagonal_solve(one, np.array([pivot, 4.0, 4.0]), one, one)

    def test_nonfinite_pivot_names_the_rung(self):
        state = dataclasses.replace(_exact_1s(37.0), energy=math.nan)
        with pytest.raises(QuadratureNotConverged, match="rung 1 of l' = 1: zero or non-finite pivot"):
            negative_sum_rules(state, COULOMB, [channel("plus", 0)], [-1, -2])

    def test_nan_sums_fail_the_half_grid_guard(self):
        # the every-other-point grid does not hold u[5001], so only the full-grid sums are nan
        state = _exact_1s(37.0)
        state.values[5001] = math.nan
        with pytest.raises(QuadratureNotConverged, match="half grid"):
            negative_sum_rules(state, COULOMB, [channel("plus", 0)], [-1, -2])


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
        assert float(ch.weight) * grid_overlap(f0, f1) == pytest.approx(1.0, abs=1e-6)

    def test_second_order_oscillator(self, oscillator):
        ch = channel("plus", 0)
        f1 = grid_f_ladder(oscillator, power_law(2), ch, 1)
        s2 = float(ch.weight) * grid_overlap(f1, f1)
        assert s2 == pytest.approx(2.0, abs=1e-6)

    def test_grid_matches_exact_ladder_coulomb_ground(self):
        st = solve_bound(COULOMB, 0, 0)
        ch = channel("plus", 0)
        fam = family(1, 0, "plus").grow_f(1)
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


class TestLogGrid:
    """A GridFunction derives its step from its grid, so hand-built states need none."""

    def test_hand_built_state_has_the_grid_step(self):
        state = _exact_1s(37.0)
        assert state.hx == pytest.approx(math.log(37.0 / 1e-8) / 8191, rel=1e-14)
        # d/drho of u = 2 rho e^-rho, by five-point differences in x
        want = 2.0 * (1.0 - state.grid) * np.exp(-state.grid)
        assert derivative_rho(state, state.values)[2:-2] == pytest.approx(want[2:-2], rel=1e-6, abs=1e-12)

    def test_overlap_rejects_a_grid_of_other_extent(self, oscillator):
        # the same length and first point, but twice the extent
        rho = oscillator.grid
        stretched = np.exp(np.linspace(math.log(rho[0]), math.log(2.0 * rho[-1]), len(rho)))
        other = dataclasses.replace(oscillator, grid=stretched)
        with pytest.raises(ValueError, match="shared grid"):
            grid_overlap(oscillator, other)
