"""The log grid's Simpson rule: scipy's to rounding, and scipy stays unimported."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolesum
from dipolesum.potentials import GridFunction, _log_simpson, power_law, solve_bound

SIZES = [3, 4, 5, 6, 7, 8, 33, 64, 1001, 1024, 8191, 8192]


def _samples(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 10.0 ** rng.integers(-4, 4)


class TestMatchesScipy:
    """Every result equals scipy's constant-step rule to rounding."""

    @pytest.fixture(scope="class")
    def scipy_simpson(self):
        from scipy.integrate import simpson

        return simpson

    @pytest.mark.parametrize("n", SIZES)
    def test_simpson_with_dx(self, scipy_simpson, n):
        for seed in range(5):
            y = _samples(n, seed)
            dx = 0.1 + 0.37 * seed
            scale = dx * np.abs(y).sum()
            assert _log_simpson(y, dx) == pytest.approx(scipy_simpson(y, dx=dx), abs=1e-14 * scale)

    @pytest.mark.parametrize("n", SIZES)
    def test_simpson_with_x(self, scipy_simpson, n):
        # a GridFunction's integral against scipy's rule at the sample points x = log rho;
        # scipy takes the steps np.diff(x), which differ from the grid's constant step in
        # their last bits (up to 2.7e-14 of the scale below at 8192 points)
        for seed in range(5):
            x = np.linspace(math.log(1e-8), math.log(40.0 + seed), n)
            state = GridFunction(grid=np.exp(x), values=_samples(n, seed), l=0)
            y = state.values * state.grid
            assert state.integral(state.values) == pytest.approx(scipy_simpson(y, x=x),
                                                                 abs=1e-13 * state.hx * np.abs(y).sum())

    @pytest.mark.parametrize("half", [False, True])
    def test_solver_grid(self, scipy_simpson, half):
        # the norm of a solver state on its 8192-point grid and on the every-other-point
        # half grid of the Dalgarno-Lewis check
        st = solve_bound(power_law(2), 0, 0)
        rho, u = (st.grid[::2], st.values[::2]) if half else (st.grid, st.values)
        h = math.log(rho[-1] / rho[0]) / (len(rho) - 1)
        assert _log_simpson(u * u * rho, h) == pytest.approx(scipy_simpson(u * u * rho, dx=h), rel=1e-14)

    def test_strided_log_grid(self, scipy_simpson):
        # the half-grid check of the Dalgarno-Lewis route integrates every other
        # point of a log grid
        t = np.linspace(np.log(1e-8), np.log(37.0), 8192)[::2]
        y = np.exp(t) ** 3 * np.exp(-np.exp(t))
        h = (t[-1] - t[0]) / (len(t) - 1)
        assert _log_simpson(y, h) == pytest.approx(scipy_simpson(y, dx=h), rel=1e-14)


def _poly(x, c3):
    """(y, antiderivative) of y = 2 - x + x^2/2 + c3 x^3."""
    return 2.0 - x + 0.5 * x * x + c3 * x**3, 2.0 * x - 0.5 * x * x + x**3 / 6.0 + 0.25 * c3 * x**4


class TestRules:
    H = 0.3

    def _rule_and_exact(self, n, c3):
        y, antiderivative = _poly(0.1 + self.H * np.arange(n), c3)
        return _log_simpson(y, self.H), antiderivative[-1] - antiderivative[0]

    @pytest.mark.parametrize("n", [5, 6])
    def test_exact_for_quadratics(self, n):
        got, exact = self._rule_and_exact(n, 0.0)
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 5, 7, 33])
    def test_odd_count_exact_for_cubics(self, n):
        got, exact = self._rule_and_exact(n, -0.7)
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n", [4, 6, 8, 64])
    def test_even_count_cubic_error_is_the_last_interval(self, n):
        # Cartwright's term integrates the parabola through the last three points: for
        # c3 x^3 it is off by c3 h^4 / 4, and the Simpson panels before it are exact
        got, exact = self._rule_and_exact(n, -0.7)
        assert got - exact == pytest.approx(-0.7 * self.H**4 / 4.0, rel=1e-6)


def test_package_runs_without_scipy():
    # scipy is a test dependency only: neither the import nor a verification
    # suite that solves grid states and integrates them may load it
    env = dict(os.environ)
    src = str(Path(dipolesum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, contextlib, io\n"
            "import dipolesum\n"
            "assert 'scipy' not in sys.modules, 'import dipolesum loaded scipy'\n"
            "from dipolesum.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['verify', '--suite', 'identities'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'verify --suite identities loaded scipy'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
