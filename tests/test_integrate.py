"""numpy Simpson rule: bit-identical to scipy's, and scipy stays unimported."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipolesum
from dipolesum.integrate import simpson

SIZES = [3, 4, 5, 6, 7, 8, 33, 64, 1001, 1024, 8191, 8192]


def _samples(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) * 10.0 ** rng.integers(-4, 4)
    x = np.cumsum(rng.random(n) + 1e-3) * 10.0 ** rng.integers(-2, 2)
    return y, x


class TestMatchesScipy:
    """Every result equals scipy's with ==, not merely to rounding."""

    @pytest.fixture(scope="class")
    def scipy_integrate(self):
        from scipy import integrate

        return integrate

    @pytest.mark.parametrize("n", SIZES)
    def test_simpson_with_x(self, scipy_integrate, n):
        for seed in range(5):
            y, x = _samples(n, seed)
            assert simpson(y, x=x) == scipy_integrate.simpson(y, x=x)

    @pytest.mark.parametrize("n", SIZES)
    def test_simpson_with_dx(self, scipy_integrate, n):
        # a constant step dx, given as sample points: scipy's x route bit for
        # bit, and its constant-step rule to rounding
        for seed in range(5):
            y, _ = _samples(n, seed)
            dx = 0.1 + 0.37 * seed
            x = dx * np.arange(n)
            assert simpson(y, x) == scipy_integrate.simpson(y, x=x)
            scale = dx * np.abs(y).sum()
            assert simpson(y, x) == pytest.approx(scipy_integrate.simpson(y, dx=dx), abs=1e-14 * scale)

    def test_strided_log_grid(self, scipy_integrate):
        # the half-grid check of the Dalgarno-Lewis route integrates every other
        # point of a log grid
        t = np.linspace(np.log(1e-8), np.log(37.0), 8192)[::2]
        y = np.exp(t) ** 3 * np.exp(-np.exp(t))
        assert simpson(y, x=t) == scipy_integrate.simpson(y, x=t)


class TestRules:
    @pytest.mark.parametrize("n", [5, 6])
    def test_exact_for_quadratics(self, n):
        x = np.sort(np.random.default_rng(1).random(n)) * 3.0
        y = 2.0 - x + 0.5 * x * x
        exact = lambda t: 2.0 * t - 0.5 * t * t + t**3 / 6.0
        assert simpson(y, x=x) == pytest.approx(exact(x[-1]) - exact(x[0]), rel=1e-13)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            simpson([1.0, 2.0], [0.0, 1.0])

    def test_rejects_mismatched_x(self):
        with pytest.raises(ValueError):
            simpson([1.0, 2.0, 3.0], x=[0.0, 1.0])


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
