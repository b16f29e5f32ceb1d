"""Dimensionless radial potentials and a generic bound-state solver.

Potentials are expressed in the scaled radial variable rho with energies in
units eps = hbar^2/(M a^2):

    coulomb     v0 = -1/rho
    power(g)    v0 = rho**g / g        (g != 0, g > -2)
    log         v0 = log(rho)

The reduced radial equation solved here is

    u'' = (l(l+1)/rho^2 + 2 v0(rho) - 2 e) u,   int u^2 drho = 1.

Bound states are found by Numerov integration on a log-uniform grid
(x = log rho, w = u/sqrt(rho)), node-counting bisection, and a final
log-derivative matching refinement.  The log grid resolves the rho**(l+1)
origin behaviour and one policy covers every potential kind.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import islice
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from .errors import (
    NoBoundState,
    NotConverged,
    SingularDerivative,
)


@dataclass(frozen=True)
class Potential:
    """One member of the scaled potential family."""

    kind: str                      # "coulomb" | "power" | "log"
    gamma: Fraction | None = None  # exponent for kind == "power"

    def __post_init__(self):
        if self.kind not in ("coulomb", "power", "log"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power":
            g = self.gamma
            if g is None or g == 0 or g <= -2:
                raise ValueError("power-law exponent must satisfy g != 0, g > -2")

    # -- numeric evaluation ------------------------------------------------

    def v(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.kind == "coulomb":
            return -1.0 / rho
        if self.kind == "log":
            return np.log(rho)
        g = float(self.gamma)
        return rho**g / g

    def dv(self, rho: np.ndarray, order: int = 1) -> np.ndarray:
        """Analytic derivative d^order v0 / drho^order."""
        rho = np.asarray(rho, dtype=float)
        if order < 1:
            raise ValueError("order >= 1")
        if self.kind == "coulomb":
            # d^k (-1/rho) = -(-1)^k k! rho^-(k+1)
            return -((-1.0) ** order) * math.factorial(order) * rho ** (-order - 1)
        if self.kind == "log":
            # d^k log rho = (-1)^(k-1) (k-1)! rho^-k
            return ((-1.0) ** (order - 1)) * math.factorial(order - 1) * rho ** (-order)
        g = float(self.gamma)
        coeff = 1.0 / g
        for i in range(order):
            coeff *= g - i
        return coeff * rho ** (g - order)

    # -- structural queries --------------------------------------------

    def origin_power(self) -> tuple[Fraction, Fraction] | None:
        """(b, q) with v0 -> b rho^q at the origin; None for log."""
        if self.kind == "coulomb":
            return Fraction(-1), Fraction(-1)
        if self.kind == "log":
            return None
        return 1 / self.gamma, self.gamma

    def polyexp_shift(self) -> tuple[int, Fraction] | None:
        """(k, c) such that 2*v0*f = c * rho^k * f stays polynomial, else None."""
        if self.kind == "coulomb":
            return -1, Fraction(-2)
        if self.kind == "power" and self.gamma.denominator == 1 and self.gamma >= -1:
            return int(self.gamma), 2 / self.gamma
        return None


COULOMB = Potential("coulomb")
LOG = Potential("log")


def power_law(gamma) -> Potential:
    return Potential("power", Fraction(gamma))


@dataclass
class GridFunction:
    """A radial function sampled on a strictly increasing rho grid.

    For solver output the grid is log-uniform (x = log rho with constant
    step hx), values hold the reduced radial u, and energy/nodes describe
    the eigenstate.  Ladder functions reuse the container with the seed
    state's grid.
    """

    grid: np.ndarray
    values: np.ndarray
    l: int
    energy: float = 0.0
    nodes: int = 0
    hx: float = field(default=0.0, repr=False)

    def x(self) -> np.ndarray:
        return np.log(self.grid)

    def c_origin(self) -> float:
        """Leading origin coefficient C_l with u -> C_l rho^(l+1).

        Quadratic extrapolation of u/rho^(l+1) to rho = 0 over the first
        grid points.
        """
        rho = self.grid
        hi = np.searchsorted(rho, max(rho[0] * 30.0, 4e-3))
        hi = max(hi, 8)
        r = rho[2:hi]
        y = self.values[2:hi] / r ** (self.l + 1)
        coeffs = np.polynomial.polynomial.polyfit(r, y, 2)
        return float(coeffs[0])


# Numerov steps per block of the node-count kernel.  On the default grid of
# 8192 points, 32 balances the per-step array operations against the
# per-block chain loop.
_BLOCK = 32


def _log_grid_w(rho2: np.ndarray, veff: np.ndarray, energy: float) -> np.ndarray:
    """W-array for the log-grid equation w'' = [rho^2 Wu(rho) + 1/4] w.

    veff = l(l+1)/rho^2 + 2 v0(rho) is the energy-independent part of Wu.
    """
    return rho2 * (veff - 2.0 * energy) + 0.25


def _block_solutions(f: np.ndarray) -> np.ndarray:
    """Fundamental Numerov solutions of every block of _BLOCK steps.

    Block k starts at grid point _BLOCK * k and covers _BLOCK + 2 points, so
    neighbouring blocks overlap by two.  sol[j, 0, k] and sol[j, 1, k] are
    the solutions at point _BLOCK * k + j started from (1, 0) and (0, 1).
    All blocks advance together, one array operation per step.
    """
    nb = -(-len(f) // _BLOCK)
    fpad = np.ones(nb * _BLOCK + 2)   # f = 1 (W = 0) fills the last block
    fpad[: len(f)] = f
    fb = np.lib.stride_tricks.sliding_window_view(fpad, _BLOCK + 2)[::_BLOCK].T.copy()
    gb = 12.0 - 10.0 * fb
    sol = np.zeros((_BLOCK + 2, 2, nb))
    sol[0, 0] = 1.0
    sol[1, 1] = 1.0
    for j in range(2, _BLOCK + 2):
        sol[j] = (gb[j - 1] * sol[j - 1] - fb[j - 2] * sol[j - 2]) / fb[j]
    return sol


def _count_nodes(rho2: np.ndarray, veff: np.ndarray, energy: float, hx: float,
                 w0: float) -> int:
    """Strict sign changes of the forward Numerov solution started from (w0, 1).

    With f = 1 - (h^2/12) W the recurrence is
    w[i] = ((12 - 10 f[i-1]) w[i-1] - f[i-2] w[i-2]) / f[i].  A short loop
    chains the blocks of _block_solutions through their end values,
    renormalised by powers of two.  Each rebuilt block is then a positive
    multiple of the true w, so its signs, and hence the node count, are those
    of a sequential sweep.
    """
    n = len(rho2)
    sol = _block_solutions(1.0 - (hx * hx / 12.0) * _log_grid_w(rho2, veff, energy))
    a, b = w0, 1.0
    start_a, start_b = [], []
    for p0, q0, p1, q1 in zip(*sol[_BLOCK].tolist(), *sol[_BLOCK + 1].tolist()):
        e = -math.frexp(a if abs(a) > abs(b) else b)[1]
        a, b = math.ldexp(a, e), math.ldexp(b, e)
        start_a.append(a)
        start_b.append(b)
        a, b = a * p0 + b * q0, a * p1 + b * q1
    w = sol[:_BLOCK, 0] * start_a
    w += sol[:_BLOCK, 1] * start_b
    sign = np.sign(w, out=w)   # sign[j, k] is the sign of w at _BLOCK * k + j
    sign[n - _BLOCK * (sign.shape[1] - 1) :, -1] = 0.0   # padding past the grid end
    within = np.count_nonzero(sign[1:] * sign[:-1] < 0.0)
    across = np.count_nonzero(sign[0, 1:] * sign[-1, :-1] < 0.0)
    return int(within + across)


def _default_rho_max(v0: Potential, l: int, nodes: int) -> float:
    n_eff = nodes + l + 1
    if v0.kind == "coulomb":
        return 2.0 * n_eff**2 + 35.0 * n_eff
    if v0.kind == "log":
        return 25.0 + 15.0 * (nodes + l + 1)
    g = float(v0.gamma)
    if g > 0:
        # classical turning point of a generous energy guess, plus tail room
        e_guess = 3.0 * (nodes + l + 2) ** (2 * g / (g + 2.0)) / g + 2.0
        rt = (abs(g * e_guess)) ** (1.0 / g) if g > 0 else 10.0
        return 3.0 * rt + 12.0
    # g < 0: v0 = -rho^-a / a with a = -g in (0, 2).  For a > 1 the levels
    # crowd towards 0 much faster than Coulomb's, so the extent follows the
    # tail: the turning point of a Bohr-like WKB energy (exact at a = 1) plus
    # 30 decay lengths 1/sqrt(2|E|).  2 n^2 + 40 still covers the low levels
    # and a < 1, where v0 stays comparable to E far beyond the turning point.
    a = -g
    n = nodes + 0.5 + (l + 0.5) / (2.0 - a)
    # int_0^1 sqrt(t^-a - 1) dt, the WKB phase integral in turning-point units
    phase = math.gamma(1.0 / a - 0.5) * math.gamma(1.5) / (a * math.gamma(1.0 / a + 1.0))
    scale = math.sqrt(2.0) * a ** (-1.0 / a) * phase / (math.pi * n)
    log_abs_e = 2.0 * a / (2.0 - a) * math.log(scale)
    try:
        turning = math.exp(-(math.log(a) + log_abs_e) / a)
        decay = math.exp(-0.5 * (math.log(2.0) + log_abs_e))
    except OverflowError:
        raise NoBoundState("level too shallow for any float grid") from None
    return max(2.0 * (nodes + l + 1) ** 2 + 40.0, turning + 30.0 * decay)


def _match_defect(rho2, veff, energy, hx, w0):
    """Log-derivative mismatch at the outermost turning point.

    Returns (defect, assembled w, node count, match index).  The outward and
    inward Numerov loops run on Python floats read through tolist().
    """
    big_w = _log_grid_w(rho2, veff, energy)
    f = (1.0 - (hx * hx / 12.0) * big_w).tolist()
    n = len(f)
    sign_change = np.nonzero(np.diff(np.signbit(big_w)))[0]
    if len(sign_change) == 0:
        raise NoBoundState(f"no classical region for energy {energy}")
    m = int(sign_change[-1]) + 1
    if m < 4 or m > n - 4:
        raise NoBoundState("turning point too close to the grid edge")

    # w goes into preallocated float arrays and f is read through islice:
    # growing or sliced buffers would add about a megabyte of peak memory
    wout = array("d", bytes(8 * (m + 2)))
    wout[0], wout[1] = w0, 1.0
    nodes = 0
    wp, wc = w0, 1.0
    for i, fp, fc, fn in zip(range(2, m + 2), f, islice(f, 1, None), islice(f, 2, None)):
        wn = ((12.0 - 10.0 * fc) * wc - fp * wp) / fn
        wout[i] = wn
        if wn * wc < 0.0:
            nodes += 1
        wp, wc = wc, wn

    # inward from the last point, into win[k] = w[m-1+k]
    kappa = math.sqrt(max(big_w[-1], 1.0))
    win = array("d", bytes(8 * (n - m + 1)))
    wp = win[-1] = 1e-280
    wc = win[-2] = wp * math.exp(kappa * hx)
    for k, fp, fc, fn in zip(range(n - m - 2, -1, -1), reversed(f),
                             islice(reversed(f), 1, None), islice(reversed(f), 2, None)):
        wn = ((12.0 - 10.0 * fc) * wc - fp * wp) / fn
        win[k] = wn
        if abs(wn) > 1e250:
            win[k:] = array("d", [v * 1e-200 for v in win[k:]])
            wc, wn = win[k + 1], win[k]
        if wn * wc < 0.0:
            nodes += 1
        wp, wc = wc, wn
    del f   # the float list is four times the size of w: free it before assembling w

    if wout[m] == 0.0 or win[1] == 0.0:
        return math.inf, None, nodes, m
    scale = wout[m] / win[1]
    dout = (wout[m + 1] - wout[m - 1]) / (2 * hx)
    din = (win[2] * scale - win[0] * scale) / (2 * hx)
    defect = (dout - din) / max(abs(wout[m]), 1e-300)
    w = np.concatenate([wout[: m + 1], np.array(win[2:]) * scale])
    return defect, w, nodes, m


def solve_bound(
    v0: Potential,
    l: int,
    nodes: int,
    *,
    rho_min: float = 1e-8,
    rho_max: float | None = None,
    n_points: int = 8192,
    rel_tol: float = 1e-12,
) -> GridFunction:
    """Bound eigenstate of v0 with given angular momentum and node count."""
    if l < 0 or nodes < 0:
        raise NoBoundState("l and nodes must be non-negative")
    if rho_max is None:
        rho_max = _default_rho_max(v0, l, nodes)

    for _attempt in range(3):
        x = np.linspace(math.log(rho_min), math.log(rho_max), n_points)
        hx = x[1] - x[0]
        rho = np.exp(x)
        rho2 = rho**2
        veff = l * (l + 1) / rho2 + 2.0 * v0.v(rho)
        w0 = math.exp((l + 0.5) * (x[0] - x[1]))

        e_lo = -1.0
        for _ in range(80):
            if _count_nodes(rho2, veff, e_lo, hx, w0) <= nodes:
                break
            e_lo *= 2.0
        else:
            raise NoBoundState("cannot bracket from below")
        e_hi = e_lo
        step = 1.0
        for _ in range(200):
            e_hi += step
            step *= 1.5
            if _count_nodes(rho2, veff, e_hi, hx, w0) > nodes:
                break
            if v0.kind == "coulomb" and e_hi > 0.0:
                raise NoBoundState("requested state above the continuum threshold")
        else:
            raise NoBoundState("cannot bracket from above")

        # node-count bisection: localize the jump nodes -> nodes+1
        for _ in range(64):
            e_mid = 0.5 * (e_lo + e_hi)
            if _count_nodes(rho2, veff, e_mid, hx, w0) <= nodes:
                e_lo = e_mid
            else:
                e_hi = e_mid
            if e_hi - e_lo < 1e-6 * max(abs(e_lo), 1e-3):
                break

        # secant refinement on the matching defect inside the bracket
        ea, eb = e_lo, e_hi
        fa, w, nd, m = _match_defect(rho2, veff, ea, hx, w0)
        fb = _match_defect(rho2, veff, eb, hx, w0)[0]
        energy = ea
        for _ in range(80):
            if fb == fa:
                break
            e_new = eb - fb * (eb - ea) / (fb - fa)
            if not (e_lo - (e_hi - e_lo) <= e_new <= e_hi + (e_hi - e_lo)):
                e_new = 0.5 * (ea + eb)
            f_new, w, nd, m = _match_defect(rho2, veff, e_new, hx, w0)
            ea, fa, eb, fb = eb, fb, e_new, f_new
            energy = e_new
            if abs(eb - ea) < rel_tol * max(abs(energy), 1e-9):
                break
        else:
            raise NotConverged("eigenvalue refinement did not converge")

        u = w * np.sqrt(rho)
        norm2 = simpson(u * u * rho, x=x)
        u /= math.sqrt(norm2)
        lead = u[np.argmax(np.abs(u[:80]))]
        if lead < 0:
            u = -u
        if abs(u[-1]) < 1e-10 * np.max(np.abs(u)):
            if nd != nodes:
                raise NotConverged(f"converged to {nd} nodes instead of {nodes}")
            return GridFunction(grid=rho, values=u, l=l, energy=energy, nodes=nd, hx=hx)
        rho_max *= 1.6  # tail not yet dead: extend and retry
        n_points = int(n_points * 1.3)
    raise NotConverged("grid extension retries exhausted")


def grid_expectation(state: GridFunction, weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """Simpson quadrature of int u^2 weight(rho) drho on the state's grid."""
    rho = state.grid
    integrand = state.values**2 * weight(rho) * rho
    return float(simpson(integrand, x=state.x()))


def grid_overlap(a: GridFunction, b: GridFunction) -> float:
    """int a b drho for two functions sampled on the same grid."""
    if a.grid.shape != b.grid.shape or abs(a.grid[0] - b.grid[0]) > 1e-12:
        raise ValueError("grid overlap requires a shared grid")
    rho = a.grid
    return float(simpson(a.values * b.values * rho, x=np.log(rho)))


def _derivative_x(values: np.ndarray, hx: float) -> np.ndarray:
    """Five-point central derivative with respect to x on a uniform grid."""
    d = np.zeros_like(values)
    d[2:-2] = (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * hx)
    d[1] = (values[2] - values[0]) / (2 * hx)
    d[-2] = (values[-1] - values[-3]) / (2 * hx)
    return d


def derivative_rho(state: GridFunction, values: np.ndarray, order: int = 1) -> np.ndarray:
    """d^order/drho^order of grid values via the log-grid chain rule."""
    out = np.asarray(values, dtype=float)
    rho = state.grid
    for _ in range(order):
        out = _derivative_x(out, state.hx) / rho
    return out


def grid_f_ladder(state: GridFunction, v0: Potential, channel, j: int) -> GridFunction:
    """Ladder function F_j on the grid from its explicit first-derivative forms.

    j = 0: rho u
    j = 1: 2((l+1)/rho - d/drho) u   (plus)   |  2(-l/rho - d/drho) u  (minus)
    j = 2: 4 v0' u
    j = 3: 8 (c/rho^2 v0' - v0'''/2 - v0'' d/drho) u,  c = l+1 (plus) | -l (minus)
    """
    if j not in (0, 1, 2, 3):
        raise ValueError("grid ladder supports j = 0..3")
    l = state.l
    plus = channel.direction == "plus"
    if v0.kind == "coulomb" and j >= 2 and l == 0:
        raise SingularDerivative("Coulomb grid ladder j>=2 is singular at rho=0 for l=0")
    rho = state.grid
    u = state.values
    if j == 0:
        vals = rho * u
    elif j == 1:
        du = derivative_rho(state, u)
        c = (l + 1) if plus else -l
        vals = 2.0 * (c / rho * u - du)
    elif j == 2:
        vals = 4.0 * v0.dv(rho, 1) * u
    else:
        du = derivative_rho(state, u)
        c = (l + 1) if plus else -l
        vals = 8.0 * (c / rho**2 * v0.dv(rho, 1) * u - 0.5 * v0.dv(rho, 3) * u - v0.dv(rho, 2) * du)
    vals = vals.copy()
    vals[:2] = 0.0
    vals[-2:] = 0.0
    return GridFunction(grid=rho, values=vals, l=channel.target_l, energy=state.energy,
                        nodes=state.nodes, hx=state.hx)
