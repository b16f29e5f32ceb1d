"""Dimensionless radial potentials and a generic bound-state solver.

Potentials are expressed in the scaled radial variable rho with energies in
units eps = hbar^2/(M a^2):

    coulomb     v0 = -1/rho
    power(g)    v0 = rho**g / g        (g != 0, g > -2)
    log         v0 = log(rho)

The reduced radial equation solved here is

    u'' = (l(l+1)/rho^2 + 2 v0(rho) - 2 e) u,   int u^2 drho = 1.

Bound states are found on a log-uniform grid (x = log rho, w = u/sqrt(rho)):
each trial energy solves the Numerov rows of the whole grid once, with a unit
source at the outermost turning point, by cyclic reduction (the matrix Numerov
method).  The resulting matching defect is bracketed around the level of a
Lagrange-Laguerre mesh spectrum, which fixes the node count, and the shooter's
own eigenvalue is returned.  The log grid resolves the rho**(l+1) origin
behaviour and one policy covers every potential kind.  Negative-order sum
rules are solved on the same grid by the same tridiagonal kernel, and every
integral over the grid (norms, expectations, overlaps, Dalgarno-Lewis sums)
is one composite Simpson rule at the grid's constant log step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyfit

from .errors import (NoBoundState, NotConverged, PotentialOverflow, PotentialUnresolved, QuadratureNotConverged,
                     SingularDerivative)


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
            try:
                g_float = float(g)
            except OverflowError:
                g_float = math.inf
            if g_float == 0 or not math.isfinite(g_float):
                raise ValueError("power-law exponent must round to a nonzero finite float")

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

    def confining(self) -> bool:
        """True when the spectrum is all bound levels (log, g > 0); Coulomb
        and g < 0 have a continuum above 0."""
        return self.kind == "log" or (self.kind == "power" and self.gamma > 0)


COULOMB = Potential("coulomb")
LOG = Potential("log")


def power_law(gamma) -> Potential:
    return Potential("power", Fraction(gamma))


def _log_step(rho: np.ndarray) -> float:
    """The constant step of x = log rho on a log-uniform grid."""
    return math.log(rho[-1] / rho[0]) / (len(rho) - 1)


def _log_simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples y at the constant step h.  An even count takes
    Simpson's rule over the first n - 1 samples plus Cartwright's last-interval term
    h/12 (5 y[-1] + 8 y[-2] - y[-3]), scipy's correction at a constant step."""
    m = len(y) - 1 + len(y) % 2   # the odd count the plain rule covers
    total = h / 3.0 * (y[0] + y[m - 1] + 4.0 * y[1:m - 1:2].sum() + 2.0 * y[2:m - 1:2].sum())
    if m < len(y):
        total += h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
    return float(total)


@dataclass
class GridFunction:
    """A radial function sampled on a log-uniform rho grid (x = log rho with the
    constant step hx, derived from the grid's ends and length).

    For solver output values hold the reduced radial u, and energy/nodes describe
    the eigenstate.  Ladder functions reuse the container with the seed state's
    grid.  Every integral over the grid is integral(), one Simpson rule in x.
    """

    grid: np.ndarray
    values: np.ndarray
    l: int
    energy: float = 0.0
    nodes: int = 0

    @property
    def hx(self) -> float:
        return _log_step(self.grid)

    def integral(self, values: np.ndarray) -> float:
        """int values drho = int values rho dx over the grid."""
        return _log_simpson(values * self.grid, self.hx)

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
        coeffs = polyfit(r, y, 2)
        return float(coeffs[0])


def _log_grid_w(rho2: np.ndarray, veff: np.ndarray, energy: float) -> np.ndarray:
    """W-array for the log-grid equation w'' = [rho^2 Wu(rho) + 1/4] w.

    veff = l(l+1)/rho^2 + 2 v0(rho) is the energy-independent part of Wu.
    """
    return rho2 * (veff - 2.0 * energy) + 0.25


# Below this exponent the power law is a shifted log potential on the grid's extent
LOG_LIKE_GAMMA = 0.125
# A steep power law's grid ends where v0 is this multiple of the energy guess
CONFINE_RATIO = 1e6


def _default_rho_max(v0: Potential, l: int, nodes: int) -> float:
    n_eff = nodes + l + 1
    if v0.kind == "coulomb":
        return 2.0 * n_eff**2 + 35.0 * n_eff
    if v0.kind == "log":
        return 25.0 + 15.0 * n_eff
    g = float(v0.gamma)
    if 0 < g < LOG_LIKE_GAMMA:
        # v0 = 1/g + ln rho + O(g ln^2 rho): the levels are the log potential's plus 1/g and
        # lie inside its extent, while the guess below (about 3/g) has a turning point
        # near 3^(1/g), past the float range from g of about 0.0016.  The shooter works to
        # SHOOT_REL_TOL relative, so on top of 1/g it resolves a level only for g well above it
        if SHOOT_REL_TOL / g > 1e-3:
            raise PotentialUnresolved(f"the potential rho^g/g with g = {g:.6g} is 1/g + ln rho to within "
                                      f"the solver's tolerance: its levels are not resolved from 1/g")
        return 25.0 + 15.0 * n_eff
    if g > 0:
        # classical turning point of a generous energy guess, plus tail room
        e_guess = 3.0 * (nodes + l + 2) ** (2 * g / (g + 2.0)) / g + 2.0
        rt = (g * e_guess) ** (1.0 / g)
        rho_max = 3.0 * rt + 12.0
        # the shooter's log-grid equation holds 2 rho^2 v0 = 2 rho^(g+2) / g, a float only up to
        # about 1.8e308: an exponent past that on this extent (g above about 261) is no input taken
        if math.log(2.0) - math.log(g) + (g + 2.0) * math.log(rho_max) > math.log(np.finfo(float).max):
            raise PotentialOverflow(f"the potential rho^g/g with g = {g:.6g} overflows a float on the "
                                    f"grid out to rho = {rho_max:.4g}")
        # for steep exponents that extent holds v0 up to 15^g / g, which drowns the low mesh
        # levels in round-off: end the grid where v0 is CONFINE_RATIO times the guess
        # (binding from g of about 6 to 7, by level; g <= 4 keeps 3 rt + 12)
        return min(rho_max, rt * CONFINE_RATIO ** (1.0 / g))
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


# Mesh sizes of the pseudo-spectrum route: sums on the larger, error estimates from both
MESH_SIZES = (120, 180)


@lru_cache(maxsize=len(MESH_SIZES))
def _laguerre_mesh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, t) of the regularised n-point Lagrange-Laguerre mesh at unit scale: x are the
    zeros of L_n, ascending, as eigenvalues of the Laguerre Jacobi matrix (laggauss's
    weights overflow from n of about 180), and t is twice the kinetic matrix, which
    depends on n alone.  Read-only: callers share both."""
    k = np.arange(n)
    x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1))
    dx = np.subtract.outer(x, x) + np.eye(n)   # 1 on the diagonal, overwritten below
    sign = np.where(np.add.outer(k, k) & 1, -1.0, 1.0)   # (-1)^(i+j)
    t = sign * np.add.outer(x, x) / (np.sqrt(np.outer(x, x)) * dx * dx)
    np.fill_diagonal(t, (4.0 + (4 * n + 2) * x - x * x) / (12.0 * x * x))
    x.flags.writeable = t.flags.writeable = False
    return x, t


def _mesh_hamiltonian(v0: Potential, l: int, n: int, r_max: float):
    """(matrix, points r = h x) of the radial Hamiltonian on the regularised n-point
    Lagrange-Laguerre mesh reaching r_max (Baye 2015, Phys. Rep. 565, 1): the shared
    kinetic matrix of `_laguerre_mesh` scaled by 1/(2 h^2), plus the diagonal potential.
    Its quadrature is diagonal: <a|f|b> = a . (f(r) b)."""
    x, t = _laguerre_mesh(n)
    h, r = r_max / x[-1], r_max / x[-1] * x
    return t / (2.0 * h * h) + np.diag(l * (l + 1) / (2.0 * r * r) + v0.v(r)), r


def mesh_spectrum(v0: Potential, l: int, n: int, r_max: float):
    """(energies, eigenvectors in columns, points r) of `_mesh_hamiltonian`."""
    h_mesh, r = _mesh_hamiltonian(v0, l, n, r_max)
    return (*np.linalg.eigh(h_mesh), r)


def mesh_sum_rules(v0: Potential, l: int, nodes: int, chans, orders, n: int) -> dict[int, float]:
    """{J: sum over chans of w <0|r (2(H' - E))^J r|0>} for the level (l, nodes), on
    n-point meshes that share the solver's extent as r_max.

    J >= 0 is a moment of the channel's mesh matrix H', with no diagonalisation:
    from y_0 = r|0> and y_j+1 = 2(H' - E) y_j, S_J = w y_floor(J/2) . y_ceil(J/2).
    J < 0 sums w (2(E_k - E))^J <k|r|0>^2 over the spectrum of H', where levels
    degenerate with E drop out (they count in S_0)."""
    if nodes >= n:
        raise NotConverged(f"a {n}-point mesh holds no level with {nodes} nodes")
    r_max = _default_rho_max(v0, l, nodes)
    e, c, r = mesh_spectrum(v0, l, n, r_max)
    sums = dict.fromkeys(orders, 0.0)
    v = r * c[:, nodes]
    for chan in chans:
        a = _mesh_hamiltonian(v0, chan.target_l, n, r_max)[0]
        if min(orders) < 0:
            ek, ck = np.linalg.eigh(a)
            de = 2.0 * (ek - e[nodes])
            de[np.abs(de) < 1e-8] = 0.0
            me2 = float(chan.weight) * (ck.T @ v) ** 2
        a[np.diag_indices(n)] -= e[nodes]
        a *= 2.0   # a = 2(H' - E), formed in place
        y = [v]
        for _ in range((max(orders) + 1) // 2):   # the highest order needs ceil(J/2) products
            y.append(a @ y[-1])
        for J in orders:
            sums[J] += (float(chan.weight) * float(y[J // 2] @ y[-(-J // 2)]) if J >= 0 else
                        float(np.divide(1.0, de**-J, out=np.zeros(n), where=de != 0.0) @ me2))
    return sums


# Relative agreement the Dalgarno-Lewis sums must reach on every other grid point
HALF_GRID_TOL = 1e-6


def _tridiagonal_solve(a, b, c, d) -> np.ndarray:
    """x with a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] (a[0] and c[-1] unused), by cyclic
    reduction without pivoting (Hockney 1965, J. ACM 12, 95) in log2 n array steps.

    Each level writes its even rows as x = p - q x_left - s x_right, pads an even length
    with one decoupled identity row (p = q = s = 0), and folds the odd rows into their even
    neighbours; back-substitution runs level by level.  A zero or non-finite pivot raises
    ZeroDivisionError."""
    levels = []
    with np.errstate(all="ignore"):
        while True:
            r = 1.0 / b[::2]
            if not (np.isfinite(r).all() and r.all()):
                raise ZeroDivisionError("zero or non-finite pivot")
            p, q, s = d[::2] * r, a[::2] * r, c[::2] * r
            if len(b) % 2 == 0:
                p, q, s = (np.append(v, 0.0) for v in (p, q, s))
            levels.append((len(b), p, q, s))   # half length: keeping a, c, d too raises peak memory
            if len(b) == 1:
                break
            na, nc = -a[1::2], -c[1::2]
            a, b, c, d = (na * q[:-1], b[1::2] + na * s[:-1] + nc * q[1:], nc * s[1:],
                          d[1::2] + na * p[:-1] + nc * p[1:])
        x = np.empty(0)
        while levels:
            n, p, q, s = levels.pop()
            out, xz = np.empty(len(p) + len(x)), np.concatenate(([0.0], x, [0.0]))   # x = 0 past both ends
            out[1::2], out[::2] = x, p - q * xz[:-1] - s * xz[1:]
            x = out[:n]
    return x


def _dalgarno_lewis_sums(rho, u, v0: Potential, energy: float, chans, orders) -> dict[int, float]:
    """negative_sum_rules on one log-uniform grid: each rung is one _tridiagonal_solve
    through the Numerov rows of the interior points; a zero or non-finite pivot raises
    QuadratureNotConverged naming the rung."""
    hx = _log_step(rho)
    h2 = hx * hx / 12.0
    root, rho2 = np.sqrt(rho), rho * rho
    sums = dict.fromkeys(orders, 0.0)
    for chan in chans:
        lp = chan.target_l
        hw = h2 * _log_grid_w(rho2, lp * (lp + 1) / rho2 + 2.0 * v0.v(rho), energy)
        off, diag = 1.0 - hw, -2.0 - 10.0 * hw
        f = [rho * u]
        for _ in range((1 - min(orders)) // 2):   # the deepest order needs ceil(|J|/2) rungs
            s = rho * root * f[-1]
            rhs = -h2 * (s[:-2] + 10.0 * s[1:-1] + s[2:])
            try:
                phi = _tridiagonal_solve(off[:-2], diag[1:-1], off[2:], rhs)
            except ZeroDivisionError as exc:
                raise QuadratureNotConverged(f"Dalgarno-Lewis rung {len(f)} of l' = {lp}: {exc}") from None
            f.append(root * np.concatenate(([0.0], phi, [0.0])))   # phi = 0 at both ends
        for J in orders:
            k = -J // 2
            sums[J] += float(chan.weight) * _log_simpson(f[k] * f[-J - k] * rho, hx)
    return sums


def negative_sum_rules(state: GridFunction, v0: Potential, chans, orders) -> dict[int, float]:
    """{J: S_J} for J < 0, summed over chans, with no sum over final states: the
    Dalgarno-Lewis construction (Dalgarno & Lewis 1955, Proc. R. Soc. A 233, 70).

    From f_0 = rho u each rung solves 2(H' - E) f_k+1 = f_k, that is
    -f'' + (l'(l'+1)/rho^2 + 2 v0 - 2E) f = f_k, and S_-J = w <f_k, f_J-k> with
    k = floor(J/2).  On the state's log grid phi = f/sqrt(rho) obeys
    phi'' = W phi - rho^(3/2) f_k (W from _log_grid_w), with phi = 0 at both ends.

    Precondition: no level of l' lies at E; degenerate Coulomb channels (l' <= n - 1)
    would need it projected out of every rung.  Sums that move by more than
    HALF_GRID_TOL on every other grid point, or are not finite, raise
    QuadratureNotConverged.
    """
    if not orders or max(orders) >= 0:
        raise ValueError("negative_sum_rules takes orders J < 0")
    sums, half = (_dalgarno_lewis_sums(state.grid[::k], state.values[::k], v0, state.energy,
                                       chans, orders) for k in (1, 2))
    moved = max(abs(half[J] - sums[J]) / max(1.0, abs(sums[J])) for J in orders)
    if not moved <= HALF_GRID_TOL:   # a nan sum moves by nan, which must fail too
        raise QuadratureNotConverged(f"Dalgarno-Lewis sums move by {moved:.3g} on the half grid")
    return sums


def _match_defect(rho2, veff, energy, hx, w0):
    """Matching defect at a trial energy from one _tridiagonal_solve of the Numerov rows:
    the matrix Numerov method (Pillai, Goglio & Walker 2012, Am. J. Phys. 80, 1017).

    The rows f[i-1] w[i-1] + (10 f[i] - 12) w[i] + f[i+1] w[i+1] = 0 of the interior
    points take the outward start w[0] = w0 w[1] and the inward start
    w[-1] = exp(-kappa hx) w[-2] into their end rows, with a unit source at the
    outermost turning point m.  Left of m, w is the outward solution over the
    Wronskian of the outward and inward solutions (the inward one does not vanish in
    the forbidden region), so the defect 1/w[1] has the Wronskian's sign and changes
    sign at each shooter level and nowhere else; at the level, w is the eigenvector
    after one step of inverse iteration.

    Returns (defect, w, node count): nodes are the sign changes of w, where a product
    of neighbours that underflows to 0 counts none.  A zero or non-finite pivot, or a
    solve that gives no finite defect, raises NotConverged naming the energy.
    """
    big_w = _log_grid_w(rho2, veff, energy)
    f = 1.0 - (hx * hx / 12.0) * big_w
    n = len(f)
    sign_change = np.nonzero(np.diff(np.signbit(big_w)))[0]
    if len(sign_change) == 0:
        raise NoBoundState(f"no classical region for energy {energy}")
    m = int(sign_change[-1]) + 1
    if m < 4 or m > n - 4:
        raise NoBoundState("turning point too close to the grid edge")
    w_end = math.exp(-math.sqrt(max(big_w[-1], 1.0)) * hx)
    diag = 10.0 * f[1:-1] - 12.0
    diag[0] += f[0] * w0
    diag[-1] += f[-1] * w_end
    source = np.zeros(n - 2)
    source[m - 1] = 1.0
    try:
        inner = _tridiagonal_solve(f[:-2], diag, f[2:], source)
    except ZeroDivisionError as exc:
        raise NotConverged(f"the Numerov rows at energy {energy!r} are singular: {exc}") from None
    w = np.concatenate(([w0 * inner[0]], inner, [w_end * inner[-1]]))
    if inner[0] == 0.0 or not np.isfinite(w).all():
        raise NotConverged(f"the Numerov solve at energy {energy!r} gives no finite defect")
    with np.errstate(over="ignore"):
        nodes = int(np.count_nonzero(w[:-1] * w[1:] < 0.0))
    return 1.0 / float(inner[0]), w, nodes


# Points of the shooter's first log grid (each retry has 1.3 times more) and the
# relative bracket width at which its level search stops
SHOOT_POINTS = 8192
SHOOT_REL_TOL = 1e-12


def solve_bound(
    v0: Potential,
    l: int,
    nodes: int,
    *,
    rho_min: float = 1e-8,
    rho_max: float | None = None,
) -> GridFunction:
    """Bound eigenstate of v0 with given angular momentum and node count."""
    if l < 0 or nodes < 0:
        raise NoBoundState("l and nodes must be non-negative")
    size = MESH_SIZES[-1]
    if nodes + 1 >= size:
        raise NoBoundState(f"a {size}-point mesh gives no start for {nodes} nodes")
    if rho_max is None:
        rho_max = _default_rho_max(v0, l, nodes)

    n_points = SHOOT_POINTS
    for _attempt in range(3):
        # Numerov's f = 1 - hx^2 W / 12 at the level turns negative far out in steep
        # confining potentials: there the grid ends where hx^2 max W / 12 is 1/2
        for _extent in range(2):
            x = np.linspace(math.log(rho_min), math.log(rho_max), n_points)
            hx = x[1] - x[0]
            rho = np.exp(x)
            rho2 = rho**2
            veff = l * (l + 1) / rho2 + 2.0 * v0.v(rho)
            e = np.linalg.eigvalsh(_mesh_hamiltonian(v0, l, size, rho_max)[0]).tolist()
            if hx * hx / 12.0 * _log_grid_w(rho2, veff, e[nodes]).max() < 1.0:
                break   # keeping no W array here leaves the peak memory of the solve as it was
            reach = ((x - x[0]) / (n_points - 1)) ** 2 / 12.0 * np.maximum.accumulate(
                _log_grid_w(rho2, veff, e[nodes]))
            rho_max = float(rho[np.argmax(reach > 0.5) - 1])
        w0 = math.exp((l + 0.5) * (x[0] - x[1]))

        # the defect changes sign at each shooter level and nowhere else (_match_defect):
        # bracket the level within 1e-6 of the mesh level, else within halfway to the
        # neighbouring mesh levels (or to the continuum threshold) but above e_turn, the
        # lowest energy with a classical region on the grid, and refine it in the bracket
        if not v0.confining() and e[nodes] >= 0.0:
            raise NoBoundState("requested state above the continuum threshold")
        if not np.diff(np.signbit(_log_grid_w(rho2, veff, e[nodes]))).any():
            # a drowned mesh level of a steep wall (g from about 200): W keeps one sign
            raise NotConverged(f"the {size}-point mesh does not resolve this level: energy "
                               f"{e[nodes]:.6g} has no classical turning point on the grid")
        e_up = e[nodes + 1] if v0.confining() else min(e[nodes + 1], 0.0)
        e_lo = e[nodes] - 0.5 * (e[nodes] - e[nodes - 1] if nodes else e[1] - e[0])
        e_turn = float(np.min(0.5 * veff + 0.125 / rho2))   # W < 0 somewhere above e_turn
        if e_lo <= e_turn:   # a steep wall's ground level (g from about 60)
            e_lo = 0.5 * (e_turn + e[nodes])
        e_hi = 0.5 * (e[nodes] + e_up)
        step = 1e-6 * max(abs(e[nodes]), 1e-3)
        a, b = max(e[nodes] - step, e_lo), min(e[nodes] + step, e_hi)
        fa = _match_defect(rho2, veff, a, hx, w0)[0]
        fb = _match_defect(rho2, veff, b, hx, w0)[0]
        if fa * fb > 0.0:   # widen below the mesh level first, then above it
            f_lo = _match_defect(rho2, veff, e_lo, hx, w0)[0]
            if fa * f_lo <= 0.0:
                a, fa, b, fb = e_lo, f_lo, a, fa
            elif fb * (f_hi := _match_defect(rho2, veff, e_hi, hx, w0)[0]) <= 0.0:
                a, fa, b, fb = b, fb, e_hi, f_hi
            else:
                raise NotConverged("no level within halfway to the neighbouring mesh levels")
        # Illinois regula falsi; each point stays tol inside the bracket, so once
        # one end is within tol of the level the next point crosses it.  The floor,
        # a thousandth of the mesh level, binds only for a bracket about zero
        side = 0
        for _ in range(80):
            tol = SHOOT_REL_TOL * max(abs(a), abs(b), 1e-3 * abs(e[nodes]))
            energy = min(max((a * fb - b * fa) / (fb - fa), a + tol), b - tol)
            fc, w, nd = _match_defect(rho2, veff, energy, hx, w0)
            if fc * fb > 0.0:   # the level is below: move b, halve fa if a is stuck
                b, fb, fa, side = energy, fc, fa * (0.5 if side < 0 else 1.0), -1
            else:
                a, fa, fb, side = energy, fc, fb * (0.5 if side > 0 else 1.0), 1
            if b - a <= 2.0 * tol:
                break
        else:
            raise NotConverged("eigenvalue refinement did not converge")

        u = w * np.sqrt(rho)
        u /= math.sqrt(_log_simpson(u * u * rho, _log_step(rho)))
        lead = u[np.argmax(np.abs(u[:80]))]
        if lead < 0:
            u = -u
        if abs(u[-1]) < 1e-10 * np.max(np.abs(u)):
            if nd != nodes:
                raise NotConverged(f"converged to {nd} nodes instead of {nodes}")
            return GridFunction(grid=rho, values=u, l=l, energy=energy, nodes=nd)
        rho_max *= 1.6  # tail not yet dead: extend and retry
        n_points = int(n_points * 1.3)
    raise NotConverged("grid extension retries exhausted")


def grid_expectation(state: GridFunction, weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """int u^2 weight(rho) drho on the state's grid."""
    return state.integral(state.values**2 * weight(state.grid))


def grid_overlap(a: GridFunction, b: GridFunction) -> float:
    """int a b drho for two functions sampled on the same grid."""
    if (a.grid.shape != b.grid.shape or abs(a.grid[0] - b.grid[0]) > 1e-12
            or abs(a.hx - b.hx) > 1e-12 * a.hx):
        raise ValueError("grid overlap requires a shared grid")
    return a.integral(a.values * b.values)


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
                        nodes=state.nodes)
