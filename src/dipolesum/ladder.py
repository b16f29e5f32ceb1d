"""Constructive dipole ladders for Coulomb states.

Positive rungs apply the shifted channel Hamiltonian repeatedly to the seed
rho * R_nl; negative rungs invert it with regular/decaying boundary conditions
and, in degenerate channels, orthogonality to the normalizable homogeneous
solution.  All rungs share the seed state's squared normalization factor, so
overlaps of two rungs are exact rationals: overlap(poly_i, poly_j) * norm2.

The Green's-function route rebuilds the negative-order values for the ground
state numerically from the factorized homogeneous solutions

    Phi_1 = exp(-rho) (1 + 1/rho + 1/(2 rho^2))
    Phi_2 = exp(rho)/(2 rho^2) - Phi_1,      W(Phi_2, Phi_1) = -1/rho^2,

iterating the split form of the kernel integral (the split is what cancels
the exp(+rho) growth of Phi_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactalg as xa
from .errors import QuadratureNotConverged
from .exactalg import PolyExp
from .hydrogen import BoundState, Channel, bound_state
from .integrate import cumulative_simpson, simpson
from .potentials import COULOMB


@dataclass
class LadderFamily:
    """All ladder data for one (state, channel).

    positive[j] = F_j for j = 0..;  negative[j] = G_j for j = 0.. with
    negative[0] the projected seed.  seed_raw is the unprojected rho * R,
    used by order-0 sums.  homogeneous (with its own hom_norm2) is the
    normalizable solution of the channel equation when the target level is
    degenerate with the state.
    """

    state: BoundState
    channel: Channel
    norm2: Fraction
    seed_raw: PolyExp
    positive: list[PolyExp] = field(default_factory=list)
    negative: list[PolyExp] = field(default_factory=list)
    homogeneous: PolyExp | None = None
    hom_norm2: Fraction | None = None

    def pair_overlap(self, f: PolyExp, g: PolyExp) -> Fraction:
        return xa.overlap(f, g) * self.norm2


@dataclass(frozen=True)
class WronskianValue:
    j: int
    k: int
    channel: Channel
    value: Fraction


class _Infinite:
    """Marker for a Wronskian limit with surviving negative powers."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Infinite"


INFINITE = _Infinite()


def _family_base(state: BoundState, chan: Channel) -> LadderFamily:
    seed = xa.shift(state.radial, 1)
    fam = LadderFamily(state=state, channel=chan, norm2=state.norm2, seed_raw=seed)
    lp = chan.target_l
    if 0 <= lp <= state.n - 1:
        hom = bound_state(state.n, lp)
        fam.homogeneous = hom.radial
        fam.hom_norm2 = hom.norm2
    return fam


def _project(fam: LadderFamily, poly: PolyExp) -> PolyExp:
    """Remove the homogeneous component: poly - R~ <R~|poly> in family scaling.

    With u = poly sqrt(N) and R~ = r sqrt(M), the subtraction coefficient in
    the family scaling is overlap(r, poly) * M, which is rational.
    """
    if fam.homogeneous is None:
        return poly
    coeff = xa.overlap(fam.homogeneous, poly) * fam.hom_norm2
    return xa.sub(poly, xa.scale(fam.homogeneous, coeff))


def build_f_ladder(state: BoundState, chan: Channel, max_j: int) -> LadderFamily:
    """Positive rungs F_0..F_max_j; Coulomb only, max_j <= 4.

    In a degenerate minus channel the stored F_0 is the projected seed while
    seed_raw keeps the bare rho * R for order-0 sums.
    """
    if max_j > 4:
        raise ValueError("positive ladder built at most to j = 4")
    fam = _family_base(state, chan)
    f0 = fam.seed_raw
    if chan.direction == "minus" and fam.homogeneous is not None:
        f0 = _project(fam, f0)
    fam.positive = [f0]
    for _ in range(max_j):
        fam.positive.append(
            xa.apply_h(fam.positive[-1], chan.target_l, state.ksq, COULOMB)
        )
    return fam


def build_g_ladder(state: BoundState, chan: Channel, max_j: int) -> LadderFamily:
    """Negative rungs G_0..G_max_j via projected inhomogeneous solves."""
    fam = _family_base(state, chan)
    fam.negative = [_project(fam, fam.seed_raw)]
    for _ in range(max_j):
        rhs = _project(fam, fam.negative[-1])
        sol = xa.solve_inhomogeneous(
            rhs, chan.target_l, state.ksq, COULOMB, homogeneous=fam.homogeneous
        )
        fam.negative.append(sol)
    return fam


def ladder_rung(fam: LadderFamily, j: int) -> PolyExp:
    """F_j with the raw (unprojected) seed at j = 0.

    Boundary quantities and order-0 pairings are defined through the bare
    seed rho * R; projection only shifts F_0 by a multiple of the homogeneous
    solution, which every rung with j >= 1 annihilates.
    """
    return fam.seed_raw if j == 0 else fam.positive[j]


def wronskian_at_origin(fam: LadderFamily, j: int, k: int):
    """Exact rho -> 0 limit of F_j F_k' - F_k F_j' (family scaling included).

    Returns WronskianValue, or INFINITE when negative powers survive.
    """
    fj, fk = ladder_rung(fam, j), ladder_rung(fam, k)
    prod = xa.sub(xa.mul(fj, xa.differentiate(fk)), xa.mul(fk, xa.differentiate(fj)))
    lim = xa.origin_limit(prod)
    if lim is None:
        return INFINITE
    return WronskianValue(j=j, k=k, channel=fam.channel, value=lim * fam.norm2)


# ---------------------------------------------------------------------------
# Green's-function route (ground state, plus channel)
# ---------------------------------------------------------------------------

_PHI2_SERIES_CUT = 0.9


def _phi2_series_coeffs(nmax: int = 40) -> list[float]:
    """Taylor coefficients c_k of N(rho) = exp(rho) - exp(-rho)(2rho^2+2rho+1),
    which starts at rho^3; Phi_2 = N / (2 rho^2)."""
    cs = [0.0] * (nmax + 1)
    for kk in range(3, nmax + 1):
        if kk % 2 == 0:
            cs[kk] = -2.0 * (kk - 2) / math.factorial(kk - 1)
        else:
            cs[kk] = (2.0 / math.factorial(kk)
                      - 2.0 / math.factorial(kk - 1)
                      + 2.0 / math.factorial(kk - 2))
    return cs


_PHI2_COEFFS = _phi2_series_coeffs()


def phi1(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    return np.exp(-rho) * (1.0 + 1.0 / rho + 0.5 / rho**2)


def dphi1(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    return -phi1(rho) + np.exp(-rho) * (-(rho**-2) - rho**-3)


def phi2(rho: np.ndarray) -> np.ndarray:
    """Growing-at-infinity, regular-at-origin partner (series below rho=0.9
    where the explicit form cancels catastrophically)."""
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    small = rho < _PHI2_SERIES_CUT
    rs = rho[small]
    acc = np.zeros_like(rs)
    for kk in range(len(_PHI2_COEFFS) - 1, 2, -1):
        acc = (acc + _PHI2_COEFFS[kk]) * rs
    acc *= rs * rs  # rho^3 lowest power
    out[small] = acc / (2.0 * rs**2)
    rb = rho[~small]
    out[~small] = (np.exp(rb) - np.exp(-rb) * (2 * rb**2 + 2 * rb + 1)) / (2 * rb**2)
    return out


def dphi2(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    small = rho < _PHI2_SERIES_CUT
    rs = rho[small]
    # Phi_2 = sum c_k rho^(k-2) / 2, so Phi_2' = sum c_k (k-2) rho^(k-3) / 2
    acc = np.zeros_like(rs)
    for kk in range(len(_PHI2_COEFFS) - 1, 3, -1):
        acc = (acc + _PHI2_COEFFS[kk] * (kk - 2) / 2.0) * rs
    acc += _PHI2_COEFFS[3] * 0.5
    out[small] = acc
    rb = rho[~small]
    n_val = np.exp(rb) - np.exp(-rb) * (2 * rb**2 + 2 * rb + 1)
    dn = np.exp(rb) + np.exp(-rb) * (2 * rb**2 + 2 * rb + 1) - np.exp(-rb) * (4 * rb + 2)
    out[~small] = dn / (2 * rb**2) - n_val / rb**3
    return out


def greens_wronskian_residual(rho: np.ndarray) -> np.ndarray:
    """Phi_2 Phi_1' - Phi_1 Phi_2' + 1/rho^2 (should vanish identically)."""
    rho = np.asarray(rho, dtype=float)
    return phi2(rho) * dphi1(rho) - phi1(rho) * dphi2(rho) + rho**-2


# Log grid of the kernel route: GREENS_POINTS points on [GREENS_RHO_LO,
# GREENS_RHO_HI]; the every-other-point grid must agree to GREENS_CHECK_TOL.
GREENS_POINTS = 8001
GREENS_RHO_LO = 1e-6
GREENS_RHO_HI = 60.0
GREENS_CHECK_TOL = 1e-6


def _kernel_value(t: np.ndarray, j: int) -> float:
    """(1/3) int g_0 g_j rho^2 drho on the log grid t = log(rho)."""
    rho = np.exp(t)
    p1, p2 = phi1(rho), phi2(rho)
    g0 = 2.0 * rho * np.exp(-rho)  # full radial seed: u = rho * g0 reduced
    g = g0
    for _ in range(j):
        inner = cumulative_simpson(p2 * g * rho**3, x=t, initial=0.0)
        outer_full = cumulative_simpson(p1 * g * rho**3, x=t, initial=0.0)
        outer = outer_full[-1] - outer_full
        g = p1 * inner + p2 * outer
    return simpson(g0 * g * rho**3, x=t) / 3.0


def greens_negative_order(j: int) -> float:
    """Numeric S_-j for the ground-state plus channel via iterated kernel
    quadrature on a log grid.

    Each iteration maps the full radial g_K to

        g_{K+1}(rho) = Phi_1(rho) int_0^rho Phi_2 g_K t^2 dt
                     + Phi_2(rho) int_rho^inf Phi_1 g_K t^2 dt

    and the value is (1/3) * int g_0 g_j rho^2 drho.
    """
    if j < 1:
        raise ValueError("negative order j >= 1")
    t = np.linspace(math.log(GREENS_RHO_LO), math.log(GREENS_RHO_HI), GREENS_POINTS)
    value = _kernel_value(t, j)
    coarse = _kernel_value(t[::2], j)
    if abs(coarse - value) > GREENS_CHECK_TOL * max(1.0, abs(value)):
        raise QuadratureNotConverged(
            f"kernel quadrature for j={j}: refinement moved by {abs(coarse - value):.3g}"
        )
    return float(value)
