"""Constructive dipole ladders for Coulomb states.

Positive rungs apply the shifted channel Hamiltonian repeatedly to the seed
rho * R_nl; negative rungs invert it with regular/decaying boundary conditions
and, in degenerate channels, orthogonality to the normalizable homogeneous
solution.  All rungs share the seed state's squared normalization factor, so
overlaps of two rungs are exact rationals: overlap(poly_i, poly_j) * norm2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactalg as xa
from .exactalg import PolyExp
from .hydrogen import BoundState, Channel, bound_state
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
