"""Constructive dipole ladders for Coulomb states.

Positive rungs apply the shifted channel Hamiltonian repeatedly to the seed
rho * R_nl; negative rungs invert it with regular/decaying boundary conditions
and, in degenerate channels, orthogonality to the normalizable homogeneous
solution.  All rungs share the seed state's squared normalization factor, so
overlaps of two rungs are exact rationals: overlap(poly_i, poly_j) * norm2.
Each (state, channel) has one cached LadderFamily, family(n, l, direction),
whose rung lists grow in place to the depth a caller asks for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactalg as xa
from .errors import InvalidOrder
from .exactalg import PolyExp
from .hydrogen import BoundState, Channel, bound_state, channel

# deepest positive rung: F_5 of a low-l state falls below exactalg's rho^-4 floor
MAX_F_RUNG = 4


@dataclass
class LadderFamily:
    """All ladder data for one (state, channel), grown in place.

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

    def _project(self, poly: PolyExp) -> PolyExp:
        """Remove the homogeneous component: poly - R~ <R~|poly> in family scaling.

        With u = poly sqrt(N) and R~ = r sqrt(M), the subtraction coefficient in
        the family scaling is overlap(r, poly) * M, which is rational.
        """
        if self.homogeneous is None:
            return poly
        coeff = xa.overlap(self.homogeneous, poly) * self.hom_norm2
        return xa.sub(poly, xa.scale(self.homogeneous, coeff))

    def grow_f(self, max_j: int) -> LadderFamily:
        """Build the positive rungs through F_max_j; Coulomb only, max_j <= MAX_F_RUNG.

        In a degenerate minus channel the stored F_0 is the projected seed while
        seed_raw keeps the bare rho * R for order-0 sums.
        """
        if max_j > MAX_F_RUNG:
            raise InvalidOrder(f"positive ladder built at most to j = {MAX_F_RUNG}")
        if not self.positive:
            minus = self.channel.direction == "minus"
            self.positive.append(self._project(self.seed_raw) if minus else self.seed_raw)
        while len(self.positive) <= max_j:
            self.positive.append(xa.apply_h(self.positive[-1], self.channel.target_l, self.state.ksq))
        return self

    def grow_g(self, max_j: int) -> LadderFamily:
        """Build the negative rungs through G_max_j by projected inhomogeneous solves."""
        if not self.negative:
            self.negative.append(self._project(self.seed_raw))
        while len(self.negative) <= max_j:
            rhs = self._project(self.negative[-1])
            self.negative.append(xa.solve_inhomogeneous(
                rhs, self.channel.target_l, self.state.ksq, homogeneous=self.homogeneous))
        return self


@functools.cache
def family(n: int, l: int, direction: str) -> LadderFamily:
    """The one LadderFamily per (state, channel), shared by every route."""
    state, chan = bound_state(n, l), channel(direction, l)
    fam = LadderFamily(state=state, channel=chan, norm2=state.norm2,
                       seed_raw=xa.shift(state.radial, 1))
    if 0 <= chan.target_l <= n - 1:
        hom = bound_state(n, chan.target_l)
        fam.homogeneous, fam.hom_norm2 = hom.radial, hom.norm2
    return fam


def ladder_rung(fam: LadderFamily, j: int) -> PolyExp:
    """F_j with the raw (unprojected) seed at j = 0.

    Boundary quantities and order-0 pairings are defined through the bare
    seed rho * R; projection only shifts F_0 by a multiple of the homogeneous
    solution, which every rung with j >= 1 annihilates.
    """
    return fam.seed_raw if j == 0 else fam.grow_f(j).positive[j]


def wronskian_at_origin(fam: LadderFamily, j: int, k: int) -> Fraction | None:
    """Exact rho -> 0 limit of F_j F_k' - F_k F_j' in family scaling (the
    origin limit times norm2); None when negative powers survive, as in
    exactalg.origin_limit."""
    fj, fk = ladder_rung(fam, j), ladder_rung(fam, k)
    prod = xa.sub(xa.mul(fj, xa.differentiate(fk)), xa.mul(fk, xa.differentiate(fj)))
    lim = xa.origin_limit(prod)
    return None if lim is None else lim * fam.norm2
