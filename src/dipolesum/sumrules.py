"""Assembly of sum-rule values and the identity suites.

Sum rules S_J collect |<m,l| z |n,l'>|^2 over the spectrum with weight
(k_m^2 - k_n^2)^J (discrete) and (k_m^2 + q^2)^J (continuum).  Three routes
meet here:

  * constructive: exact overlaps of ladder rungs,
  * closed forms: Coulomb expressions in (m, lambda = l(l+1)) and the
    power-law / log expectation forms,
  * identities: virial, generalized Kramers relation, boundary-corrected
    pairing equivalences, and the radiative-rate constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import exactalg as xa
from . import potentials as pots
from .errors import (
    DivergentAtOrigin,
    DivergentExpectation,
    InvalidOrder,
    OutOfValidityRange,
)
from .hydrogen import BoundState, Channel, expectation_rho_power
from .ladder import LadderFamily, family, ladder_rung, wronskian_at_origin
from .potentials import GridFunction, Potential, grid_expectation, grid_f_ladder, grid_overlap


@dataclass
class SumRuleValue:
    """One (state, order, channel) row with every available column."""

    state: tuple
    J: int
    channel: str                      # "plus" | "minus" | "total"
    discrete: float | None = None
    continuum: float | None = None
    constructive: Fraction | None = None
    closed_form: Fraction | None = None
    estimated_error: float = 0.0

    @property
    def total(self) -> float | None:
        if self.discrete is None or self.continuum is None:
            return None
        return self.discrete + self.continuum


# ---------------------------------------------------------------------------
# constructive values from ladders
# ---------------------------------------------------------------------------


def sum_rule_constructive(fam: LadderFamily, J: int) -> Fraction:
    """Exact channel value via the canonical pairing K = floor(|J|/2).

    Order 0 pairs the unprojected seed with itself; negative orders pair the
    projected inverse rungs.  The family grows the rungs the order needs.
    """
    if J == 0:
        return fam.channel.weight * fam.pair_overlap(fam.seed_raw, fam.seed_raw)
    k = abs(J) // 2
    rungs = fam.grow_f(J - k).positive if J > 0 else fam.grow_g(-J - k).negative
    return fam.channel.weight * fam.pair_overlap(rungs[k], rungs[abs(J) - k])


def constructive_value(n: int, l: int, direction: str, J: int) -> Fraction | None:
    """Exact channel or total value of a Coulomb state from its shared ladder
    families; None for the minus channel of an s state."""
    if direction == "total":
        return sum(constructive_value(n, l, d, J) for d in ("plus", "minus")[: 1 + (l > 0)])
    if direction == "minus" and l == 0:
        return None
    return sum_rule_constructive(family(n, l, direction), J)


# ---------------------------------------------------------------------------
# Coulomb closed forms
# ---------------------------------------------------------------------------


def closed_form_coulomb(m: int, l: int, J: int, *, corrected_root: bool = True):
    """Closed-form total S_J for a Coulomb state in terms of m, lambda=l(l+1).

    The J=3,4 forms carry 1/sqrt(4*lambda+1) = 1/(2l+1); the variant with
    (4*lambda^2+1) under the root is kept as a negative control
    (corrected_root=False, float result) because it fails the constructive
    cross-check for every l >= 1.
    """
    lam = l * (l + 1)
    kappa = Fraction(2 * lam - 1, 4 * lam - 3)
    if J == 0:
        return Fraction(m * m, 2) * (5 * m * m + 1 - 3 * lam) * kappa
    if J == 1:
        return Fraction(1)
    if J == 2:
        return Fraction(4, m * m) * kappa
    if J == 3:
        if corrected_root:
            return Fraction(-16, m**3) * Fraction(1, 4 * lam - 3) * Fraction(1, 2 * l + 1)
        return -16.0 / m**3 / (4 * lam - 3) / math.sqrt(4 * lam * lam + 1)
    if J == 4:
        if l < 1:
            raise InvalidOrder("the order-4 closed form requires l >= 1")
        base = (Fraction(4, m) ** 3 * Fraction(3 * m * m - lam, m * m)
                * Fraction(2 * lam - 1, lam * (4 * lam - 3) ** 2))
        if corrected_root:
            return base * Fraction(1, 2 * l + 1)
        return float(base) / math.sqrt(4 * lam * lam + 1)
    raise InvalidOrder("closed forms cover J = 0..4")


def closed_form_power_law(state: GridFunction, v0: Potential, J: int) -> float:
    """Expectation-value forms of S_0..S_4 for power-law and log potentials."""
    lam = state.l * (state.l + 1)
    kappa = (2 * lam - 1) / (4 * lam - 3)
    if J == 0:
        return kappa * grid_expectation(state, lambda r: r**2)
    if J == 1:
        return 1.0
    if v0.kind == "log":
        if J == 2:
            return 4.0 * kappa
        if J == 3:
            return 4.0 / (3 - 4 * lam) * _power_moment(state, Fraction(-2), -2.0, "<rho^-2>")
        if J == 4:
            return 16.0 * kappa * _power_moment(state, Fraction(-2), -2.0, "<rho^-2>")
        raise InvalidOrder("log-potential closed forms cover J = 0..4")
    if v0.kind != "power":
        raise InvalidOrder("use closed_form_coulomb for the Coulomb potential")
    g = float(v0.gamma)
    if J == 2:
        return 4.0 * kappa * grid_expectation(state, lambda r: r**g)
    if J == 3:
        expv = _power_moment(state, v0.gamma - 2, g - 2.0, "<rho^(gamma-2)>")
        return 4.0 * (kappa * (g - 2.0) + 1.0) * expv
    if J == 4:
        return 16.0 * kappa * _power_moment(state, 2 * v0.gamma - 2, 2.0 * g - 2.0,
                                            "<rho^(2 gamma - 2)>")
    raise InvalidOrder("power-law closed forms cover J = 0..4")


def _power_moment(state: GridFunction, p: Fraction, p_float: float, name: str) -> float:
    """<rho^p_float>, p_float being the float form of the exponent p.

    u ~ C_l rho^(l+1) at the origin, so <rho^p> exists iff p > -(2l+3).  The
    rule is applied to the exact p: a grid that starts at rho_min > 0 returns
    a finite sum for a divergent moment too.  The grid sum misses
    int_0^rho_min u^2 rho^p = C_l^2 rho_min^s / s with s = 2l+3+p, which is
    added analytically (it is the leading error for p near -(2l+3)).
    """
    s = 2 * state.l + 3 + p
    if s <= 0:
        raise DivergentExpectation(f"{name} does not exist")
    expv = grid_expectation(state, lambda r: r**p_float)
    if not math.isfinite(expv):
        raise DivergentExpectation(f"{name} does not exist")
    return expv + state.c_origin() ** 2 * float(state.grid[0]) ** float(s) / float(s)


def sum_rule_grid(state: GridFunction, v0: Potential, chan: Channel, J: int) -> float:
    """Channel S_J from grid ladders (J = 0..6, smooth potentials)."""
    if J < 0 or J > 6:
        raise InvalidOrder("grid route covers J = 0..6")
    k = J // 2
    fa = grid_f_ladder(state, v0, chan, k)
    fb = grid_f_ladder(state, v0, chan, J - k)
    return float(chan.weight) * grid_overlap(fa, fb)


# ---------------------------------------------------------------------------
# polarizability
# ---------------------------------------------------------------------------


def polarizability_1s() -> Fraction:
    """Static dipole polarizability of the ground state in units a0^3.

    Derived from the order -1 sum (alpha0 = 4 S_{-1}), not hard-coded.
    """
    return 4 * constructive_value(1, 0, "plus", -1)


# ---------------------------------------------------------------------------
# generalized Kramers identity
# ---------------------------------------------------------------------------


class FChoice(Enum):
    CONST = "const"
    RHO = "rho"
    RHO2 = "rho2"
    RHO3 = "rho3"
    R_SQUARED = "r_squared"
    V0 = "v0"
    V0_PRIME = "v0_prime"
    RHO_V0_DOUBLE_PRIME = "rho_v0_double_prime"


# the choices f = rho^e
_POWERS = {FChoice.CONST: 0, FChoice.RHO: 1, FChoice.RHO2: 2, FChoice.RHO3: 3}


def _origin_data(choice: FChoice, v0: Potential) -> tuple[Fraction | None, Fraction | None]:
    """(b, q) with f -> b rho^q at the origin, for every choice but R_SQUARED;
    (None, None) for f = ln rho.  For the Coulomb potential f is exactly b rho^q
    with integer q."""
    if choice in _POWERS:
        return Fraction(1), Fraction(_POWERS[choice])
    origin = v0.origin_power()
    if origin is None:  # log potential
        if choice is FChoice.V0:
            return None, None
        if choice is FChoice.V0_PRIME:
            return Fraction(1), Fraction(-1)
        return Fraction(-1), Fraction(-1)  # rho * v0'' = -1/rho
    b, q = origin
    if choice is FChoice.V0:
        return b, q
    if choice is FChoice.V0_PRIME:
        return b * q, q - 1
    return b * q * (q - 1), q - 1  # rho * v0''


def _existing_origin(choice: FChoice, v0: Potential, l: int) -> tuple[Fraction | None, Fraction | None]:
    """_origin_data of a choice whose <W> exists; DivergentExpectation otherwise.

    For f -> b rho^q the rho^(q-3) term of W (_lead_coefficient) leads on every
    potential, as the v0 terms go as rho^(q+p-1) with v0 ~ rho^p, p > -2.  So
    against u^2 ~ C_l^2 rho^(2l+2) <W> exists iff q >= -2l; at q = -2l that
    coefficient vanishes and the contact term takes its place.  f = ln rho
    needs l >= 1, and f = u^2 (R_SQUARED, no origin data) always exists.
    """
    if choice is FChoice.R_SQUARED:
        return None, None
    b, q = _origin_data(choice, v0)
    if q is None:
        if l == 0:
            raise DivergentExpectation("<rho^-3> diverges for l = 0")
    elif q < -2 * l:
        raise DivergentExpectation(f"<rho^{q - 3}> diverges for l = {l}")
    return b, q


def _lead_coefficient(b: Fraction, q: Fraction, l: int) -> Fraction:
    """Coefficient of rho^(q-3) in W for f = b rho^q, the same on every
    potential: it comes from -f'''/4 + l(l+1) (f'/rho^2 - f/rho^3) alone."""
    return b * (q - 1) * (2 * l + 2 - q) * (2 * l + q) / 4


def _coulomb_weight(b: Fraction, q: int, l: int, ksq: Fraction) -> dict[int, Fraction]:
    """W for f = b rho^q and v0 = -1/rho as {power: coefficient}, zero terms
    dropped: b ksq q rho^(q-1) + b (1 - 2q) rho^(q-2) + lead rho^(q-3)."""
    weight = {q - 1: b * ksq * q, q - 2: b * (1 - 2 * q), q - 3: _lead_coefficient(b, q, l)}
    return {e: c for e, c in weight.items() if c}


def kramers_general_exact(state: BoundState, choice: FChoice) -> Fraction:
    """Residual (left minus right side) of the radial moment identity

        -<f'''>/4 + k^2 <f'> + <v0' f + 2 v0 f'> + l(l+1) <f'/rho^2 - f/rho^3>
            = (b/2) C_l^2 (2l+1)^2 delta_{q, -2l}

    for an exact Coulomb state.  Except for R_SQUARED, f is exactly the
    origin power b rho^q of _origin_data and W is _coulomb_weight.  Exactly
    zero whenever <W> exists (_existing_origin); DivergentExpectation otherwise.
    """
    l = state.l
    b, q = _existing_origin(choice, pots.COULOMB, l)
    if choice is FChoice.R_SQUARED:
        # W(f) with f = u^2 in the state's scaling (norm2^2 carried outside)
        f = xa.mul(state.radial, state.radial)
        f1 = xa.differentiate(f)
        f3 = xa.differentiate(xa.differentiate(f1))
        w = xa.add(xa.scale(f3, Fraction(-1, 4)), xa.scale(f1, state.ksq))
        w = xa.add(w, xa.sub(xa.shift(f, -2), xa.scale(xa.shift(f1, -1), 2)))  # v0' f + 2 v0 f'
        if l:
            w = xa.add(w, xa.scale(xa.sub(xa.shift(f1, -2), xa.shift(f, -3)), l * (l + 1)))
        return xa.overlap(f, w) * state.norm2 * state.norm2  # q = 2l+2 never equals -2l

    lhs = sum(c * expectation_rho_power(state, e)
              for e, c in _coulomb_weight(b, int(q), l, state.ksq).items())
    rhs = Fraction(0)
    if q == -2 * l:
        rhs = b / 2 * state.c_origin_sq() * (2 * l + 1) ** 2
    return lhs - rhs


def kramers_general_grid(state: GridFunction, v0: Potential, choice: FChoice) -> float:
    """Same residual for a numeric state; derivatives of f analytic except for
    the probability-density choice, which uses grid derivatives.  For q > -2l
    the leading part of int_0^rho_min u^2 W, below the grid, is added
    analytically: the rho^(q-3) term against C_l^2 rho^(2l+2)."""
    rho = state.grid
    l = state.l
    ksq = -2.0 * state.energy
    b, q = _existing_origin(choice, v0, l)

    if choice is FChoice.R_SQUARED:
        f = state.values**2
        # remaining identity terms vanish through the equation of motion
        return state.integral(f * pots.derivative_rho(state, f, 3))

    if choice in _POWERS:
        e = _POWERS[choice]
        f = rho ** float(e)
        f1 = e * rho ** (e - 1.0)
        f3 = (e * (e - 1) * (e - 2)) * rho ** (e - 3.0)
    elif choice is FChoice.V0:
        f, f1, f3 = v0.v(rho), v0.dv(rho, 1), v0.dv(rho, 3)
    elif choice is FChoice.V0_PRIME:
        f, f1, f3 = v0.dv(rho, 1), v0.dv(rho, 2), v0.dv(rho, 4)
    else:
        f = rho * v0.dv(rho, 2)
        f1 = v0.dv(rho, 2) + rho * v0.dv(rho, 3)
        f3 = 3.0 * v0.dv(rho, 4) + rho * v0.dv(rho, 5)

    w = -0.25 * f3 + ksq * f1 + v0.dv(rho, 1) * f + 2.0 * v0.v(rho) * f1
    if l:
        w = w + l * (l + 1) * (f1 / rho**2 - f / rho**3)
    lhs = grid_expectation(state, lambda r: w)

    if q == -2 * l:
        return lhs - float(b) / 2.0 * state.c_origin() ** 2 * (2 * l + 1) ** 2
    if q is None or not (lead := _lead_coefficient(b, q, l)):
        return lhs
    s = float(2 * l + q)
    return lhs + float(lead) * state.c_origin() ** 2 * float(rho[0]) ** s / s


def kramers_general(state, v0: Potential, choice: FChoice):
    if isinstance(state, BoundState):
        if v0.kind != "coulomb":
            raise ValueError("exact states pair with the Coulomb potential")
        return kramers_general_exact(state, choice)
    return kramers_general_grid(state, v0, choice)


def kramers_recurrence(state: BoundState, J: int) -> Fraction:
    """Residual of the three-term recurrence among Coulomb <rho^J> moments,

        (J+1)/m^2 <rho^J> - (2J+1) <rho^(J-1)>
            + (J/4)(2l+1+J)(2l+1-J) <rho^(J-2)> = 0,   J >= -2l:

    the f = rho^(J+1) member of the moment identity, its _coulomb_weight
    summed against the exact moments.
    """
    if J < -2 * state.l:
        raise OutOfValidityRange(f"recurrence requires J >= {-2 * state.l}")
    return sum(c * expectation_rho_power(state, e)
               for e, c in _coulomb_weight(Fraction(1), J + 1, state.l, state.ksq).items())


# ---------------------------------------------------------------------------
# pairing equivalences
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    state: tuple
    channel: str
    J: int
    overlaps: dict[tuple[int, int], Fraction | None]  # <F_j|F_k>, None if divergent
    identities: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.identities)


def equivalence_suite(fam: LadderFamily, J: int) -> EquivalenceReport:
    """Check every pairing of order J against the boundary-term identity

        <F_j | F_(k+1)> = <F_(j+1) | F_k> + W(F_j, F_k)|_0,

    with overlaps keyed (j, J - j), j <= J - j.  A divergent Wronskian (None)
    passes when a side diverges or the two sides differ.  The family grows the
    rungs the pairings read.
    """
    if J not in (3, 4):
        raise InvalidOrder("equivalence suite covers J = 3 and 4")
    overlaps = {}
    for j in range(0, J // 2 + 1):
        k = J - j
        try:
            overlaps[j, k] = fam.pair_overlap(ladder_rung(fam, j), ladder_rung(fam, k))
        except DivergentAtOrigin:
            overlaps[j, k] = None
    identities = []
    for j in range(0, (J - 1) // 2 + 1):
        k = J - 1 - j
        wr = wronskian_at_origin(fam, j, k)
        left, right = overlaps[j, k + 1], overlaps[min(j + 1, k), max(j + 1, k)]
        name = f"<F{j}|F{k + 1}> - <F{j + 1}|F{k}> = W(F{j},F{k})|0"
        if wr is None or left is None or right is None:
            ok = wr is None and (left is None or right is None or left != right)
            identities.append((name + " [divergent boundary]", ok))
        else:
            identities.append((name, left - right == wr))
    return EquivalenceReport(
        state=(fam.state.n, fam.state.l),
        channel=fam.channel.direction,
        J=J,
        overlaps=overlaps,
        identities=identities,
    )


# ---------------------------------------------------------------------------
# radiative rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalConstants:
    fine_structure: float = 7.2973525693e-3
    electron_mc2_ev: float = 510998.95
    hbar_ev_s: float = 6.582119569e-16


CONSTANTS = PhysicalConstants()


@dataclass
class EinsteinInputs:
    system: str                           # "oscillator" | "hydrogen_2p"
    fine_structure: float = CONSTANTS.fine_structure
    mass_energy: float = CONSTANTS.electron_mc2_ev   # M c^2 in eV
    omega: float | None = None            # 1/s, oscillator only


@dataclass
class EinsteinRates:
    a_coefficient: float      # 1/s
    lifetime: float           # s
    classical_ratio: float    # quantum A / classical damping rate


def einstein_rates(inputs: EinsteinInputs) -> EinsteinRates:
    """Spontaneous-emission rate from the dipole B coefficient.

    Both systems use A = (4/3) alpha (hbar w / M c^2) w (|r|/len)^2 with the
    natural length of the system; the oscillator has (|r|/len)^2 = 1/2, which
    reproduces the classical damping rate exactly.  The hydrogen 1S-2P pair
    has |r|^2 = a0^2 2^15/3^10 and hbar w = (3/8) alpha^2 M c^2.
    """
    alpha = inputs.fine_structure
    mc2 = inputs.mass_energy
    hbar = CONSTANTS.hbar_ev_s
    if inputs.system == "oscillator":
        omega = inputs.omega if inputs.omega is not None else 1.0e15
        a_cl = (2.0 / 3.0) * alpha * (hbar * omega / mc2) * omega
        ratio_sq = Fraction(1, 2)  # (|r_ba| / lambda)^2, exact
        a_q = (4.0 / 3.0) * alpha * (hbar * omega / mc2) * omega * float(ratio_sq)
        return EinsteinRates(a_coefficient=a_q, lifetime=1.0 / a_q,
                             classical_ratio=a_q / a_cl)
    if inputs.system == "hydrogen_2p":
        omega = (3.0 / 8.0) * alpha**2 * mc2 / hbar
        r2 = float(Fraction(2**15, 3**10))          # (|r_ba| / a0)^2
        wa0_c = (3.0 / 8.0) * alpha                 # omega a0 / c
        a_q = (4.0 / 3.0) * alpha * wa0_c**2 * r2 * omega
        return EinsteinRates(a_coefficient=a_q, lifetime=1.0 / a_q, classical_ratio=math.nan)
    raise ValueError(f"unknown system {inputs.system!r}")
