"""Brute-force evaluation of the sum rules.

Discrete parts sum squared matrix elements over the first n_max levels
(n_max = 2000 by default, matching the reference splits, which are truncated
sums).  Each element is the float finish of the exact factored kernel
(hydrogen.bound_bound_z2_floats): the small prefactor, a ratio of two
integers, is rounded once, correctly, and the giant power of (n-m)/(n+m)
goes through log1p, the only float error; each element stays within a few
ulp of the rounded exact value, float(bound_bound_z2).  A table grows a
range of levels at a time: from n = m + 2 on, the prefactor is an integer
polynomial in n, built once per range, and a closed product, evaluated for
all levels at once in double-double float64 arrays and rounded; the few
levels whose rounding the error bound cannot decide take the integers.  A
correctly rounded value is unique, so the floats are the per-level
kernel's, bit for bit, at about a third of the per-level loop's cost.
The table is one float64 array, and a sum weights all its levels at once with
np.float_power(1/m^2 - 1/n^2, J), then one math.fsum.  np.float_power calls
libm pow per element, as Python's float ** int does, so every term is the one
a per-level loop gives; ** and np.power may take a SIMD pow instead, which
with numpy 2.4 on AVX-512 differed in the last ulp on 38 090 of 1 048 635
weights (n <= 5, J = -13..7, n <= 2000).  The per-level loop took 13-21 ms of
the 46-71 ms that verify --suite paper-tables spends in-process; the array
form takes about 2 ms (six fresh runs each, shared 2-vCPU machine).

Continuum parts integrate |<m,l|z|q,l'>|^2 against (k_m^2 + q^2)^J with the
substitution q = k_m tan(u) on composite Gauss-Legendre panels over the
whole of u in [0, pi/2): no cutoff in q and no fitted tail.  The integrand
is the closed-form bound-free element (hydrogen.bound_free_z2_closed) for
every state, 1s included, evaluated once per node set and reused by every
order J.  z2 falls like q^-(8+2l), so the u-integrand stays bounded up to
u = pi/2 for every convergent order J <= 3 + l, and the panel-doubling
difference is the error estimate.

compare(state, direction, J, n_max) assembles one row from both parts; a
divergent continuum raises before any discrete work.  Each
(state, channel) has one cached _Channel that owns its discrete table, grown
in place when a larger n_max is asked for, and its continuum node sets; the
contour check's continuum reference reads the same object.

A contour check verifies that discrete terms equal residues of the complex
integrand at v = 1/n and that the continuum part equals the line integral
along the positive imaginary v axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DivergentSumRule, InvalidOrder, InvalidTruncation, QuadratureNotConverged
from .hydrogen import (
    BoundState,
    Channel,
    bound_bound_z2_floats,
    bound_free_z2_closed,
    bound_state,
    channel,
    z2_1s_to_np,
)
from .sumrules import SumRuleValue, closed_form_coulomb, constructive_value


# Continuum quadrature: U_PANELS Gauss-Legendre panels of order GAUSS_ORDER,
# doubled up to MAX_REFINEMENTS times until two passes agree to ABS_TOL.
U_PANELS = 24
GAUSS_ORDER = 10
MAX_REFINEMENTS = 2
ABS_TOL = 1e-8
N_MAX = 2000   # highest discrete level, as in the reference splits


def max_convergent_order(state: BoundState) -> int:
    """Largest J whose continuum integral converges for a Coulomb state."""
    return 3 + state.l


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].  Read-only: callers share them."""
    t, w = leggauss(order)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_panels(lo: float, hi: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on n_panels equal panels
    of [lo, hi]; an integral is math.fsum(weights * f(nodes))."""
    t, w = _legendre_rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


class _Channel:
    """Discrete table and continuum node sets of one (state, channel).

    The table is one float64 array of |<state|z|n, l'>|^2 for n = 0..n_max
    (unused slots 0), extended when a larger n_max is asked for.  The
    J-independent part of the continuum u-integrand,
    w z2(q) k_m sec^2(u) with q = k_m tan(u), is kept per node set (upper
    limit in u, panel count, Gauss order), so every order J reuses the same
    nodes and closed-form elements.
    """

    def __init__(self, state: BoundState, chan: Channel):
        self.state = state
        self.chan = chan
        self.k_m = 1.0 / state.n
        self._z2 = np.zeros(chan.target_l + 1)
        self._nodes: dict[tuple[float, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def z2_table(self, n_max: int) -> np.ndarray:
        if n_max >= len(self._z2):
            more = bound_bound_z2_floats(self.state, self.chan, len(self._z2), n_max)
            self._z2 = np.concatenate((self._z2, more))
        return self._z2

    def integral(self, J: int, n_panels: int, order: int, u_hi: float = 0.5 * math.pi) -> float:
        """int_0^u_hi z2(q) (k_m^2 + q^2)^J dq/du du on composite Gauss-Legendre."""
        key = (u_hi, n_panels, order)
        if key not in self._nodes:
            u, w = _gauss_panels(0.0, u_hi, n_panels, order)
            t = np.tan(u)
            q = self.k_m * t
            z2 = bound_free_z2_closed(self.state, self.chan, q)
            self._nodes[key] = (q * q, w * z2 * self.k_m * (1.0 + t * t))
        q2, wz = self._nodes[key]
        return math.fsum((wz * (self.k_m**2 + q2) ** J).tolist())


@functools.cache
def _cached_channel(n: int, l: int, direction: str) -> _Channel:
    """The one _Channel per (state, channel), shared by every route."""
    return _Channel(bound_state(n, l), channel(direction, l))


# ---------------------------------------------------------------------------
# discrete sums
# ---------------------------------------------------------------------------


def _weights(state: BoundState, J: int, n: np.ndarray | int) -> np.ndarray:
    """(1/m^2 - 1/n^2)^J through libm pow, as Python's float ** int does."""
    return np.float_power(1.0 / state.n**2 - 1.0 / (n * n), J)


def _discrete_terms(state: BoundState, chan: Channel, J: int, n_max: int) -> np.ndarray:
    """Weighted terms; degenerate level included only at J = 0 (weight 1)."""
    table = _cached_channel(state.n, state.l, chan.direction).z2_table(n_max)
    lo = chan.target_l + 1
    n, z2 = np.arange(lo, n_max + 1), table[lo:n_max + 1]
    if J and lo <= state.n <= n_max:
        n, z2 = np.delete(n, state.n - lo), np.delete(z2, state.n - lo)
    return _weights(state, J, n) * z2


def discrete_sum(state: BoundState, chan: Channel, J: int, n_max: int = N_MAX) -> float:
    """Partial discrete sum over n <= n_max (deterministic fsum reduction)."""
    return math.fsum(_discrete_terms(state, chan, J, n_max).tolist())


def _discrete_tail_estimate(state: BoundState, chan: Channel, J: int, n_max: int) -> float:
    """Richardson-style n^-3 estimate of the truncated tail."""
    table = _cached_channel(state.n, state.l, chan.direction).z2_table(n_max)
    return float(abs(_weights(state, J, n_max) * table[n_max]) * n_max / 2.0)


# ---------------------------------------------------------------------------
# continuum integrals
# ---------------------------------------------------------------------------


def continuum_integral_with_error(state: BoundState, chan: Channel, J: int) -> tuple[float, float]:
    """Continuum part of S_J and its panel-doubling error estimate."""
    if J > max_convergent_order(state):
        raise DivergentSumRule(
            f"continuum part of S_{J} diverges for l = {state.l} (J <= {max_convergent_order(state)})"
        )
    cc = _cached_channel(state.n, state.l, chan.direction)
    panels = U_PANELS
    prev = cc.integral(J, panels, GAUSS_ORDER)
    err = math.inf
    for _ in range(MAX_REFINEMENTS):
        panels *= 2
        cur = cc.integral(J, panels, GAUSS_ORDER)
        new_err = abs(cur - prev)
        if new_err > max(err * 4.0, 1e-3):
            raise QuadratureNotConverged("panel refinement is not contracting")
        prev, err = cur, new_err
        if err <= ABS_TOL:
            break
    if not math.isfinite(err):
        err = abs(float(prev))
    return float(prev), float(err)


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------


def compare(state: BoundState, direction: str, J: int, n_max: int = N_MAX) -> SumRuleValue:
    """Assemble one row: brute-force split plus exact reference columns.

    direction is "plus", "minus" or "total"; a total row fsums the discrete
    parts, the continuum parts and the error estimates of the channels.  The
    closed form is a total, so it fills only total rows and l = 0 rows (whose
    one channel is the total).  n_max must exceed the state's n: the tail
    estimate weights the last level by (1/n^2 - 1/n_max^2)^J.
    """
    if n_max <= state.n:
        raise InvalidTruncation(f"n_max must exceed the state's n = {state.n}, not {n_max}")
    if direction == "total":
        directions = ("plus", "minus") if state.l else ("plus",)
    else:
        directions = (direction,)
    discs, conts, errs = [], [], []
    for chan in [channel(d, state.l) for d in directions]:
        cont, quad_err = continuum_integral_with_error(state, chan, J)   # raises before a divergent sum
        discs.append(discrete_sum(state, chan, J, n_max))
        conts.append(cont)
        errs.append(quad_err + _discrete_tail_estimate(state, chan, J, n_max))
    closed = None
    if 0 <= J <= 4 and (state.l == 0 or direction == "total"):
        try:
            closed = closed_form_coulomb(state.n, state.l, J)
        except InvalidOrder:
            closed = None
    return SumRuleValue(
        state=(state.n, state.l),
        J=J,
        channel=direction,
        discrete=math.fsum(discs),
        continuum=math.fsum(conts),
        constructive=constructive_value(state.n, state.l, direction, J),
        closed_form=closed,
        estimated_error=math.fsum(errs),
    )


# ---------------------------------------------------------------------------
# contour unification check (ground state)
# ---------------------------------------------------------------------------


def _contour_integrand(v, J: int):
    """-(2^8/3) v (1-v^2)^(J-5) exp(-4 atanh(v)/v) / (1 - exp(-2 pi i / v)),
    for a complex v or an array of them."""
    pref = -(2.0**8) / 3.0
    return (pref * v * (1.0 - v * v) ** (J - 5)
            * np.exp(-4.0 * np.arctanh(v) / v)
            / (1.0 - np.exp(-2.0j * math.pi / v)))


RESIDUE_POINTS = 256   # trapezoid points on each residue circle


def residue_circle(n: int, J: int, radius: float | None = None) -> float:
    """Closed-circle integral around v = 1/n (counterclockwise, trapezoid)."""
    if radius is None:
        radius = 0.3 / (n * (n + 1))
    center = 1.0 / n
    dv = radius * np.exp(2j * math.pi * np.arange(RESIDUE_POINTS) / RESIDUE_POINTS)
    total = np.sum(_contour_integrand(center + dv, J) * 1j * dv) * (2.0 * math.pi / RESIDUE_POINTS)
    return float(total.real)


# The line integral and its continuum reference share the cut y = q, the panels
# and the order in u = atan(y); residues are taken at the levels CONTOUR_LEVELS.
CONTOUR_Y_CUT = 400.0
CONTOUR_PANELS = 64
CONTOUR_ORDER = 12
CONTOUR_LEVELS = range(2, 11)
CONTOUR_TOL = 1e-6


def line_integral_imag_axis(J: int) -> float:
    """int_0^{i CONTOUR_Y_CUT} of the contour integrand along the imaginary
    axis, via y = tan(u)."""
    u, w = _gauss_panels(1e-12, math.atan(CONTOUR_Y_CUT), CONTOUR_PANELS, CONTOUR_ORDER)
    y = np.tan(u)
    f = _contour_integrand(1j * y, J) * 1j * (1.0 + y * y)
    return math.fsum((w * f.real).tolist())


@dataclass
class ContourReport:
    J: int
    residue_rows: list[tuple[int, float, float]]   # (n, circle value, discrete term)
    radius_stability: float
    line_integral: float
    continuum_reference: float

    @property
    def gates(self) -> dict[str, bool]:
        """Whether each part is within its gate; residues are gated relative to the term."""
        return {"residues": all(abs(a - b) <= CONTOUR_TOL * max(1.0, abs(b))
                                for _, a, b in self.residue_rows),
                "line integral": abs(self.line_integral - self.continuum_reference) <= CONTOUR_TOL,
                "radius stability": self.radius_stability <= 1e-8}

    @property
    def passed(self) -> bool:
        return all(self.gates.values())


def contour_check(J: int) -> ContourReport:
    """Residues at v = 1/n against discrete terms, and the imaginary-axis
    line integral against the continuum integral over the same q range."""
    if not 0 <= J <= 3:
        raise DivergentSumRule("contour check covers J = 0..3")
    rows = []
    for n in CONTOUR_LEVELS:
        circ = residue_circle(n, J)
        term = (1.0 - 1.0 / n**2) ** J * float(z2_1s_to_np(n))
        rows.append((n, circ, term))
    r2 = rows[CONTOUR_LEVELS.index(2)][1]
    r2_half = residue_circle(2, J, radius=0.15 / 6.0)
    ref = _cached_channel(1, 0, "plus").integral(J, CONTOUR_PANELS, CONTOUR_ORDER,
                                                 u_hi=math.atan(CONTOUR_Y_CUT))
    return ContourReport(J=J, residue_rows=rows, radius_stability=abs(r2 - r2_half),
                         line_integral=line_integral_imag_axis(J), continuum_reference=ref)
