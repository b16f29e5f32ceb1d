"""Brute-force evaluation of the sum rules.

Discrete parts sum squared matrix elements over the first n_max levels
(n_max = 2000 by default, matching the reference splits, which are truncated
sums).  Each element is the float finish of the exact factored kernel
(hydrogen.bound_bound_z2_float): the small exact prefactor is rounded once and
the giant power of (n-m)/(n+m) is taken through log1p, so no alternating sum
is ever done in floating point and every element stays within a few ulp of
float(bound_bound_z2).  Continuum parts integrate |<m,l|z|q,l'>|^2 against
(k_m^2 + q^2)^J with the substitution q = k_m tan(u) on composite
Gauss-Legendre panels over the whole of u in [0, pi/2): no cutoff in q and no
fitted tail.  The integrand is the closed-form bound-free element
(hydrogen.bound_free_z2_closed) for every state, 1s included, evaluated once
per node set and reused by every order J.  z2 falls like q^-(8+2l), so the
u-integrand stays bounded up to u = pi/2 for every convergent order
J <= 3 + l, and the panel-doubling difference is the error estimate.

A contour check verifies that discrete terms equal residues of the complex
integrand at v = 1/n and that the continuum part equals the line integral
along the positive imaginary v axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentSumRule, QuadratureNotConverged
from .hydrogen import (
    BoundState,
    Channel,
    bound_bound_z2_float,
    bound_free_z2_closed,
    bound_state,
    channel,
    z2_1s_to_np,
)
from .sumrules import SumRuleValue, closed_form_coulomb, constructive_value


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the brute-force evaluation."""

    n_max: int = 2000
    u_panels: int = 24
    abs_tol: float = 1e-8
    tail_extrapolation: bool = True
    gauss_order: int = 10
    max_refinements: int = 2


DEFAULT_SPEC = QuadratureSpec()


def max_convergent_order(state: BoundState) -> int:
    """Largest J whose continuum integral converges for a Coulomb state."""
    return 3 + state.l


# ---------------------------------------------------------------------------
# discrete sums
# ---------------------------------------------------------------------------

_Z2_CACHE: dict[tuple[int, int, str], list[float]] = {}


def _z2_table(state: BoundState, chan: Channel, n_max: int) -> list[float]:
    """|<state|z|n, l'>|^2 for n = 0..n_max (index n; unused slots 0)."""
    key = (state.n, state.l, chan.direction)
    table = _Z2_CACHE.get(key, [])
    if len(table) >= n_max + 1:
        return table
    lp = chan.target_l
    start = max(len(table), lp + 1)
    if not table:
        table = [0.0] * (lp + 1)
    for n in range(start, n_max + 1):
        table.append(bound_bound_z2_float(state, n, chan))
    _Z2_CACHE[key] = table
    return table


def _discrete_terms(state: BoundState, chan: Channel, J: int, n_max: int) -> list[float]:
    """Weighted terms; degenerate level included only at J = 0 (weight 1)."""
    table = _z2_table(state, chan, n_max)
    ksq = 1.0 / state.n**2
    terms = []
    for n in range(chan.target_l + 1, n_max + 1):
        if n == state.n:
            if J == 0:
                terms.append(table[n])
            continue
        w = (ksq - 1.0 / n**2) ** J
        terms.append(w * table[n])
    return terms


def discrete_sum(state: BoundState, chan: Channel, J: int,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Partial discrete sum over n <= n_max (deterministic fsum reduction)."""
    return math.fsum(_discrete_terms(state, chan, J, spec.n_max))


def _discrete_tail_estimate(state: BoundState, chan: Channel, J: int,
                            spec: QuadratureSpec) -> float:
    """Richardson-style n^-3 estimate of the truncated tail."""
    if not spec.tail_extrapolation:
        return 0.0
    table = _z2_table(state, chan, spec.n_max)
    n = spec.n_max
    ksq = 1.0 / state.n**2
    t_last = abs((ksq - 1.0 / n**2) ** J * table[n])
    return t_last * n / 2.0


# ---------------------------------------------------------------------------
# continuum integrals
# ---------------------------------------------------------------------------

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def _gauss_panels(lo: float, hi: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on n_panels equal panels
    of [lo, hi]; an integral is math.fsum(weights * f(nodes))."""
    t, w = _gauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


class _ContinuumChannel:
    """Continuum integrals of one (state, channel) with q = k_m tan(u).

    The J-independent part of the u-integrand, w z2(q) k_m sec^2(u), is kept
    per node set (upper limit in u, panel count, Gauss order), so every
    order J reuses the same nodes and closed-form elements.
    """

    def __init__(self, state: BoundState, chan: Channel):
        self.state = state
        self.chan = chan
        self.k_m = 1.0 / state.n
        self._nodes: dict[tuple[float, int, int], tuple[np.ndarray, np.ndarray]] = {}

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


_CHANNEL_CACHE: dict[tuple[int, int, str], _ContinuumChannel] = {}


def _continuum_channel(state: BoundState, chan: Channel) -> _ContinuumChannel:
    key = (state.n, state.l, chan.direction)
    if key not in _CHANNEL_CACHE:
        _CHANNEL_CACHE[key] = _ContinuumChannel(state, chan)
    return _CHANNEL_CACHE[key]


def continuum_integral(state: BoundState, chan: Channel, J: int,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    value, _ = continuum_integral_with_error(state, chan, J, spec)
    return value


def continuum_integral_with_error(state: BoundState, chan: Channel, J: int,
                                  spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    if J > max_convergent_order(state):
        raise DivergentSumRule(
            f"continuum part of S_{J} diverges for l = {state.l} (J <= {max_convergent_order(state)})"
        )
    cc = _continuum_channel(state, chan)
    panels = spec.u_panels
    prev = cc.integral(J, panels, spec.gauss_order)
    err = math.inf
    for _ in range(spec.max_refinements):
        panels *= 2
        cur = cc.integral(J, panels, spec.gauss_order)
        new_err = abs(cur - prev)
        if new_err > max(err * 4.0, 1e-3):
            raise QuadratureNotConverged("panel refinement is not contracting")
        prev, err = cur, new_err
        if err <= spec.abs_tol:
            break
    if not math.isfinite(err):
        err = abs(float(prev))
    return float(prev), float(err)


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------


def compare(state: BoundState, chan: Channel, J: int,
            spec: QuadratureSpec = DEFAULT_SPEC) -> SumRuleValue:
    """Assemble one row: brute-force split plus exact reference columns."""
    disc = discrete_sum(state, chan, J, spec)
    cont, quad_err = continuum_integral_with_error(state, chan, J, spec)
    est = quad_err + _discrete_tail_estimate(state, chan, J, spec)
    constructive = constructive_value(state.n, state.l, chan.direction, J)
    closed = None
    if 0 <= J <= 4 and (state.l == 0 or chan.direction == "total"):
        try:
            closed = closed_form_coulomb(state.n, state.l, J)
        except Exception:
            closed = None
    return SumRuleValue(
        state=(state.n, state.l),
        J=J,
        channel=chan.direction,
        discrete=disc,
        continuum=cont,
        constructive=constructive,
        closed_form=closed,
        estimated_error=est,
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


def residue_circle(n: int, J: int, radius: float | None = None, m_points: int = 256) -> float:
    """Closed-circle integral around v = 1/n (counterclockwise, trapezoid)."""
    if radius is None:
        radius = 0.3 / (n * (n + 1))
    center = 1.0 / n
    dv = radius * np.exp(2j * math.pi * np.arange(m_points) / m_points)
    total = np.sum(_contour_integrand(center + dv, J) * 1j * dv) * (2.0 * math.pi / m_points)
    return float(total.real)


def line_integral_imag_axis(J: int, y_cut: float = 400.0, n_panels: int = 64,
                            order: int = 12) -> float:
    """int_0^{i y_cut} of the contour integrand along the imaginary axis,
    via y = tan(u)."""
    u, w = _gauss_panels(1e-12, math.atan(y_cut), n_panels, order)
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
    tol: float = 1e-6

    @property
    def passed(self) -> bool:
        ok = all(abs(a - b) <= self.tol * max(1.0, abs(b)) for _, a, b in self.residue_rows)
        return ok and abs(self.line_integral - self.continuum_reference) <= self.tol \
            and self.radius_stability <= 1e-8


def contour_check(J: int, n_range: range = range(2, 11)) -> ContourReport:
    """Residues at v = 1/n against discrete terms, and the imaginary-axis
    line integral against the continuum integral over the same q range.

    The continuum reference uses a fixed quadrature: 64 panels of order 12."""
    if not 0 <= J <= 3:
        raise DivergentSumRule("contour check covers J = 0..3")
    rows = []
    for n in n_range:
        circ = residue_circle(n, J)
        term = (1.0 - 1.0 / n**2) ** J * float(z2_1s_to_np(n))
        rows.append((n, circ, term))
    r2 = residue_circle(2, J)
    r2_half = residue_circle(2, J, radius=0.15 / 6.0)
    y_cut = 400.0
    line = line_integral_imag_axis(J, y_cut=y_cut)
    cc = _ContinuumChannel(bound_state(1, 0), channel("plus", 0))
    ref = cc.integral(J, n_panels=64, order=12, u_hi=math.atan(y_cut))
    return ContourReport(J=J, residue_rows=rows, radius_stability=abs(r2 - r2_half),
                         line_integral=line, continuum_reference=ref)
