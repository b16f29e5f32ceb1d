"""Brute-force evaluation of the sum rules.

Discrete parts sum squared matrix elements over the first n_max levels
(n_max = 2000 by default, matching the reference splits, which are truncated
sums).  Each element is the float finish of the exact factored kernel
(hydrogen.bound_bound_z2_float): the small exact prefactor is rounded once and
the giant power of (n-m)/(n+m) is taken through log1p, so no alternating sum
is ever done in floating point and every element stays within a few ulp of
float(bound_bound_z2).  Continuum parts integrate |<m,l|z|q,l'>|^2 against
(k_m^2 + q^2)^J with the substitution q = k_m tan(u) on composite
Gauss-Legendre panels; the ground state uses its closed form, other states
use numeric waves with the results cached per channel so every order reuses
the same wave set.  The far tail q > q_cut is integrated analytically from a fitted inverse-power
expansion of g(q) = |M|^2 (1 - exp(-2 pi / q)), whose leading power is
9 + 2 l for a bound state of angular momentum l.

A contour check verifies that discrete terms equal residues of the complex
integrand at v = 1/n and that the continuum part equals the line integral
along the positive imaginary v axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentSumRule, QuadratureNotConverged
from .hydrogen import (
    BoundState,
    Channel,
    WaveSpec,
    bound_bound_z2_float,
    bound_free_amplitude_reduced,
    bound_free_z2,
    bound_state,
    channel,
    continuum_wave,
    continuum_z2_1s,
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
    q_cut: float = 40.0
    wave_rho_max: float = 60.0
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


class _ContinuumChannel:
    """Caches squared bound-free matrix elements for one (state, channel)."""

    def __init__(self, state: BoundState, chan: Channel, spec: QuadratureSpec):
        self.state = state
        self.chan = chan
        self.spec = spec
        self._cache: dict[float, float] = {}
        self._is_ground = (state.n, state.l) == (1, 0)

    def z2(self, q: float) -> float:
        if self._is_ground:
            return continuum_z2_1s(q)
        val = self._cache.get(q)
        if val is not None:
            return val
        lp = self.chan.target_l
        rho_max = self.spec.wave_rho_max
        if q <= 8.0:
            wave = continuum_wave(lp, q, WaveSpec(rho_max=rho_max))
            val = bound_free_z2(self.state, wave)
        else:
            # large q: quadrature noise of the raw oscillatory integral
            # dominates the cancelled value, so use the q^2-reduced form and
            # remove the leading h^4 error by step-halving extrapolation.
            w1 = continuum_wave(lp, q, WaveSpec(rho_max=rho_max, steps_per_wavelength=40.0))
            w2 = continuum_wave(lp, q, WaveSpec(rho_max=rho_max, steps_per_wavelength=80.0))
            a1 = bound_free_amplitude_reduced(self.state, w1)
            a2 = bound_free_amplitude_reduced(self.state, w2)
            amp = (16.0 * a2 - a1) / 15.0
            val = float(self.chan.weight) * amp**2
        self._cache[q] = val
        return val

    @property
    def q_cut(self) -> float:
        return 400.0 if self._is_ground else self.spec.q_cut


_CHANNEL_CACHE: dict[tuple[int, int, str, float, float], _ContinuumChannel] = {}


def _continuum_channel(state: BoundState, chan: Channel, spec: QuadratureSpec) -> _ContinuumChannel:
    key = (state.n, state.l, chan.direction, spec.wave_rho_max, spec.q_cut)
    if key not in _CHANNEL_CACHE:
        _CHANNEL_CACHE[key] = _ContinuumChannel(state, chan, spec)
    return _CHANNEL_CACHE[key]


def _panel_sum(cc: _ContinuumChannel, J: int, k_m: float, n_panels: int, order: int) -> float:
    """Composite Gauss-Legendre on u in [0, u_cut], q = k_m tan(u)."""
    u_cut = math.atan(cc.q_cut / k_m)
    edges = np.linspace(0.0, u_cut, n_panels + 1)
    nodes, weights = _gauss(order)
    vals = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for t, w in zip(nodes, weights):
            u = mid + half * t
            q = k_m * math.tan(u)
            sec2 = 1.0 + math.tan(u) ** 2
            f = cc.z2(q) * (k_m**2 + q * q) ** J * k_m * sec2
            vals.append(w * half * f)
    return math.fsum(vals)


def _tail_integral(cc: _ContinuumChannel, J: int, k_m: float) -> float:
    """Analytic tail for q > q_cut from a fitted inverse-power expansion.

    g(q) = z2(q) (1 - exp(-2 pi/q)) ~ q^-p (A + B/q + C/q^2 + D/q^3) with
    p = 9 + 2 l; the weight carries (k^2+q^2)^J and the reciprocal
    exponential factor's Laurent series q/(2 pi) + 1/2 + pi/(6 q) + ...
    """
    qc = cc.q_cut
    p = 9 + 2 * cc.state.l
    qs = np.array([qc, 1.18 * qc, 1.39 * qc, 1.64 * qc, 1.93 * qc, 2.28 * qc])
    gs = np.array([cc.z2(q) * (-math.expm1(-2.0 * math.pi / q)) for q in qs])
    design = np.column_stack([qs ** float(-p - i) for i in range(4)])
    coeffs, *_ = np.linalg.lstsq(design, gs, rcond=None)

    series_g = [(coeffs[i], -p - i) for i in range(4)]
    two_pi = 2.0 * math.pi
    series_exp = [(1.0 / two_pi, 1), (0.5, 0), (two_pi / 12.0, -1),
                  (0.0, -2), (-(two_pi**3) / 720.0, -3)]
    if J >= 0:
        series_w = [(math.comb(J, i) * k_m ** (2 * i), 2 * J - 2 * i)
                    for i in range(0, min(J, 3) + 1)]
    else:
        jj = -J
        series_w = [((-1) ** i * math.comb(jj + i - 1, i) * k_m ** (2 * i), 2 * J - 2 * i)
                    for i in range(0, 4)]
    total = 0.0
    for cg, pg in series_g:
        for ce, pe in series_exp:
            for cw, pw in series_w:
                r = -(pg + pe + pw)
                if r <= 1:
                    raise DivergentSumRule(
                        f"tail power q^{-r} does not converge for J={J}"
                    )
                total += cg * ce * cw * qc ** (1 - r) / (r - 1)
    return total


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
    cc = _continuum_channel(state, chan, spec)
    k_m = 1.0 / state.n
    tail = _tail_integral(cc, J, k_m)
    panels = spec.u_panels
    prev = _panel_sum(cc, J, k_m, panels, spec.gauss_order)
    err = math.inf
    for _ in range(spec.max_refinements):
        panels *= 2
        cur = _panel_sum(cc, J, k_m, panels, spec.gauss_order)
        new_err = abs(cur - prev)
        if new_err > max(err * 4.0, 1e-3):
            raise QuadratureNotConverged("panel refinement is not contracting")
        prev, err = cur, new_err
        if err <= spec.abs_tol:
            break
    if not math.isfinite(err):
        err = abs(float(prev))
    return float(prev + tail), float(err)


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


def _contour_integrand(v: complex, J: int) -> complex:
    """-(2^8/3) v (1-v^2)^(J-5) exp(-4 atanh(v)/v) / (1 - exp(-2 pi i / v))."""
    pref = -(2.0**8) / 3.0
    return (pref * v * (1.0 - v * v) ** (J - 5)
            * cmath.exp(-4.0 * cmath.atanh(v) / v)
            / (1.0 - cmath.exp(-2.0j * math.pi / v)))


def residue_circle(n: int, J: int, radius: float | None = None, m_points: int = 256) -> float:
    """Closed-circle integral around v = 1/n (counterclockwise, trapezoid)."""
    if radius is None:
        radius = 0.3 / (n * (n + 1))
    center = 1.0 / n
    thetas = 2.0 * math.pi * np.arange(m_points) / m_points
    total = 0.0 + 0.0j
    for th in thetas:
        v = center + radius * cmath.exp(1j * th)
        total += _contour_integrand(v, J) * 1j * radius * cmath.exp(1j * th)
    total *= 2.0 * math.pi / m_points
    return total.real


def line_integral_imag_axis(J: int, y_cut: float = 400.0, n_panels: int = 64,
                            order: int = 12) -> float:
    """int_0^{i y_cut} of the contour integrand along the imaginary axis,
    via y = tan(u)."""
    u_cut = math.atan(y_cut)
    edges = np.linspace(1e-12, u_cut, n_panels + 1)
    nodes, weights = _gauss(order)
    vals = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for t, w in zip(nodes, weights):
            u = mid + half * t
            y = math.tan(u)
            sec2 = 1.0 + y * y
            f = _contour_integrand(1j * y, J) * 1j * sec2
            vals.append(w * half * f.real)
    return math.fsum(vals)


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


def contour_check(J: int, spec: QuadratureSpec = DEFAULT_SPEC,
                  n_range: range = range(2, 11)) -> ContourReport:
    """Residues at v = 1/n against discrete terms, and the imaginary-axis
    line integral against the continuum integral over the same q range."""
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
    state = bound_state(1, 0)
    cc = _ContinuumChannel(state, channel("plus", 0), spec)
    ref = _panel_sum_q_range(cc, J, 1.0, y_cut)
    return ContourReport(J=J, residue_rows=rows, radius_stability=abs(r2 - r2_half),
                         line_integral=line, continuum_reference=ref)


def _panel_sum_q_range(cc: _ContinuumChannel, J: int, k_m: float, q_hi: float,
                       n_panels: int = 64, order: int = 12) -> float:
    """Continuum integral over q in [0, q_hi] only (for contour comparison)."""
    u_cut = math.atan(q_hi / k_m)
    edges = np.linspace(0.0, u_cut, n_panels + 1)
    nodes, weights = _gauss(order)
    vals = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for t, w in zip(nodes, weights):
            u = mid + half * t
            q = k_m * math.tan(u)
            sec2 = 1.0 + math.tan(u) ** 2
            vals.append(w * half * cc.z2(q) * (k_m**2 + q * q) ** J * k_m * sec2)
    return math.fsum(vals)
