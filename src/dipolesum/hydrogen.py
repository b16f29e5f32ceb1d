"""Coulomb bound states and bound-free elements in the scaled variable rho = r/a0.

Bound states are exact: the reduced radial function u_nl = rho R_nl(full) is a
rational polynomial times exp(-rho/n) together with a rational squared
normalization factor norm2, so that u = radial * sqrt(norm2) and
int u^2 drho = 1 holds as an identity.

Continuum states are energy-normalized in wavenumber: asymptotically

    u_q(rho) -> sqrt(2/pi) sin(q rho + log(2 q rho)/q - l pi/2 + sigma_l).

Bound-free elements come in closed form (bound_free_z2_closed), a finite
sum of Laplace transforms of the regular Coulomb function; no continuum wave
is integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exactalg as xa
from .errors import DivergentAtOrigin, InvalidQuantumNumbers, NonPositiveQ
from .exactalg import PolyExp


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Channel:
    """One dipole branch l -> l+1 ("plus") or l -> l-1 ("minus")."""

    direction: str
    l: int
    weight: Fraction  # squared angular factor

    @property
    def target_l(self) -> int:
        return self.l + 1 if self.direction == "plus" else self.l - 1


def channel(direction: str, l: int) -> Channel:
    if direction not in ("plus", "minus"):
        raise InvalidQuantumNumbers(f"unknown channel direction {direction!r}")
    if l < 0:
        raise InvalidQuantumNumbers("l must be non-negative")
    if direction == "plus":
        w = Fraction((l + 1) ** 2, (2 * l + 1) * (2 * l + 3))
    else:
        if l == 0:
            raise InvalidQuantumNumbers("minus channel is forbidden for l = 0")
        w = Fraction(l**2, (2 * l + 1) * (2 * l - 1))
    return Channel(direction=direction, l=l, weight=w)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundState:
    """Radial eigenstate (n, l) with exact reduced radial function."""

    n: int
    l: int
    ksq: Fraction             # 1/n^2
    radial: PolyExp           # rational part, leading coefficient positive
    norm2: Fraction           # u = radial * sqrt(norm2)

    def values(self, rho: np.ndarray) -> np.ndarray:
        return polyexp_values(self.radial, self.norm2, rho)

    def c_origin_sq(self) -> Fraction:
        """C_l^2 with u -> C_l rho^(l+1) at the origin."""
        return self.radial.coeff(self.l + 1) ** 2 * self.norm2


def _laguerre_coeffs(k: int, alpha: int, lam: Fraction) -> dict[int, Fraction]:
    """Coefficients of L_k^alpha(lam * rho) as {power of rho: Fraction}."""
    out: dict[int, Fraction] = {}
    for i in range(k + 1):
        out[i] = Fraction((-1) ** i * math.comb(k + alpha, k - i), math.factorial(i)) * lam**i
    return out


@lru_cache(maxsize=None)
def bound_state(n: int, l: int) -> BoundState:
    """Exact normalized reduced radial function, rate 1/n.

    Built from the associated-Laguerre series with the sign fixed so the
    highest power of rho has positive coefficient.
    """
    if n < 1 or l < 0 or l > n - 1:
        raise InvalidQuantumNumbers(f"(n, l) = ({n}, {l})")
    lam = Fraction(2, n)
    lag = _laguerre_coeffs(n - l - 1, 2 * l + 1, lam)
    coeffs = {e + l + 1: c for e, c in lag.items()}
    poly = xa.polyexp(coeffs, Fraction(1, n))
    if poly.terms[-1][1] < 0:
        poly = xa.scale(poly, -1)
    norm2 = 1 / xa.overlap(poly, poly)
    # fold perfect integer square factors into the polynomial for readability
    root = math.isqrt(norm2.numerator)
    if root * root == norm2.numerator and norm2.denominator == 1:
        poly = xa.scale(poly, root)
        norm2 = Fraction(1)
    return BoundState(n=n, l=l, ksq=Fraction(1, n * n), radial=poly, norm2=norm2)


def polyexp_values(poly: PolyExp, norm2, rho: np.ndarray) -> np.ndarray:
    """Float samples of poly * sqrt(norm2) on an array of rho values."""
    rho = np.asarray(rho, dtype=float)
    acc = np.zeros_like(rho)
    for e, c in poly.terms:
        acc += float(c) * rho ** int(e)
    return acc * np.exp(-float(poly.rate) * rho) * math.sqrt(float(norm2))


# ---------------------------------------------------------------------------
# bound-bound squared dipole matrix elements
# ---------------------------------------------------------------------------


def _z2_factors(state: BoundState, to_n: int, chan: Channel) -> tuple[int, int, int]:
    """Split |<n,l| z |to_n, l'>|^2 = (num / den) * ratio**power in integers.

    With m = state.n, s = 1/m + 1/to_n and d = s - 2/to_n, every term of the
    collapsed Laplace-Laguerre moment

        int rho^(j+alpha) exp(-s rho) L_k^alpha(2 rho/to_n) drho
            = prod_{i=1..alpha}(k+i) sum_i C(j,i) (k)_i^fall (b)_(j-i)^rise
              (-1)^i d^(k-i) / s^(b+j-i),        b = k + alpha + 1,

    equals (d/s)^(k-i) / s^(2l'+2+j) times small integers, and d/s is
    ratio = (to_n - m)/(to_n + m).  The common factor ratio^shift, with
    shift = max(0, k - j_max), holds all the digits that grow with to_n.
    Over (to_n + m)^(t+2l'+2+j_max), t = k - shift, and the radial lcm the
    rest is an integer sum, folded with all other factors into num / den.
    At to_n = m the ratio is 0, shift is 0 and only the i = k terms survive.
    From to_n = m + 2 on, _z2_polynomials gives total as an integer
    polynomial in to_n and den as c (to_n + m)^e, and the float tables take
    num as the same closed product with that total; this per-level form
    serves the exact bound_bound_z2 and the float tables' levels below m + 2,
    where the power is 0 (the degenerate to_n = m too).
    """
    if chan.l != state.l:
        raise InvalidQuantumNumbers("channel does not start at the state's l")
    lp = chan.target_l
    if lp < 0 or to_n < lp + 1:
        raise InvalidQuantumNumbers(f"no target state ({to_n}, {lp})")
    m, n = state.n, to_n
    k = n - lp - 1
    b = k + 2 * lp + 2
    j_max = state.radial.max_exponent() - lp + 1
    shift = max(0, k - j_max)
    t, d, s = k - shift, n - m, n + m
    lcm = math.lcm(*(c.denominator for _, c in state.radial.terms))
    total = 0
    for e, c in state.radial.terms:
        j = e - lp + 1
        acc = sum((-1) ** i * math.comb(j, i) * math.perm(k, i) * math.perm(b + j - i - 1, j - i)
                  * d ** (t - i) * s**i for i in range(min(j, k) + 1))
        total += c.numerator * (lcm // c.denominator) * (m * n) ** j * s ** (j_max - j) * acc
    # prod(k+i)^2 C_l'^2 = prod(k+i) / to_n^2; the (m to_n)^(2l'+2) left out
    # of total meets (2/to_n)^(2l'+2) / to_n^2 as m^(4l'+4) to_n^(2l')
    num = (chan.weight.numerator * state.norm2.numerator * 2 ** (2 * lp + 2)
           * math.perm(n + lp, 2 * lp + 1) * m ** (4 * lp + 4) * n ** (2 * lp) * total**2)
    den = chan.weight.denominator * state.norm2.denominator * (lcm * s ** (t + 2 * lp + 2 + j_max)) ** 2
    return num, den, 2 * shift


def _linear_product(roots) -> list[int]:
    """Coefficients of prod (n + a) over a in roots, highest power of n first."""
    out = [1]
    for a in roots:
        out = [x + a * y for x, y in zip(out + [0], [0] + out)]
    return out


def _z2_polynomials(state: BoundState, chan: Channel) -> tuple[int, list[int], int, int]:
    """(prefactor, T, c, e) with _z2_factors(state, n, chan) ==
    (prefactor perm(n + l', 2l'+1) n^(2l') T(n)^2, c (n+m)^e, 2(n-m-2)) for
    every n >= m + 2 (m = state.n); T is an integer coefficient list, highest
    power first, and the rest of num is the closed product of _z2_factors.

    From n = m + 2 on, shift = k - j_max, so t = j_max and every i <= j <= k:
    the sums of _z2_factors have fixed ranges and each factor is a product of
    linear factors in n.  The falling factorial (k)_i has roots n = l'+1..l'+i,
    the rising factorial (b)_(j-i) has n = -l'-1..-l'-(j-i), d = n - m,
    s = n + m, and perm(n + l', 2l'+1) has n = -l'..l'.
    """
    if chan.l != state.l:
        raise InvalidQuantumNumbers("channel does not start at the state's l")
    lp, m = chan.target_l, state.n
    j_max = state.radial.max_exponent() - lp + 1
    lcm = math.lcm(*(c.denominator for _, c in state.radial.terms))
    total = [0] * (3 * j_max + 1)
    for e, c in state.radial.terms:
        j = e - lp + 1
        scale = c.numerator * (lcm // c.denominator) * m**j
        for i in range(j + 1):
            # (k)_i (b)_(j-i) d^(j_max-i) s^i times n^j s^(j_max-j): degree 2 j_max + j
            term = _linear_product([-lp - 1 - r for r in range(i)] + [lp + 1 + r for r in range(j - i)]
                                   + [-m] * (j_max - i) + [m] * (i + j_max - j) + [0] * j)
            coef = (-1) ** i * math.comb(j, i) * scale
            for q, a in enumerate(term, start=len(total) - len(term)):
                total[q] += coef * a
    prefactor = chan.weight.numerator * state.norm2.numerator * 2 ** (2 * lp + 2) * m ** (4 * lp + 4)
    c = chan.weight.denominator * state.norm2.denominator * lcm**2
    return prefactor, total, c, 2 * (2 * j_max + 2 * lp + 2)


def bound_bound_z2(state: BoundState, to_n: int, chan: Channel) -> Fraction:
    """Exact squared dipole matrix element |<n,l| z |to_n, l+-1>|^2.

    Value equals chan.weight * (int u_from rho u_to drho)^2.  Exact finish of
    the factored kernel _z2_factors: Fraction(num, den) * ratio**power, one
    gcd for the prefactor, cheap for to_n in the thousands although the
    result has tens of thousands of digits.  bound_bound_z2_overlap is the
    direct route for cross-checks.
    """
    num, den, power = _z2_factors(state, to_n, chan)
    return Fraction(num, den) * Fraction(to_n - state.n, to_n + state.n) ** power


def bound_bound_z2_floats(state: BoundState, chan: Channel, n_lo: int, n_hi: int) -> list[float]:
    """Float finish of the factored kernel for to_n = n_lo..n_hi: each value
    is float(bound_bound_z2) to a few ulp.

    Below to_n = m + 2 (m = state.n) the element is num / den from
    _z2_factors.  From there on _z2_polynomials, built once per call, gives
    T, evaluated by Horner at each level, c and e; num is the closed product
    prefactor perm(to_n + l', 2l'+1) to_n^(2l') T^2 and den is c (to_n + m)^e:
    the same integers as _z2_factors, so the same floats, for a quarter to a
    tenth of the cost (a 2000-level table of 1s+ in 2.2 ms instead of 9, of
    5s+ in 4.3 ms instead of 42).  The prefactor num / den is rounded once:
    int true division rounds correctly, as float(Fraction) does, so a float
    depends only on the rational num / den.  The only float error is the
    power, exp(power * log1p(-2m/(to_n + m))) with the log of ratio, whose
    error grows like 4 m eps: below 3.2e-15 relative for m <= 5 up to
    to_n = 2000.  It overflows, loudly, for m above about 170.
    """
    m = state.n
    out = []
    for n in range(n_lo, min(n_hi, m + 1) + 1):
        num, den, _ = _z2_factors(state, n, chan)   # the power is 0 below m + 2
        out.append(num / den)
    if n_hi >= m + 2:
        prefactor, t, c, e = _z2_polynomials(state, chan)
        lp = chan.target_l
        for n in range(max(n_lo, m + 2), n_hi + 1):
            tn = 0
            for a in t:
                tn = tn * n + a
            num = prefactor * math.perm(n + lp, 2 * lp + 1) * n ** (2 * lp) * tn * tn
            out.append(num / (c * (n + m) ** e) * math.exp(2 * (n - m - 2) * math.log1p(-2 * m / (n + m))))
    return out


def bound_bound_z2_overlap(state: BoundState, to_n: int, chan: Channel) -> Fraction:
    """Same value via the explicit polynomial overlap (slow for large to_n)."""
    to = bound_state(to_n, chan.target_l)
    integral = xa.overlap(xa.shift(state.radial, 1), to.radial)
    return chan.weight * integral**2 * state.norm2 * to.norm2


def z2_1s_to_np(n: int) -> Fraction:
    """Closed form for |<1S| z |nP>|^2 including the angular factor 1/3."""
    if n < 2:
        raise InvalidQuantumNumbers("final nP state requires n >= 2")
    return Fraction(2**8, 3) * Fraction(n**7 * (n - 1) ** (2 * n),
                                        (n * n - 1) ** 5 * (n + 1) ** (2 * n))


def continuum_z2_1s(q: float) -> float:
    """Closed form for |<1S| z |q, l=1>|^2 (angular factor included).

    (1/3) 2^8 q (1+q^2)^-5 exp(-4 atan(q)/q) / (1 - exp(-2 pi / q)),
    with the final factor taken through expm1, so it stays accurate at
    large q and is exactly 1 at small q.
    """
    if q <= 0:
        raise NonPositiveQ("q must be positive")
    denom = -math.expm1(-2.0 * math.pi / q)
    return (256.0 / 3.0) * q * (1.0 + q * q) ** -5 * math.exp(-4.0 * math.atan(q) / q) / denom


def _ln_coulomb_c2(l: int, q):
    """ln C_l(eta)^2 at eta = -1/q, for a float or an array of q > 0:

    ln C_l^2 = l ln 4 + ln(2 pi |eta|) - ln(1 - exp(-2 pi |eta|))
               + sum_{j=1..l} ln(j^2 + eta^2) - 2 ln (2l+1)!
    """
    x = 2.0 * np.pi / q
    out = l * math.log(4.0) + np.log(x) - np.log(-np.expm1(-x))
    for j in range(1, l + 1):
        out = out + np.log(j * j + 1.0 / (q * q))
    return out - 2.0 * math.lgamma(2 * l + 2)


def bound_free_z2_closed(state: BoundState, chan: Channel, q) -> np.ndarray:
    """|<n,l| z |q, l'>|^2 with the angular weight, in closed form, for an array of q.

    The regular Coulomb function (A&S 14.1.3), with eta = -1/q,

        F_l'(eta, q rho) = C_l'(eta) (q rho)^(l'+1) exp(-i q rho) M(a, b, 2 i q rho),
        a = l' + 1 - i eta,   b = 2 l' + 2,

    turns each term c_e rho^e exp(-rho/n) of the bound state into a Laplace
    transform p! s^-(p+1) 2F1(a, p+1; b; z) with p = e + l' + 2, s = 1/n + i q
    and z = 2 i q / s.  Euler's transformation gives
    (1-z)^(b-a-p-1) 2F1(b-a, -j; b; z) with j = p + 1 - b = e - l' + 1 >= 1,
    a polynomial of degree j; |1 - z| = 1, so the prefactor is taken as
    exp((b-a-p-1) log(1-z)).  The amplitude is real up to rounding; its real
    part, squared, times chan.weight is returned (Gordon 1929; Storey and
    Hummer 1991).  For n <= 5 and q in [1e-3, 1e4] it agrees with a 60-digit
    evaluation of the same sum to 1.1e-13 relative, and with
    continuum_z2_1s to 2e-14.
    """
    if chan.l != state.l:
        raise InvalidQuantumNumbers("channel does not start at the state's l")
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise NonPositiveQ("q must be positive")
    lp = chan.target_l
    b = 2 * lp + 2
    b_minus_a = lp + 1 - 1j / q
    s = 1.0 / state.n + 1j * q
    z = 2j * q / s
    log_s, log_1mz = np.log(s), np.log1p(-z)
    amp = np.zeros(q.shape, dtype=complex)
    for e, c in state.radial.terms:
        p = e + lp + 2
        j = p + 1 - b
        term = np.ones(q.shape, dtype=complex)
        poly = term
        for i in range(j):
            term = term * ((b_minus_a + i) * ((i - j) / ((b + i) * (i + 1)))) * z
            poly = poly + term
        prefactor = np.exp((-1j / q - e - 2) * log_1mz - (p + 1) * log_s)
        amp += float(c) * math.factorial(p) * prefactor * poly
    amp = amp.real * np.exp(0.5 * _ln_coulomb_c2(lp, q)) * q ** (lp + 1)
    return float(chan.weight * state.norm2) * (2.0 / math.pi) * amp**2


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------


def expectation_rho_power(state: BoundState, p: int) -> Fraction:
    """Exact <rho^p> for the bound state; integrability needs p >= -(2l+2)."""
    if p < -(2 * state.l + 2):
        raise DivergentAtOrigin(f"<rho^{p}> diverges for l = {state.l}")
    return xa.overlap(state.radial, xa.shift(state.radial, p)) * state.norm2
