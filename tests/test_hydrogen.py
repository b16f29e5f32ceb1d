"""Coulomb states: exact bound-state algebra and closed-form continuum elements."""

import hashlib
import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum import exactalg as xa
from dipolesum import hydrogen
from dipolesum.errors import DivergentAtOrigin, InvalidQuantumNumbers, NonPositiveQ
from dipolesum.hydrogen import (
    _BLOCK,
    _dd_constants,
    _linear_product,
    _needs_exact,
    _prefactors_dd,
    _z2_factors,
    _z2_polynomials,
    bound_bound_z2,
    bound_bound_z2_floats,
    bound_free_z2_closed,
    bound_state,
    channel,
    continuum_z2_1s,
    expectation_rho_power,
    z2_1s_to_np,
)
from dipolesum.oracle import _Channel
from polyexp_helpers import normed_equal


def z2_overlap(state, to_n, chan):
    """|<n,l| z |to_n, l'>|^2 via the explicit polynomial overlap: the direct
    route that the factored kernel must reproduce (slow for large to_n)."""
    to = bound_state(to_n, chan.target_l)
    integral = xa.overlap(xa.shift(state.radial, 1), to.radial)
    return chan.weight * integral**2 * state.norm2 * to.norm2


class TestChannel:
    def test_weights(self):
        assert channel("plus", 0).weight == F(1, 3)
        assert channel("plus", 1).weight == F(4, 15)
        assert channel("minus", 1).weight == F(1, 3)

    def test_minus_forbidden_at_l0(self):
        with pytest.raises(InvalidQuantumNumbers):
            channel("minus", 0)


class TestBoundState:
    def test_ground(self):
        s = bound_state(1, 0)
        assert normed_equal(s.radial, s.norm2, xa.polyexp({1: 2}, 1), F(1))

    def test_first_excited_s(self):
        s = bound_state(2, 0)
        assert normed_equal(s.radial, s.norm2,
                            xa.polyexp({2: 1, 1: -2}, F(1, 2)), F(1, 8))

    def test_first_excited_p(self):
        s = bound_state(2, 1)
        assert normed_equal(s.radial, s.norm2,
                            xa.polyexp({2: 1}, F(1, 2)), F(1, 24))

    def test_invalid_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_state(2, 2)

    @pytest.mark.parametrize("n", [1, 5, 12, 21, 30])
    def test_eigen_and_norm_to_n30(self, n):
        for l in range(n):
            s = bound_state(n, l)
            assert xa.apply_h(s.radial, l, s.ksq).is_zero()
            assert xa.overlap(s.radial, s.radial) * s.norm2 == 1
            assert s.radial.min_exponent() == l + 1


class TestBoundBound:
    def test_resonance_line(self):
        assert bound_bound_z2(bound_state(1, 0), 2, channel("plus", 0)) == F(2**15, 3**10)

    def test_degenerate_pair(self):
        # beta^2 <R20|rho R21>^2 = (1/3) * 27
        assert bound_bound_z2(bound_state(2, 1), 2, channel("minus", 1)) == 9
        s20, s21 = bound_state(2, 0), bound_state(2, 1)
        ov2 = (xa.overlap(s20.radial, xa.shift(s21.radial, 1)) ** 2
               * s20.norm2 * s21.norm2)
        assert ov2 == 27

    def test_closed_form_agrees_with_overlap_route_to_n200(self):
        s1 = bound_state(1, 0)
        ch = channel("plus", 0)
        for n in range(2, 201):
            assert bound_bound_z2(s1, n, ch) == z2_1s_to_np(n)

    @pytest.mark.parametrize("n,l,direction", [(2, 0, "plus"), (2, 1, "plus"), (2, 1, "minus")])
    def test_fast_equals_direct_overlap(self, n, l, direction):
        st = bound_state(n, l)
        ch = channel(direction, l)
        for to_n in list(range(ch.target_l + 1, 12)) + [25, 40]:
            assert bound_bound_z2(st, to_n, ch) == z2_overlap(st, to_n, ch)

    def test_missing_target(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_bound_z2(bound_state(2, 1), 2, channel("plus", 1))


# every (n, l, channel) with n <= 5
KERNEL_CHANNELS = [(n, l, d) for n in range(1, 6) for l in range(n)
                   for d in ("plus", "minus") if l > 0 or d == "plus"]

# sha256 of bound_bound_z2_floats over to_n = l'+1..2000 for 1s+, 2s+, 2p+ and
# 2p- (the paper-tables sums), packed as little-endian doubles.  Recorded from
# a kernel that summed Fraction terms and rounded float(Fraction) once, on
# glibc's exp and log1p
FLOAT_TABLES_SHA256 = "db68ae70dc1d6fe5704723e505d5b6cba55122a091196b1dccfd52122b381d62"


def _factors_float(st, to_n, ch):
    """The float finish of _z2_factors, one level at a time."""
    num, den, power = _z2_factors(st, to_n, ch)
    if power == 0:
        return num / den
    return num / den * math.exp(power * math.log1p(-2 * min(to_n, st.n) / (to_n + st.n)))


def _poly_value(coeffs, n):
    """An integer polynomial, highest power first, summed term by term."""
    return sum(a * n**k for k, a in enumerate(reversed(coeffs)))


class TestFactoredKernel:
    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_float_finish_matches_exact(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        lo = ch.target_l + 1
        table = bound_bound_z2_floats(st, ch, lo, 2000)
        targets = list(range(lo, 51)) + list(range(97, 2001, 97))
        for to_n in targets:
            want = float(bound_bound_z2(st, to_n, ch))
            got = table[to_n - lo]
            assert abs(got - want) <= 1e-13 * abs(want), (to_n, got, want)

    def test_float_tables_bit_identical(self):
        digest = hashlib.sha256()
        for n, l, direction in [(1, 0, "plus"), (2, 0, "plus"), (2, 1, "plus"), (2, 1, "minus")]:
            st, ch = bound_state(n, l), channel(direction, l)
            for z2 in bound_bound_z2_floats(st, ch, ch.target_l + 1, 2000):
                digest.update(struct.pack("<d", z2))
        assert digest.hexdigest() == FLOAT_TABLES_SHA256

    # the channels whose target shell includes the level n itself
    @pytest.mark.parametrize("n,l,direction", [c for c in KERNEL_CHANNELS
                                               if c[2] == "minus" or c[1] < c[0] - 1])
    def test_degenerate_target(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        num, den, power = _z2_factors(st, n, ch)
        assert power == 0
        exact = bound_bound_z2(st, n, ch)
        assert exact == F(num, den) == z2_overlap(st, n, ch)
        assert bound_bound_z2_floats(st, ch, n, n) == [float(exact)]

    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_polynomials_are_exact(self, n, l, direction):
        # num(to_n) = prefactor perm(to_n + l', 2l'+1) to_n^(2l') T^2 and
        # den(to_n) = c (to_n + n)^e, finished exactly, give the exact element
        st, ch = bound_state(n, l), channel(direction, l)
        prefactor, t, c, e = _z2_polynomials(st, ch)
        assert all(type(a) is int for a in t + [prefactor, c, e])
        lp = ch.target_l
        # the closed product is the polynomial with roots -l'..l' and 0 (2l' times)
        p = _linear_product([lp - r for r in range(2 * lp + 1)] + [0] * (2 * lp))
        for to_n in (n + 2, n + 3, 97, 2000):
            closed = prefactor * math.perm(to_n + lp, 2 * lp + 1) * to_n ** (2 * lp)
            assert closed == prefactor * _poly_value(p, to_n), to_n
            num, den = closed * _poly_value(t, to_n) ** 2, c * (to_n + n) ** e
            got = F(num, den) * F(to_n - n, to_n + n) ** (2 * (to_n - n - 2))
            assert got == bound_bound_z2(st, to_n, ch), to_n

    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_short_ranges_equal_full_table(self, n, l, direction):
        # single levels around m + 2, where the closed-product loop starts,
        # and short ranges, as the matrix fuzz test and a growing table ask
        st, ch = bound_state(n, l), channel(direction, l)
        lo = ch.target_l + 1
        full = bound_bound_z2_floats(st, ch, lo, 2000)
        ranges = [(a, a) for a in (n, n + 1, n + 2, n + 3, 2000) if a >= lo]
        for a, b in ranges + [(n + 2, n + 4), (1990, 2000)]:
            assert bound_bound_z2_floats(st, ch, a, b) == full[a - lo:b - lo + 1], (a, b)

    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_table_equals_per_level_finish(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        lo = ch.target_l + 1
        want = [_factors_float(st, to_n, ch) for to_n in range(lo, 2001)]
        assert bound_bound_z2_floats(st, ch, lo, 2000) == want

    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_grown_table_equals_one_step(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        grown = _Channel(st, ch)
        for n_max in (10, 50, 2000):
            table = grown.z2_table(n_max)
        assert np.array_equal(table, _Channel(st, ch).z2_table(2000))

    def test_range_needs_a_target_level(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_bound_z2_floats(bound_state(2, 1), channel("plus", 1), 2, 10)
        with pytest.raises(InvalidQuantumNumbers):
            bound_bound_z2_floats(bound_state(2, 1), channel("plus", 0), 20, 30)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixed_table_equals_per_level_finish(self, monkeypatch):
        # from to_n = 3701 on, (to_n + 40)^(e/2) = (to_n + 40)^84 is above
        # 2^997, where Dekker's split overflows: the double-double is NaN
        # there and the integers take those levels
        st, ch = bound_state(40, 20), channel("plus", 20)
        exact_levels = []
        per_level = hydrogen._prefactor_exact
        monkeypatch.setattr(hydrogen, "_prefactor_exact",
                            lambda *args: exact_levels.append(args[-1]) or per_level(*args))
        table = bound_bound_z2_floats(st, ch, 3690, 3710)
        assert 0 < len(exact_levels) < len(table)
        assert table == [_factors_float(st, to_n, ch) for to_n in range(3690, 3711)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_block_boundary(self):
        # the long table's levels 3..4100 are two blocks, split after 4098
        st, ch = bound_state(1, 0), channel("plus", 0)
        assert 3 + _BLOCK - 1 in range(4090, 4100)
        full = bound_bound_z2_floats(st, ch, 2, 4100)
        assert bound_bound_z2_floats(st, ch, 4090, 4100) == full[4090 - 2:]

    @pytest.mark.parametrize("n,l,direction", [(2, 1, "minus"), (5, 0, "plus"), (20, 0, "plus")])
    def test_double_double_within_bound(self, n, l, direction):
        # the error bound that _needs_exact assumes, 2^-70 kappa |hi|, has a
        # margin of at least 2^23 over the double-double's error
        st, ch = bound_state(n, l), channel(direction, l)
        poly = _z2_polynomials(st, ch)
        prefactor, t, c, e = poly
        lp = ch.target_l
        ns = np.array([n + 2, n + 3, 97, 2000, 30000], dtype=float)
        with np.errstate(all="ignore"):
            hi, lo, kappa = _prefactors_dd(poly, _dd_constants(poly), lp, n, ns)
        assert len(hi) == len(ns) and np.all(np.isfinite(kappa))
        for to_n, h, low, k in zip(ns.astype(int).tolist(), hi.tolist(), lo.tolist(), kappa.tolist()):
            exact = F(prefactor * math.perm(to_n + lp, 2 * lp + 1) * to_n ** (2 * lp) * _poly_value(t, to_n) ** 2,
                      c * (to_n + n) ** e)
            assert abs(F(h) + F(low) - exact) <= F(2) ** -93 * k * abs(F(h)), to_n

    def test_giant_power_factored_out(self):
        # all digits that grow with to_n sit in ratio**power; the power is
        # 2 (k - j_max) with k = 2000 - l' - 1 and j_max = 2 - l' + 1, and the
        # prefactor is an integer ratio
        st, ch = bound_state(2, 1), channel("minus", 1)
        num, den, power = _z2_factors(st, 2000, ch)
        assert type(num) is int and type(den) is int and power == 2 * (1999 - 3)
        small = F(num, den)
        exact = bound_bound_z2(st, 2000, ch)
        assert exact == small * F(1998, 2002) ** power
        assert small.numerator.bit_length() < 200 < 20000 < exact.numerator.bit_length()

    def test_exact_finish_at_large_n(self):
        s1, ch = bound_state(1, 0), channel("plus", 0)
        for n in (500, 1000, 1999, 2000):
            assert bound_bound_z2(s1, n, ch) == z2_1s_to_np(n)


class TestNeedsExact:
    """The rule that sends a double-double prefactor (hi, lo) to the integers:
    flagged when | |lo| - ulp(hi)/2 | <= 2^-70 |hi| kappa, when hi is a power
    of two or below 2^-900, and when anything is infinite or NaN."""

    HI = 1.5                       # ulp 2^-52, so the midpoint is at |lo| = 2^-53
    BOUND = 2.0**-70 * 1.5 * 3.0   # with kappa = 3

    def flagged(self, hi, lo, kappa=3.0):
        return _needs_exact(np.array([hi]), np.array([lo]), np.array([kappa]))[0]

    def test_exact_midpoints(self):
        assert self.flagged(self.HI, 2.0**-53)
        assert self.flagged(self.HI, -(2.0**-53))

    def test_just_inside_and_outside_the_bound(self):
        for sign in (1, -1):
            for side in (1, -1):
                assert self.flagged(self.HI, sign * (2.0**-53 + side * 0.99 * self.BOUND))
                assert not self.flagged(self.HI, sign * (2.0**-53 + side * 1.01 * self.BOUND))

    def test_far_from_the_midpoint(self):
        assert not self.flagged(self.HI, 0.0)
        assert not self.flagged(self.HI, 2.0**-60)
        # a large condition number widens the bound past the midpoint
        assert self.flagged(self.HI, 0.0, kappa=2.0**20)

    def test_power_of_two(self):
        assert self.flagged(2.0, -(2.0**-60))
        assert self.flagged(0.25, -(2.0**-70))
        assert not self.flagged(2.0 * self.HI, -(2.0**-60))

    def test_tiny(self):
        assert self.flagged(1.5 * 2.0**-901, 0.0)
        assert not self.flagged(1.5 * 2.0**-899, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inf_and_nan(self):
        for hi, lo, kappa in [(math.inf, 0.0, 3.0), (-math.inf, 0.0, 3.0), (math.nan, 0.0, 3.0),
                              (self.HI, math.nan, 3.0), (self.HI, math.inf, 3.0),
                              (self.HI, 0.0, math.nan), (self.HI, 0.0, math.inf)]:
            assert self.flagged(hi, lo, kappa), (hi, lo, kappa)


class TestContinuumClosedForm:
    def test_small_q_linear(self):
        q = 1e-4
        assert continuum_z2_1s(q) == pytest.approx((256.0 / 3.0) * q * math.exp(-4.0), rel=1e-3)

    def test_q_one(self):
        want = (8.0 / 3.0) * math.exp(-math.pi) / (1.0 - math.exp(-2 * math.pi))
        assert continuum_z2_1s(1.0) == pytest.approx(want, rel=1e-12)
        assert continuum_z2_1s(1.0) == pytest.approx(0.1154527, abs=1e-6)

    def test_large_q_tail(self):
        assert continuum_z2_1s(1e6) < 1e-25

    def test_nonpositive_q(self):
        with pytest.raises(NonPositiveQ):
            continuum_z2_1s(0.0)


def _coulombf_amplitude(state, lp, q, panel=25.0, order=44):
    """sqrt(2/pi) int u(rho) rho F_lp(-1/q, q rho) drho with mpmath's Coulomb
    function on composite Gauss-Legendre panels out to rho = 50 n.

    The order exceeds the phase q * panel / 2 = 37.5 that the fastest wave
    checked (q = 3) turns through on half a panel."""
    import mpmath as mp
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.arange(0.0, 50.0 * state.n + panel, panel)
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = (0.5 * np.diff(edges))[:, None]
    rho = (mid + half * nodes).ravel()
    w = (half * weights).ravel()
    with mp.workdps(15):
        f = np.array([float(mp.coulombf(lp, -1.0 / q, q * r)) for r in rho])
    return math.sqrt(2.0 / math.pi) * math.fsum((w * state.values(rho) * rho * f).tolist())


class TestBoundFreeClosedForm:
    def test_matches_ground_state_closed_form(self):
        qs = np.logspace(-3, 4, 300)
        got = bound_free_z2_closed(bound_state(1, 0), channel("plus", 0), qs)
        want = np.array([continuum_z2_1s(q) for q in qs])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n,l,direction,q", [
        (3, 0, "plus", 0.3), (3, 2, "plus", 1.0), (3, 2, "minus", 0.5), (4, 3, "minus", 0.3),
        *[(2, l, d, q) for l, d in [(0, "plus"), (1, "plus"), (1, "minus")] for q in (0.1, 0.5, 2.0)],
        (2, 1, "minus", 3.0), (2, 1, "plus", 1.5),
    ])
    def test_matches_mpmath_coulomb_quadrature(self, n, l, direction, q):
        st, ch = bound_state(n, l), channel(direction, l)
        want = float(ch.weight) * _coulombf_amplitude(st, ch.target_l, q) ** 2
        assert float(bound_free_z2_closed(st, ch, q)) == pytest.approx(want, rel=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(NonPositiveQ):
            bound_free_z2_closed(bound_state(2, 1), channel("plus", 1), np.array([1.0, 0.0]))
        with pytest.raises(InvalidQuantumNumbers):
            bound_free_z2_closed(bound_state(2, 1), channel("plus", 0), 1.0)


def _reference_expectation(m, l, p):
    """Known closed forms for Coulomb <rho^p>, p in {2,1,-1,-2,-3,-4}."""
    lam = l * (l + 1)
    if p == 2:
        return F(m**4, 2) * (5 + F(1 - 3 * lam, m * m))
    if p == 1:
        return F(m * m, 2) * (3 - F(lam, m * m))
    if p == -1:
        return F(1, m * m)
    if p == -2:
        return F(2, m**3 * (2 * l + 1))
    if p == -3:
        return F(2, m**3 * lam * (2 * l + 1))
    if p == -4:
        return (F(1, m**3) * (3 - F(lam, m * m))
                * F(4, lam * (2 * l + 3) * (2 * l + 1) * (2 * l - 1)))
    raise ValueError("no closed form tabulated for this power")


class TestExpectations:
    def test_listed_values(self):
        assert expectation_rho_power(bound_state(2, 1), -3) == F(1, 24)
        assert expectation_rho_power(bound_state(3, 2), -4) == F(2, 3645)
        assert expectation_rho_power(bound_state(5, 3), 0) == 1

    def test_against_reference_forms(self):
        for n in range(1, 7):
            for l in range(n):
                st = bound_state(n, l)
                for p in (2, 1, -1, -2):
                    assert expectation_rho_power(st, p) == _reference_expectation(n, l, p)
                if l >= 1:
                    for p in (-3, -4):
                        assert expectation_rho_power(st, p) == _reference_expectation(n, l, p)

    def test_divergent(self):
        with pytest.raises(DivergentAtOrigin):
            expectation_rho_power(bound_state(1, 0), -3)
