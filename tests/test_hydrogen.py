"""Coulomb states: exact bound-state algebra and closed-form continuum elements."""

import hashlib
import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum import exactalg as xa
from dipolesum.errors import DivergentAtOrigin, InvalidQuantumNumbers, NonPositiveQ
from dipolesum.hydrogen import (
    _z2_factors,
    bound_bound_z2,
    bound_bound_z2_float,
    bound_bound_z2_overlap,
    bound_free_z2_closed,
    bound_state,
    channel,
    continuum_z2_1s,
    expectation_rho_power,
    reference_expectation,
    z2_1s_to_np,
)
from dipolesum.potentials import COULOMB


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
        assert xa.normed_equal(s.radial, s.norm2, xa.polyexp({1: 2}, 1), F(1))

    def test_first_excited_s(self):
        s = bound_state(2, 0)
        assert xa.normed_equal(s.radial, s.norm2,
                               xa.polyexp({2: 1, 1: -2}, F(1, 2)), F(1, 8))

    def test_first_excited_p(self):
        s = bound_state(2, 1)
        assert xa.normed_equal(s.radial, s.norm2,
                               xa.polyexp({2: 1}, F(1, 2)), F(1, 24))

    def test_invalid_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_state(2, 2)

    @pytest.mark.parametrize("n", [1, 5, 12, 21, 30])
    def test_eigen_and_norm_to_n30(self, n):
        for l in range(n):
            s = bound_state(n, l)
            assert xa.apply_h(s.radial, l, s.ksq, COULOMB).is_zero()
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
            assert bound_bound_z2(st, to_n, ch) == bound_bound_z2_overlap(st, to_n, ch)

    def test_missing_target(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_bound_z2(bound_state(2, 1), 2, channel("plus", 1))


# every (n, l, channel) with n <= 5
KERNEL_CHANNELS = [(n, l, d) for n in range(1, 6) for l in range(n)
                   for d in ("plus", "minus") if l > 0 or d == "plus"]

# sha256 of bound_bound_z2_float over to_n = l'+1..2000 for 1s+, 2s+, 2p+ and
# 2p- (the paper-tables sums), packed as little-endian doubles.  Recorded from
# a kernel that summed Fraction terms and rounded float(Fraction) once, on
# glibc's exp and log1p
FLOAT_TABLES_SHA256 = "db68ae70dc1d6fe5704723e505d5b6cba55122a091196b1dccfd52122b381d62"


class TestFactoredKernel:
    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_float_finish_matches_exact(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        targets = list(range(ch.target_l + 1, 51)) + list(range(97, 2001, 97))
        for to_n in targets:
            want = float(bound_bound_z2(st, to_n, ch))
            got = bound_bound_z2_float(st, to_n, ch)
            assert abs(got - want) <= 1e-13 * abs(want), (to_n, got, want)

    def test_float_tables_bit_identical(self):
        digest = hashlib.sha256()
        for n, l, direction in [(1, 0, "plus"), (2, 0, "plus"), (2, 1, "plus"), (2, 1, "minus")]:
            st, ch = bound_state(n, l), channel(direction, l)
            for to_n in range(ch.target_l + 1, 2001):
                digest.update(struct.pack("<d", bound_bound_z2_float(st, to_n, ch)))
        assert digest.hexdigest() == FLOAT_TABLES_SHA256

    # the channels whose target shell includes the level n itself
    @pytest.mark.parametrize("n,l,direction", [c for c in KERNEL_CHANNELS
                                               if c[2] == "minus" or c[1] < c[0] - 1])
    def test_degenerate_target(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        num, den, power = _z2_factors(st, n, ch)
        assert power == 0
        exact = bound_bound_z2(st, n, ch)
        assert exact == F(num, den) == bound_bound_z2_overlap(st, n, ch)
        assert bound_bound_z2_float(st, n, ch) == float(exact)

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
                    assert expectation_rho_power(st, p) == reference_expectation(n, l, p)
                if l >= 1:
                    for p in (-3, -4):
                        assert expectation_rho_power(st, p) == reference_expectation(n, l, p)

    def test_divergent(self):
        with pytest.raises(DivergentAtOrigin):
            expectation_rho_power(bound_state(1, 0), -3)
