"""Brute-force route: discrete sums, continuum quadrature, contour check."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum import oracle
from dipolesum.errors import DivergentSumRule, InvalidOrder, InvalidQuantumNumbers, InvalidTruncation
from dipolesum.hydrogen import bound_bound_z2_floats, bound_state, channel, z2_1s_to_np
from dipolesum.oracle import (
    compare,
    continuum_integral_with_error,
    contour_check,
    discrete_sum,
    max_convergent_order,
    residue_circle,
)
from dipolesum.sumrules import closed_form_coulomb


class TestDiscreteSum:
    def test_ground_order_zero(self):
        got = discrete_sum(bound_state(1, 0), channel("plus", 0), 0)
        assert got == pytest.approx(0.716587, abs=1e-4)

    def test_excited_s_inverse_square(self):
        got = discrete_sum(bound_state(2, 0), channel("plus", 0), -2)
        assert got == pytest.approx(187.959, abs=1e-2)

    def test_excited_p_fourth_order(self):
        got = discrete_sum(bound_state(2, 1), channel("plus", 1), 4)
        assert got == pytest.approx(0.00470, abs=1e-4)

    def test_degenerate_term_policy(self):
        st, ch = bound_state(2, 0), channel("plus", 0)
        # J=0 keeps the degenerate level with weight one
        assert discrete_sum(st, ch, 0, n_max=2) == pytest.approx(9.0, abs=1e-12)
        # J>=1 weights it to zero, J<0 excludes it
        assert discrete_sum(st, ch, 1, n_max=2) == 0.0
        assert discrete_sum(st, ch, -1, n_max=2) == 0.0

    def test_partial_sums_monotone_for_nonpositive_orders(self):
        st, ch = bound_state(1, 0), channel("plus", 0)
        for J in (0, -1, -2):
            vals = [discrete_sum(st, ch, J, n_max=n)
                    for n in (10, 50, 200, 1000, 2000)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[-1] < float(F(1) if J == 0 else (F(9, 8) if J == -1 else F(43, 32)))


# every channel of every state with n <= 5, as in test_hydrogen's kernel tests
KERNEL_CHANNELS = [(n, l, d) for n in range(1, 6) for l in range(n)
                   for d in ("plus", "minus") if l > 0 or d == "plus"]


class TestArrayTerms:
    """The discrete terms are one numpy expression over the table; each must
    equal Python's per-level float ** int weight times the table float, bit
    for bit (a SIMD pow that differs in the last ulp fails here)."""

    @pytest.mark.parametrize("n,l,direction", KERNEL_CHANNELS)
    def test_terms_equal_per_level_python(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        lo = ch.target_l + 1
        z2 = [0.0] * lo + bound_bound_z2_floats(st, ch, lo, 2000)
        for n_max in (n + 1, 10, 2000):
            for J in range(-13, 4 + l):
                # the degenerate level enters with weight 1 at J = 0 only
                want = [(1.0 / n**2 - 1.0 / m**2) ** J * z2[m] for m in range(lo, n_max + 1)
                        if m != n or J == 0]
                got = oracle._discrete_terms(st, ch, J, n_max)
                assert got.dtype == np.float64 and got.tolist() == want, (J, n_max)
                assert discrete_sum(st, ch, J, n_max) == math.fsum(want), (J, n_max)
                tail = abs((1.0 / n**2 - 1.0 / n_max**2) ** J * z2[n_max]) * n_max / 2.0
                assert oracle._discrete_tail_estimate(st, ch, J, n_max) == tail, (J, n_max)


class TestContinuumIntegral:
    def test_ground_third_order(self):
        got = continuum_integral_with_error(bound_state(1, 0), channel("plus", 0), 3)[0]
        assert got == pytest.approx(4.972492, abs=1e-4)

    def test_excited_p_fourth_order(self):
        got = continuum_integral_with_error(bound_state(2, 1), channel("plus", 1), 4)[0]
        assert got == pytest.approx(0.17307, abs=1e-3)

    def test_divergent_orders_rejected(self):
        with pytest.raises(DivergentSumRule):
            continuum_integral_with_error(bound_state(1, 0), channel("plus", 0), 4)
        with pytest.raises(DivergentSumRule):
            continuum_integral_with_error(bound_state(2, 1), channel("minus", 1), 5)

    def test_convergence_bound(self):
        assert max_convergent_order(bound_state(1, 0)) == 3
        assert max_convergent_order(bound_state(2, 1)) == 4


class TestCompare:
    def test_ground_second_order_row(self):
        row = compare(bound_state(1, 0), "plus", 2)
        assert row.discrete == pytest.approx(0.449355, abs=2e-4)
        assert row.continuum == pytest.approx(0.883977, abs=2e-4)
        assert row.constructive == F(4, 3)
        assert row.total == pytest.approx(4 / 3, abs=2e-4)

    def test_excited_p_minus_first_order_row(self):
        row = compare(bound_state(2, 1), "minus", 1)
        assert row.discrete == pytest.approx(-0.35677, abs=2e-3)
        assert row.continuum == pytest.approx(0.02344, abs=2e-3)
        assert row.total == pytest.approx(-1 / 3, abs=2e-4)

    def test_ground_inverse_fourth_row(self):
        row = compare(bound_state(1, 0), "plus", -4)
        assert row.discrete == pytest.approx(1.982648, abs=2e-4)
        assert row.continuum == pytest.approx(0.116526, abs=2e-4)
        assert row.constructive == F(9673, 4608)

    def test_closed_form_column_skips_invalid_order(self, monkeypatch):
        def no_form(m, l, J):
            raise InvalidOrder("no closed form")
        monkeypatch.setattr(oracle, "closed_form_coulomb", no_form)
        row = compare(bound_state(1, 0), "plus", 2)
        assert row.closed_form is None
        assert row.constructive == F(4, 3)

    def test_unrelated_closed_form_error_propagates(self, monkeypatch):
        def broken(m, l, J):
            raise RuntimeError("not an order error")
        monkeypatch.setattr(oracle, "closed_form_coulomb", broken)
        with pytest.raises(RuntimeError, match="not an order error"):
            compare(bound_state(1, 0), "plus", 2)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 2)])
    def test_divergent_order_skips_the_discrete_sum(self, n, l, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "discrete_sum", lambda *args: calls.append(args))
        for direction in ("plus", "minus", "total") if l else ("plus", "total"):
            with pytest.raises(DivergentSumRule):
                compare(bound_state(n, l), direction, 4 + l)
        assert calls == []

    def test_legendre_rule_shared_read_only(self):
        t, w = oracle._legendre_rule(oracle.GAUSS_ORDER)
        assert oracle._legendre_rule(oracle.GAUSS_ORDER)[0] is t
        assert np.array_equal(t, np.polynomial.legendre.leggauss(oracle.GAUSS_ORDER)[0])
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_estimated_error_bounds_truth(self):
        # the error estimate should cover the actual deviation from exact
        hits, total = 0, 0
        for n, l, direction in [(1, 0, "plus"), (2, 0, "plus"), (2, 1, "minus")]:
            st = bound_state(n, l)
            for J in range(-2, max_convergent_order(st) + 1):
                row = compare(st, direction, J)
                if row.constructive is None:
                    continue
                total += 1
                if abs(row.total - float(row.constructive)) <= max(2e-4, row.estimated_error):
                    hits += 1
        assert hits / total >= 0.95


class TestTotalRows:
    @pytest.mark.parametrize("n,l", [(2, 1), (3, 2)])
    def test_total_is_fsum_of_channel_rows(self, n, l):
        st = bound_state(n, l)
        for J in range(-4, max_convergent_order(st) + 1):
            tot = compare(st, "total", J)
            plus, minus = compare(st, "plus", J), compare(st, "minus", J)
            assert tot.channel == "total"
            assert tot.discrete == math.fsum([plus.discrete, minus.discrete])
            assert tot.continuum == math.fsum([plus.continuum, minus.continuum])
            assert tot.estimated_error == math.fsum([plus.estimated_error,
                                                     minus.estimated_error])
            assert tot.constructive == plus.constructive + minus.constructive

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (3, 2)])
    def test_closed_form_fills_total_rows(self, n, l):
        st = bound_state(n, l)
        for J in range(0, min(4, max_convergent_order(st)) + 1):
            try:
                want = closed_form_coulomb(n, l, J)
            except InvalidOrder:
                want = None
            row = compare(st, "total", J)
            assert row.closed_form == want
            if want is not None:
                assert row.closed_form == row.constructive
            if l > 0:
                assert compare(st, "plus", J).closed_form is None

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_truncation_at_or_below_the_state_rejected(self, n_max):
        # n_max = 2 used to divide by zero in the tail estimate, and n_max = 1
        # returned an estimate of 4e-16 against a gap of 27.7 to the exact 30
        with pytest.raises(InvalidTruncation, match="n_max must exceed"):
            compare(bound_state(2, 0), "plus", -1, n_max=n_max)

    def test_forbidden_and_unknown_directions(self):
        with pytest.raises(InvalidQuantumNumbers):
            compare(bound_state(1, 0), "minus", 0)
        with pytest.raises(InvalidQuantumNumbers):
            compare(bound_state(2, 1), "both", 0)


class TestSharedChannel:
    """One cached object per (state, channel) holds the discrete table and the
    continuum node sets; what it has cached before must not change a result."""

    @pytest.mark.parametrize("J", [0, 1, 2, 3])
    def test_contour_check_independent_of_compare(self, J):
        oracle._cached_channel.cache_clear()
        first = contour_check(J)
        compare(bound_state(1, 0), "plus", J, n_max=2000)
        assert contour_check(J) == first
        oracle._cached_channel.cache_clear()
        compare(bound_state(1, 0), "plus", J, n_max=2000)
        assert contour_check(J) == first

    @pytest.mark.parametrize("n,l,direction", [(1, 0, "plus"), (2, 0, "plus"), (2, 1, "minus")])
    def test_short_sum_after_long_table(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        for J in (-2, 0, 3):
            discrete_sum(st, ch, J, n_max=2000)
            # the degenerate level enters with weight 0**0 = 1 at J = 0 only
            lo = ch.target_l + 1
            want = math.fsum((1.0 / n**2 - 1.0 / m**2) ** J * z2
                             for m, z2 in enumerate(bound_bound_z2_floats(st, ch, lo, 10), start=lo)
                             if m != n or J == 0)
            assert discrete_sum(st, ch, J, n_max=10) == want


class TestClosureBeyondPaperStates:
    """Criterion 8's gate on states the paper does not tabulate, every
    convergent order including the edge J = 3 + l."""

    @pytest.mark.parametrize("n,l,direction", [(3, 0, "plus"), (3, 1, "plus"), (3, 1, "minus"),
                                               (3, 2, "plus"), (3, 2, "minus"),
                                               (4, 3, "plus"), (4, 3, "minus")])
    def test_totals_close_on_constructive_values(self, n, l, direction):
        st = bound_state(n, l)
        for J in range(-4, max_convergent_order(st) + 1):
            row = compare(st, direction, J)
            gap = abs(row.total - float(row.constructive))
            assert gap <= max(2e-4, row.estimated_error), (J, gap, row.estimated_error)


class TestContour:
    def test_residue_gate_is_relative(self):
        # a term above 1 is gated on CONTOUR_TOL * |term|, in the report and in the CLI
        rep = oracle.ContourReport(J=0, residue_rows=[(2, 2.0 + 1.5e-6, 2.0)],
                                   radius_stability=0.0, line_integral=0.0,
                                   continuum_reference=0.0)
        assert rep.gates["residues"] and rep.passed
        far = oracle.ContourReport(J=0, residue_rows=[(2, 2.0 + 3e-6, 2.0)],
                                   radius_stability=2e-8, line_integral=2e-6,
                                   continuum_reference=0.0)
        assert not any(far.gates.values())
        assert not far.passed

    def test_residues_match_discrete_terms(self):
        for J in (0, 1, 2, 3):
            rep = contour_check(J)
            for n, circle, term in rep.residue_rows:
                assert circle == pytest.approx(term, abs=1e-6)

    def test_first_pole_second_order_weight(self):
        got = residue_circle(2, 1)
        want = float(z2_1s_to_np(2)) * (3 / 4)
        assert got == pytest.approx(want, abs=1e-9)

    def test_line_integral_equals_continuum(self):
        for J in (0, 3):
            rep = contour_check(J)
            assert rep.line_integral == pytest.approx(rep.continuum_reference, abs=1e-6)
            assert rep.passed

    def test_order_zero_line_value(self):
        rep = contour_check(0)
        assert rep.line_integral == pytest.approx(0.283412, abs=1e-4)

    def test_radius_halving_stability(self):
        r1 = residue_circle(3, 2)
        r2 = residue_circle(3, 2, radius=0.15 / 12.0)
        assert abs(r1 - r2) < 1e-8
