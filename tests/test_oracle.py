"""Brute-force route: discrete sums, continuum quadrature, contour check."""

from fractions import Fraction as F

import pytest

from dipolesum.errors import DivergentSumRule
from dipolesum.hydrogen import bound_state, channel, z2_1s_to_np
from dipolesum.oracle import (
    QuadratureSpec,
    compare,
    continuum_integral,
    contour_check,
    discrete_sum,
    max_convergent_order,
    residue_circle,
)

SPEC = QuadratureSpec()


class TestDiscreteSum:
    def test_ground_order_zero(self):
        got = discrete_sum(bound_state(1, 0), channel("plus", 0), 0, SPEC)
        assert got == pytest.approx(0.716587, abs=1e-4)

    def test_excited_s_inverse_square(self):
        got = discrete_sum(bound_state(2, 0), channel("plus", 0), -2, SPEC)
        assert got == pytest.approx(187.959, abs=1e-2)

    def test_excited_p_fourth_order(self):
        got = discrete_sum(bound_state(2, 1), channel("plus", 1), 4, SPEC)
        assert got == pytest.approx(0.00470, abs=1e-4)

    def test_degenerate_term_policy(self):
        st, ch = bound_state(2, 0), channel("plus", 0)
        small = QuadratureSpec(n_max=2)
        # J=0 keeps the degenerate level with weight one
        assert discrete_sum(st, ch, 0, small) == pytest.approx(9.0, abs=1e-12)
        # J>=1 weights it to zero, J<0 excludes it
        assert discrete_sum(st, ch, 1, small) == 0.0
        assert discrete_sum(st, ch, -1, small) == 0.0

    def test_partial_sums_monotone_for_nonpositive_orders(self):
        st, ch = bound_state(1, 0), channel("plus", 0)
        for J in (0, -1, -2):
            vals = [discrete_sum(st, ch, J, QuadratureSpec(n_max=n))
                    for n in (10, 50, 200, 1000, 2000)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[-1] < float(F(1) if J == 0 else (F(9, 8) if J == -1 else F(43, 32)))


class TestContinuumIntegral:
    def test_ground_third_order(self):
        got = continuum_integral(bound_state(1, 0), channel("plus", 0), 3, SPEC)
        assert got == pytest.approx(4.972492, abs=1e-4)

    def test_excited_p_fourth_order(self):
        got = continuum_integral(bound_state(2, 1), channel("plus", 1), 4, SPEC)
        assert got == pytest.approx(0.17307, abs=1e-3)

    def test_divergent_orders_rejected(self):
        with pytest.raises(DivergentSumRule):
            continuum_integral(bound_state(1, 0), channel("plus", 0), 4, SPEC)
        with pytest.raises(DivergentSumRule):
            continuum_integral(bound_state(2, 1), channel("minus", 1), 5, SPEC)

    def test_convergence_bound(self):
        assert max_convergent_order(bound_state(1, 0)) == 3
        assert max_convergent_order(bound_state(2, 1)) == 4


class TestCompare:
    def test_ground_second_order_row(self):
        row = compare(bound_state(1, 0), channel("plus", 0), 2, SPEC)
        assert row.discrete == pytest.approx(0.449355, abs=2e-4)
        assert row.continuum == pytest.approx(0.883977, abs=2e-4)
        assert row.constructive == F(4, 3)
        assert row.total == pytest.approx(4 / 3, abs=2e-4)

    def test_excited_p_minus_first_order_row(self):
        row = compare(bound_state(2, 1), channel("minus", 1), 1, SPEC)
        assert row.discrete == pytest.approx(-0.35677, abs=2e-3)
        assert row.continuum == pytest.approx(0.02344, abs=2e-3)
        assert row.total == pytest.approx(-1 / 3, abs=2e-4)

    def test_ground_inverse_fourth_row(self):
        row = compare(bound_state(1, 0), channel("plus", 0), -4, SPEC)
        assert row.discrete == pytest.approx(1.982648, abs=2e-4)
        assert row.continuum == pytest.approx(0.116526, abs=2e-4)
        assert row.constructive == F(9673, 4608)

    def test_estimated_error_bounds_truth(self):
        # the error estimate should cover the actual deviation from exact
        hits, total = 0, 0
        for n, l, direction in [(1, 0, "plus"), (2, 0, "plus"), (2, 1, "minus")]:
            st, ch = bound_state(n, l), channel(direction, l)
            for J in range(-2, max_convergent_order(st) + 1):
                row = compare(st, ch, J, SPEC)
                if row.constructive is None:
                    continue
                total += 1
                if abs(row.total - float(row.constructive)) <= max(2e-4, row.estimated_error):
                    hits += 1
        assert hits / total >= 0.95


class TestClosureBeyondPaperStates:
    """Criterion 8's gate on states the paper does not tabulate, every
    convergent order including the edge J = 3 + l."""

    @pytest.mark.parametrize("n,l,direction", [(3, 0, "plus"), (3, 1, "plus"), (3, 1, "minus"),
                                               (3, 2, "plus"), (3, 2, "minus"),
                                               (4, 3, "plus"), (4, 3, "minus")])
    def test_totals_close_on_constructive_values(self, n, l, direction):
        st, ch = bound_state(n, l), channel(direction, l)
        for J in range(-4, max_convergent_order(st) + 1):
            row = compare(st, ch, J, SPEC)
            gap = abs(row.total - float(row.constructive))
            assert gap <= max(2e-4, row.estimated_error), (J, gap, row.estimated_error)


class TestContour:
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
