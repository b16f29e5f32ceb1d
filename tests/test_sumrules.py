"""Sum-rule assembly: constructive values, closed forms, identities, rates."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum.errors import (
    DivergentAtOrigin,
    DivergentExpectation,
    InvalidOrder,
    OutOfValidityRange,
)
from dipolesum.hydrogen import bound_state, channel
from dipolesum.ladder import family
from dipolesum.potentials import (COULOMB, LOG, GridFunction, _default_rho_max, grid_expectation, power_law,
                                  solve_bound)
from dipolesum.sumrules import (
    EinsteinInputs,
    FChoice,
    closed_form_coulomb,
    closed_form_power_law,
    constructive_value,
    einstein_rates,
    equivalence_suite,
    kramers_general,
    kramers_recurrence,
    polarizability_1s,
    sum_rule_constructive,
    sum_rule_grid,
)


@pytest.fixture(scope="module")
def oscillator():
    return solve_bound(power_law(2), 0, 0)


class TestConstructive:
    def test_ground_third_order(self):
        fam = family(1, 0, "plus").grow_f(3)
        assert sum_rule_constructive(fam, 3) == F(16, 3)

    def test_excited_s_inverse_order(self):
        fam = family(2, 0, "plus").grow_g(2)
        assert sum_rule_constructive(fam, -1) == 30

    def test_excited_p_totals(self):
        assert constructive_value(2, 1, "total", 0) == 18
        assert constructive_value(2, 1, "total", -2) == 371

    def test_all_published_totals(self):
        table = {
            (1, 0, "plus"): {0: F(1), 1: F(1), 2: F(4, 3), 3: F(16, 3),
                             -1: F(9, 8), -2: F(43, 32), -3: F(319, 192), -4: F(9673, 4608)},
            (2, 0, "plus"): {0: 14, 1: 1, 2: F(1, 3), 3: F(2, 3), -1: 30, -2: 195},
            (2, 1, "minus"): {0: 10, 1: F(-1, 3), 2: F(1, 3), 3: F(-2, 9), 4: F(2, 9),
                              -1: 2, -2: 19},
            (2, 1, "plus"): {0: 8, 1: F(4, 3), 2: F(4, 15), 3: F(4, 45), 4: F(8, 45),
                             -1: 52, -2: 352},
        }
        for (n, l, direction), rows in table.items():
            for J, want in rows.items():
                assert constructive_value(n, l, direction, J) == want, (n, l, direction, J)

    def test_divergence_for_deep_positive_orders_at_l0(self):
        fam = family(1, 0, "plus").grow_f(4)
        with pytest.raises(DivergentAtOrigin):
            sum_rule_constructive(fam, 4)

    def test_trk_and_channel_split(self):
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
            total = constructive_value(n, l, "total", 1)
            assert total == 1
            plus = constructive_value(n, l, "plus", 1)
            assert plus == F((l + 1) ** 2, 2 * l + 1)
            if l > 0:
                assert constructive_value(n, l, "minus", 1) == F(-l * l, 2 * l + 1)

    def test_s3_for_s_states(self):
        for m in (1, 2, 3):
            assert constructive_value(m, 0, "total", 3) == F(16, 3 * m**3)


class TestClosedForms:
    def test_examples(self):
        assert closed_form_coulomb(2, 0, 0) == 14
        assert closed_form_coulomb(2, 1, 3) == F(-2, 15)
        assert closed_form_coulomb(1, 0, 2) == F(4, 3)

    def test_order4_requires_l1(self):
        with pytest.raises(InvalidOrder):
            closed_form_coulomb(2, 0, 4)

    def test_matches_constructive_everywhere(self):
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2)]:
            for J in range(0, 5):
                if J == 4 and l == 0:
                    continue
                if J > 3 + l:
                    continue
                assert closed_form_coulomb(n, l, J) == constructive_value(n, l, "total", J), (n, l, J)

    def test_alternate_root_variant_fails_for_l_positive(self):
        for J, want in [(3, F(-2, 15)), (4, F(2, 5))]:
            printed = closed_form_coulomb(2, 1, J, corrected_root=False)
            assert abs(printed - float(want)) > 1e-2
        # and degenerates to the same thing at l = 0
        assert closed_form_coulomb(2, 0, 3, corrected_root=False) == pytest.approx(2 / 3)

    def test_power_law_oscillator(self, oscillator):
        v0 = power_law(2)
        assert closed_form_power_law(oscillator, v0, 2) == pytest.approx(2.0, abs=1e-7)
        want_s4 = 16.0 / 3.0 * grid_expectation(oscillator, lambda r: r**2)
        assert closed_form_power_law(oscillator, v0, 4) == pytest.approx(want_s4, rel=1e-12)

    @pytest.mark.parametrize("rho_min", [1e-4, 1e-6, 1e-8])
    def test_power_law_divergent_moment(self, rho_min):
        # <rho^(2 gamma - 2)> = <rho^-3> diverges for l = 0 however far in the
        # grid starts; the grid sum alone stays finite
        v0 = power_law(F(-1, 2))
        st = solve_bound(v0, 0, 0, rho_min=rho_min)
        with pytest.raises(DivergentExpectation):
            closed_form_power_law(st, v0, 4)
        assert math.isfinite(closed_form_power_law(st, v0, 3))   # <rho^-5/2> exists

    def test_power_law_moment_includes_origin_piece(self):
        # <rho^-5/2> for l = 0 converges like rho_min^(1/2) at the origin; the
        # analytic origin piece makes S_3 independent of where the grid starts
        v0 = power_law(F(-1, 2))
        coarse, fine = (closed_form_power_law(solve_bound(v0, 0, 0, rho_min=r), v0, 3)
                        for r in (1e-4, 1e-10))
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_power_law_moment_edge_by_l(self):
        # <rho^(gamma - 2)> = <rho^-7/2> exists for l = 1 (-7/2 > -5), not for l = 0
        v0 = power_law(F(-3, 2))
        with pytest.raises(DivergentExpectation):
            closed_form_power_law(solve_bound(v0, 0, 0), v0, 3)
        assert math.isfinite(closed_form_power_law(solve_bound(v0, 1, 0), v0, 3))

    def test_log_ratio(self):
        st = solve_bound(LOG, 0, 0)
        s3 = closed_form_power_law(st, LOG, 3)
        s4 = closed_form_power_law(st, LOG, 4)
        assert s4 == pytest.approx(4.0 * (1 - 0) * s3, rel=1e-12)
        st1 = solve_bound(LOG, 1, 0)
        assert closed_form_power_law(st1, LOG, 4) == pytest.approx(
            4.0 * (1 - 2 * 2) * closed_form_power_law(st1, LOG, 3), rel=1e-12)


class TestPolarizability:
    def test_value_from_chain(self):
        assert polarizability_1s() == F(9, 2)

    def test_order_minus_one(self):
        assert constructive_value(1, 0, "plus", -1) == F(9, 8)


class TestKramersGeneral:
    EXACT_STATES = [(1, 0), (2, 0), (2, 1), (3, 2)]
    DIVERGENT = {(1, 0): {FChoice.V0, FChoice.V0_PRIME, FChoice.RHO_V0_DOUBLE_PRIME},
                 (2, 0): {FChoice.V0, FChoice.V0_PRIME, FChoice.RHO_V0_DOUBLE_PRIME},
                 (2, 1): set(), (3, 2): set()}

    @pytest.mark.parametrize("nl", EXACT_STATES)
    @pytest.mark.parametrize("choice", list(FChoice))
    def test_exact_residuals(self, nl, choice):
        st = bound_state(*nl)
        if choice in self.DIVERGENT[nl]:
            with pytest.raises(DivergentExpectation):
                kramers_general(st, COULOMB, choice)
        else:
            assert kramers_general(st, COULOMB, choice) == 0

    def test_virial_choice_is_exact_zero(self):
        for n in range(1, 5):
            for l in range(n):
                assert kramers_general(bound_state(n, l), COULOMB, FChoice.RHO) == 0

    @pytest.mark.parametrize("nl, choices, tol", [
        ((1, 0), [FChoice.RHO, FChoice.RHO2, FChoice.RHO3, FChoice.R_SQUARED], 1e-12),
        ((2, 1), list(FChoice), 1e-8), ((3, 2), list(FChoice), 1e-8)])
    def test_hand_built_grid_residuals(self, nl, choices, tol):
        # exact states sampled on an 8192-point log grid from rho = 1e-8: the grid
        # derivatives of f = u^2 use the step the grid implies
        n, l = nl
        rho = np.exp(np.linspace(math.log(1e-8), math.log(_default_rho_max(COULOMB, l, n - l - 1)), 8192))
        st = GridFunction(grid=rho, values=bound_state(n, l).values(rho), l=l, energy=-0.5 / n**2)
        for choice in choices:
            assert abs(kramers_general(st, COULOMB, choice)) <= tol, choice

    @pytest.mark.parametrize("choice", list(FChoice))
    def test_oscillator_residuals(self, oscillator, choice):
        res = kramers_general(oscillator, power_law(2), choice)
        assert abs(res) < 1e-5

    def test_rho3_value(self):
        # <3 rho^2 (k^2 + 2 v0) + rho^3 v0'> = -(2l-1)(2l+3)/2 for (2,1)
        st = bound_state(2, 1)
        from dipolesum.hydrogen import expectation_rho_power as ex
        lhs = 3 * st.ksq * ex(st, 2) + 3 * 2 * (-1) * ex(st, 1) + ex(st, 1)
        assert lhs == F(-1, 2) * (2 * 1 - 1) * (2 * 1 + 3)

    def test_probability_density_choice_numeric(self, oscillator):
        assert abs(kramers_general(oscillator, power_law(2), FChoice.R_SQUARED)) < 1e-6

    @pytest.mark.parametrize("nl", EXACT_STATES)
    def test_grid_route_diverges_with_exact_route(self, nl):
        # one origin rule for both routes: the hand-built grid state raises, with
        # the same message, exactly where the exact state does
        n, l = nl
        rho = np.exp(np.linspace(math.log(1e-8), math.log(_default_rho_max(COULOMB, l, n - l - 1)), 8192))
        grid = GridFunction(grid=rho, values=bound_state(n, l).values(rho), l=l, energy=-0.5 / n**2)

        def divergence(st, choice):
            try:
                kramers_general(st, COULOMB, choice)
            except DivergentExpectation as exc:
                return str(exc)
            return None

        for choice in FChoice:
            want = divergence(bound_state(n, l), choice)
            assert (want is not None) == (choice in self.DIVERGENT[nl])
            assert divergence(grid, choice) == want, choice

    ORIGIN_SINGULAR = [FChoice.V0, FChoice.V0_PRIME, FChoice.RHO_V0_DOUBLE_PRIME]

    @pytest.mark.parametrize("v0, divergent_at_l0", [
        (LOG, ORIGIN_SINGULAR),
        (power_law(F(1, 2)), ORIGIN_SINGULAR[1:]),
        (power_law(F(-1, 2)), ORIGIN_SINGULAR)], ids=["log", "gamma=1/2", "gamma=-1/2"])
    @pytest.mark.parametrize("l", [0, 1])
    def test_solved_state_origin_rule(self, v0, divergent_at_l0, l):
        # f -> b rho^q needs q >= -2l, and f = ln rho needs l >= 1
        st = solve_bound(v0, l, 0)
        for choice in FChoice:
            if l == 0 and choice in divergent_at_l0:
                with pytest.raises(DivergentExpectation):
                    kramers_general(st, v0, choice)
            else:
                assert math.isfinite(kramers_general(st, v0, choice)), choice

    @pytest.mark.parametrize("v0, l, choice", [
        (power_law(F(1, 2)), 0, FChoice.V0), (power_law(F(-1, 2)), 1, FChoice.V0_PRIME)],
        ids=["gamma=1/2-l0-v0", "gamma=-1/2-l1-v0_prime"])
    def test_grid_residual_includes_origin_piece(self, v0, l, choice):
        # singular but integrable weights: without int_0^rho_min the residual is ~6e-5
        assert abs(kramers_general(solve_bound(v0, l, 0), v0, choice)) <= 1e-10


class TestKramersRecurrence:
    def test_example_values(self):
        st = bound_state(3, 2)
        from dipolesum.hydrogen import expectation_rho_power as ex
        assert ex(st, -3) == F(1, 405)
        assert ex(st, -4) == F(2, 3645)
        assert ex(st, -5) == F(2, 10935)
        assert 5 * ex(st, -4) == F(2, 9) * ex(st, -3) + 12 * ex(st, -5)
        assert kramers_recurrence(st, -3) == 0

    def test_within_range_exact_zero(self):
        assert kramers_recurrence(bound_state(2, 1), 1) == 0
        for n in range(1, 6):
            for l in range(n):
                for J in range(-2 * l, 4):
                    assert kramers_recurrence(bound_state(n, l), J) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfValidityRange):
            kramers_recurrence(bound_state(2, 1), -3)


class TestEquivalenceSuite:
    def test_excited_s(self):
        fam = family(2, 0, "plus").grow_f(4)
        rep = equivalence_suite(fam, 3)
        assert rep.passed
        assert rep.overlaps[(1, 2)] == 2
        assert rep.overlaps[(0, 3)] == -4

    def test_excited_p_fourth_order(self):
        famp = family(2, 1, "plus").grow_f(4)
        rep = equivalence_suite(famp, 4)
        assert rep.passed
        assert rep.overlaps[(2, 2)] == F(2, 3)
        assert rep.overlaps[(1, 3)] == F(2, 3)

    def test_l2_all_pairings_equal(self):
        for direction in ("plus", "minus"):
            fam = family(3, 2, direction).grow_f(4)
            rep = equivalence_suite(fam, 4)
            assert rep.passed
            vals = set(rep.overlaps.values())
            assert len(vals) == 1

    def test_invalid_order(self):
        fam = family(2, 1, "plus").grow_f(4)
        with pytest.raises(InvalidOrder):
            equivalence_suite(fam, 5)

    def test_divergent_pairings_recorded_as_none(self):
        # every 1s pairing of order 4 has a non-integrable origin term
        fam = family(1, 0, "plus").grow_f(4)
        rep = equivalence_suite(fam, 4)
        assert list(rep.overlaps.values()) == [None, None, None]

    def test_unrelated_error_propagates(self, monkeypatch):
        def broken(self, f, g):
            raise RuntimeError("not a divergence")
        fam = family(2, 0, "plus").grow_f(4)
        monkeypatch.setattr(type(fam), "pair_overlap", broken)
        with pytest.raises(RuntimeError, match="not a divergence"):
            equivalence_suite(fam, 3)


class TestMonotoneRatioLimit:
    def test_ratio_increases_toward_four_thirds(self):
        fam = family(1, 0, "plus").grow_g(14)
        ratios = [sum_rule_constructive(fam, -(j + 1)) / sum_rule_constructive(fam, -j)
                  for j in range(1, 14)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < F(4, 3) for r in ratios)
        deviations = [F(4, 3) - r for r in ratios]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


class TestRates:
    def test_lifetime(self):
        rates = einstein_rates(EinsteinInputs(system="hydrogen_2p"))
        assert rates.lifetime == pytest.approx(1.6e-9, rel=0.01)

    def test_oscillator_ratio_exact(self):
        rates = einstein_rates(EinsteinInputs(system="oscillator", omega=3.7e14))
        assert rates.classical_ratio == 1.0

    def test_rate_vanishes_without_coupling(self):
        rates = einstein_rates(EinsteinInputs(system="oscillator", omega=1e15,
                                              fine_structure=1e-30))
        assert rates.a_coefficient < 1e-20

    def test_density_from_force_rule(self, oscillator):
        # C_0^2 = 2 <v0'> from the force rule matches the fitted origin slope
        c0_force = 2.0 * grid_expectation(oscillator, lambda r: r)
        c0_fit = oscillator.c_origin() ** 2
        assert c0_force == pytest.approx(c0_fit, rel=1e-5)


class TestGridSums:
    def test_fifth_order_oscillator(self, oscillator):
        # independent expectation form: 16 [<sin^2> <(v0'/rho)^2 rho^2>/rho^2 ...]
        # for the oscillator ground: 16 (2/3 + 1/3) = 16
        v0 = power_law(2)
        got = sum_rule_grid(oscillator, v0, channel("plus", 0), 5)
        assert got == pytest.approx(16.0, rel=1e-6)

    def test_sixth_order_oscillator_matches_expectation_form(self, oscillator):
        # 64 <cos^2 [2(e - v0)(v0'')^2]> + 32 <sin^2 (v0'' - v0'/rho)^2/rho^2>
        # with v0'' = 1 and v0' = rho: the second part vanishes identically
        v0 = power_law(2)
        got = sum_rule_grid(oscillator, v0, channel("plus", 0), 6)
        want = 64.0 * (1.0 / 3.0) * 2.0 * (oscillator.energy
                                           - grid_expectation(oscillator, v0.v))
        assert got == pytest.approx(want, rel=1e-6)
