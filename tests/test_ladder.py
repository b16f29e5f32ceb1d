"""Constructive ladders: golden functions, chain exactness, boundary terms."""

from fractions import Fraction as F

import numpy as np
import pytest

from dipolesum import exactalg as xa
from dipolesum import ladder
from dipolesum.errors import DivergentAtOrigin, InvalidOrder, QuadratureNotConverged
from dipolesum.hydrogen import bound_state, channel
from dipolesum.ladder import family, ladder_rung, wronskian_at_origin
from dipolesum.potentials import COULOMB, GridFunction, _default_rho_max, negative_sum_rules
from dipolesum.sumrules import constructive_value, sum_rule_constructive
from polyexp_helpers import normed_equal


def normed(fam, poly_coeffs, rate, norm2):
    return xa.polyexp(poly_coeffs, rate), F(norm2)


class TestPositiveLadder:
    def test_ground_state_sequence(self):
        fam = family(1, 0, "plus").grow_f(3)
        assert fam.positive[0] == xa.polyexp({2: 2}, 1)
        assert fam.positive[1] == xa.polyexp({1: 4}, 1)
        assert fam.positive[2] == xa.polyexp({-1: 8}, 1)

    def test_excited_s_second_rung(self):
        fam = family(2, 0, "plus").grow_f(2)
        # sqrt(2) (1 - 2/rho) exp(-rho/2), carried as (4 - 8/rho)/sqrt(8)
        assert normed_equal(fam.positive[2], fam.norm2,
                            xa.polyexp({0: 4, -1: -8}, F(1, 2)), F(1, 8))

    def test_degenerate_minus_seed_projected(self):
        fam = family(2, 1, "minus").grow_f(2)
        assert normed_equal(fam.positive[0], fam.norm2,
                            xa.polyexp({3: 1, 2: -9, 1: 18}, F(1, 2)), F(1, 24))
        assert fam.seed_raw == xa.polyexp({3: 1}, F(1, 2))

    def test_orthogonality_of_rungs(self):
        # holds for the regular rungs; at j = 3 the rho^-2 singularity makes
        # the self-adjointness boundary term W(hom, F_2)|_0 nonzero
        for n, l, direction in [(2, 0, "plus"), (2, 1, "minus")]:
            fam = family(n, l, direction).grow_f(3)
            for j in (1, 2):
                assert xa.overlap(fam.homogeneous, fam.positive[j]) == 0


class TestNegativeLadder:
    def test_ground_state_second_inverse(self):
        fam = family(1, 0, "plus").grow_g(2)
        want = xa.scale(xa.mul(xa.polyexp({2: 2}, F(1, 2)),
                               xa.polyexp({0: 22, 1: 11, 2: 2}, F(1, 2))), F(1, 48))
        assert fam.negative[2] == want

    def test_excited_p_plus_first_inverse(self):
        fam = family(2, 1, "plus").grow_g(1)
        assert normed_equal(fam.negative[1], fam.norm2,
                            xa.polyexp({4: F(1, 2), 3: 3}, F(1, 2)), F(1, 24))

    def test_excited_p_minus_second_inverse(self):
        fam = family(2, 1, "minus").grow_g(2)
        want = xa.scale(xa.polyexp({5: 1, 4: 1, 3: -6, 2: -456, 1: 912}, F(1, 2)), F(1, 6))
        assert normed_equal(fam.negative[2], fam.norm2, want, F(1, 24))

    def test_excited_p_plus_second_inverse(self):
        fam = family(2, 1, "plus").grow_g(2)
        want = xa.scale(xa.polyexp({5: 1, 4: 16, 3: 96}, F(1, 2)), F(1, 6))
        assert normed_equal(fam.negative[2], fam.norm2, want, F(1, 24))

    @pytest.mark.parametrize("n,l,direction", [(1, 0, "plus"), (2, 0, "plus"),
                                               (2, 1, "plus"), (2, 1, "minus")])
    def test_chain_exactness_and_orthogonality(self, n, l, direction):
        state = bound_state(n, l)
        chan = channel(direction, l)
        fam = family(n, l, direction).grow_g(4)
        for j in range(4):
            image = xa.apply_h(fam.negative[j + 1], chan.target_l, state.ksq)
            rhs = fam.negative[j]
            if fam.homogeneous is not None:
                coeff = xa.overlap(fam.homogeneous, rhs) * fam.hom_norm2
                rhs = xa.sub(rhs, xa.scale(fam.homogeneous, coeff))
            assert xa.sub(image, rhs).is_zero()
            if fam.homogeneous is not None:
                assert xa.overlap(fam.homogeneous, fam.negative[j + 1]) == 0


class TestWronskian:
    def test_ground_02_pairing(self):
        fam = family(1, 0, "plus").grow_f(2)
        assert wronskian_at_origin(fam, 0, 2) == -48

    def test_ground_12_pairing_infinite(self):
        fam = family(1, 0, "plus").grow_f(2)
        assert wronskian_at_origin(fam, 1, 2) is None

    def test_excited_p_minus_12_pairing(self):
        fam = family(2, 1, "minus").grow_f(2)
        assert wronskian_at_origin(fam, 1, 2) == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_minus_12_general_m(self, m):
        fam = family(m, 1, "minus").grow_f(2)
        assert wronskian_at_origin(fam, 1, 2) == F(32 * (m * m - 1), 3 * m**5)

    def test_l0_scaling(self):
        for m in (2, 3):
            fam = family(m, 0, "plus").grow_f(2)
            assert wronskian_at_origin(fam, 0, 2) == F(-48, m**3)


class TestPairingEquivalence:
    def test_all_splits_constant_up_to_boundary(self):
        # <F_j|F_(k+1)> - <F_(j+1)|F_k> equals the origin Wronskian exactly
        for n, l, direction in [(1, 0, "plus"), (2, 0, "plus"),
                                (2, 1, "plus"), (2, 1, "minus")]:
            fam = family(n, l, direction).grow_f(4)
            top = 3 if l == 0 else 4
            for total in range(1, top + 1):
                for j in range(total):
                    k = total - 1 - j
                    wr = wronskian_at_origin(fam, j, k)
                    try:
                        left = fam.pair_overlap(ladder_rung(fam, j), ladder_rung(fam, k + 1))
                        right = fam.pair_overlap(ladder_rung(fam, j + 1), ladder_rung(fam, k))
                    except DivergentAtOrigin:
                        assert wr is None or total > top - 1
                        continue
                    assert wr is not None
                    assert left - right == wr


class TestSharedFamily:
    def test_one_object_per_state_and_channel(self):
        fam = family(3, 1, "minus")
        assert family(3, 1, "minus") is fam
        assert fam.grow_f(2) is fam and fam.grow_g(2) is fam
        constructive_value(3, 1, "minus", -13)      # grows fam to G_7
        g7 = fam.negative[7]
        assert fam.grow_g(7).negative[7] is g7
        f2 = fam.positive[2]
        constructive_value(3, 1, "minus", 4)        # pairs F_2 with itself
        assert fam.positive[2] is f2

    def test_growth_order_does_not_change_values(self):
        for n in range(1, 5):
            for l in range(n):
                for direction in ("plus", "minus")[: 1 + (l > 0)]:
                    orders = range(-8, 4 + l)
                    deep = {J: constructive_value(n, l, direction, J) for J in reversed(orders)}
                    fresh = ladder.family.__wrapped__(n, l, direction)
                    shallow = {J: sum_rule_constructive(fresh, J) for J in orders}
                    assert deep == shallow, (n, l, direction)

    @pytest.mark.parametrize("J", [9, 10])
    def test_fifth_positive_rung_is_an_invalid_order(self, J):
        with pytest.raises(InvalidOrder):
            sum_rule_constructive(ladder.family(2, 1, "plus"), J)


def _exact_on_log_grid(n, l, rho_max):
    """The exact Coulomb state on an 8192-point log grid from rho = 1e-8."""
    rho = np.exp(np.linspace(np.log(1e-8), np.log(rho_max), 8192))
    return GridFunction(grid=rho, values=bound_state(n, l).values(rho), l=l,
                        energy=-0.5 / n**2)


class TestKernelRoute:
    """Dalgarno-Lewis negative orders on a log grid against the exact inverse ladder."""

    @pytest.mark.parametrize("j,want", [(1, F(9, 8)), (2, F(43, 32)),
                                        (3, F(319, 192)), (4, F(9673, 4608))])
    def test_negative_orders(self, j, want):
        # the exact 1s state on the shooter's default grid
        ground = _exact_on_log_grid(1, 0, _default_rho_max(COULOMB, 0, 0))
        got = negative_sum_rules(ground, COULOMB, [channel("plus", 0)], [-j])[-j]
        assert got == pytest.approx(float(want), abs=1e-8)

    @pytest.mark.parametrize("n, l", [(2, 1), (3, 2)])
    def test_nondegenerate_channels(self, n, l):
        # l' = n, so no level of the plus channel lies at E
        orders = [-1, -2, -3, -4]
        got = negative_sum_rules(_exact_on_log_grid(n, l, 60.0 * n * n), COULOMB,
                                 [channel("plus", l)], orders)
        for J in orders:
            assert got[J] == pytest.approx(float(constructive_value(n, l, "plus", J)),
                                           rel=1e-9), J

    def test_half_grid_guard(self):
        # one grid point moved by 1 % breaks the uniform log step that Numerov's
        # rows assume; the every-other-point grid does not hold that point
        rho = np.exp(np.linspace(np.log(1e-8), np.log(37.0), 8192))
        rho[7001] *= 1.01
        state = GridFunction(grid=rho, values=bound_state(1, 0).values(rho), l=0, energy=-0.5)
        with pytest.raises(QuadratureNotConverged, match="half grid"):
            negative_sum_rules(state, COULOMB, [channel("plus", 0)], [-1])

    def test_rejects_nonnegative_orders(self):
        with pytest.raises(ValueError):
            negative_sum_rules(_exact_on_log_grid(1, 0, 37.0), COULOMB, [channel("plus", 0)],
                               [-1, 0])
