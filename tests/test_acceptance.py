"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Reference splits are truncations of the discrete sums at n_max = 2000 printed
to at most six significant digits, so each cell tolerance is the stated one
floored by the print resolution of the reference value (e.g. 187.959 has
resolution 1e-3).  Totals are always compared against the exact constructive
values at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time
from fractions import Fraction as F

import pytest

from dipolesum.errors import DivergentSumRule
from dipolesum.hydrogen import bound_state, channel
from dipolesum.ladder import build_f_ladder, build_g_ladder, wronskian_at_origin
from dipolesum.oracle import (
    QuadratureSpec,
    compare,
    continuum_integral,
    contour_check,
    discrete_sum,
    max_convergent_order,
)
from dipolesum.potentials import COULOMB, LOG, power_law, solve_bound
from dipolesum.sumrules import (
    EinsteinInputs,
    FChoice,
    closed_form_coulomb,
    constructive_value,
    einstein_rates,
    equivalence_suite,
    kramers_general,
    kramers_recurrence,
    polarizability_1s,
    sum_rule_constructive,
)

SPEC = QuadratureSpec(n_max=2000)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))


def _print_resolution(x: float) -> float:
    text = f"{x!r}"
    return 10.0 ** -len(text.split(".")[1]) if "." in text else 1.0


def _check_split(state, chan, J, ref_d, ref_c, split_tol):
    d = discrete_sum(state, chan, J, SPEC)
    c = continuum_integral(state, chan, J, SPEC)
    tol_d = max(split_tol, _print_resolution(ref_d))
    tol_c = max(split_tol, _print_resolution(ref_c))
    assert abs(d - ref_d) <= tol_d, f"J={J} discrete {d} vs {ref_d}"
    assert abs(c - ref_c) <= tol_c, f"J={J} continuum {c} vs {ref_c}"
    return d, c


def test_criterion_1_ground_positive_orders():
    """Ground-state S_0..S_3 splits within 2e-4 per cell, under 60 s."""
    table = {0: (0.716587, 0.283412, F(1)), 1: (0.565003, 0.434996, F(1)),
             2: (0.449355, 0.883977, F(4, 3)), 3: (0.360841, 4.972492, F(16, 3))}
    state, chan = bound_state(1, 0), channel("plus", 0)
    start = time.perf_counter()
    for J, (ref_d, ref_c, exact) in table.items():
        d, c = _check_split(state, chan, J, ref_d, ref_c, 2e-4)
        assert abs(d + c - float(exact)) <= 2e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("1 (ground positive orders)", True, f"{elapsed:.1f}s")


def test_criterion_2_ground_negative_orders():
    """Exact inverse-order totals and their numeric splits."""
    exact = {-1: F(9, 8), -2: F(43, 32), -3: F(319, 192), -4: F(9673, 4608)}
    splits = {-1: (0.915814, 0.209185), -2: (1.178262, 0.165487),
              -3: (1.524670, 0.136787), -4: (1.982648, 0.116526)}
    fam = build_g_ladder(bound_state(1, 0), channel("plus", 0), 4)
    for J, want in exact.items():
        assert sum_rule_constructive(fam, J) == want
    state, chan = bound_state(1, 0), channel("plus", 0)
    for J, (ref_d, ref_c) in splits.items():
        _check_split(state, chan, J, ref_d, ref_c, 2e-4)
    _report("2 (ground negative orders)", True, "totals exact, splits within 2e-4")


def test_criterion_3_excited_s_table():
    """First excited S state: exact totals, splits, divergence at J >= 4."""
    exact = {0: F(14), 1: F(1), 2: F(1, 3), 3: F(2, 3), -1: F(30), -2: F(195)}
    splits = {0: (13.176806, 0.823193), 1: (0.648907, 0.351092),
              2: (0.104632, 0.228701), 3: (0.017622, 0.649044),
              -1: (27.70006, 2.29993), -2: (187.959, 7.04049)}
    for J, want in exact.items():
        assert constructive_value(2, 0, "plus", J) == want
    state, chan = bound_state(2, 0), channel("plus", 0)
    for J, (ref_d, ref_c) in splits.items():
        d, c = _check_split(state, chan, J, ref_d, ref_c, 2e-4)
        assert abs(d + c - float(exact[J])) <= 2e-4
    with pytest.raises(DivergentSumRule):
        continuum_integral(state, chan, 4, SPEC)
    _report("3 (excited S table)", True, "totals exact incl. 14 and 195")


def test_criterion_4_excited_p_tables():
    """Both excited-P channels: exact totals, splits within 2e-3."""
    cases = {
        "minus": ({0: F(10), 1: F(-1, 3), 2: F(1, 3), 3: F(-2, 9), 4: F(2, 9),
                   -1: F(2), -2: F(19)},
                  {0: (9.93978, 0.06021), 1: (-0.35677, 0.02344),
                   2: (0.32166, 0.01167), 3: (-0.23252, 0.01030),
                   4: (0.17586, 0.04636), -1: (1.82473, 0.17526),
                   -2: (18.4514, 0.5485)}),
        "plus": ({0: F(8), 1: F(4, 3), 2: F(4, 15), 3: F(4, 45), 4: F(8, 45),
                  -1: F(52), -2: F(352)},
                 {0: (7.38669, 0.61330), 1: (1.11382, 0.21951),
                  2: (0.17304, 0.09362), 3: (0.02790, 0.06098),
                  4: (0.00470, 0.17307), -1: (50.1225, 1.87746),
                  -2: (345.927, 6.07274)}),
    }
    state = bound_state(2, 1)
    for direction, (exact, splits) in cases.items():
        chan = channel(direction, 1)
        for J, want in exact.items():
            assert constructive_value(2, 1, direction, J) == want
        for J, (ref_d, ref_c) in splits.items():
            d, c = _check_split(state, chan, J, ref_d, ref_c, 2e-3)
            assert abs(d + c - float(exact[J])) <= 2e-4, f"{direction} J={J}"
    _report("4 (excited P tables)", True, "minus and plus, totals within 2e-4")


def test_criterion_5_polarizability():
    """alpha_0 = 9/2 exactly from the order -1 chain; continuum share."""
    assert polarizability_1s() == F(9, 2)
    cont = continuum_integral(bound_state(1, 0), channel("plus", 0), -1, SPEC)
    assert abs(cont - 0.209185) <= 2e-4
    share = cont / float(F(9, 8))
    _report("5 (polarizability)", True, f"alpha0 = 9/2, continuum share {share:.1%}")


def test_criterion_6_radiative_rates():
    """Excited-P lifetime within 1%; oscillator quantum/classical ratio 1."""
    rates = einstein_rates(EinsteinInputs(system="hydrogen_2p"))
    assert abs(rates.lifetime - 1.60e-9) <= 0.01 * 1.60e-9
    osc = einstein_rates(EinsteinInputs(system="oscillator", omega=1.0e15))
    assert osc.classical_ratio == 1.0
    _report("6 (radiative rates)", True, f"lifetime {rates.lifetime * 1e9:.3f} ns")


def test_criterion_7_identity_suites():
    """Virial, the seven moment-identity choices, recurrence, boundary terms."""
    # virial: exact zero on exact states, < 1e-6 on numeric states
    for n in range(1, 6):
        for l in range(n):
            assert kramers_general(bound_state(n, l), COULOMB, FChoice.RHO) == 0
    for v0, st in [(power_law(2), solve_bound(power_law(2), 0, 0)),
                   (LOG, solve_bound(LOG, 0, 0))]:
        assert abs(kramers_general(st, v0, FChoice.RHO)) < 1e-6

    # all seven choices on the exact states (divergent combinations must raise)
    divergent = {(1, 0): {FChoice.V0, FChoice.V0_PRIME, FChoice.RHO_V0_DOUBLE_PRIME},
                 (2, 0): {FChoice.V0, FChoice.V0_PRIME, FChoice.RHO_V0_DOUBLE_PRIME}}
    for nl in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        for choice in FChoice:
            if choice in divergent.get(nl, set()):
                with pytest.raises(Exception):
                    kramers_general(bound_state(*nl), COULOMB, choice)
            else:
                assert kramers_general(bound_state(*nl), COULOMB, choice) == 0
    osc = solve_bound(power_law(2), 0, 0)
    for choice in FChoice:
        assert abs(kramers_general(osc, power_law(2), choice)) < 1e-5

    # recurrence residual zero across the validity range
    for n in range(1, 6):
        for l in range(n):
            for J in range(-2 * l, 4):
                assert kramers_recurrence(bound_state(n, l), J) == 0

    # boundary-term values
    fam1 = build_f_ladder(bound_state(1, 0), channel("plus", 0), 3)
    assert wronskian_at_origin(fam1, 0, 2).value == -48
    for m in (2, 3):
        fam = build_f_ladder(bound_state(m, 0), channel("plus", 0), 3)
        assert wronskian_at_origin(fam, 0, 2).value == F(-48, m**3)
    famm = build_f_ladder(bound_state(2, 1), channel("minus", 1), 4)
    assert wronskian_at_origin(famm, 1, 2).value == 1
    for m in (2, 3):
        f = build_f_ladder(bound_state(m, 1), channel("minus", 1), 2)
        assert wronskian_at_origin(f, 1, 2).value == F(32 * (m * m - 1), 3 * m**5)
    fam2 = build_f_ladder(bound_state(2, 0), channel("plus", 0), 3)
    rep = equivalence_suite(fam2, 3)
    vals = {(e.j, e.k): e.overlap for e in rep.entries}
    assert vals[(1, 2)] == 2 and vals[(0, 3)] == -4 and rep.passed
    _report("7 (identity suites)", True, "all exact residuals zero")


def test_criterion_8_oracle_closure():
    """Brute-force totals close on exact values over the whole matrix."""
    checked = 0
    for n, l in [(1, 0), (2, 0), (2, 1)]:
        state = bound_state(n, l)
        for direction in (("plus",) if l == 0 else ("plus", "minus")):
            chan = channel(direction, l)
            for J in range(-4, max_convergent_order(state) + 1):
                row = compare(state, chan, J, SPEC)
                assert row.constructive is not None
                gap = abs(row.total - float(row.constructive))
                assert gap <= max(2e-4, row.estimated_error), (n, l, direction, J, gap)
                checked += 1
    _report("8 (oracle closure)", True, f"{checked} (state, channel, J) rows")


RATIO_DEFECT_NOTE = (
    "the successive-ratio deviation from 4/3 is 7.3e-3 at the stated order "
    "(it decays like (27/32)^J from the second discrete level and first "
    "crosses 1e-3 near J = 22), so the stated 1e-3 bound at J = 12 cannot "
    "hold; see the monotone-limit test for the true convergence behaviour"
)


@pytest.mark.xfail(strict=True, reason=RATIO_DEFECT_NOTE)
def test_criterion_8_ratio_limit_as_stated():
    """Stated bound: |S_-13 / S_-12 - 4/3| <= 1e-3 (unattainable, documented)."""
    fam = build_g_ladder(bound_state(1, 0), channel("plus", 0), 13)
    ratio = sum_rule_constructive(fam, -13) / sum_rule_constructive(fam, -12)
    dev = abs(float(ratio) - 4.0 / 3.0)
    _report("8b (ratio limit as stated)", dev <= 1e-3,
            f"deviation {dev:.2e}; expected failure, see ledger")
    assert dev <= 1e-3


def test_criterion_9_contour_unification():
    """Residues equal discrete terms; line integral equals the continuum."""
    for J in range(0, 4):
        rep = contour_check(J)
        for n, circle, term in rep.residue_rows:
            assert abs(circle - term) <= 1e-6, (J, n)
        assert abs(rep.line_integral - rep.continuum_reference) <= 1e-6
    _report("9 (contour unification)", True, "J = 0..3, n = 2..10")


def test_criterion_10_root_factor_correction():
    """Corrected closed forms match the constructive values exactly; the
    alternate-root variant is a failing negative control."""
    for J, want in [(3, F(-2, 15)), (4, F(2, 5))]:
        cons = constructive_value(2, 1, "total", J)
        assert cons == want
        assert closed_form_coulomb(2, 1, J) == want
        variant = closed_form_coulomb(2, 1, J, corrected_root=False)
        assert abs(variant - float(want)) > 1e-2, "negative control must fail"
    _report("10 (root-factor correction)", True,
            "corrected forms exact; variant rejected")
