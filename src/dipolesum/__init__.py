"""Energy-weighted dipole sum rules for radial Schroedinger problems.

Three independent routes to the same numbers: exact constructive ladder
overlaps, closed-form expectation values, and brute-force discrete sums plus
continuum quadrature.  See the README for the CLI and the verification
suites.
"""

from .exactalg import PolyExp, add, apply_h, differentiate, overlap, polyexp, solve_inhomogeneous
from .hydrogen import (
    BoundState,
    Channel,
    bound_bound_z2,
    bound_state,
    channel,
    continuum_z2_1s,
    expectation_rho_power,
)
from .ladder import LadderFamily, family
from .oracle import compare, continuum_integral_with_error, contour_check, discrete_sum
from .potentials import COULOMB, LOG, GridFunction, Potential, negative_sum_rules, power_law, solve_bound
from .sumrules import (
    FChoice,
    SumRuleValue,
    closed_form_coulomb,
    closed_form_power_law,
    einstein_rates,
    equivalence_suite,
    kramers_general,
    kramers_recurrence,
    polarizability_1s,
    sum_rule_constructive,
)

__version__ = "0.1.0"
