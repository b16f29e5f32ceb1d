"""Exception types shared across the package.

Each error marks a violated contract; callers that can recover catch the
specific class, the CLI maps them to exit codes: a NumericalFailure (an
iteration, grid or quadrature that did not deliver) exits 1, any other
package error is a rejected input and exits 2.
"""


class DipoleSumError(Exception):
    """Base class for all package errors."""


class NumericalFailure(DipoleSumError):
    """A numerical method failed on valid input (not the caller's fault)."""


class RateMismatch(DipoleSumError):
    """Sum of two exponential-polynomial functions with different decay rates."""


class DivergentAtOrigin(DipoleSumError):
    """An integral whose integrand carries a non-integrable power at rho=0."""


class ResonanceUnprojected(DipoleSumError):
    """Inhomogeneous solve with a right-hand side not orthogonal to the
    normalizable homogeneous solution."""


class NoPolynomialSolution(DipoleSumError):
    """The polynomial ansatz closes on an inconsistent linear system."""


class NonPolynomialPotential(DipoleSumError):
    """Operation requires a potential that maps polynomials to polynomials."""


class ExponentFloorExceeded(DipoleSumError):
    """A constructed function is more singular than rho**-4 at the origin."""


class InvalidQuantumNumbers(DipoleSumError):
    """Quantum numbers outside 1 <= n, 0 <= l <= n-1, or a forbidden channel."""


class PotentialOverflow(DipoleSumError):
    """The potential exceeds the float range on the state's grid."""


class PotentialUnresolved(DipoleSumError):
    """The potential's levels are not resolved in float arithmetic on the state's grid."""


class NonPositiveQ(DipoleSumError):
    """Continuum wavenumber must be positive."""


class QuadratureNotConverged(NumericalFailure):
    """Iterated quadrature failed to reach the requested tolerance."""


class NoBoundState(NumericalFailure):
    """The potential has no bound state with the requested node count."""


class NotConverged(NumericalFailure):
    """Eigenvalue iteration exhausted without meeting tolerance."""


class SingularDerivative(DipoleSumError):
    """Grid ladder would require derivatives of a singular potential at rho=0."""


class InvalidTruncation(DipoleSumError):
    """A discrete sum truncated at or below the state's own level."""


class InvalidOrder(DipoleSumError):
    """Sum-rule order outside the range where the requested form exists."""


class OutOfValidityRange(DipoleSumError):
    """Recurrence evaluated outside its validity range."""


class DivergentExpectation(DipoleSumError):
    """Expectation value does not exist for this state."""


class DivergentSumRule(DipoleSumError):
    """The continuum part of the requested sum rule diverges."""
