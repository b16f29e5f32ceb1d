"""Exact arithmetic over functions p(rho) exp(-a rho) with Laurent polynomial p.

Every coefficient and rate is a Fraction, so equality of functions is literal
equality of the representation.  The carrier type PolyExp covers hydrogenic
bound states, their dipole ladder functions, and the inhomogeneous solutions
needed for negative-order sums; the Hamiltonian is the Coulomb one, whose
-1/rho keeps every image of p(rho) exp(-a rho) in the same form.

Irrational overall normalizations (1/sqrt(8), 1/sqrt(24), ...) are never
stored in coefficients; callers carry a separate squared factor norm2 and the
bilinear overlap picks up norm2_f * norm2_g, which is rational in every
pairing that occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (DivergentAtOrigin, ExponentFloorExceeded, NoPolynomialSolution, RateMismatch,
                     ResonanceUnprojected)

#: most singular admissible stored function: rho**-2 functions occur in the
#: third ladder rung, their pairwise products reach rho**-4.
MIN_EXPONENT = -4


@dataclass(frozen=True)
class PolyExp:
    """p(rho) * exp(-rate * rho) with sparse exact Laurent coefficients."""

    terms: tuple[tuple[int, Fraction], ...]
    rate: Fraction

    def coeff(self, exponent: int) -> Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
        return Fraction(0)

    def min_exponent(self) -> int | None:
        return self.terms[0][0] if self.terms else None

    def max_exponent(self) -> int | None:
        return self.terms[-1][0] if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return f"0 * exp(-{self.rate} rho)"
        parts = [f"({c}) rho^{e}" for e, c in self.terms]
        return " + ".join(parts) + f" exp(-{self.rate} rho)"


def polyexp(coeffs: Mapping[int, object] | Iterable[tuple[int, object]], rate) -> PolyExp:
    """Build a PolyExp from {exponent: coefficient}; prunes exact zeros."""
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("decay rate must be positive")
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    acc: dict[int, Fraction] = {}
    for e, c in items:
        c = Fraction(c)
        if c != 0:
            acc[int(e)] = acc.get(int(e), Fraction(0)) + c
    return _stored(acc, rate)


def _stored(acc: Mapping[int, Fraction], rate: Fraction) -> PolyExp:
    """Sorted, zero-pruned terms of a stored function, held to the exponent floor."""
    terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
    if terms and terms[0][0] < MIN_EXPONENT:
        raise ExponentFloorExceeded(
            f"minimum exponent {terms[0][0]} below floor {MIN_EXPONENT}"
        )
    return PolyExp(terms=terms, rate=rate)


def add(f: PolyExp, g: PolyExp) -> PolyExp:
    """Coefficient-wise sum; both operands must share the decay rate."""
    if f.rate != g.rate:
        raise RateMismatch(f"rates {f.rate} and {g.rate} differ")
    acc = dict(f.terms)
    for e, c in g.terms:
        acc[e] = acc.get(e, Fraction(0)) + c
    return polyexp(acc, f.rate)


def scale(f: PolyExp, c) -> PolyExp:
    c = Fraction(c)
    if c == 0:
        return PolyExp(terms=(), rate=f.rate)
    return PolyExp(terms=tuple((e, k * c) for e, k in f.terms), rate=f.rate)


def sub(f: PolyExp, g: PolyExp) -> PolyExp:
    return add(f, scale(g, -1))


def shift(f: PolyExp, k: int) -> PolyExp:
    """Multiply by rho**k.  Plumbing for overlaps and expectation weights, so
    the stored-function exponent floor is not enforced here."""
    return PolyExp(terms=tuple((e + k, c) for e, c in f.terms), rate=f.rate)


def mul(f: PolyExp, g: PolyExp) -> PolyExp:
    """Product; rates add.  Used for overlaps and Wronskians, so the exponent
    floor is not enforced on the result."""
    acc: dict[int, Fraction] = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
    return PolyExp(terms=terms, rate=f.rate + g.rate)


def differentiate(f: PolyExp) -> PolyExp:
    """Exact d/drho: (p' - a p) exp(-a rho)."""
    acc: dict[int, Fraction] = {}
    for e, c in f.terms:
        if e != 0:
            acc[e - 1] = acc.get(e - 1, Fraction(0)) + e * c
        acc[e] = acc.get(e, Fraction(0)) - f.rate * c
    terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
    return PolyExp(terms=terms, rate=f.rate)


def origin_limit(f: PolyExp) -> Fraction | None:
    """lim rho->0 of f; None when negative powers survive (infinite limit)."""
    me = f.min_exponent()
    if me is None:
        return Fraction(0)
    if me < 0:
        return None
    return f.coeff(0)


def _cleared(f: PolyExp) -> tuple[list[tuple[int, int]], int]:
    """f's coefficients as integers over their least common denominator."""
    den = math.lcm(*(c.denominator for _, c in f.terms))
    return [(e, c.numerator * (den // c.denominator)) for e, c in f.terms], den


def _integral(terms: list[tuple[int, int]], den: int, rate: Fraction) -> Fraction:
    """int_0^inf sum_e n_e rho^e exp(-rate rho) drho / den for integer n_e.

    With rate = p/q and top exponent E this is
    sum_e n_e e! q^(e+1) p^(E-e) / (den p^(E+1)): one Fraction at the end.
    """
    for e, _ in terms:
        if e < 0:
            raise DivergentAtOrigin(f"term rho^{e} is not integrable at the origin")
    p, q = rate.numerator, rate.denominator
    top = max((e for e, _ in terms), default=0)
    num = sum(n * math.factorial(e) * q ** (e + 1) * p ** (top - e) for e, n in terms)
    return Fraction(num, den * p ** (top + 1))


def integrate(f: PolyExp) -> Fraction:
    """Exact int_0^inf f drho via int rho^n exp(-a rho) = n!/a^(n+1)."""
    return _integral(*_cleared(f), f.rate)


def overlap(f: PolyExp, g: PolyExp) -> Fraction:
    """Exact int_0^inf f g drho.  Rates need not match (they add).

    The cleared integer coefficients are convolved; exact cancellations are
    pruned before the origin check, as in integrate(mul(f, g)).
    """
    (nf, df), (ng, dg) = _cleared(f), _cleared(g)
    acc: dict[int, int] = {}
    for e1, c1 in nf:
        for e2, c2 in ng:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    terms = sorted((e, c) for e, c in acc.items() if c)
    return _integral(terms, df * dg, f.rate + g.rate)


def apply_h(f: PolyExp, l: int, ksq) -> PolyExp:
    """Image under the shifted Coulomb radial Hamiltonian

        (-d^2/drho^2 + l(l+1)/rho^2 - 2/rho + ksq) f

    exactly; one rung of the positive ladder.  Term by term rho^e maps to
    (l(l+1) - e(e-1)) rho^(e-2) + (2 a e - 2) rho^(e-1) + (ksq - a^2) rho^e;
    summed on f's cleared integers.
    """
    a = f.rate
    gap = Fraction(ksq) - a * a
    terms, den = _cleared(f)
    m = a.denominator * gap.denominator   # makes 2a and gap integers
    two_a, gap_m = int(2 * a * m), int(gap * m)
    acc: dict[int, int] = {}
    for e, n in terms:
        for r, x in ((e - 2, (l * (l + 1) - e * (e - 1)) * m), (e - 1, two_a * e - 2 * m), (e, gap_m)):
            acc[r] = acc.get(r, 0) + n * x
    return _stored({r: Fraction(x, den * m) for r, x in acc.items()}, a)


def solve_inhomogeneous(rhs: PolyExp, l: int, ksq, homogeneous: PolyExp | None = None) -> PolyExp:
    """Unique G with (h_l + ksq) G = rhs, regular at the origin and decaying,
    for the Coulomb h_l of apply_h.

    Undetermined coefficients over rho^(l+1..deg+2) exp(-a rho).  As ksq = a^2
    the image of rho^e (see apply_h) has no rho^e term, so column e leads at
    row e - 1 with 2ae - 2: the system is triangular and is back-substituted
    from the top exponent down.  Rows no column leads must come out zero.  The
    column e = 1/a, whose leading coefficient vanishes, is the direction of a
    normalizable homogeneous solution; the caller supplies that solution, the
    right-hand side must already be orthogonal to it, and the returned G is
    fixed by <homogeneous|G> = 0.
    """
    ksq = Fraction(ksq)
    a = rhs.rate
    if a * a != ksq:
        raise NoPolynomialSolution(f"rhs rate {a} is not the bound rate for ksq={ksq}")
    if homogeneous is not None and overlap(homogeneous, rhs) != 0:
        raise ResonanceUnprojected("rhs has a component along the homogeneous solution")
    if rhs.is_zero():
        return PolyExp(terms=(), rate=a)

    res, coeffs, free = dict(rhs.terms), {}, None
    for e in range(max(rhs.max_exponent() + 2, l + 1), l, -1):
        img = {e - 2: l * (l + 1) - e * (e - 1), e - 1: 2 * a * e - 2}
        if img[e - 1] == 0:
            free = e
            continue
        c = res.get(e - 1, 0) / img[e - 1]
        if c:
            coeffs[e] = c
            for r, x in img.items():
                res[r] = res.get(r, 0) - c * x
    if any(res.values()):
        raise NoPolynomialSolution("inconsistent linear system for the ansatz")
    sol = polyexp(coeffs, a)
    if free is not None:
        if homogeneous is None:
            raise NoPolynomialSolution(f"solution not unique (free direction rho^{free}); "
                                       "a normalizable homogeneous solution must be supplied")
        # the free direction is the homogeneous solution itself
        along = overlap(homogeneous, sol) / overlap(homogeneous, homogeneous)
        sol = sub(sol, scale(homogeneous, along))
    if not sub(apply_h(sol, l, ksq), rhs).is_zero():
        raise NoPolynomialSolution("verification failed: (h + ksq) G != rhs")
    return sol
