"""Test helpers for exact PolyExp functions."""

from fractions import Fraction

from dipolesum.exactalg import PolyExp


def normed_equal(f: PolyExp, nf, g: PolyExp, ng) -> bool:
    """Whether f*sqrt(nf) and g*sqrt(ng) are the same function: g = c f with
    rational c > 0 and nf == c^2 ng."""
    nf, ng = Fraction(nf), Fraction(ng)
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if f.rate != g.rate or len(f.terms) != len(g.terms):
        return False
    e0, c0 = f.terms[0]
    e1, c1 = g.terms[0]
    if e0 != e1:
        return False
    ratio = c1 / c0  # g = ratio * f
    if ratio < 0:
        return False
    if any(eg != ef or cg != ratio * cf for (ef, cf), (eg, cg) in zip(f.terms, g.terms)):
        return False
    return nf == ratio * ratio * ng
